"""The `fpc` subcommands, one module per command, and the flag helpers they
share.

`fpc.cli` parses the command line and imports only the chosen command's
module, `fpc.commands.<command>`, whose `cmd_<command>(args)` returns the
exit code. No module here imports `fpc.cli`: under `python -m fpc.cli` that
would run `cli.py` a second time as a separate module. A refusal is a
ValueError, which `main` reports as `error: ...` with exit code 1.
"""

from __future__ import annotations

import os
from typing import Optional


def env_budget() -> int:
    from ..core import DEFAULT_BUDGET

    raw = os.environ.get("FPC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FPC_BUDGET must be an integer, got {raw!r}") from None


def resolve_seed(seed: Optional[int]) -> tuple[int, bool]:
    if seed is not None:
        return seed, False
    return int.from_bytes(os.urandom(4), "big"), True


def print_kv(pairs):
    for k, v in pairs:
        print(f"{k} = {v}")


def config(args, **given):
    """The config the flags name; `given` fields override or fill in theirs."""
    from ..construct import ConstructionConfig

    flags = set(ConstructionConfig.__slots__) - given.keys()
    return ConstructionConfig(**{name: getattr(args, name) for name in flags}, **given)


def check_out_dir(path: str) -> None:
    """Refuse, before any work, an output path that is empty, a directory,
    or in a missing directory."""
    if not path:
        raise ValueError("--out is empty")
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out directory {parent!r} does not exist")
