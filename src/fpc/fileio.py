"""On-disk formats: the code file and the sweep CSV row.

Both formats are plain text, byte-stable for identical inputs, and strict to
parse: anything off-spec is an error, never a silent fix-up.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence, Union

from .core import Code

CODEFILE_MAGIC = "fpc 1"

SWEEP_COLUMNS = (
    "c",
    "l",
    "q",
    "eta",
    "seed",
    "mode",
    "packing",
    "matching",
    "packing_size",
    "accepted",
    "code_size",
    "rate",
    "rate_limit",
    "blackburn",
    "improved",
    "verified",
    "elapsed_ms",
)


class CodeFileError(ValueError):
    pass


def format_code_file(code: Code, comments: Sequence[str] = ()) -> str:
    """Render a code: magic, 'q l', comment lines, then sorted codewords."""
    lines = [CODEFILE_MAGIC, f"{code.q} {code.l}"]
    for comment in comments:
        if "\n" in comment:
            raise CodeFileError("comments must be single lines")
        lines.append(f"# {comment}" if comment else "#")
    lines.extend(" ".join(map(str, w)) for w in code.words)
    return "\n".join(lines) + "\n"


def write_code_file(path: Union[str, os.PathLike], code: Code, comments: Sequence[str] = ()):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_code_file(code, comments))


def parse_code_file(text: str) -> Code:
    """Lines end at line feeds only and tokens are separated by single
    spaces, as `format_code_file` writes them, so a tab, a form feed or a
    doubled, leading or trailing space is an error."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CODEFILE_MAGIC:
        raise CodeFileError(f"missing magic line {CODEFILE_MAGIC!r}")
    if len(lines) < 2:
        raise CodeFileError("missing 'q l' header line")
    header = lines[1].split(" ")
    if len(header) != 2:
        raise CodeFileError(f"header line must be 'q l', got {lines[1]!r}")
    try:
        q, l = _decimal(header[0]), _decimal(header[1])
    except ValueError:
        raise CodeFileError(f"header line must be two integers, got {lines[1]!r}") from None
    if q < 1 or l < 1:
        raise CodeFileError(f"header line needs q >= 1 and l >= 1, got {lines[1]!r}")
    words = []
    for lineno, line in enumerate(lines[2:], start=3):
        if line.startswith("#"):
            continue
        if not line.strip():
            raise CodeFileError(f"line {lineno}: blank lines are not allowed")
        parts = line.split(" ")
        if len(parts) != l:
            raise CodeFileError(f"line {lineno}: expected {l} symbols, got {len(parts)}")
        try:
            word = tuple(_decimal(p) for p in parts)
        except ValueError:
            raise CodeFileError(f"line {lineno}: non-integer symbol") from None
        for s in word:
            if not (1 <= s <= q):
                raise CodeFileError(f"line {lineno}: symbol {s} outside 1..{q}")
        words.append(word)
    if len(set(words)) != len(words):
        raise CodeFileError("duplicate codewords")
    return Code(q, l, words)


def _decimal(token: str) -> int:
    """int(token), but only for the plain decimal form `format_code_file`
    writes: "1_0", "+3" or "03" would not write back to the same bytes."""
    value = int(token)
    if str(value) != token:
        raise ValueError(token)
    return value


def read_code_file(path: Union[str, os.PathLike]) -> Code:
    with open(path, "r", encoding="ascii") as fh:
        return parse_code_file(fh.read())


def format_sweep_row(values: dict) -> str:
    """One CSV line in the fixed column order; absent improved renders empty."""
    from fractions import Fraction

    out = []
    for col in SWEEP_COLUMNS:
        v = values[col]
        if col == "rate":
            v = f"{float(v):.6f}"
        elif col == "rate_limit":
            v = str(Fraction(v))
        elif col == "improved":
            v = "" if v is None else str(v)
        else:
            v = str(v)
        if "," in v or "\n" in v:
            raise ValueError(f"unescapable CSV value {v!r} in column {col}")
        out.append(v)
    return ",".join(out)


def format_sweep_csv(rows: Iterable[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    lines.extend(format_sweep_row(r) for r in rows)
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: Union[str, os.PathLike], rows: Iterable[dict]):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_sweep_csv(rows))


def parse_sweep_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError("sweep CSV header mismatch")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValueError(f"row has {len(parts)} fields, expected {len(SWEEP_COLUMNS)}")
        rows.append(dict(zip(SWEEP_COLUMNS, parts)))
    return rows
