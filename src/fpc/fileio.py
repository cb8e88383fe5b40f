"""The on-disk code file format.

The format is plain text, byte-stable for identical inputs, and strict to
parse: anything off-spec is an error, never a silent fix-up.
"""

from __future__ import annotations

import os
from typing import Sequence, Union

from .core import Code

CODEFILE_MAGIC = "fpc 1"


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

