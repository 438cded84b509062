"""Text input files: checked UTF-8, one line-break rule, errors naming file and line.

Every text input is read through :func:`open_text`.  Lines end at ``\\n``,
``\\r\\n`` or ``\\r``, as in a file opened in text mode; the other Unicode line
boundaries (``\\x0b \\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``) stay
inside their line.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from pathlib import Path


def open_text(path: str | Path, error: type[ValueError] = ValueError) -> io.TextIOWrapper:
    """Return a text stream of ``path`` whose lines end in ``\\n`` (the last may not).

    Raises ``error`` naming file and line, before any line is read, when a
    byte is not valid UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at \n, \r\n or \r; the appended byte makes a break right
        # before the bad byte count as the start of its line.
        line = len((data[: exc.start] + b".").splitlines())
        bad = data[exc.start : exc.end]
        raise error(f"{path}:{line}: not valid UTF-8 ({exc.reason}: {bad!r} at byte {exc.start})") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)


def read_tsv(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each non-blank line of ``path``, split at tabs."""
    for lineno, line in enumerate(open_text(path, error), start=1):
        if not line.isspace():
            yield lineno, line.rstrip("\n").split("\t")
