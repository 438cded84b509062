"""Text input files: checked UTF-8, one line-break rule, errors naming file and line.

Every text input is read through :func:`open_text`.  It checks the whole
file's UTF-8 first, a chunk at a time, then streams the file's lines, so a
read holds one chunk of the file, never all of it.  Lines end at ``\\n``,
``\\r\\n`` or ``\\r``, as in a file opened in text mode; the other Unicode line
boundaries (``\\x0b \\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``) stay
inside their line.
"""

from __future__ import annotations

import codecs
from collections.abc import Generator, Iterator
from pathlib import Path

_CHUNK_BYTES = 2**20


def open_text(path: str | Path, error: type[ValueError] = ValueError) -> Generator[str, None, None]:
    """Check ``path`` as UTF-8, then return an iterator of its lines, each ending in ``\\n`` (the last may not).

    Raises ``error`` naming file and line, before any line is read, when a
    byte is not valid UTF-8.  The iterator opens the file at its first line
    and closes it when exhausted, closed or dropped.  Should the file turn
    invalid after the check, the iterator raises ``error`` in the same way.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
                decoder.decode(chunk)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        _raise_utf8_fault(path, error)
    return _lines(path, error)


def _lines(path: str | Path, error: type[ValueError]) -> Generator[str, None, None]:
    with open(path, encoding="utf-8", newline=None) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            _raise_utf8_fault(path, error)


def _raise_utf8_fault(path: str | Path, error: type[ValueError]) -> None:
    """Read ``path`` whole and raise ``error`` naming the line of its first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at \n, \r\n or \r; the appended byte makes a break right
        # before the bad byte count as the start of its line.
        line = len((data[: exc.start] + b".").splitlines())
        bad = data[exc.start : exc.end]
        raise error(f"{path}:{line}: not valid UTF-8 ({exc.reason}: {bad!r} at byte {exc.start})") from None
    raise error(f"{path}: changed while being read")


def read_tsv(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each non-blank line of ``path``, split at tabs."""
    for lineno, line in enumerate(open_text(path, error), start=1):
        if not line.isspace():
            yield lineno, line.rstrip("\n").split("\t")
