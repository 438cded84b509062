"""Text input files: checked UTF-8, one line-break rule, errors naming file and line.

Every text input is read through :func:`open_text`.  It checks the whole
file's UTF-8 first, a chunk at a time, then streams the file's lines, so a
read holds one chunk of the file, never all of it.  Naming the line of a bad
byte reads the file again, also a chunk at a time.  Lines end at ``\\n``,
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
    """Read ``path`` again, a chunk at a time, and raise ``error`` naming the line and byte of its first bad UTF-8.

    The line is one past the line breaks before the bad byte, counted chunk
    by chunk; a ``\\r`` that ends one chunk and a ``\\n`` that starts the next
    are one break.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    breaks = offset = 0
    after_cr = False
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK_BYTES)
            held = decoder.getstate()[0]  # the first bytes of a character the last chunk cut
            fault, end = None, len(chunk)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                fault, start = exc, offset - len(held) + exc.start
                # Held bytes are not ASCII, so every break before the fault lies in this chunk.
                end = max(0, start - offset)
            breaks += chunk.count(b"\n", 0, end) + chunk.count(b"\r", 0, end) - chunk.count(b"\r\n", 0, end)
            breaks -= after_cr and chunk.startswith(b"\n")
            if fault is not None:
                bad = fault.object[fault.start : fault.end]
                raise error(f"{path}:{breaks + 1}: not valid UTF-8 ({fault.reason}: {bad!r} at byte {start})")
            if not chunk:
                raise error(f"{path}: changed while being read")
            after_cr = chunk.endswith(b"\r")
            offset += len(chunk)


def read_tsv(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each non-blank line of ``path``, split at tabs."""
    for lineno, line in enumerate(open_text(path, error), start=1):
        if not line.isspace():
            yield lineno, line.rstrip("\n").split("\t")
