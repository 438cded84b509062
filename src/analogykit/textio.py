"""Text input files: checked UTF-8, one line-break rule, errors naming file and line.

Every text input is read through :func:`open_text`, whose ``with`` block
iterates the file itself: the text-mode read is the only UTF-8 check, and
it holds one block of the file, never all of it.  Naming the line of a bad
byte reads the file again, a chunk at a time.  A leading byte-order mark is
dropped.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a file opened in
text mode; the other Unicode line boundaries
(``\\x0b \\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``) stay inside their line.
"""

from __future__ import annotations

import codecs
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

_CHUNK_BYTES = 2**20


@contextmanager
def open_text(path: str | Path, error: type[ValueError] = ValueError) -> Iterator[TextIO]:
    """``with`` gives ``path`` open as UTF-8 in text mode; each line ends in ``\\n`` (the last may not).

    The file is opened when the ``with`` block is entered and closed when it
    is left.  Nothing is read before the block reads: a byte that is not
    valid UTF-8 raises ``error``, naming file and line, when the read
    decodes the block of the file that holds it.  A leading byte-order mark is dropped.
    """
    with open(path, encoding="utf-8-sig", newline=None) as fh:
        try:
            yield fh
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


@contextmanager
def read_tsv(path: str | Path, error: type[ValueError]) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """``with`` gives ``(lineno, fields)`` for each non-blank line of ``path``, split at tabs; see :func:`open_text`."""
    with open_text(path, error) as lines:
        yield ((n, line.rstrip("\n").split("\t")) for n, line in enumerate(lines, 1) if not line.isspace())
