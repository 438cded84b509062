"""UTF-8 input files whose decoding errors name the file and the line."""

from __future__ import annotations

from pathlib import Path


def read_utf8(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """Return the text of ``path``; raise ``error`` naming file and line on bad UTF-8.

    Line endings are left as they are; ``str.splitlines`` and
    ``io.StringIO(text, newline=None)`` split the text into the lines a file
    opened in text mode would give.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at \n, \r\n or \r; the appended byte makes a break right
        # before the bad byte count as the start of its line.
        line = len((data[: exc.start] + b".").splitlines())
        bad = data[exc.start : exc.end]
        raise error(f"{path}:{line}: not valid UTF-8 ({exc.reason}: {bad!r} at byte {exc.start})") from None
