"""The one line-break rule shared by every text input."""

from __future__ import annotations

import pytest

from analogykit.datagen import GenerationError
from analogykit.textio import open_text, read_tsv

# The Unicode line boundaries other than \n, \r\n and \r.
NON_BREAKING_BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_open_text_breaks_lines_only_at_lf_crlf_and_cr(tmp_path):
    path = tmp_path / "mixed.txt"
    inner = "".join(NON_BREAKING_BOUNDARIES)
    path.write_bytes(f"one\r\ntwo\rthree{inner}three\nfour".encode())
    assert list(open_text(path)) == ["one\n", "two\n", f"three{inner}three\n", "four"]


def test_read_tsv_numbers_text_mode_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("a\tb\r\n\r\n \t \rc\x85d\te\n\nf\n".encode())
    assert list(read_tsv(path, ValueError)) == [(1, ["a", "b"]), (4, ["c\x85d", "e"]), (6, ["f"])]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_names_the_text_mode_line(tmp_path, newline):
    path = tmp_path / "bad.txt"
    path.write_bytes(newline.join([b"a", "b\x85c".encode(), b"\xffd"]))
    with pytest.raises(GenerationError, match=r"bad\.txt:3: not valid UTF-8 \(invalid start byte"):
        open_text(path, GenerationError)

