"""The one line-break rule shared by every text input."""

from __future__ import annotations

import gc
import warnings

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


def test_a_dropped_half_read_stream_closes_its_file(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\nb\nc\n", encoding="utf-8")
    lines = open_text(path)
    assert next(lines) == "a\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del lines
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_file_turned_invalid_after_the_check_names_its_line(tmp_path):
    path = tmp_path / "changed.txt"
    path.write_bytes(b"a\nb\n")
    lines = open_text(path, GenerationError)
    path.write_bytes(b"a\nb\n\xffc\n")
    with pytest.raises(GenerationError, match=r"changed\.txt:3: not valid UTF-8 \(invalid start byte"):
        list(lines)


def test_the_check_reads_chunks_across_a_split_character_and_names_a_late_line(tmp_path):
    # A three-byte character straddles the first chunk boundary; the bad byte lies past it.
    first = "x" * (2**20 - 2) + "€\n"
    path = tmp_path / "big.txt"
    path.write_bytes(f"{first}y\n".encode())
    assert list(open_text(path)) == [first, "y\n"]
    path.write_bytes(f"{first}y\n".encode() + b"\xfez\n")
    with pytest.raises(ValueError, match=r"big\.txt:3: not valid UTF-8 \(invalid start byte: b'\\xfe' at byte"):
        open_text(path)
