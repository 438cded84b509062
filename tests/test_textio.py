"""The one line-break rule shared by every text input."""

from __future__ import annotations

import gc
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from analogykit import textio
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


def whole_file_fault(path, data: bytes) -> str:
    """The message for the first bad UTF-8 of ``data``, found by decoding it whole: the reference."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at \n, \r\n or \r; the appended byte makes a break right
        # before the bad byte count as the start of its line.
        line = len((data[: exc.start] + b".").splitlines())
        bad = data[exc.start : exc.end]
        return f"{path}:{line}: not valid UTF-8 ({exc.reason}: {bad!r} at byte {exc.start})"
    raise AssertionError("the data is valid UTF-8")


def assert_names_the_fault(path, data: bytes) -> None:
    path.write_bytes(data)
    with pytest.raises(ValueError) as caught:
        open_text(path)
    assert str(caught.value) == whole_file_fault(path, data)


CHUNK = 2**20
FILLER = b"ab\ncd\r\ne\rf"  # 12 bytes, one line break of each kind


@pytest.mark.parametrize(
    "data",
    [
        FILLER * (CHUNK // 12) + b"x" * (CHUNK % 12 - 1) + b"\r\nz\xff\n",
        b"x" * (CHUNK - 1) + b"\r\n\xff",
        b"x\n" * (CHUNK // 2 - 1) + b"y" + "€".encode() + b"\n\x80\n",
        b"x\n" * (CHUNK // 2 - 1) + b"\xe2\x82" + b"A\n",
        FILLER * (CHUNK // 12) + b"\n" * (CHUNK % 12) + b"\n\r\xf0\x9f\x98",
        (FILLER * (CHUNK // 12 + 1)) * 3 + b"\r\r\n\xfe\n",
    ],
    ids=[
        "crlf-split-then-a-bad-byte",
        "crlf-split-right-before-a-bad-byte",
        "character-split-then-a-bad-byte",
        "bad-sequence-begun-before-the-boundary",
        "cut-character-at-the-end",
        "bad-byte-three-chunks-in",
    ],
)
def test_a_utf8_fault_across_chunk_boundaries_names_its_line_and_byte(tmp_path, data):
    # The line breaks before the fault are counted a 1 MiB chunk at a time.
    assert textio._CHUNK_BYTES == CHUNK
    assert_names_the_fault(tmp_path / "split.txt", data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pieces=st.lists(
        st.sampled_from([b"a", b"\n", b"\r", b"\r\n", "é".encode(), "€".encode(), "😀".encode(), b"\xff", b"\x80",
                         b"\xc3", b"\xe2\x82", b"\xf0\x9f", b"\xed\xa0\x80"]),
        max_size=16,
    ),
    chunk=st.integers(1, 5),
)
def test_a_utf8_fault_in_small_chunks_names_what_a_whole_file_read_names(tmp_path, pieces, chunk):
    data = b"".join(pieces) + b"\xff"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "_CHUNK_BYTES", chunk)
        assert_names_the_fault(tmp_path / "small.txt", data)


def test_naming_a_utf8_fault_holds_one_chunk(tmp_path):
    path = tmp_path / "late.txt"
    data = FILLER * CHUNK + b"\xff\n"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as caught:
            open_text(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == whole_file_fault(path, data)
    # A few chunks at most (one read while the last is held, the decoded text of one); the file is 12 MiB.
    assert peak < 4 * CHUNK < len(data) / 2
