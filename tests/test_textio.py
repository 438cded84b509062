"""The one line-break rule shared by every text input."""

from __future__ import annotations

import gc
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from analogykit import reports, textio
from analogykit.cli import _read_candidate_terms
from analogykit.datagen import GenerationError, load_allowlist, load_frequencies, load_lexicon, load_triples
from analogykit.dataset import AnalogyFormatError, load_dataset
from analogykit.embeddings import load_embeddings
from analogykit.reports import load_outcomes_csv
from analogykit.textio import open_text, read_tsv

# The Unicode line boundaries other than \n, \r\n and \r.
NON_BREAKING_BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def read_through(path, *args) -> None:
    """Read every line of ``path`` through :func:`open_text`, holding none of them."""
    with open_text(path, *args) as lines:
        for _ in lines:
            pass


def test_open_text_breaks_lines_only_at_lf_crlf_and_cr(tmp_path):
    path = tmp_path / "mixed.txt"
    inner = "".join(NON_BREAKING_BOUNDARIES)
    path.write_bytes(f"one\r\ntwo\rthree{inner}three\nfour".encode())
    with open_text(path) as lines:
        assert list(lines) == ["one\n", "two\n", f"three{inner}three\n", "four"]


def test_read_tsv_numbers_text_mode_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("a\tb\r\n\r\n \t \rc\x85d\te\n\nf\n".encode())
    with read_tsv(path, ValueError) as rows:
        assert list(rows) == [(1, ["a", "b"]), (4, ["c\x85d", "e"]), (6, ["f"])]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_names_the_text_mode_line(tmp_path, newline):
    path = tmp_path / "bad.txt"
    path.write_bytes(newline.join([b"a", "b\x85c".encode(), b"\xffd"]))
    with pytest.raises(GenerationError, match=r"bad\.txt:3: not valid UTF-8 \(invalid start byte"):
        read_through(path, GenerationError)


def test_a_with_left_after_one_line_closes_the_file(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\nb\nc\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with open_text(path) as lines:
            assert next(lines) == "a\n"
        assert lines.closed
        del lines
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# Each loader, a file it rejects partway through, after a line it has read.
STOPPED_READERS = {
    "outcomes": (load_outcomes_csv, ",".join(reports._OUTCOME_HEADER) + "\nscored,r,a,c,d,maybe,1.0,1.0,1,1,\n"),
    "dataset": (load_dataset, "r\ta\tb\tc\td\nr\ta\tb\n"),
    "triples": (load_triples, "s\tr\to\ns\tr\n"),
    "lexicon": (load_lexicon, "c\tterm\nc\n"),
    "frequencies": (load_frequencies, "term\t3\nterm\tx\n"),
    "embeddings": (load_embeddings, "2 2\na 1 2\nb 1\n"),
}


@pytest.mark.parametrize("name", list(STOPPED_READERS))
def test_a_reader_stopped_partway_closes_its_file(tmp_path, name):
    # Each loader stops partway, on a bad record, and the error's traceback
    # keeps the loader's frame in a cycle.  Left to the collector, a file
    # still open would be finalized with that cycle and warn that it was
    # never closed: each loader must close its file itself when it stops.
    load, text = STOPPED_READERS[name]
    path = tmp_path / f"stopped.{name}"
    path.write_text(text, encoding="utf-8")

    def stop_and_keep_the_traceback():
        # ``stopped`` holds the error, whose traceback holds this frame: cyclic garbage on return.
        with pytest.raises(ValueError, match=rf"stopped\.{name}:") as stopped:  # noqa: F841
            load(path)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stop_and_keep_the_traceback()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# Each text reader, and a valid input it loads.
VALID_READERS = {
    "embeddings": (load_embeddings, "2 2\na 1 2\nb 3 4\n"),
    "candidates": (_read_candidate_terms, "a\nb c\n"),
    "dataset": (load_dataset, "r\ta\tb\tc\td\n"),
    "triples": (load_triples, "s\tr\to\n"),
    "lexicon": (load_lexicon, "c\tterm\n"),
    "frequencies": (load_frequencies, "term\t3\n"),
    "allowlist": (load_allowlist, "term\n"),
    "outcomes": (load_outcomes_csv, ",".join(reports._OUTCOME_HEADER) + "\nscored,r,a,c,d,true,1.0,1.0,1,1,\n"),
}


@pytest.mark.parametrize("name", list(VALID_READERS))
def test_a_reader_opens_its_valid_input_once(tmp_path, monkeypatch, name):
    # The text-mode read is the only pass over the file: no check reads it first.
    load, text = VALID_READERS[name]
    path = tmp_path / f"valid.{name}"
    path.write_text(text, encoding="utf-8")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(textio, "open", counting_open, raising=False)
    load(str(path))
    assert opened == [str(path)]


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            [b"r\ta\tb"] + [b"r\ta\tb\tc\td"] * 2000 + [b"\xff"],
            r"records\.tsv:2: expected 5 tab-separated fields, found 3",
        ),
        (
            [b"r\ta\tb\xff"] + [b"r\ta\tb\tc\td"] * 2000 + [b"r\ta\tb"],
            r"records\.tsv:2: not valid UTF-8 \(invalid start byte: b'\\xff' at byte 15\)",
        ),
    ],
    ids=["bad-record-first", "bad-byte-first"],
)
def test_a_reader_names_the_first_fault_it_meets(tmp_path, lines, message):
    # A bad byte is named when the read decodes the block that holds it, so a
    # reader that stops at an earlier bad record, 20 KB before it, names that record.
    path = tmp_path / "records.tsv"
    path.write_bytes(b"\n".join([b"r\ta\tb\tc\td", *lines, b""]))
    with pytest.raises(AnalogyFormatError, match=message):
        load_dataset(path)


def test_a_file_turned_invalid_after_the_check_names_its_line(tmp_path):
    path = tmp_path / "changed.txt"
    path.write_bytes(b"a\nb\n")
    checked = open_text(path, GenerationError)
    path.write_bytes(b"a\nb\n\xffc\n")
    with pytest.raises(GenerationError, match=r"changed\.txt:3: not valid UTF-8 \(invalid start byte"):
        with checked as lines:
            list(lines)


def test_a_file_valid_again_when_the_fault_is_named_was_changed_while_read(tmp_path, monkeypatch):
    # The lines meet a bad byte, but the file is valid again by the time its
    # fault is looked for, so there is no line to name.
    path = tmp_path / "changed.txt"
    path.write_bytes(b"a\nb\n")
    checked = open_text(path, GenerationError)
    path.write_bytes(b"a\nb\n\xffc\n")
    name_fault = textio._raise_utf8_fault

    def restore_then_name(*args):
        path.write_bytes(b"a\nb\n")
        name_fault(*args)

    monkeypatch.setattr(textio, "_raise_utf8_fault", restore_then_name)
    with pytest.raises(GenerationError) as caught:
        with checked as lines:
            list(lines)
    assert str(caught.value) == f"{path}: changed while being read"


def test_the_check_reads_chunks_across_a_split_character_and_names_a_late_line(tmp_path):
    # A three-byte character straddles the first chunk boundary; the bad byte lies past it.
    first = "x" * (2**20 - 2) + "€\n"
    path = tmp_path / "big.txt"
    path.write_bytes(f"{first}y\n".encode())
    with open_text(path) as lines:
        assert list(lines) == [first, "y\n"]
    path.write_bytes(f"{first}y\n".encode() + b"\xfez\n")
    with pytest.raises(ValueError, match=r"big\.txt:3: not valid UTF-8 \(invalid start byte: b'\\xfe' at byte"):
        read_through(path)


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
        read_through(path)
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
            read_through(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == whole_file_fault(path, data)
    # A few chunks at most (one read while the last is held, the decoded text of one); the file is 12 MiB.
    assert peak < 4 * CHUNK < len(data) / 2
