"""The binary loader against the per-row oracle, reading chunks of one to seven bytes.

The loader reads ``textio._CHUNK_BYTES`` bytes at a time, 1 MiB in use, so
the oracle tests' files fit in one chunk.  Here a chunk is 1-7 bytes, so
tokens, row values, newlines and the trailing check all span chunk ends.
Files are valid, or cut, grown or changed at one drawn byte.  The loader
must give the oracle's rows or its message.  A row longer than a chunk is
read whole once its token is read, so at 1-7 bytes its values never straddle
a read: a sibling test draws chunks of 8-48 bytes, past most rows, and a
test counts the reads of rows longer than a chunk.  The last tests keep the
1 MiB chunk and build files that put each part of a row across its end.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from analogykit import embeddings
from analogykit.embeddings import EmbeddingParseError, load_embeddings
from test_loader_oracle import assert_loaders_agree, binary_tables, render_binary

# The oracle's np.linalg.norm warns when a row's sum of squares overflows, and
# its float64 cast when a changed byte makes a signalling NaN.
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning"),
]

CHUNK_BYTES = st.integers(1, 7)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=binary_tables(), chunk=CHUNK_BYTES)
def test_valid_files_load_alike_across_chunks(tmp_path, table, chunk):
    path = tmp_path / "valid.bin"
    path.write_bytes(render_binary(table)[0])
    with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
        assert assert_loaders_agree(path, "binary")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=binary_tables(), chunk=CHUNK_BYTES, data=st.data())
def test_changed_files_match_the_oracle_across_chunks(tmp_path, table, chunk, data):
    count = data.draw(st.sampled_from([None, len(table["tokens"]) - 1, len(table["tokens"]) + 1]))
    blob = render_binary(table, count)[0]
    at = data.draw(st.integers(blob.index(b"\n") + 1, len(blob)))
    kind = data.draw(st.sampled_from(["cut", "insert", "replace"]))
    some = data.draw(st.sampled_from([b" ", b"\n", b"\xff", b"\x00\x00\x80\x7f", b"a", b"\n \n", b"x 1234"]))
    if kind == "cut":
        blob = blob[:at]
    elif kind == "insert":
        blob = blob[:at] + some + blob[at:]
    else:
        blob = blob[:at] + some + blob[at + len(some) :]
    path = tmp_path / "changed.bin"
    path.write_bytes(blob)
    with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
        assert_loaders_agree(path, "binary")


# A row of binary_tables takes 3-43 bytes, so most fit in such a chunk and their values straddle a read end.
CHUNK_BYTES_PAST_A_ROW = st.integers(8, 48)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=binary_tables(), chunk=CHUNK_BYTES_PAST_A_ROW, data=st.data())
def test_files_match_the_oracle_across_chunks_longer_than_a_row(tmp_path, table, chunk, data):
    count = data.draw(st.sampled_from([None, len(table["tokens"]) - 1, len(table["tokens"]) + 1]))
    blob = render_binary(table, count)[0]
    at = data.draw(st.integers(blob.index(b"\n") + 1, len(blob)))
    kind = data.draw(st.sampled_from(["keep", "cut", "insert", "replace"]))
    some = data.draw(st.sampled_from([b" ", b"\n", b"\xff", b"\x00\x00\x80\x7f", b"a", b"\n \n", b"x 1234"]))
    if kind == "cut":
        blob = blob[:at]
    elif kind == "insert":
        blob = blob[:at] + some + blob[at:]
    elif kind == "replace":
        blob = blob[:at] + some + blob[at + len(some) :]
    path = tmp_path / "straddled.bin"
    path.write_bytes(blob)
    with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
        assert_loaders_agree(path, "binary")


def test_values_made_of_space_and_newline_bytes_load_bit_for_bit(tmp_path):
    # Values are bytes, not text: a space or newline in them ends no token and
    # starts no row, and the newlines after a row end before its next token.
    spaces, newlines = b"    ", b"\n\n\n\n"  # the float32 values 1.356e-19 and 6.6e-33
    path = tmp_path / "bytes.bin"
    path.write_bytes(b"2 2\na " + spaces + newlines + b"\n\nb " + newlines + spaces + b"\n")
    expected = np.frombuffer(spaces + newlines + newlines + spaces, dtype="<f4").reshape(2, 2)
    for chunk in (*range(1, 8), embeddings._CHUNK_BYTES):
        with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk):
            loaded = load_embeddings(path, "binary")
            assert assert_loaders_agree(path, "binary")
        assert loaded.tokens == ["a", "b"]
        assert loaded.vectors.tobytes() == expected.tobytes()


# Three float32 values, none of whose bytes is a space or a newline.
VALUES = np.array([1.5, -2.0, 0.25], dtype="<f4").tobytes()
ROW = b"tok " + VALUES + b"\n"


class CountedReads:
    """A binary file whose ``read`` calls are counted."""

    def __init__(self, fh):
        self.fh, self.reads = fh, 0

    def read(self, size):
        self.reads += 1
        return self.fh.read(size)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_a_row_longer_than_a_chunk_is_read_whole_once_its_token_is_read(tmp_path, monkeypatch):
    # A 16-byte chunk reaches each 260-byte row's token and space; the next read takes the whole row.
    rows = 5
    path = tmp_path / "long-rows.bin"
    path.write_bytes(b"%d 64\n" % rows + b"".join(b"w%d " % i + VALUES[:4] * 64 + b"\n" for i in range(rows)))
    opened = []

    def counted_open(*args):
        opened.append(CountedReads(open(*args)))
        return opened[-1]

    monkeypatch.setattr(embeddings, "open", counted_open, raising=False)
    monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 16)
    assert load_embeddings(path, "binary").tokens == [f"w{i}" for i in range(rows)]
    # Two reads a row, then the last newline and the end of the file; growing a read a chunk at a time takes 83.
    assert opened[0].reads == 2 * rows + 2


def across_the_chunk_end(tail: bytes, before: int, rows: int) -> bytes:
    """A binary file of three values per row whose ``tail`` starts ``before`` bytes before the first chunk ends.

    The loader reads its chunks after the header line, so rows of about 1 KiB
    fill the file from the header up to ``tail``, and ``tail[before:]`` is read
    in the second chunk.  ``rows`` is how many rows ``tail`` starts.
    """
    fill = embeddings._CHUNK_BYTES - before
    sizes = [1024] * (fill // 1024 - 1)
    sizes.append(fill - sum(sizes))
    body = b"".join(f"{i}:".encode().ljust(size - 14, b"f") + b" " + VALUES + b"\n" for i, size in enumerate(sizes))
    assert len(body) == fill
    return f"{len(sizes) + rows} 3\n".encode() + body + tail


def test_a_row_across_the_chunk_end_loads_alike(tmp_path):
    # At the 1 MiB chunk in use, the chunk ends in the second token, after its
    # space, at each byte of its values, and before and after its newline.
    path = tmp_path / "across.bin"
    for before in range(1, len(ROW) + 1):
        path.write_bytes(across_the_chunk_end(ROW + b"next " + VALUES + b"\n", before, rows=2))
        assert assert_loaders_agree(path, "binary"), before


@pytest.mark.parametrize(
    "tail, before, rows, message",
    [
        (ROW + b"\n\n\n", len(ROW) + 2, 1, None),
        (ROW + b"\n\n\nx", len(ROW) + 2, 1, "trailing data after"),
        (ROW + b"\n\n\nx", len(ROW) + 3, 1, "trailing data after"),
        (ROW + b"\n" * (2**20 + 2) + b"next " + VALUES + b"\n", len(ROW) + 1, 2, None),
        (ROW + b"long", len(ROW) + 2, 2, "unterminated token for vector"),
        (ROW + b"cut " + VALUES[:7], len(ROW) + 6, 2, "truncated vector for token 'cut'"),
    ],
    ids=["newlines", "junk-after-newlines", "junk-first", "newlines-longer-than-a-chunk", "cut-token", "cut-values"],
)
def test_the_end_of_the_rows_across_the_chunk_end_loads_alike(tmp_path, tail, before, rows, message):
    # After the last row, newlines cross the chunk end, with or without a junk
    # byte after them; a run of them longer than a chunk lies between two
    # rows; or the file is cut in a token or in a row's values past the end.
    path = tmp_path / "end.bin"
    path.write_bytes(across_the_chunk_end(tail, before, rows))
    if message is None:
        assert assert_loaders_agree(path, "binary")
    else:
        with pytest.raises(EmbeddingParseError, match=message):
            load_embeddings(path, "binary")
        assert not assert_loaders_agree(path, "binary")
