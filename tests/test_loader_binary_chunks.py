"""The binary loader against the per-row oracle, reading chunks of one to seven bytes.

The loader reads ``textio._CHUNK_BYTES`` bytes at a time, 1 MiB in use, so
the oracle tests' files fit in one chunk.  Here a chunk is 1-7 bytes, so
tokens, row values, newlines and the trailing check all span chunk ends.
Files are valid, or cut, grown or changed at one drawn byte.  The loader
must give the oracle's rows or its message.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from analogykit import embeddings
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
