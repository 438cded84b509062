"""The text loader against the per-line oracle, with chunks of one to three lines.

The loader parses ``embeddings._TEXT_LINES`` lines per ``np.loadtxt`` call,
4 096 in use, so the oracle tests' files of at most six rows fit in one
chunk.  Here the chunk is 1, 2 or 3 lines, so every file spans several
chunks, and each fault is placed to meet an earlier chunk: a token that
repeats one of an earlier chunk, a norm fault in one chunk before a parse
fault in a later one, and a header count the rows do not match along with a
bad row.  The loader must give the oracle's rows or its message.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from analogykit import embeddings
from test_loader_oracle import GARBAGE, HUGE, NON_FINITE, NUMERALS, ZEROS, assert_loaders_agree, render_text, text_tables

# The oracle's np.linalg.norm warns when a row's sum of squares overflows.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")

CHUNK_LINES = st.integers(1, 3)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=text_tables(), lines=CHUNK_LINES)
def test_valid_files_load_alike_across_chunks(tmp_path, table, lines):
    path = tmp_path / "valid.txt"
    path.write_bytes(render_text(table).encode())
    with mock.patch.object(embeddings, "_TEXT_LINES", lines):
        assert assert_loaders_agree(path, table["format"])


CROSS_CHUNK_FAULTS = ["duplicate", "norm-then-parse", "header"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=text_tables(), lines=CHUNK_LINES, data=st.data())
def test_faults_across_chunks_match_the_oracle(tmp_path, table, lines, data):
    tokens, rows = table["tokens"], table["rows"]
    n = len(tokens)
    assume(n > lines)
    # Data row i lies in chunk i // lines; row j in a later chunk.
    i = data.draw(st.integers(0, (n - 1) // lines * lines - 1))
    j = data.draw(st.integers((i // lines + 1) * lines, n - 1))
    count = None
    for kind in data.draw(st.lists(st.sampled_from(CROSS_CHUNK_FAULTS), min_size=1, max_size=3, unique=True)):
        if kind == "duplicate":
            tokens[j] = tokens[i]
        elif kind == "norm-then-parse":
            norm = data.draw(st.sampled_from(["zero", "non-finite", "huge"]))
            if norm == "zero":
                rows[i] = [data.draw(st.sampled_from(ZEROS)) for _ in rows[i]]
            else:
                rows[i][0] = data.draw(st.sampled_from(NON_FINITE if norm == "non-finite" else HUGE))
            parse = data.draw(st.sampled_from(["value", "width", "blank"]))
            if parse == "value":
                rows[j][-1] = data.draw(st.sampled_from(GARBAGE + NUMERALS))
            elif parse == "width":
                rows[j].append("1.5")
            else:
                tokens[j], rows[j] = "", []
        else:
            table["format"] = "text"
            count = n + data.draw(st.sampled_from([-1, 1]))
            if rows[j]:  # else the row is already blank
                rows[j][0] = data.draw(st.sampled_from(GARBAGE + ZEROS))
    path = tmp_path / "faulty.txt"
    path.write_bytes(render_text(table, count).encode())
    with mock.patch.object(embeddings, "_TEXT_LINES", lines):
        assert not assert_loaders_agree(path, table["format"])
