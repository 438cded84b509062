from __future__ import annotations

import os
import re
import tracemalloc
import unicodedata

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from analogykit import embeddings
from analogykit.embeddings import (
    CandidateIndex,
    EmbeddingMatrix,
    EmbeddingParseError,
    build_candidate_index,
    compose_term,
    load_embeddings,
    normalize_term,
    save_embeddings,
    term_key,
)


@pytest.fixture
def small_matrix() -> EmbeddingMatrix:
    rng = np.random.default_rng(7)
    tokens = ["alpha", "beta", "gamma", "delta", "epsilon"]
    return EmbeddingMatrix(tokens, rng.normal(size=(5, 4)))


# ---------------------------------------------------------------- matrix type


def test_constructor_rejects_count_mismatch():
    with pytest.raises(ValueError, match="2 tokens but 3 vectors"):
        EmbeddingMatrix(["a", "b"], np.ones((3, 2)))


def test_constructor_rejects_duplicate_tokens():
    with pytest.raises(ValueError, match="duplicate token"):
        EmbeddingMatrix(["a", "a"], np.ones((2, 2)))


def test_constructor_rejects_whitespace_token():
    with pytest.raises(ValueError, match="whitespace"):
        EmbeddingMatrix(["a b"], np.ones((1, 2)))


def test_constructor_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        EmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        EmbeddingMatrix(["a"], np.array([[np.nan, 1.0]]))


def test_constructor_names_the_row_with_the_loaders_rule():
    with pytest.raises(ValueError) as caught:
        EmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert str(caught.value) == "row 1: zero vector for token 'b'"
    assert not isinstance(caught.value, EmbeddingParseError)


@pytest.mark.parametrize(
    "tokens, vectors, message",
    [(["a"], [1.0, 2.0], "2-d array"), ([], np.zeros((0, 3)), "at least one token")],
    ids=["one-d", "no-tokens"],
)
def test_constructor_rejects_a_malformed_matrix(tokens, vectors, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingMatrix(tokens, vectors)


@pytest.mark.parametrize(
    "tokens, message",
    [
        (["a", "b", "a"], "row 2: duplicate token 'a'"),
        (["a", "", "b"], "row 1: invalid token '': tokens must be non-empty and contain no whitespace"),
    ],
)
def test_constructor_token_faults_name_their_row(tokens, message):
    with pytest.raises(ValueError) as caught:
        EmbeddingMatrix(tokens, np.ones((len(tokens), 2)))
    assert str(caught.value) == message


# The constructor's former per-token walk, the reference for the token rule.
def _check_token(tok: str) -> None:
    if not tok or tok.split() != [tok]:
        raise ValueError(f"invalid token {tok!r}: tokens must be non-empty and contain no whitespace")


def _validate_tokens(tokens: list[str]) -> None:
    seen: set[str] = set()
    for tok in tokens:
        _check_token(tok)
        if tok in seen:
            raise ValueError(f"duplicate token {tok!r}")
        seen.add(tok)


# Whitespace as str.split finds it (\x85, \u3000 and \x1c among it), and
# \u200b, which it does not count.
RULE_TOKENS = st.sampled_from(["a", "b", "", " ", "\t", "\x85", "\u3000", "\x1c", "a b", "\u200b"])


@given(st.lists(RULE_TOKENS, min_size=1, max_size=6))
def test_constructor_applies_the_token_rule_like_a_per_token_walk(tokens):
    # The first row whose prefix the walk rejects is the row the constructor names.
    expected = None
    for row in range(len(tokens)):
        try:
            _validate_tokens(tokens[: row + 1])
        except ValueError as exc:
            expected = f"row {row}: {exc}"
            break
    if expected is None:
        assert EmbeddingMatrix(tokens, np.ones((len(tokens), 2))).tokens == tokens
    else:
        with pytest.raises(ValueError) as caught:
            EmbeddingMatrix(tokens, np.ones((len(tokens), 2)))
        assert str(caught.value) == expected


def test_vectors_are_read_only(small_matrix):
    with pytest.raises(ValueError):
        small_matrix.vectors[0, 0] = 9.9


def test_lookup_and_contains(small_matrix):
    assert "gamma" in small_matrix
    assert "zeta" not in small_matrix
    assert small_matrix.row("gamma") == 2
    assert np.array_equal(small_matrix.vector("gamma"), small_matrix.vectors[2])


# ------------------------------------------------------------------- file I/O


def test_text_round_trip_with_header(small_matrix, tmp_path):
    path = tmp_path / "vec.txt"
    save_embeddings(small_matrix, path, format="text")
    loaded = load_embeddings(path, format="text")
    assert loaded.tokens == small_matrix.tokens
    # repr() floats round-trip bit for bit
    assert np.array_equal(loaded.vectors, small_matrix.vectors)
    assert path.read_text().splitlines()[0] == "5 4"


def test_headerless_round_trip_and_autodetect(small_matrix, tmp_path):
    path = tmp_path / "vec.glove.txt"
    save_embeddings(small_matrix, path, format="text-noheader")
    explicit = load_embeddings(path, format="text-noheader")
    detected = load_embeddings(path, format="text")
    assert explicit.tokens == detected.tokens == small_matrix.tokens
    assert np.array_equal(explicit.vectors, small_matrix.vectors)
    assert np.array_equal(detected.vectors, small_matrix.vectors)


def test_a_two_field_first_line_that_is_no_header_is_data(tmp_path):
    # Two fields that do not parse as integers are a dim-1 GloVe row, not a header.
    path = tmp_path / "dim1.glove.txt"
    path.write_text("a 0.5\nb 0.25\n", encoding="utf-8")
    loaded = load_embeddings(path, format="text")
    assert loaded.tokens == ["a", "b"]
    assert loaded.vectors.tolist() == [[0.5], [0.25]]


def test_binary_round_trip_is_float32_exact(small_matrix, tmp_path):
    path = tmp_path / "vec.bin"
    save_embeddings(small_matrix, path, format="binary")
    loaded = load_embeddings(path, format="binary")
    assert loaded.tokens == small_matrix.tokens
    expected = small_matrix.vectors.astype("<f4").astype(np.float64)
    assert np.array_equal(loaded.vectors, expected)


def test_binary_loads_keep_float32_and_compositions_are_float64(tmp_path):
    # In float32, 1 + 2**-30 rounds to 1, so a float32 mean would differ in the first value.
    emb = EmbeddingMatrix(["a", "b"], np.array([[1.0, 1.0], [2.0**-30, 1.0]]))
    save_embeddings(emb, tmp_path / "vec.bin", format="binary")
    save_embeddings(emb, tmp_path / "vec.txt", format="text")
    binary = load_embeddings(tmp_path / "vec.bin", format="binary")
    assert binary.vectors.dtype == binary.vector("a").dtype == np.float32
    assert emb.vectors.dtype == load_embeddings(tmp_path / "vec.txt").vectors.dtype == np.float64
    for loaded in (binary, emb):
        assert compose_term("a", loaded).vector.dtype == np.float64
        assert compose_term("a b", loaded).vector.tolist() == [(1.0 + 2.0**-30) / 2.0, 1.0]
        index = build_candidate_index(["a b", "b"], loaded)
        assert index.matrix.dtype == np.float64
        composed = compose_term("a b", loaded).vector
        assert np.array_equal(index.matrix[0], composed / np.linalg.norm(composed))


def test_save_then_load_matches_reload(small_matrix, tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    save_embeddings(small_matrix, first, format="text")
    save_embeddings(load_embeddings(first), second, format="text")
    assert first.read_bytes() == second.read_bytes()


def test_row_with_wrong_width_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 1.0 2.0\n")
    with pytest.raises(EmbeddingParseError, match=r"bad\.txt:3: expected 3 values, found 2"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "text, lineno",
    [("a 1 2\n\nb 3 4\n", 2), ("a 1 2\n \t\nb 3 4\n", 2), ("3 2\na 1 2\nb 3 4\n\n", 4)],
    ids=["headerless", "whitespace-only", "headered"],
)
def test_blank_line_names_line(tmp_path, text, lineno):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path)
    assert str(caught.value) == f"{path}:{lineno}: blank line"


def test_header_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\nfoo 1.0 2.0\nbar 3.0 4.0\n")
    with pytest.raises(EmbeddingParseError, match="declares 3 vectors, found 2"):
        load_embeddings(path)


def test_duplicate_token_is_an_error(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("2 2\nfoo 1.0 2.0\nfoo 3.0 4.0\n")
    with pytest.raises(EmbeddingParseError, match="duplicate token 'foo'"):
        load_embeddings(path)


def test_non_finite_value_is_an_error(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1 2\nfoo nan 2.0\n")
    with pytest.raises(EmbeddingParseError, match="non-finite"):
        load_embeddings(path)


def test_zero_vector_is_an_error(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("1 2\nfoo 0.0 0.0\n")
    with pytest.raises(EmbeddingParseError, match="zero vector"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("2 3\nok 1 2 3\nbig 1e200 1e200 1\n", 3),
        # A parse fault after the row sends the file to the line scan, which
        # must still name the earlier overflowing row.
        ("3 3\nok 1 2 3\nbig 1e200 1e200 1\nbad 1 x 3\n", 3),
        ("big -1.5e160 0 0\nok 1 2 3\n", 1),
    ],
)
def test_text_norm_overflow_names_line_and_token(tmp_path, text, lineno):
    path = tmp_path / "big.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path)
    assert str(caught.value) == f"{path}:{lineno}: norm overflows float64 for token 'big'"


def test_norm_overflow_is_rejected_by_the_constructor():
    with pytest.raises(ValueError, match="overflow"):
        EmbeddingMatrix(["ok", "big"], np.array([[1.0, 2.0], [1e200, 1e200]]))


@pytest.mark.parametrize(
    "text, lineno",
    [
        # Finite and non-zero, but the squares sum to 4e-320, a subnormal.
        ("2 4\nok 1 2 3 4\na 1e-160 1e-160 1e-160 1e-160\n", 3),
        ("a 1e-160 1e-160\nok 1 2\n", 1),
        # A parse fault after the row sends the file to the line scan.
        ("3 1\nok 1\na -1e-155\nbad x\n", 3),
    ],
)
def test_text_norm_underflow_names_line_and_token(tmp_path, text, lineno):
    path = tmp_path / "tiny.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path)
    assert str(caught.value) == f"{path}:{lineno}: norm underflows float64 for token 'a'"


def test_norm_underflow_is_rejected_by_the_constructor():
    with pytest.raises(ValueError) as caught:
        EmbeddingMatrix(["ok", "a"], np.array([[1.0, 2.0], [1e-160, 1e-160]]))
    assert str(caught.value) == "row 1: norm underflows float64 for token 'a'"


def test_the_norm_rule_starts_at_the_smallest_normal_square():
    tiny = np.finfo(np.float64).tiny
    # 2**-511 squares to tiny exactly; the next float down squares to a subnormal.
    edge = 2.0**-511
    assert edge * edge == tiny
    emb = EmbeddingMatrix(["edge"], np.array([[edge]]))
    assert build_candidate_index(["edge"], emb).matrix[0, 0] == 1.0
    with pytest.raises(ValueError, match="row 0: norm underflows float64"):
        EmbeddingMatrix(["below"], np.array([[np.nextafter(edge, 0.0)]]))


def test_binary_rows_cannot_overflow(tmp_path):
    # float32 components square to at most 1.2e77, so any binary row has a
    # finite norm: the largest ones load and normalize without a warning.
    top = float(np.finfo(np.float32).max)
    emb = EmbeddingMatrix(["big", "small"], np.array([[top, -top, top, top], [1.0, 0.0, 0.0, 0.0]]))
    path = tmp_path / "big.bin"
    save_embeddings(emb, path, format="binary")
    with np.errstate(all="raise"):
        loaded = load_embeddings(path, format="binary")
        index = build_candidate_index(["big", "small"], loaded)
    assert np.array_equal(loaded.vectors, emb.vectors)
    assert np.array_equal(index.matrix[0], np.array([0.5, -0.5, 0.5, 0.5]))


@pytest.mark.parametrize(
    "row, problem",
    [([1e39, 1.0], "non-finite value"), ([1e-50, 0.0], "zero vector")],
    ids=["overflow", "underflow"],
)
def test_binary_save_rejects_rows_float32_cannot_hold(tmp_path, row, problem):
    emb = EmbeddingMatrix(["ok", "a"], np.array([[0.0, 1.0], row]))
    path = tmp_path / "out.bin"
    with pytest.raises(ValueError, match=rf"out\.bin: row 1 as float32: {problem} for token 'a'"):
        save_embeddings(emb, path, format="binary")
    assert not path.exists()


def test_truncated_binary_names_offset(small_matrix, tmp_path):
    path = tmp_path / "trunc.bin"
    save_embeddings(small_matrix, path, format="binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(EmbeddingParseError, match="offset"):
        load_embeddings(path, format="binary")


def test_a_binary_file_that_shrinks_while_read_names_the_cut_row(small_matrix, tmp_path, monkeypatch):
    # The rows are sized and checked against the size the file had when opened.
    path = tmp_path / "shrunk.bin"
    save_embeddings(small_matrix, path, format="binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(EmbeddingParseError) as cut:
        load_embeddings(path, format="binary")
    stat = os.fstat

    def as_opened(fd):
        return os.stat_result((*stat(fd)[:6], len(blob), *stat(fd)[7:]))

    monkeypatch.setattr(embeddings.os, "fstat", as_opened)
    with pytest.raises(EmbeddingParseError) as shrunk:
        load_embeddings(path, format="binary")
    assert str(shrunk.value) == str(cut.value)
    assert "truncated vector" in str(cut.value)


def test_a_binary_file_that_grows_while_read_reads_only_the_bytes_it_had(small_matrix, tmp_path, monkeypatch):
    # A row whose values end past the size the file had when opened is cut there.
    path = tmp_path / "grown.bin"
    save_embeddings(small_matrix, path, format="binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(EmbeddingParseError) as cut:
        load_embeddings(path, format="binary")
    path.write_bytes(blob)
    stat = os.fstat

    def as_opened(fd):
        return os.stat_result((*stat(fd)[:6], len(blob) - 10, *stat(fd)[7:]))

    monkeypatch.setattr(embeddings.os, "fstat", as_opened)
    with pytest.raises(EmbeddingParseError) as grown:
        load_embeddings(path, format="binary")
    assert str(grown.value) == str(cut.value)
    assert "truncated vector" in str(cut.value)


def test_binary_trailing_bytes_rejected(small_matrix, tmp_path):
    path = tmp_path / "extra.bin"
    save_embeddings(small_matrix, path, format="binary")
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(EmbeddingParseError, match="trailing data"):
        load_embeddings(path, format="binary")


@pytest.mark.parametrize(
    "value", ["1_0", "\uff11", "\u0663"], ids=["underscore", "full-width", "arabic-indic"]
)
def test_text_value_grammar_rejects_non_ascii_numerals(tmp_path, value):
    # float() reads all three (10.0, 1.0, 3.0); the loader's grammar does not.
    path = tmp_path / "num.txt"
    path.write_text(f"2 2\nfoo 1.0 2.0\nbar 3.0 {value}\n", encoding="utf-8")
    with pytest.raises(EmbeddingParseError, match=rf"num\.txt:3: could not convert string to float: '{value}'"):
        load_embeddings(path)


def test_text_value_grammar_accepts_signs_exponents_and_spaces(tmp_path):
    path = tmp_path / "num.txt"
    path.write_text("foo\t+1.5E-3  -.5\u30005. \nbar 1e0 -0 2\n", encoding="utf-8")
    loaded = load_embeddings(path, format="text-noheader")
    assert loaded.tokens == ["foo", "bar"]
    assert loaded.vectors.tolist() == [[0.0015, -0.5, 5.0], [1.0, -0.0, 2.0]]


@pytest.mark.parametrize("token", [b"a\tb", b""], ids=["whitespace", "empty"])
def test_binary_invalid_token_names_offset(tmp_path, token):
    path = tmp_path / "tok.bin"
    row = np.array([1.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(b"2 2\nok " + row + b"\n" + token + b" " + row + b"\n")
    offset = len(b"2 2\nok ") + len(row) + 1
    message = f"{path}: offset {offset}: invalid token {token.decode()!r}"
    with pytest.raises(EmbeddingParseError, match=re.escape(message)):
        load_embeddings(path, format="binary")


def binary_blob(names: list[bytes], rows: list[list[float]]) -> tuple[bytes, list[int]]:
    """A binary file of ``names`` and float32 ``rows``, and the offset of each name."""
    blob, offsets = f"{len(names)} {len(rows[0])}\n".encode(), []
    for name, row in zip(names, rows):
        offsets.append(len(blob))
        blob += name + b" " + np.array(row, dtype="<f4").tobytes() + b"\n"
    return blob, offsets


@pytest.mark.parametrize(
    "names, bad, message",
    [
        ([b"\xc3\xa9", b"b\xff", b"\xc3\xa9"], 1, "undecodable token bytes"),
        ([b"\xc3\xa9", b"\xc3\xa9", b"b\xff"], 1, "duplicate token 'é'"),
        ([b"a", b"a\xc3", b"b"], 1, "undecodable token bytes"),
        ([b"a", b"a\tb", b"\xff", b"a"], 1, "invalid token 'a\\tb'"),
        ([b"a", b"b", b"\xff\xfe", b"b"], 2, "undecodable token bytes"),
    ],
    ids=["undecodable-before-duplicate", "duplicate-before-undecodable", "cut-character",
         "whitespace-before-undecodable", "undecodable-last-but-one"],
)
def test_binary_token_faults_name_the_first_in_file_order(tmp_path, names, bad, message):
    path = tmp_path / "tok.bin"
    blob, offsets = binary_blob(names, [[1.0, 2.0]] * len(names))
    path.write_bytes(blob)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format="binary")
    assert str(caught.value).startswith(f"{path}: offset {offsets[bad]}: {message}")


def test_binary_rows_before_an_undecodable_name_are_checked_first(tmp_path):
    path = tmp_path / "tok.bin"
    blob, offsets = binary_blob([b"a", b"b\xff"], [[0.0, 0.0], [1.0, 2.0]])
    path.write_bytes(blob)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format="binary")
    assert str(caught.value) == f"{path}: offset {offsets[0] + 2}: zero vector for token 'a'"


def test_binary_unterminated_first_token_names_offset(tmp_path):
    path = tmp_path / "tok.bin"
    path.write_bytes(b"1 2\nabc")
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format="binary")
    assert str(caught.value) == f"{path}: offset 4: unterminated token for vector 0"


def test_text_embeddings_with_invalid_utf8_name_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 2\nfoo 1.0 2.0\r\nb\xffr 3.0 4.0\n")
    with pytest.raises(EmbeddingParseError, match=r"bad\.txt:3: not valid UTF-8"):
        load_embeddings(path)


# The Unicode line boundaries other than \n, \r\n and \r.
NON_BREAKING_BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NON_BREAKING_BOUNDARIES, ids=[f"U+{ord(c):04X}" for c in NON_BREAKING_BOUNDARIES])
def test_text_unicode_line_boundaries_separate_values(tmp_path, sep):
    # Lines break only at \n, \r\n and \r; the other boundaries are whitespace inside a row.
    path = tmp_path / "sep.txt"
    path.write_text(f"a 1{sep}2\nb{sep}3 4\n", encoding="utf-8")
    loaded = load_embeddings(path, format="text-noheader")
    assert loaded.tokens == ["a", "b"]
    assert loaded.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_text_error_after_a_form_feed_names_the_text_mode_line(tmp_path):
    path = tmp_path / "ff.txt"
    path.write_text("a 1 2\nb 1\x0c2\nc 3 4\nd x 5\n", encoding="utf-8")
    with pytest.raises(EmbeddingParseError, match=r"ff\.txt:4: could not convert string to float: 'x'"):
        load_embeddings(path, format="text-noheader")


def test_headerless_text_loads_like_its_headered_twin_across_chunks(tmp_path):
    # A headerless matrix grows a chunk at a time; the rows must land where a sized one puts them.
    n = 2 * embeddings._TEXT_LINES + 3
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(3).normal(size=(n, 3)))
    save_embeddings(emb, tmp_path / "with.txt", format="text")
    save_embeddings(emb, tmp_path / "without.txt", format="text-noheader")
    headered = load_embeddings(tmp_path / "with.txt")
    for fmt in ("text", "text-noheader"):
        headerless = load_embeddings(tmp_path / "without.txt", format=fmt)
        assert headerless.tokens == headered.tokens == emb.tokens
        assert headerless.vectors.shape == (n, 3)
        assert np.array_equal(headerless.vectors, headered.vectors)
        assert np.array_equal(headerless.vectors, emb.vectors)


def test_text_fault_past_the_first_chunk_names_its_line(tmp_path):
    n = embeddings._TEXT_LINES + 10
    rows = [f"w{i} 1.0 2.0" for i in range(n)]
    rows[-3] = f"w{n - 3} 1.0 x"
    path = tmp_path / "late.txt"
    path.write_text(f"{n} 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(EmbeddingParseError, match=rf"late\.txt:{n - 1}: could not convert string to float: 'x'"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1000000000000 2\na 1 2\n", "header declares 1000000000000 vectors, found 1"),
        ("2 1000000000000\na 1 2\nb 3 4\n", "2: expected 1000000000000 values, found 2"),
    ],
    ids=["count", "dim"],
)
def test_a_header_larger_than_its_file_is_a_parse_error(tmp_path, text, message):
    # The header's count is only compared with the rows read; it sizes nothing.
    path = tmp_path / "big.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingParseError, match=re.escape(message)):
        load_embeddings(path)


def test_a_header_count_past_the_rows_allocates_nothing_for_it(tmp_path):
    # One row whose long token makes the file as long as the header's count of
    # rows could be, at two bytes per character in the file and one in memory.
    dim = 100
    row = "é" * 2**20 + " 0.5" * dim + "\n"
    count = len(row.encode("utf-8")) // (2 * dim + 1)
    path = tmp_path / "long-token.txt"
    path.write_text(f"{count} {dim}\n{row}", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(EmbeddingParseError) as caught:
            load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"{path}: header declares {count} vectors, found 1"
    # The load holds the line a few times over, about 3 MiB; a matrix of count rows is 8 MB.
    assert peak < count * dim * 8 / 2


TOO_WIDE = "values per vector, more than an array can hold"


@pytest.mark.parametrize(
    "fmt, blob, message",
    [
        ("text", b"2 1000000000000000000000000000000\na 1 2\n", f": header declares {10**30} {TOO_WIDE}"),
        ("text", b"2 1152921504606846976\na 1 2\n", f": header declares {2**60} {TOO_WIDE}"),
        ("text", b"2 1152921504606846975\na 1 2\nb 3 4\n", ":2: expected 1152921504606846975 values, found 2"),
        ("binary", b"2 4611686018427387904\na ", f": header declares {2**62} {TOO_WIDE}"),
        ("binary", b"2 2305843009213693952\na ", f": header declares {2**61} {TOO_WIDE}"),
        ("binary", b"2 2305843009213693951\na ", ": offset 24: truncated vector for token 'a'"),
    ],
    ids=["text-1e30", "text-2**60", "text-widest", "binary-2**62", "binary-2**61", "binary-widest"],
)
def test_a_header_too_wide_for_an_array_is_a_parse_error(tmp_path, fmt, blob, message):
    # numpy shapes a row of at most np.iinfo(np.intp).max bytes, of 8-byte
    # (text) or 4-byte (binary) values; a wider header names the file.
    path = tmp_path / "wide.vec"
    path.write_bytes(blob)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format=fmt)
    assert str(caught.value) == f"{path}{message}"


def test_a_binary_row_of_4_gib_in_a_file_as_long_is_a_parse_error(tmp_path, monkeypatch):
    # A row is one match of a pattern that repeats its value bytes 4 * dim times,
    # cut to the file's size, and re repeats a pattern fewer than 2**32 - 1 times.
    path = tmp_path / "wide.bin"
    path.write_bytes(b"1 1073741824\na " + bytes(8))
    stat = os.fstat
    monkeypatch.setattr(embeddings.os, "fstat", lambda fd: os.stat_result((*stat(fd)[:6], 2**33, *stat(fd)[7:])))
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format="binary")
    assert str(caught.value) == f"{path}: header declares {2**30} values per vector; rows of 4 GiB are not read"


@pytest.mark.parametrize("fmt", ["text", "text-noheader"])
def test_text_load_holds_its_matrix_and_one_chunk_of_lines(tmp_path, fmt):
    # With or without a header the matrix grows in place, a chunk at a time.
    n, dim = 20_000, 50
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(9).normal(size=(n, dim)))
    path = tmp_path / "big.txt"
    save_embeddings(emb, path, format=fmt)
    tracemalloc.start()
    try:
        loaded = load_embeddings(path, format=fmt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.vectors, emb.vectors)
    # Past what the matrix keeps (its vectors, tokens and row map), the load holds one chunk of
    # lines and its parsed rows: about 5 MB here.  The file's bytes, or all of its lines, are 19 MB.
    allowance = 8 * 2**20
    assert peak - kept < allowance < path.stat().st_size / 2


def test_text_chunks_end_at_a_chunk_of_text_before_their_line_count(tmp_path):
    # 4 096 of these 2.3 kB lines would be 9 MiB, past the allowance below; a chunk ends at 1 MiB of text.
    n, dim = 6_000, 120
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(9).normal(size=(n, dim)))
    path = tmp_path / "wide.txt"
    save_embeddings(emb, path, format="text")
    tracemalloc.start()
    try:
        loaded = load_embeddings(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.vectors, emb.vectors)
    # The allowance of test_text_load_holds_its_matrix_and_one_chunk_of_lines.
    allowance = 8 * 2**20
    assert peak - kept < allowance < path.stat().st_size * embeddings._TEXT_LINES / n


def test_binary_load_holds_its_matrix_and_one_chunk(tmp_path):
    n, dim = 20_000, 100
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(9).normal(size=(n, dim)))
    path = tmp_path / "big.bin"
    save_embeddings(emb, path, format="binary")
    tracemalloc.start()
    try:
        loaded = load_embeddings(path, format="binary")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.vectors, emb.vectors.astype("<f4"))
    # Past what the matrix keeps, the load holds a chunk (and the next one as it is read) and,
    # per token, its bytes, offset and decoded text: about 2.5 MiB here.  The file is 7.8 MiB.
    allowance = 2 * 2**20 + 64 * n
    assert peak - kept < allowance < path.stat().st_size / 2


def test_checking_rows_takes_one_square_per_row():
    # The check after a binary load runs over the whole matrix; it copies no value.
    n, dim = 20_000, 100
    vectors = np.random.default_rng(9).normal(size=(n, dim)).astype("<f4")
    tokens = [f"w{i}" for i in range(n)]
    tracemalloc.start()
    try:
        embeddings._check_values(tokens, vectors, str, EmbeddingParseError)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A float64 square per row is 160 kB here; a mask over every value would be 2 MB.
    assert peak < 2**20 < n * dim


@pytest.mark.parametrize(
    "header, message",
    [
        (b"1000000000000 2\n", "offset 27: unterminated token for vector 1"),
        (b"2 1000000000000\n", "offset 18: truncated vector for token 'a'"),
    ],
    ids=["count", "dim"],
)
def test_a_binary_header_larger_than_its_file_is_a_parse_error(tmp_path, header, message):
    # The loader sizes its matrix from the header only as far as the file can hold rows.
    path = tmp_path / "big.bin"
    path.write_bytes(header + b"a " + np.array([1, 2], dtype="<f4").tobytes() + b"\n")
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path, format="binary")
    assert str(caught.value) == f"{path}: {message}"


ONE = np.array([1.0], dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "blob, tokens",
    [
        (b"1 4000000\na " + bytes(8 * 2**20), None),
        (b"2 1\na " + ONE + b"\n" * (8 * 2**20) + b"b " + ONE + b"\n", ["a", "b"]),
    ],
    ids=["row-past-the-end", "newlines"],
)
def test_a_binary_load_holds_one_chunk_of_what_it_does_not_keep(tmp_path, blob, tokens):
    # Once a row's token is read, a row whose values would end past the file is
    # cut without reading on; newlines between rows are dropped as they are read.
    path = tmp_path / "long.bin"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        if tokens is None:
            with pytest.raises(EmbeddingParseError, match="offset 12: truncated vector for token 'a'"):
                load_embeddings(path, format="binary")
        else:
            assert load_embeddings(path, format="binary").tokens == tokens
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About a chunk; holding what was read past the first row would take 8 MiB.
    assert peak < 3 * 2**20 < path.stat().st_size / 2


@pytest.mark.parametrize("fmt", ["text", "text-noheader"])
def test_a_fault_on_the_last_line_holds_one_chunk_of_lines(tmp_path, fmt):
    # The faulty chunk alone is scanned for the bad line; the file is not read again.
    n, dim = 20_000, 50
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(9).normal(size=(n, dim)))
    path = tmp_path / "late.txt"
    save_embeddings(emb, path, format=fmt)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rindex(" ")] + " x\n", encoding="utf-8")
    del text
    tracemalloc.start()
    try:
        with pytest.raises(EmbeddingParseError) as caught:
            load_embeddings(path, format=fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lineno = n + (fmt == "text")
    assert str(caught.value) == f"{path}:{lineno}: could not convert string to float: 'x'"
    # The allowance of test_text_load_holds_its_matrix_and_one_chunk_of_lines, past the matrix.
    allowance = 8 * 2**20
    assert peak - n * dim * 8 < allowance < path.stat().st_size / 2


def _late_utf8_fault(path, lines: int, bad_row: int | None) -> int:
    """Write a headered file of ``lines`` rows, with an ``x`` value on ``bad_row``; return the last line's number."""
    rows = [f"w{i} {'x' if i == bad_row else 1} 2\n" for i in range(lines)]
    path.write_text(f"{lines} 2\n" + "".join(rows), encoding="utf-8")
    return lines + 1


@pytest.mark.parametrize(
    "chunk_lines, bad_row",
    [(None, None), (1, 0)],
    ids=["while-reading-a-chunk", "while-counting-after-a-row-fault"],
)
def test_a_file_changed_after_its_utf8_check_names_file_and_line(tmp_path, monkeypatch, chunk_lines, bad_row):
    # The file turns invalid between open_text's check and its lines; the
    # bad byte sits past the first 8 KiB the text reader decodes at once.
    path = tmp_path / "changing.txt"
    last = _late_utf8_fault(path, 3000, bad_row)
    check = embeddings.open_text

    def open_then_change(*args):
        lines = check(*args)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3] + b"\xff" + blob[-2:])
        return lines

    monkeypatch.setattr(embeddings, "open_text", open_then_change)
    if chunk_lines is not None:
        monkeypatch.setattr(embeddings, "_TEXT_LINES", chunk_lines)
    with pytest.raises(EmbeddingParseError) as caught:
        load_embeddings(path)
    assert str(caught.value).startswith(f"{path}:{last}: not valid UTF-8")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown embedding format"):
        load_embeddings(tmp_path / "x", format="protobuf")


def test_save_rejects_an_unknown_format(small_matrix, tmp_path):
    with pytest.raises(ValueError, match="unknown embedding format"):
        save_embeddings(small_matrix, tmp_path / "x", format="protobuf")
    assert not (tmp_path / "x").exists()


def test_zero_count_first_line_is_a_data_row(tmp_path):
    # A header needs a positive count and dim, so "0 1" is token "0" with value 1.
    path = tmp_path / "zero.txt"
    path.write_text("0 1\nb 2\n", encoding="utf-8")
    emb = load_embeddings(path)
    assert emb.tokens == ["0", "b"]
    assert np.array_equal(emb.vectors, np.array([[1.0], [2.0]]))


# ------------------------------------------------------- term normalization


def test_normalize_term_lowercases_and_splits():
    assert normalize_term("Common cold") == ["common", "cold"]


def test_normalize_term_keeps_digits():
    assert normalize_term("ICI 118630") == ["ici", "118630"]


def test_normalize_term_empty_input():
    assert normalize_term("") == []


def test_normalize_term_deletes_punctuation_inside_words():
    assert normalize_term("light-headedness") == ["lightheadedness"]
    assert normalize_term("B+ (grade)") == ["b", "grade"]


def test_normalize_term_all_punctuation():
    assert normalize_term("++--!!") == []


@given(st.text(max_size=40))
def test_normalize_term_is_idempotent(s):
    once = normalize_term(s)
    assert normalize_term(" ".join(once)) == once


def _normalize_term_per_character(term: str) -> list[str]:
    return "".join(ch for ch in term.lower() if unicodedata.category(ch)[0] not in ("P", "S")).split()


@given(st.text(st.characters(exclude_categories=())))
def test_normalize_term_matches_the_per_character_filter(s):
    assert normalize_term(s) == _normalize_term_per_character(s)


# ------------------------------------------------------------- composition


def test_compose_single_in_vocab_word_is_identity(small_matrix):
    composed = compose_term("alpha", small_matrix)
    assert composed.in_vocab == ["alpha"]
    assert np.array_equal(composed.vector, small_matrix.vector("alpha"))


def test_compose_skips_out_of_vocab_words(small_matrix):
    composed = compose_term("zeta beta gamma", small_matrix)
    assert composed.tokens == ["zeta", "beta", "gamma"]
    assert composed.in_vocab == ["beta", "gamma"]
    expected = (small_matrix.vector("beta") + small_matrix.vector("gamma")) / 2.0
    assert np.allclose(composed.vector, expected, atol=0, rtol=0)


def test_compose_all_oov_has_no_vector(small_matrix):
    composed = compose_term("zeta eta", small_matrix)
    assert composed.in_vocab == []
    assert composed.vector is None


def test_compose_is_order_invariant(small_matrix):
    forward = compose_term("alpha beta gamma", small_matrix)
    backward = compose_term("gamma beta alpha", small_matrix)
    assert np.abs(forward.vector - backward.vector).max() <= 1e-12


def test_compose_matches_naive_centroid(small_matrix):
    term = "alpha beta gamma delta epsilon"
    composed = compose_term(term, small_matrix)
    total = np.zeros(small_matrix.dim)
    for tok in ["alpha", "beta", "gamma", "delta", "epsilon"]:
        total = total + small_matrix.vector(tok)
    assert np.abs(composed.vector - total / 5.0).max() <= 1e-6


# --------------------------------------------------------- candidate index


def test_index_discards_fully_oov_terms(small_matrix):
    index = build_candidate_index(
        ["alpha", "beta", "zeta", "gamma delta", "eta theta"], small_matrix
    )
    assert index.surfaces == ["alpha", "beta", "gamma delta"]
    assert index.n_discarded == 2
    assert len(index) + index.n_discarded == 5


def test_index_vectors_are_unit(small_matrix):
    index = build_candidate_index(["alpha", "beta gamma"], small_matrix)
    norms = np.linalg.norm(index.matrix, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-6


def test_index_collapses_duplicate_surfaces_to_first(small_matrix):
    index = build_candidate_index(["Alpha!", "alpha", "beta"], small_matrix)
    assert index.surfaces == ["Alpha!", "beta"]
    assert index.index_of("ALPHA") == 0
    assert index.index_of("beta") == 1
    assert term_key("Alpha!") == "alpha"


def test_index_lookup_misses_return_none(small_matrix):
    index = build_candidate_index(["alpha"], small_matrix)
    assert index.index_of("omega") is None


def test_empty_index_is_an_error(small_matrix):
    with pytest.raises(ValueError, match="candidate index is empty"):
        build_candidate_index(["zeta", "eta"], small_matrix)


@pytest.mark.parametrize(
    "surfaces, matrix, message",
    [(["a", "b"], np.eye(3)[:1], "one row per surface"), ([], np.zeros((0, 3)), "candidate index is empty")],
    ids=["row-count", "no-surfaces"],
)
def test_direct_index_rejects_a_malformed_matrix(surfaces, matrix, message):
    with pytest.raises(ValueError, match=message):
        CandidateIndex(surfaces, matrix)


def test_direct_index_requires_unit_rows():
    with pytest.raises(ValueError, match="unit-normalized"):
        CandidateIndex(["a"], np.array([[3.0, 4.0]]))


@pytest.mark.parametrize("row", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
def test_direct_index_rejects_non_finite_rows(row):
    with pytest.raises(ValueError, match="unit-normalized"):
        CandidateIndex(["a", "b"], np.array([[0.6, 0.8], row]))


def test_near_cancelling_term_is_discarded_logged_and_counted(caplog):
    # Both rows are valid, but "up down" composes to [0, 1e-160], whose
    # squares sum to a subnormal: its norm is inexact.
    emb = EmbeddingMatrix(["up", "down", "x"], [[1, 1e-160], [-1, 1e-160], [0.3, 0.4]])
    index = build_candidate_index(["up down", "x"], emb)
    assert index.surfaces == ["x"]
    assert index.n_discarded == 1
    assert np.array_equal(index.matrix, [[0.6, 0.8]])
    assert caplog.messages == ["discarding 'up down': composed norm underflows float64"]


def test_index_build_allocates_one_index_sized_matrix():
    n, dim = 2000, 500
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(5).normal(size=(n, dim)))
    terms = [f"w{i}" for i in range(n)] + ["w0 w1", "w2 w3 w4"]
    tracemalloc.start()
    try:
        index = build_candidate_index(terms, emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The float64 matrix is the index's own: a second copy of it would double the peak.
    assert peak < 1.5 * index.matrix.nbytes


def test_index_build_from_float32_vectors_allocates_only_the_index(tmp_path):
    # Rows are gathered into the float64 index a slice at a time, never as a float32 copy of it.
    n, dim = 2000, 1000
    emb = EmbeddingMatrix([f"w{i}" for i in range(n)], np.random.default_rng(5).normal(size=(n, dim)))
    save_embeddings(emb, tmp_path / "vec.bin", format="binary")
    loaded = load_embeddings(tmp_path / "vec.bin", format="binary")
    assert loaded.vectors.dtype == np.float32
    terms = [f"w{i}" for i in range(n)] + ["w0 w1", "w2 w3 w4"]
    tracemalloc.start()
    try:
        index = build_candidate_index(terms, loaded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * index.matrix.nbytes
    # The gather widens exactly: the same rows held as float64 give the same index, bit for bit.
    widened = EmbeddingMatrix(loaded.tokens, loaded.vectors.astype(np.float64))
    assert np.array_equal(index.matrix, build_candidate_index(terms, widened).matrix)


@pytest.mark.parametrize("surface", ["alpha\r\nbeta", "alpha\nbeta", "alpha\rbeta"])
def test_index_rejects_surfaces_holding_line_breaks(small_matrix, surface):
    # Such a surface, reported as a top guess, would not read back from the outcomes CSV.
    with pytest.raises(ValueError, match="contains a line break"):
        build_candidate_index(["gamma", surface], small_matrix)
    with pytest.raises(ValueError, match="contains a line break"):
        CandidateIndex(["gamma", surface], np.eye(2))
