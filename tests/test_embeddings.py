from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_binary_round_trip_is_float32_exact(small_matrix, tmp_path):
    path = tmp_path / "vec.bin"
    save_embeddings(small_matrix, path, format="binary")
    loaded = load_embeddings(path, format="binary")
    assert loaded.tokens == small_matrix.tokens
    expected = small_matrix.vectors.astype("<f4").astype(np.float64)
    assert np.array_equal(loaded.vectors, expected)


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


def test_truncated_binary_names_offset(small_matrix, tmp_path):
    path = tmp_path / "trunc.bin"
    save_embeddings(small_matrix, path, format="binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(EmbeddingParseError, match="offset"):
        load_embeddings(path, format="binary")


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


def test_text_embeddings_with_invalid_utf8_name_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 2\nfoo 1.0 2.0\r\nb\xffr 3.0 4.0\n")
    with pytest.raises(EmbeddingParseError, match=r"bad\.txt:3: not valid UTF-8"):
        load_embeddings(path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown embedding format"):
        load_embeddings(tmp_path / "x", format="protobuf")


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


def test_direct_index_requires_unit_rows():
    with pytest.raises(ValueError, match="unit-normalized"):
        CandidateIndex(["a"], np.array([[3.0, 4.0]]))
