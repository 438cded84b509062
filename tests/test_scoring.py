from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from analogykit.embeddings import CandidateIndex
from analogykit.scoring import (
    _PAIRDIST_ROWS,
    AnalogyQuery,
    exemplar_offset,
    rank_answers,
    rank_candidates,
    score_candidates,
)


def _cos(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def naive_scores(
    matrix: np.ndarray,
    query: AnalogyQuery,
    method: str,
    epsilon: float = 0.001,
    shift: bool = False,
) -> np.ndarray:
    """Reference implementation: one candidate at a time, no batching."""
    offset = query.b.mean(axis=0) - query.a
    out = []
    for row in matrix:
        if method == "cosadd":
            out.append(_cos(row, query.c + offset))
        elif method == "pairdist":
            out.append(_cos(row - query.c, offset))
        elif method == "cosmul":
            vals = []
            for b_i in query.b:
                sb, sc, sa = _cos(row, b_i), _cos(row, query.c), _cos(row, query.a)
                if shift:
                    sb, sc, sa = (sb + 1) / 2, (sc + 1) / 2, (sa + 1) / 2
                vals.append(sb * sc / (sa + epsilon))
            out.append(sum(vals) / len(vals))
        else:
            raise AssertionError(method)
    return np.array(out)


def random_index(rng: np.random.Generator, n: int, dim: int) -> CandidateIndex:
    raw = rng.normal(size=(n, dim))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return CandidateIndex([f"cand{i}" for i in range(n)], unit)


def random_query(rng: np.random.Generator, dim: int, k: int) -> AnalogyQuery:
    def unit(v):
        return v / np.linalg.norm(v)

    return AnalogyQuery(
        a=unit(rng.normal(size=dim)),
        b=np.vstack([unit(rng.normal(size=dim)) for _ in range(k)]),
        c=unit(rng.normal(size=dim)),
    )


# ------------------------------------------------------------------- offset


def test_offset_with_single_example_is_b_minus_a():
    a = np.array([0.3, -0.7, 0.1])
    b = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(exemplar_offset(a, b), b[0] - a)


def test_offset_of_identical_pair_is_zero():
    a = np.array([0.5, 0.5])
    assert np.array_equal(exemplar_offset(a, a[None, :]), np.zeros(2))


def test_offset_averages_examples():
    a = np.array([1.0, 0.0])
    b = np.array([[0.0, 1.0], [2.0, 1.0]])
    # mean of (-1, 1) and (1, 1)
    assert np.array_equal(exemplar_offset(a, b), np.array([0.0, 1.0]))


# ----------------------------------------------------------- method scoring


@pytest.mark.parametrize("method", ["cosadd", "pairdist", "cosmul"])
@pytest.mark.parametrize("k", [1, 3])
def test_scores_match_naive_loop(method, k):
    rng = np.random.default_rng(11)
    index = random_index(rng, 60, 12)
    for _ in range(5):
        query = random_query(rng, 12, k)
        expected = naive_scores(index.matrix, query, method)
        got = score_candidates(index, query, method)
        assert np.abs(got - expected).max() <= 1e-6


def test_royal_fixture_top_guess_after_exclusion():
    # man : woman :: king : ? with queen sharing woman's direction
    matrix = np.array(
        [
            [1.0, 0.0],  # man
            [0.0, 1.0],  # queen
            [1.0, 1.0],  # king
            [0.0, 1.0],  # woman
        ]
    )
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    index = CandidateIndex(["man", "queen", "king", "woman"], matrix)
    query = AnalogyQuery(a=matrix[0], b=matrix[3][None, :], c=matrix[2])
    for method in ("cosadd", "pairdist", "cosmul"):
        _, guess = rank_answers(score_candidates(index, query, method), [], excluded={0, 2, 3})
        assert index.surfaces[guess] == "queen", method


def test_cosadd_with_c_equal_a_reduces_to_cos_d_b():
    rng = np.random.default_rng(3)
    index = random_index(rng, 40, 8)
    a = rng.normal(size=8)
    a /= np.linalg.norm(a)
    b = index.matrix[17]
    query = AnalogyQuery(a=a, b=b[None, :], c=a)
    scores = score_candidates(index, query, "cosadd")
    direct = index.matrix @ b
    assert np.abs(scores - direct).max() <= 1e-12
    # the example term itself tops the full ranking
    assert rank_candidates(scores)[0] == 17


def test_cosmul_matches_log_sum_argmax_on_positive_vectors():
    rng = np.random.default_rng(23)
    dim = 10
    raw = np.abs(rng.normal(size=(50, dim))) + 0.1
    matrix = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    index = CandidateIndex([f"c{i}" for i in range(50)], matrix)

    def unit(v):
        return v / np.linalg.norm(v)

    query = AnalogyQuery(
        a=unit(np.abs(rng.normal(size=dim)) + 0.1),
        b=unit(np.abs(rng.normal(size=dim)) + 0.1)[None, :],
        c=unit(np.abs(rng.normal(size=dim)) + 0.1),
    )
    eps = 1e-9
    scores = score_candidates(index, query, "cosmul", epsilon=eps)
    log_form = (
        np.log(matrix @ query.b[0])
        + np.log(matrix @ query.c)
        - np.log(matrix @ query.a + eps)
    )
    assert rank_candidates(scores)[0] == rank_candidates(log_form)[0]


def test_cosadd_ranking_survives_candidate_rescaling():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(30, 6))
    scales = rng.uniform(0.1, 10.0, size=30)
    unit_a = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    scaled = raw * scales[:, None]
    unit_b = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    index_a = CandidateIndex([f"c{i}" for i in range(30)], unit_a)
    index_b = CandidateIndex([f"c{i}" for i in range(30)], unit_b)
    query = random_query(rng, 6, 1)
    scores_a = score_candidates(index_a, query, "cosadd")
    scores_b = score_candidates(index_b, query, "cosadd")
    assert np.abs(scores_a - scores_b).max() <= 1e-9
    assert np.array_equal(rank_candidates(scores_a), rank_candidates(scores_b))


def test_cosadd_zero_target_scores_all_zero():
    # a == b and c == 0 make the target c + (b - a) the zero vector.
    rng = np.random.default_rng(17)
    index = random_index(rng, 10, 4)
    a = index.matrix[3]
    query = AnalogyQuery(a=a, b=a[None, :], c=np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = score_candidates(index, query, "cosadd")
    assert np.array_equal(scores, np.zeros(10))
    assert rank_answers(scores, [], {0, 3})[1] == 1


def test_pairdist_zero_offset_scores_all_zero():
    rng = np.random.default_rng(9)
    index = random_index(rng, 20, 5)
    a = index.matrix[0]
    query = AnalogyQuery(a=a, b=a[None, :], c=index.matrix[1])
    assert np.array_equal(score_candidates(index, query, "pairdist"), np.zeros(20))


def test_pairdist_candidate_equal_to_c_scores_zero():
    rng = np.random.default_rng(13)
    index = random_index(rng, 20, 5)
    query = AnalogyQuery(a=index.matrix[2], b=index.matrix[3][None, :], c=index.matrix[7])
    scores = score_candidates(index, query, "pairdist")
    assert scores[7] == 0.0


def whole_matrix_pairdist(matrix: np.ndarray, query: AnalogyQuery) -> np.ndarray:
    """The pairdist formula over one difference matrix for all of ``matrix``."""
    offset = exemplar_offset(query.a, query.b)
    diff = matrix - query.c
    diff_norms = np.linalg.norm(diff, axis=1)
    raw = diff @ (offset / np.linalg.norm(offset))
    return np.divide(raw, diff_norms, out=np.zeros_like(raw), where=diff_norms != 0.0)


def test_pairdist_chunks_match_the_whole_matrix_formula():
    assert _PAIRDIST_ROWS % 4 == 0
    rng = np.random.default_rng(31)
    n = 3 * _PAIRDIST_ROWS + 5
    raw = rng.normal(size=(n, 40))
    query = random_query(rng, 40, 2)
    # Candidates equal to c in the first chunk, a middle chunk and the ragged last one.
    at_c = [3, _PAIRDIST_ROWS + 17, 3 * _PAIRDIST_ROWS + 2]
    raw[at_c] = query.c
    index = CandidateIndex([f"cand{i}" for i in range(n)], raw / np.linalg.norm(raw, axis=1, keepdims=True))
    assert np.array_equal(index.matrix[at_c], np.broadcast_to(query.c, (3, 40)))

    scores = score_candidates(index, query, "pairdist")
    for start in range(0, n, _PAIRDIST_ROWS):
        stop = min(start + _PAIRDIST_ROWS, n)
        assert np.array_equal(scores[start:stop], whole_matrix_pairdist(index.matrix[start:stop], query))
    assert np.abs(scores - whole_matrix_pairdist(index.matrix, query)).max() <= 1e-15
    assert all(scores[i] == 0.0 for i in at_c)

    one_chunk = CandidateIndex(index.surfaces[:_PAIRDIST_ROWS], index.matrix[:_PAIRDIST_ROWS])
    assert np.array_equal(
        score_candidates(one_chunk, query, "pairdist"), whole_matrix_pairdist(one_chunk.matrix, query)
    )


def test_shift_changes_cosmul_only():
    rng = np.random.default_rng(17)
    index = random_index(rng, 25, 6)
    query = random_query(rng, 6, 2)
    for method in ("cosadd", "pairdist"):
        plain = score_candidates(index, query, method)
        shifted = score_candidates(index, query, method, shift=True)
        assert np.array_equal(plain, shifted)
    plain = score_candidates(index, query, "cosmul")
    shifted = score_candidates(index, query, "cosmul", shift=True)
    assert not np.allclose(plain, shifted)
    expected = naive_scores(index.matrix, query, "cosmul", shift=True)
    assert np.abs(shifted - expected).max() <= 1e-6


def test_shifted_cosmul_scores_are_non_negative():
    rng = np.random.default_rng(19)
    index = random_index(rng, 40, 7)
    query = random_query(rng, 7, 1)
    assert (score_candidates(index, query, "cosmul", shift=True) >= 0.0).all()


# ------------------------------------------------------------------ ranking


def test_rank_breaks_ties_by_ascending_index():
    assert np.array_equal(rank_candidates(np.array([0.9, 0.9, 0.1])), [0, 1, 2])


def test_rank_with_exclusions_removes_indices():
    order = rank_candidates(np.array([0.1, 0.5, 0.9]), exclusions={2})
    assert order[0] == 1


def test_rank_with_all_excluded_is_an_error():
    with pytest.raises(ValueError, match="every candidate is excluded"):
        rank_candidates(np.array([0.1, 0.5]), exclusions={0, 1})


def test_rank_matches_sort_oracle_on_random_ties():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        scores = np.round(rng.normal(size=rng.integers(2, 12)), 1)
        expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        assert list(rank_candidates(scores)) == expected


def test_rank_answers_positions_invert_the_order():
    scores = np.array([0.2, 0.9, 0.5, 0.9])
    order = rank_candidates(scores)
    positions, _ = rank_answers(scores, range(4))
    assert np.array_equal(order[np.array(positions) - 1], np.arange(4))
    assert positions[1] == 1  # highest score, lowest index


def test_rank_answers_top_guess_skips_excluded_prefix():
    scores = np.array([0.5, 0.8, 0.1, 0.9])
    assert list(rank_candidates(scores)) == [3, 1, 0, 2]
    assert rank_answers(scores, [], {3, 1})[1] == 0


def test_rank_answers_with_everything_excluded_is_an_error():
    with pytest.raises(ValueError, match="every candidate is excluded"):
        rank_answers(np.array([0.9, 0.1]), [], {0, 1})


_SPECIAL_SCORES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, np.inf, -np.inf, np.nan])


@given(
    st.lists(_SPECIAL_SCORES | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=24)
    .flatmap(
        lambda values: st.tuples(
            st.just(values),
            st.lists(st.integers(0, len(values) - 1), unique=True),
            st.sets(st.integers(0, len(values) - 1)),
        )
    )
)
@example(([0.5, np.nan, np.nan, -np.inf], [2, 1, 3], {0, 3}))  # only NaNs left unexcluded
def test_rank_answers_matches_stable_argsort_oracle(case):
    values, answers, excluded = case
    scores = np.array(values, dtype=np.float64)
    order = rank_candidates(scores)
    oracle = np.empty(len(order), dtype=np.int64)
    oracle[order] = np.arange(1, len(order) + 1)
    unexcluded = [int(i) for i in order if int(i) not in excluded]
    if not unexcluded:
        with pytest.raises(ValueError, match="every candidate is excluded"):
            rank_answers(scores, answers, excluded)
        return
    positions, top = rank_answers(scores, answers, excluded)
    assert positions == [int(oracle[i]) for i in answers]
    assert top == unexcluded[0]


# --------------------------------------------------------------- validation


def test_query_requires_matching_dims():
    with pytest.raises(ValueError, match="dimensionality"):
        AnalogyQuery(a=np.zeros(3), b=np.zeros((1, 3)), c=np.zeros(4))


def test_query_requires_at_least_one_example():
    with pytest.raises(ValueError, match="k >= 1"):
        AnalogyQuery(a=np.zeros(3), b=np.zeros((0, 3)), c=np.zeros(3))


def test_score_rejects_unknown_method():
    rng = np.random.default_rng(1)
    index = random_index(rng, 5, 3)
    with pytest.raises(ValueError, match="unknown scoring method"):
        score_candidates(index, random_query(rng, 3, 1), "euclid")


def test_score_rejects_dim_mismatch():
    rng = np.random.default_rng(1)
    index = random_index(rng, 5, 3)
    with pytest.raises(ValueError, match="query dimension"):
        score_candidates(index, random_query(rng, 4, 1), "cosadd")
