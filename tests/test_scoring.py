from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from analogykit.embeddings import CandidateIndex
from analogykit.scoring import (
    AnalogyQuery,
    combine_rows,
    exemplar_offset,
    query_directions,
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


@pytest.mark.parametrize(
    "method, zero", [("cosadd", "target"), ("pairdist", "offset"), ("cosmul", "a"), ("cosmul", "b"), ("cosmul", "c")]
)
def test_zero_norm_inputs_score_positive_zero(method, zero):
    # Rows whose components all share one sign: a product with the zero vector
    # that started from its first term would come out -0.0 on half of them.
    rng = np.random.default_rng(43)
    raw = rng.normal(size=(30, 5))
    raw[:15] = -np.abs(raw[:15])
    raw[15:] = np.abs(raw[15:])
    index = CandidateIndex([f"cand{i}" for i in range(30)], raw / np.linalg.norm(raw, axis=1, keepdims=True))
    q = random_query(rng, 5, 2)
    a, b, c = q.a, q.b, q.c
    if zero == "target":
        c = -exemplar_offset(a, b)
    elif zero == "offset":
        b = np.vstack([a, a])
    elif zero == "a":
        a = np.zeros(5)
    elif zero == "b":
        b = np.zeros((2, 5))
    else:
        c = np.zeros(5)
    query = AnalogyQuery(a=a, b=b, c=c)
    scores = score_candidates(index, query, method)
    if zero == "a":
        # cos(d, a) = 0 leaves every denominator at epsilon, and no score at zero
        assert np.abs(scores - naive_scores(index.matrix, query, method)).max() <= 1e-12
    else:
        # cosmul's per-exemplar term is -0.0 where its nonzero factors differ in sign
        assert np.array_equal(scores, np.zeros(30))
    assert not np.signbit(scores[scores == 0.0]).any()


def kernel_scores(index: CandidateIndex, query: AnalogyQuery, method: str, **options) -> np.ndarray:
    """The block kernel on one query: its directions, one product, its rows combined."""
    terms = ("a", *(f"b{i}" for i in range(query.b.shape[0])), "c")
    directions = query_directions(method, terms, [query.a, *query.b, query.c])
    sims = np.stack([vec for _, vec in directions]) @ index.matrix.T
    return combine_rows(method, list(sims), directions, **options)


@pytest.mark.parametrize("method", ["cosadd", "pairdist", "cosmul"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shift", [False, True])
def test_kernel_matches_score_candidates(method, k, shift):
    rng = np.random.default_rng(37)
    index = random_index(rng, 60, 8)
    for _ in range(5):
        query = random_query(rng, 8, k)
        expected = score_candidates(index, query, method, shift=shift)
        scores = kernel_scores(index, query, method, shift=shift)
        kept = np.ones(60, dtype=bool)
        if method == "cosmul":
            # cosmul magnifies round-off by 1 / (cos(d, a) + epsilon): leave out the
            # candidates whose denominator is under 0.05 (see the scoring docstring)
            sim_a = index.matrix @ query.a
            kept = np.abs(((sim_a + 1.0) / 2.0 if shift else sim_a) + 0.001) >= 0.05
            assert kept.sum() >= 50
        assert np.abs(scores - expected)[kept].max() <= 1e-12


@pytest.mark.parametrize("method", ["cosadd", "pairdist", "cosmul"])
def test_kernel_zero_direction_scores_positive_zero(method):
    rng = np.random.default_rng(41)
    index = random_index(rng, 20, 5)
    a = index.matrix[0]
    # cosadd's target c + b - a and pairdist's offset b - a are exactly zero
    query = AnalogyQuery(a=a, b=a[None, :], c=np.zeros(5))
    expected = score_candidates(index, query, method)
    scores = kernel_scores(index, query, method)
    assert np.array_equal(scores, expected)
    if method != "cosmul":
        assert np.array_equal(scores, np.zeros(20)) and not np.signbit(scores).any()


@pytest.mark.parametrize(
    "distance, near",
    [(0.0, True), (1e-7, True), (0.9e-6, True), (1.1e-6, False), (1e-3, False)],
)
def test_kernel_pairdist_scores_candidates_at_c_zero(distance, near):
    """Within 1e-6 of c (a squared distance of 1e-12) a candidate scores 0.0, as d == c does."""
    rng = np.random.default_rng(43)
    c = rng.normal(size=6)
    c /= np.linalg.norm(c)
    w = rng.normal(size=6)
    w -= (w @ c) * c
    w /= np.linalg.norm(w)
    d = c + distance * w
    d /= np.linalg.norm(d)
    raw = rng.normal(size=(5, 6))
    rows = np.vstack([raw / np.linalg.norm(raw, axis=1, keepdims=True), d])
    index = CandidateIndex([f"cand{i}" for i in range(6)], rows)
    assert abs(np.linalg.norm(index.matrix[5] - c) - distance) <= 1e-6 * max(distance, 1e-7)
    query = AnalogyQuery(a=rng.normal(size=6), b=w[None, :], c=c)
    expected = score_candidates(index, query, "pairdist")
    scores = kernel_scores(index, query, "pairdist")
    assert np.abs(scores[:5] - expected[:5]).max() <= 1e-12
    if near:
        assert scores[5] == 0.0
    else:
        # the expanded form keeps about five digits this close to c
        assert scores[5] != 0.0
        assert abs(scores[5] - expected[5]) <= 1e-4
    if distance == 0.0:
        assert expected[5] == 0.0


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
@example(([np.nan, -np.inf], [0, 1], set()))  # a kept -inf after a kept NaN is the top guess
@example(([np.nan, 0.5, np.nan, np.nan, -1.0, np.nan], [3], {1}))  # a NaN answer between NaN scores
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


def test_query_requires_one_dimensional_a():
    with pytest.raises(ValueError, match="a and c must be 1-d vectors"):
        AnalogyQuery(a=np.zeros((1, 3)), b=np.zeros((1, 3)), c=np.zeros(3))


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
