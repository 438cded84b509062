from __future__ import annotations

import numpy as np
import pytest

from analogykit.dataset import AnalogyRecord
from analogykit.embeddings import EmbeddingMatrix, build_candidate_index
from analogykit.evaluate import evaluate_records
from analogykit.metrics import MetricBundle
from analogykit.scoring import DEFAULT_EPSILON


def record(a: str, b: tuple[str, ...], c: str, d: tuple[str, ...], rid: str = "R") -> AnalogyRecord:
    return AnalogyRecord(relation_id=rid, a=a, b_list=b, c=c, d_list=d)


@pytest.fixture
def royal_space():
    emb = EmbeddingMatrix(
        ["man", "woman", "king", "queen"],
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
    )
    index = build_candidate_index(["man", "queen", "king", "woman"], emb)
    return emb, index


def test_perfect_fixture_is_all_ones(royal_space):
    emb, index = royal_space
    records = [record("man", ("woman",), "king", ("queen",))]
    for setting in ("single", "multi", "all-info"):
        for method in ("cosadd", "pairdist", "cosmul"):
            result = evaluate_records(records, emb, index, setting=setting, method=method)
            assert result.skipped == ()
            assert result.summary is not None
            assert result.summary.micro == MetricBundle(1.0, 1.0, 1.0, 1.0)


def test_out_of_vocabulary_query_term_is_skipped(royal_space):
    emb, index = royal_space
    records = [
        record("man", ("woman",), "king", ("queen",)),
        record("emperor", ("woman",), "king", ("queen",)),
    ]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    assert result.n_scored == 1
    (skip,) = result.skipped
    assert skip.a == "emperor"
    assert "no in-vocabulary words" in skip.reason


def test_missing_answers_score_zero_not_skip(royal_space):
    emb, index = royal_space
    records = [record("man", ("woman",), "king", ("queen", "woman")), record("man", ("woman",), "king", ("empress",))]
    # "empress" is not in the candidate index (nor the vocabulary)
    result = evaluate_records(records, emb, index, setting="multi", method="cosadd")
    assert result.skipped == ()
    hitless = result.outcomes[1]
    assert hitless.n_answers_scored == 0
    assert hitless.relaxed_hit is False
    assert hitless.average_precision == 0.0
    assert hitless.reciprocal_rank == 0.0
    # ambiguity still reflects the listed answers
    assert hitless.n_answers_listed == 1


def test_relaxed_hit_uses_excluded_ranking_but_ap_does_not():
    emb = EmbeddingMatrix(
        ["alpha1", "alpha2", "bravo", "delta"],
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.98]]),
    )
    index = build_candidate_index(["bravo", "delta", "alpha1"], emb)
    records = [record("alpha1", ("bravo",), "alpha2", ("delta",))]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    (outcome,) = result.outcomes
    # bravo tops the full ranking, so the answer sits at position 2 there,
    # but bravo is an example term and is excluded from the guess
    assert outcome.top_guess == "delta"
    assert outcome.relaxed_hit is True
    assert outcome.reciprocal_rank == 0.5
    assert outcome.average_precision == 0.5


def test_all_info_excludes_every_example_term():
    emb = EmbeddingMatrix(
        ["alpha1", "alpha2", "bravo", "carol", "delta"],
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.8], [0.25, 0.75]]),
    )
    index = build_candidate_index(["alpha1", "bravo", "carol", "delta"], emb)
    records = [record("alpha1", ("bravo", "carol"), "alpha2", ("delta",))]
    multi = evaluate_records(records, emb, index, setting="multi", method="cosadd")
    all_info = evaluate_records(records, emb, index, setting="all-info", method="cosadd")
    # with only the first example used, carol is a regular candidate and wins
    assert multi.outcomes[0].top_guess == "carol"
    assert multi.outcomes[0].relaxed_hit is False
    # with both examples used, carol is excluded and the answer surfaces
    assert all_info.outcomes[0].top_guess == "delta"
    assert all_info.outcomes[0].relaxed_hit is True


def test_multi_answer_hit_rate_dominates_single_answer():
    rng = np.random.default_rng(43)
    tokens = [f"w{i}" for i in range(30)]
    emb = EmbeddingMatrix(tokens, rng.normal(size=(30, 6)))
    index = build_candidate_index(tokens, emb)
    records = []
    for k in range(200):
        a, b, c, d1, d2 = rng.choice(30, size=5, replace=False)
        records.append(
            record(tokens[a], (tokens[b],), tokens[c], (tokens[d1], tokens[d2]), rid=f"R{k % 4}")
        )
    single = evaluate_records(records, emb, index, setting="single", method="cosadd")
    multi = evaluate_records(records, emb, index, setting="multi", method="cosadd")
    assert single.n_scored == multi.n_scored == 200
    for s_out, m_out in zip(single.outcomes, multi.outcomes):
        assert m_out.relaxed_hit >= s_out.relaxed_hit
        assert m_out.top_guess == s_out.top_guess
    assert multi.summary.micro.relaxed_accuracy >= single.summary.micro.relaxed_accuracy


def test_worker_count_does_not_change_results(royal_space):
    rng = np.random.default_rng(47)
    tokens = [f"w{i}" for i in range(25)]
    emb = EmbeddingMatrix(tokens, rng.normal(size=(25, 5)))
    index = build_candidate_index(tokens, emb)
    records = []
    for k in range(40):
        a, b, c, d = rng.choice(25, size=4, replace=False)
        records.append(record(tokens[a], (tokens[b],), tokens[c], (tokens[d],), rid=f"R{k % 3}"))
    records.append(record("unseen token", ("w1",), "w2", ("w3",)))
    runs = [
        evaluate_records(records, emb, index, setting="single", method="cosmul", workers=n)
        for n in (1, 2, 4)
    ]
    assert runs[0].outcomes == runs[1].outcomes == runs[2].outcomes
    assert runs[0].skipped == runs[1].skipped == runs[2].skipped
    assert runs[0].summary == runs[1].summary == runs[2].summary


def test_every_candidate_excluded_becomes_a_skip():
    emb = EmbeddingMatrix(
        ["alpha", "bravo", "gamma"], np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    )
    index = build_candidate_index(["alpha", "bravo"], emb)
    records = [record("alpha", ("bravo",), "gamma", ("bravo",))]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    (skip,) = result.skipped
    assert skip.reason == "every candidate is excluded"
    assert result.summary is None


def test_cosmul_zero_denominator_ranks_inf_first_by_index():
    # cos(d, a) == -epsilon exactly, so unshifted cosmul divides d's score by 0.0
    d = [-0.001, np.sqrt(1.0 - 1e-6)]
    emb = EmbeddingMatrix(
        ["a", "b", "c", "d", "e", "f"],
        np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], d, [0.8, 0.6], d]),
    )
    index = build_candidate_index(["a", "b", "c", "f", "d", "e"], emb)
    d_row, a_row = index.matrix[index.index_of("d")], index.matrix[index.index_of("a")]
    assert d_row @ a_row + DEFAULT_EPSILON == 0.0
    records = [record("a", ("b",), "c", ("d", "e"))]
    result = evaluate_records(records, emb, index, setting="multi", method="cosmul")
    assert result.skipped == ()
    (outcome,) = result.outcomes
    # f and d both score +inf, ahead of b (800), c (1.33), e (0.72) and a (0):
    # f wins the tie by its lower index, so d sits at 2 and e at 5
    assert outcome.top_guess == "f"
    assert outcome.relaxed_hit is False
    assert outcome.reciprocal_rank == 0.5
    assert outcome.average_precision == (1 / 2 + 2 / 5) / 2


def test_query_normalization_flag_changes_rankings():
    emb = EmbeddingMatrix(
        ["along", "bravo", "calm", "west", "north"],
        np.array([[4.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.2], [0.0, 0.9]]),
    )
    index = build_candidate_index(["bravo", "west", "north"], emb)
    records = [record("along", ("bravo",), "calm", ("west",))]
    normalized = evaluate_records(records, emb, index, setting="single", method="cosadd")
    raw = evaluate_records(
        records, emb, index, setting="single", method="cosadd", normalize_queries=False
    )
    # raw lengths swing the offset toward the negative axis; unit lengths do not
    assert raw.outcomes[0].reciprocal_rank == 1.0
    assert normalized.outcomes[0].reciprocal_rank < 1.0


def test_single_setting_keeps_listed_answer_count_for_ambiguity(royal_space):
    emb, index = royal_space
    records = [record("man", ("woman",), "king", ("queen", "woman", "man"))]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    (outcome,) = result.outcomes
    assert outcome.n_answers_listed == 3
    assert outcome.n_answers_scored == 1
    assert result.summary.micro.ambiguity == 3.0


def test_summary_is_none_when_nothing_scores(royal_space):
    emb, index = royal_space
    records = [record("nope", ("woman",), "king", ("queen",))]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    assert result.summary is None
    assert result.n_scored == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(setting="dual", method="cosadd"), "unknown setting"),
        (dict(setting="single", method="euclid"), "unknown scoring method"),
        (dict(setting="single", method="cosadd", workers=0), "workers"),
        (dict(setting="single", method="cosadd", epsilon=0.0), "epsilon"),
        (dict(setting="single", method="cosmul", epsilon=float("nan")), "epsilon"),
        (dict(setting="single", method="cosmul", epsilon=float("inf")), "epsilon"),
    ],
)
def test_evaluate_validates_arguments(royal_space, kwargs, message):
    emb, index = royal_space
    records = [record("man", ("woman",), "king", ("queen",))]
    with pytest.raises(ValueError, match=message):
        evaluate_records(records, emb, index, **kwargs)


def test_evaluate_rejects_dimension_mismatch(royal_space):
    emb, _ = royal_space
    other = EmbeddingMatrix(["x", "y"], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    other_index = build_candidate_index(["x", "y"], other)
    with pytest.raises(ValueError, match="dimension"):
        evaluate_records(
            [record("man", ("woman",), "king", ("queen",))],
            emb,
            other_index,
            setting="single",
            method="cosadd",
        )
