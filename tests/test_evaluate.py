from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analogykit.evaluate
from analogykit.dataset import SETTINGS, AnalogyRecord, apply_setting
from analogykit.embeddings import EmbeddingMatrix, build_candidate_index, compose_term
from analogykit.evaluate import SkippedQuery, evaluate_records
from analogykit.metrics import MetricBundle, QueryOutcome, average_precision, reciprocal_rank, summarize
from analogykit.scoring import DEFAULT_EPSILON, METHODS, AnalogyQuery, rank_candidates, score_candidates


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


def test_query_term_composing_to_zero_is_skipped():
    emb = EmbeddingMatrix(
        ["x", "y", "bravo", "gamma"],
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )
    index = build_candidate_index(["bravo", "gamma"], emb)
    records = [record("x y", ("bravo",), "gamma", ("bravo",))]
    result = evaluate_records(records, emb, index, setting="single", method="cosadd")
    (skip,) = result.skipped
    assert skip.reason == "term 'x y' composed to a zero vector"
    assert result.summary is None


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


@pytest.fixture
def compose_log(monkeypatch):
    """The terms ``evaluate_records`` composes, one entry per call."""
    calls: list[str] = []

    def counting(term, emb):
        calls.append(term)
        return compose_term(term, emb)

    monkeypatch.setattr(analogykit.evaluate, "compose_term", counting)
    return calls


@pytest.mark.parametrize("setting", SETTINGS)
def test_each_distinct_term_the_setting_reads_is_composed_once(royal_space, compose_log, setting):
    emb, index = royal_space
    records = [
        record("man", ("woman", "queen"), "king", ("queen",)),
        record("king", ("queen", "duke"), "man", ("woman", "king")),
        record("man", ("woman",), "emperor", ("queen",)),
        record("emperor", ("king", "woman"), "queen", ("man",)),
    ]
    evaluate_records(records, emb, index, setting=setting, method="cosmul")
    read = {t for r in records for t in (r.a, *apply_setting(r, setting).b_list, r.c)}
    assert Counter(compose_log) == Counter(read)


@pytest.mark.parametrize(
    "setting, b_list, d_list",
    [
        ("single", ("woman", "duchess"), ("queen",)),
        ("multi", ("woman", "duchess"), ("queen",)),
        ("single", ("woman",), ("queen", "duchess")),
    ],
)
def test_a_term_the_setting_drops_neither_skips_nor_is_composed(royal_space, compose_log, setting, b_list, d_list):
    emb, index = royal_space
    result = evaluate_records(
        [record("man", b_list, "king", d_list)], emb, index, setting=setting, method="cosadd"
    )
    assert result.skipped == ()
    assert result.outcomes[0].reciprocal_rank == 1.0
    assert "duchess" not in compose_log


def test_query_term_composing_to_zero_is_scored_without_normalization():
    emb = EmbeddingMatrix(
        ["x", "y", "bravo", "gamma"],
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )
    index = build_candidate_index(["bravo", "gamma", "y"], emb)
    records = [record("x y", ("bravo",), "gamma", ("y",))]
    for method in METHODS:
        result = evaluate_records(
            records, emb, index, setting="single", method=method, normalize_queries=False
        )
        assert result.skipped == ()
        assert result.n_scored == 1


def test_a_term_shared_by_a_skipped_and_a_scored_question(royal_space):
    emb, index = royal_space
    scored = record("man", ("woman",), "king", ("queen",))
    skipped = record("man", ("woman",), "emperor", ("queen",))
    alone = evaluate_records([scored], emb, index, setting="multi", method="cosadd")
    for records in ([skipped, scored], [scored, skipped]):
        result = evaluate_records(records, emb, index, setting="multi", method="cosadd")
        assert result.outcomes == alone.outcomes
        assert result.skipped == (SkippedQuery("R", "man", "emperor", "term 'emperor' has no in-vocabulary words"),)


def per_question(records, emb, index, *, setting, method, shift, normalize_queries):
    """A plain loop: compose, score and rank each question on its own."""
    outcomes, skipped = [], []
    for rec in records:
        r = apply_setting(rec, setting)
        terms = (r.a, *r.b_list, r.c)
        vectors, reason = [], None
        for term in terms:
            vec = compose_term(term, emb).vector
            if vec is None:
                reason = f"term {term!r} has no in-vocabulary words"
                break
            if normalize_queries:
                if np.linalg.norm(vec) == 0.0:
                    reason = f"term {term!r} composed to a zero vector"
                    break
                vec = vec / np.linalg.norm(vec)
            vectors.append(vec)
        if reason is None:
            query = AnalogyQuery(a=vectors[0], b=np.vstack(vectors[1:-1]), c=vectors[-1])
            scores = score_candidates(index, query, method, shift=shift)
            excluded = {index.index_of(t) for t in terms} - {None}
            try:
                top = int(rank_candidates(scores, excluded)[0])
            except ValueError:
                reason = "every candidate is excluded"
        if reason is not None:
            skipped.append(SkippedQuery(rec.relation_id, rec.a, rec.c, reason))
            continue
        answers = []
        for d in r.d_list:
            i = index.index_of(d)
            if i is not None and i not in answers:
                answers.append(i)
        full = rank_candidates(scores).tolist()
        positions = [full.index(i) + 1 for i in answers]
        outcomes.append(
            QueryOutcome(rec.relation_id, rec.a, rec.c, index.surfaces[top], top in answers,
                         average_precision(positions), reciprocal_rank(positions), len(rec.d_list), len(answers))
        )
    return tuple(outcomes), tuple(skipped)


# A small space whose terms recur across questions: "p n" composes to zero,
# "zz" and "ZZ" are out of vocabulary, "t0 zz" composes like "t0" (so the two
# candidates tie), "T1" and "t1" share an index entry, and t2-t4 are in
# vocabulary but not candidates.  A question reading all three candidates
# excludes every one.
_TOKENS = ["t0", "t1", "t2", "t3", "t4", "p", "n"]
_VECTORS = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, -0.8], [-1.0, 0.5, 0.5], [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]]
)
_CANDIDATES = ["t0", "T1", "t0 zz"]
_TERMS = st.sampled_from(["t0", "t1", "t2", "t3", "t4", "p n", "zz", "ZZ", "t1 t2", "t0 zz", "T1"])


@st.composite
def _records(draw):
    a, c = draw(st.lists(_TERMS, min_size=2, max_size=2, unique=True))
    return AnalogyRecord(
        relation_id=draw(st.sampled_from(["R0", "R1"])),
        a=a,
        b_list=tuple(draw(st.lists(_TERMS, min_size=1, max_size=3, unique=True))),
        c=c,
        d_list=tuple(draw(st.lists(_TERMS, min_size=1, max_size=3, unique=True))),
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("setting", SETTINGS)
@settings(max_examples=60, deadline=None)
@given(records=st.lists(_records(), min_size=1, max_size=10), shift=st.booleans(), normalize_queries=st.booleans())
def test_evaluate_matches_a_per_question_loop(setting, method, records, shift, normalize_queries):
    emb = EmbeddingMatrix(_TOKENS, _VECTORS)
    index = build_candidate_index(_CANDIDATES, emb)
    options = dict(setting=setting, method=method, shift=shift, normalize_queries=normalize_queries)
    result = evaluate_records(records, emb, index, **options)
    expected = per_question(records, emb, index, **options)
    assert (result.outcomes, result.skipped) == expected
    assert result.summary == (summarize(list(expected[0])) if expected[0] else None)
