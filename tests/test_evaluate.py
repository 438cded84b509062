from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analogykit.evaluate
from analogykit.dataset import AnalogyRecord
from analogykit.embeddings import EmbeddingMatrix, build_candidate_index, compose_term
from analogykit.evaluate import SkippedQuery, evaluate_records
from analogykit.metrics import MetricBundle, QueryOutcome, average_precision, reciprocal_rank, summarize
from analogykit.scoring import DEFAULT_EPSILON, METHODS, AnalogyQuery, rank_answers, rank_candidates, score_candidates


def record(a: str, b: tuple[str, ...], c: str, d: tuple[str, ...], rid: str = "R") -> AnalogyRecord:
    return AnalogyRecord(relation_id=rid, a=a, b_list=b, c=c, d_list=d)


SETTING_NAMES = ("single", "multi", "all-info")


def kept(rec: AnalogyRecord, setting: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The example terms and answers ``setting`` reads, written out apart from ``dataset.SETTINGS``."""
    if setting == "single":
        return rec.b_list[:1], rec.d_list[:1]
    if setting == "multi":
        return rec.b_list[:1], rec.d_list
    assert setting == "all-info"
    return rec.b_list, rec.d_list


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
        (dict(setting="dual", method="cosadd"), "expected one of .'single', 'multi', 'all-info'.$"),
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


@pytest.mark.parametrize("setting", SETTING_NAMES)
def test_each_distinct_term_the_setting_reads_is_composed_once(royal_space, compose_log, setting):
    emb, index = royal_space
    records = [
        record("man", ("woman", "queen"), "king", ("queen",)),
        record("king", ("queen", "duke"), "man", ("woman", "king")),
        record("man", ("woman",), "emperor", ("queen",)),
        record("emperor", ("king", "woman"), "queen", ("man",)),
    ]
    evaluate_records(records, emb, index, setting=setting, method="cosmul")
    read = {t for r in records for t in (r.a, *kept(r, setting)[0], r.c)}
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


@pytest.mark.parametrize(
    "setting, hit, ap, rr, n_scored",
    [("single", False, 0.25, 0.25, 1), ("multi", True, 0.75, 1.0, 2), ("all-info", True, 0.75, 1.0, 2)],
)
def test_only_the_answers_the_setting_keeps_count(royal_space, setting, hit, ap, rr, n_scored):
    emb, index = royal_space
    # the ranking is queen, woman, king, man: "single" scores man alone, at 4
    (outcome,) = evaluate_records(
        [record("man", ("woman",), "king", ("man", "queen"))], emb, index, setting=setting, method="cosadd"
    ).outcomes
    assert outcome.top_guess == "queen"
    assert (outcome.relaxed_hit, outcome.average_precision, outcome.reciprocal_rank) == (hit, ap, rr)
    assert (outcome.n_answers_listed, outcome.n_answers_scored) == (2, n_scored)


@pytest.mark.parametrize("setting", SETTING_NAMES)
def test_evaluate_builds_no_record(royal_space, monkeypatch, setting):
    emb, index = royal_space
    records = [
        record("man", ("woman", "queen"), "king", ("queen", "woman")),
        record("emperor", ("woman",), "king", ("queen",)),
    ]
    built = []
    check = AnalogyRecord.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(AnalogyRecord, "__post_init__", counting)
    result = evaluate_records(records, emb, index, setting=setting, method="cosadd")
    assert result.n_scored + len(result.skipped) == 2
    assert built == []


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


TINY = np.finfo(np.float64).tiny


def norm_reason(term, vec):
    """Why a normalized query term is skipped, or ``None``: the norm rule, in ``_resolve``'s words."""
    square = vec @ vec
    if TINY <= square < np.inf:
        return None
    if square == 0.0:
        return f"term {term!r} composed to a zero vector"
    return f"term {term!r} composed norm " + ("underflows" if square < TINY else "overflows") + " float64"


def per_question(records, emb, index, *, setting, method, shift, normalize_queries):
    """A plain loop: compose, score and rank each question on its own."""
    outcomes, skipped = [], []
    for rec in records:
        b_list, d_list = kept(rec, setting)
        terms = (rec.a, *b_list, rec.c)
        vectors, reason = [], None
        for term in terms:
            vec = compose_term(term, emb).vector
            if vec is None:
                reason = f"term {term!r} has no in-vocabulary words"
                break
            if normalize_queries:
                reason = norm_reason(term, vec)
                if reason is not None:
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
        for d in d_list:
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
# "u v" nearly so (its squares sum below tiny), "zz" and "ZZ" are out of
# vocabulary, "t0 zz" composes like "t0" (so the two candidates tie), "T1" and
# "t1" share an index entry, and t2-t4 are in vocabulary but not candidates.
# A question reading all three candidates excludes every one.
_TOKENS = ["t0", "t1", "t2", "t3", "t4", "p", "n", "u", "v"]
_VECTORS = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, -0.8], [-1.0, 0.5, 0.5], [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0],
     [1.0, 1e-160, 0.0], [-1.0, 1e-160, 0.0]]
)
_CANDIDATES = ["t0", "T1", "t0 zz"]
_TERMS = st.sampled_from(["t0", "t1", "t2", "t3", "t4", "p n", "u v", "zz", "ZZ", "t1 t2", "t0 zz", "T1"])


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
@pytest.mark.parametrize("setting", SETTING_NAMES)
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


# A space for comparing the block kernel with score_candidates.  "k0 k1" and
# "k1 k2 k3" are multi-word terms, "p n" composes to zero, "zz" is out of
# vocabulary, "k4 zz" composes like "k4" (so two candidates tie) and "K2"
# shares k2's index entry.  cos(dz, ax) is exactly -epsilon, so unshifted
# cosmul with a == "ax" scores dz +-inf or NaN.  Elsewhere every pairdist
# candidate is at least 0.09 from c (or equal to it) and every cosmul
# denominator is at least 0.03 from zero, outside the ranges where the
# scoring docstring says the two paths part by more than round-off.
_KERNEL_TOKENS = ["k0", "k1", "k2", "k3", "k4", "k5", "ax", "dz", "p", "n"]
_KERNEL_CANDIDATES = ["k0", "k1", "K2", "k3", "k0 k1", "k4", "k4 zz", "dz"]
_KERNEL_TERMS = ["k0", "k1", "k2", "k3", "k4", "k5", "ax", "k0 k1", "k1 k2 k3", "ax k5", "K2", "k4 zz", "p n", "p", "zz"]


def _kernel_space():
    rng = np.random.default_rng(15)
    p = rng.normal(size=5)
    vectors = np.vstack(
        [rng.normal(size=(6, 5)) * 2.0, [[2.0, 0, 0, 0, 0], [-0.001, np.sqrt(1 - 1e-6), 0, 0, 0]], p, -p]
    )
    emb = EmbeddingMatrix(_KERNEL_TOKENS, vectors)
    return emb, build_candidate_index(_KERNEL_CANDIDATES, emb)


def test_the_kernel_space_avoids_ill_conditioned_scores():
    emb, index = _kernel_space()
    rows = index.matrix
    assert rows[index.index_of("dz")] @ rows[index.index_of("k0")] != 0.0
    assert rows[index.index_of("dz")][0] + DEFAULT_EPSILON == 0.0
    for term in _KERNEL_TERMS:
        vec = compose_term(term, emb).vector
        if vec is None or np.linalg.norm(vec) == 0.0:
            continue
        for c in (vec / np.linalg.norm(vec), vec):
            distance = np.linalg.norm(rows - c, axis=1)
            assert np.all((distance == 0.0) | (distance >= 0.09))
        cos = rows @ (vec / np.linalg.norm(vec))
        for den in (cos + DEFAULT_EPSILON, (cos + 1.0) / 2.0 + DEFAULT_EPSILON):
            assert np.all((den == 0.0) | (np.abs(den) >= 0.03))


@st.composite
def _kernel_records(draw):
    terms = st.sampled_from(_KERNEL_TERMS)
    a, c = draw(st.lists(terms, min_size=2, max_size=2, unique=True))
    return AnalogyRecord(
        relation_id="R",
        a=a,
        b_list=tuple(draw(st.lists(terms, min_size=1, max_size=4, unique=True))),
        c=c,
        d_list=tuple(draw(st.lists(terms, min_size=1, max_size=2, unique=True))),
    )


def _oracle_scores(records, emb, index, *, setting, method, shift, normalize_queries):
    """score_candidates for each question evaluate_records scores, in order."""
    rows = []
    for rec in records:
        terms = (rec.a, *kept(rec, setting)[0], rec.c)
        vectors = [compose_term(term, emb).vector for term in terms]
        if any(vec is None or (normalize_queries and norm_reason(t, vec)) for t, vec in zip(terms, vectors)):
            continue
        if {index.index_of(t) for t in terms} >= set(range(len(index))):
            continue
        if normalize_queries:
            vectors = [vec / np.linalg.norm(vec) for vec in vectors]
        query = AnalogyQuery(a=vectors[0], b=np.vstack(vectors[1:-1]), c=vectors[-1])
        rows.append(score_candidates(index, query, method, shift=shift))
    return rows


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("setting", SETTING_NAMES)
@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(_kernel_records(), min_size=1, max_size=8),
    shift=st.booleans(),
    normalize_queries=st.booleans(),
    width=st.sampled_from([1, 2, 3, None]),
)
def test_kernel_rows_match_score_candidates(setting, method, records, shift, normalize_queries, width):
    emb, index = _kernel_space()
    options = dict(setting=setting, method=method, shift=shift, normalize_queries=normalize_queries)
    scored = []

    def recording(scores, answers, excluded=()):
        scored.append(scores.copy())
        return rank_answers(scores, answers, excluded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analogykit.evaluate, "rank_answers", recording)
        if width is not None:
            mp.setattr(analogykit.evaluate, "_BLOCK_BYTES", 8 * len(index) * width)
        result = evaluate_records(records, emb, index, **options)
        expected = _oracle_scores(records, emb, index, **options)
    assert len(scored) == len(expected) == result.n_scored
    for got, want in zip(scored, expected):
        for pattern in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(pattern(got), pattern(want))
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-12


def test_exemplars_scoring_plus_and_minus_inf_average_to_nan_without_a_warning():
    # cos(dz, ax) == -epsilon, so unshifted cosmul divides by zero at dz: the
    # exemplars k0 and k1 score it +inf and k2 scores it -inf.  The suite turns
    # any RuntimeWarning into an error.
    emb, index = _kernel_space()
    rec = record("ax", ("k0", "k1", "k2"), "k0", ("k1",))
    options = dict(setting="all-info", method="cosmul", shift=False, normalize_queries=True)
    assert evaluate_records([rec], emb, index, **options).n_scored == 1
    (scores,) = _oracle_scores([rec], emb, index, **options)
    assert np.isnan(scores[index.index_of("dz")])


_BLOCK_RECORDS = [
    record("t2", ("t3", "t4", "t1 t2", "T1"), "t0", ("t0 zz", "t3"), rid="R0"),
    record("t0", ("t1",), "t2", ("T1",), rid="R0"),
    record("zz", ("t1",), "t2", ("t0",), rid="R1"),
    record("t3", ("t1 t2", "t4"), "t0 zz", ("t0",), rid="R1"),
    record("t1", ("t0",), "t0 zz", ("T1", "t0 zz"), rid="R0"),
    record("t4", ("t3", "t2", "t1", "t0"), "t1 t2", ("t0",), rid="R1"),
    record("t0", ("t1",), "t2", ("t0 zz",), rid="R1"),
]


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("setting", SETTING_NAMES)
def test_blocks_of_one_or_two_directions_change_nothing(monkeypatch, setting, method, width):
    emb = EmbeddingMatrix(_TOKENS, _VECTORS)
    index = build_candidate_index(_CANDIDATES, emb)
    options = dict(setting=setting, method=method, shift=method == "cosmul", normalize_queries=True)
    default = evaluate_records(_BLOCK_RECORDS, emb, index, **options)
    blocks = []
    score_block = analogykit.evaluate._score_block

    def recording(block, columns, *args):
        blocks.append((len(block), len(columns)))
        return score_block(block, columns, *args)

    monkeypatch.setattr(analogykit.evaluate, "_score_block", recording)
    monkeypatch.setattr(analogykit.evaluate, "_BLOCK_BYTES", 8 * len(index) * width)
    small = evaluate_records(_BLOCK_RECORDS, emb, index, **options)
    assert (small.outcomes, small.skipped, small.summary) == (default.outcomes, default.skipped, default.summary)
    assert (small.outcomes, small.skipped) == per_question(_BLOCK_RECORDS, emb, index, **options)
    # "zz" is out of vocabulary, and t1, t0 and "t0 zz" exclude every candidate
    assert small.n_scored == 5 and len(small.skipped) == 2
    assert sum(n for n, _ in blocks) == 5
    # only a question that needs more directions than fit forms a block alone
    assert all(n_columns <= width or n_questions == 1 for n_questions, n_columns in blocks)
    if (setting, method) == ("all-info", "cosmul"):
        assert blocks[0] == (1, 6)


@pytest.mark.parametrize("method", METHODS)
def test_evaluation_holds_one_block_at_a_time(monkeypatch, method):
    rng = np.random.default_rng(53)
    n, width = 4000, 48
    tokens = [f"w{i}" for i in range(n)]
    emb = EmbeddingMatrix(tokens, rng.normal(size=(n, 16)))
    index = build_candidate_index(tokens, emb)
    records = []
    for k in range(150):
        picks = [tokens[i] for i in rng.choice(300, size=6, replace=False)]
        records.append(record(picks[0], tuple(picks[1:4]), picks[4], (picks[5],), rid=f"R{k % 5}"))
    block_bytes = 8 * n * width
    monkeypatch.setattr(analogykit.evaluate, "_BLOCK_BYTES", block_bytes)
    tracemalloc.start()
    try:
        result = evaluate_records(records, emb, index, setting="all-info", method=method, shift=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_scored == 150
    # one product S, plus the rows a question's scores and ranking hold
    assert peak < block_bytes + 24 * 8 * n
    if method == "cosmul":
        # one exemplar's row at a time: 11.3 rows measured, against 17.3 when
        # every exemplar's row was kept and then stacked
        assert peak < block_bytes + 14 * 8 * n
