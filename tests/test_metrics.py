from __future__ import annotations

import numpy as np
import pytest

from analogykit.metrics import (
    MetricBundle,
    QueryOutcome,
    average_precision,
    reciprocal_rank,
    summarize,
    summarize_relation,
)


def make_outcome(
    relation_id: str = "R",
    hit: bool = True,
    ap: float = 1.0,
    rr: float = 1.0,
    n_listed: int = 1,
) -> QueryOutcome:
    return QueryOutcome(
        relation_id=relation_id,
        a="a term",
        c="c term",
        top_guess="guess",
        relaxed_hit=hit,
        average_precision=ap,
        reciprocal_rank=rr,
        n_answers_listed=n_listed,
        n_answers_scored=n_listed,
    )


# ----------------------------------------------------------------- ap / rr


def test_ap_perfect_single_answer():
    assert average_precision([1]) == 1.0


def test_ap_two_answers_on_top_is_perfect():
    assert average_precision([1, 2]) == 1.0


def test_ap_spread_answers():
    assert average_precision([2, 4]) == 0.5


def test_ap_order_of_positions_is_irrelevant():
    assert average_precision([4, 2]) == average_precision([2, 4])


def test_ap_with_no_positions_is_zero():
    assert average_precision([]) == 0.0


def test_ap_rejects_zero_position():
    with pytest.raises(ValueError, match="1-based"):
        average_precision([0, 3])


def test_ap_rejects_duplicate_positions():
    with pytest.raises(ValueError, match="distinct"):
        average_precision([2, 2])


def test_rr_takes_best_position():
    assert reciprocal_rank([1, 50]) == 1.0
    assert reciprocal_rank([4]) == 0.25


def test_rr_with_no_positions_is_zero():
    assert reciprocal_rank([]) == 0.0


def test_rr_rejects_zero_position():
    with pytest.raises(ValueError, match="1-based"):
        reciprocal_rank([0])


def test_ap_equals_rr_for_single_answers():
    rng = np.random.default_rng(31)
    for _ in range(200):
        pos = int(rng.integers(1, 1000))
        assert average_precision([pos]) == reciprocal_rank([pos])


def test_ap_can_exceed_rr_when_late_answers_cluster():
    # Averaging per-answer precision rewards a dense run of answers: at
    # positions [2, 3] the precisions are 1/2 and 2/3, whose mean 7/12
    # is above the first-hit value 1/2.
    ap = average_precision([2, 3])
    rr = reciprocal_rank([2, 3])
    assert ap == pytest.approx(7 / 12)
    assert rr == 0.5
    assert ap > rr


def test_ap_and_rr_stay_in_unit_interval():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        positions = list(rng.choice(np.arange(1, 200), size=n, replace=False))
        ap = average_precision(positions)
        rr = reciprocal_rank(positions)
        assert 0.0 < ap <= 1.0
        assert 0.0 < rr <= 1.0


# ------------------------------------------------------------- aggregation


def test_relation_summary_averages_queries():
    rel = summarize_relation("R", [make_outcome(ap=1.0), make_outcome(ap=0.0, hit=False)])
    assert rel.n_queries == 2
    assert rel.metrics.mean_ap == 0.5
    assert rel.metrics.relaxed_accuracy == 0.5


def test_relation_summary_rejects_empty_group():
    with pytest.raises(ValueError, match="no scored queries"):
        summarize_relation("R", [])


def test_macro_mean_and_population_std_across_relations():
    outcomes = [
        make_outcome("R1", ap=0.2, rr=0.2, hit=False),
        make_outcome("R2", ap=0.4, rr=0.4, hit=True),
    ]
    summary = summarize(outcomes)
    assert summary.macro.mean_ap == pytest.approx(0.3)
    assert summary.macro_std.mean_ap == pytest.approx(0.1)
    assert summary.macro.relaxed_accuracy == pytest.approx(0.5)


def test_all_perfect_gives_ones_and_zero_std():
    outcomes = [make_outcome("R1"), make_outcome("R2"), make_outcome("R3")]
    summary = summarize(outcomes)
    assert summary.macro == MetricBundle(1.0, 1.0, 1.0, 1.0)
    assert summary.macro_std == MetricBundle(0.0, 0.0, 0.0, 0.0)


def test_micro_weights_queries_not_relations():
    outcomes = [
        make_outcome("R1", ap=1.0),
        make_outcome("R1", ap=1.0),
        make_outcome("R1", ap=1.0),
        make_outcome("R2", ap=0.0, hit=False),
    ]
    summary = summarize(outcomes)
    assert summary.micro.mean_ap == pytest.approx(0.75)
    assert summary.macro.mean_ap == pytest.approx(0.5)
    assert summary.n_queries == 4


def test_ambiguity_is_mean_listed_answer_count():
    outcomes = [make_outcome(n_listed=1), make_outcome(n_listed=3)]
    summary = summarize(outcomes)
    assert summary.micro.ambiguity == 2.0


def test_relations_keep_first_seen_order():
    outcomes = [make_outcome("Rz"), make_outcome("Ra"), make_outcome("Rz")]
    summary = summarize(outcomes)
    assert [rel.relation_id for rel in summary.relations] == ["Rz", "Ra"]
    assert summary.relations[0].n_queries == 2


def test_summarize_rejects_no_outcomes():
    with pytest.raises(ValueError, match="no scored queries"):
        summarize([])
