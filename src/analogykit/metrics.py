"""Per-query metrics and their aggregation into relation and run summaries.

Three per-query quantities are tracked:

* relaxed hit: whether the top guess, after removing the query's own terms
  (``a``, the example terms actually used, and ``c``) from the ranking, is
  one of the listed answers.
* average precision and reciprocal rank: computed over the *full* ranking,
  with nothing removed, from the 1-based positions of the listed answers.

AP and RR are the same number for a single-answer query.  With several
answers they are unordered: answers at positions (2, 3) give AP 7/12 above
RR 1/2, and answers at (1, 100) give AP 0.51 below RR 1.  Both lie in
(0, 1] whenever at least one answer is ranked.

Aggregation is reported two ways: macro (average the per-relation means,
with the population standard deviation across relations) and micro
(average over all queries regardless of relation).  Ambiguity is the mean
number of listed answers per question and is a property of the dataset,
not of the evaluated setting.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np


def average_precision(positions: Sequence[int]) -> float:
    """Average precision from 1-based answer positions in the full ranking.

    With positions sorted ascending, the k-th answer found contributes
    precision ``k / positions[k-1]``; the result is the mean contribution.
    Positions must be distinct (distinct candidates occupy distinct ranks).
    An empty position list means no listed answer exists in the candidate
    index and scores 0.0.
    """
    if not positions:
        return 0.0
    if min(positions) < 1:
        raise ValueError("positions are 1-based")
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    ranks = sorted(positions)
    return sum(k / rank for k, rank in enumerate(ranks, start=1)) / len(ranks)


def reciprocal_rank(positions: Sequence[int]) -> float:
    """Reciprocal of the best (smallest) 1-based answer position; 0.0 if none."""
    if not positions:
        return 0.0
    best = min(positions)
    if best < 1:
        raise ValueError("positions are 1-based")
    return 1.0 / best


@dataclass(frozen=True)
class QueryOutcome:
    """Metrics for one scored analogy question."""

    relation_id: str
    a: str
    c: str
    top_guess: str
    relaxed_hit: bool
    average_precision: float
    reciprocal_rank: float
    n_answers_listed: int
    n_answers_scored: int


@dataclass(frozen=True)
class MetricBundle:
    """The four reported aggregates over some group of outcomes."""

    relaxed_accuracy: float
    mean_ap: float
    mean_rr: float
    ambiguity: float


@dataclass(frozen=True)
class RelationSummary:
    relation_id: str
    n_queries: int
    metrics: MetricBundle


@dataclass(frozen=True)
class EvaluationSummary:
    """Per-relation rows plus macro (over relations) and micro (over queries) aggregates."""

    relations: tuple[RelationSummary, ...]
    n_queries: int
    macro: MetricBundle
    macro_std: MetricBundle
    micro: MetricBundle


def _bundle(outcomes: Sequence[QueryOutcome]) -> MetricBundle:
    return MetricBundle(
        relaxed_accuracy=float(np.mean([o.relaxed_hit for o in outcomes])),
        mean_ap=float(np.mean([o.average_precision for o in outcomes])),
        mean_rr=float(np.mean([o.reciprocal_rank for o in outcomes])),
        ambiguity=float(np.mean([o.n_answers_listed for o in outcomes])),
    )


def summarize_relation(relation_id: str, outcomes: Sequence[QueryOutcome]) -> RelationSummary:
    if not outcomes:
        raise ValueError(f"relation {relation_id!r} has no scored queries")
    return RelationSummary(relation_id=relation_id, n_queries=len(outcomes), metrics=_bundle(outcomes))


def summarize(outcomes: Sequence[QueryOutcome]) -> EvaluationSummary:
    """Aggregate outcomes into per-relation rows and overall macro/micro numbers.

    Relations appear in first-seen outcome order.  Macro standard deviations
    are population standard deviations (ddof=0) across the per-relation
    means, so a single-relation run reports 0.0 rather than NaN.
    """
    if not outcomes:
        raise ValueError("no scored queries to summarize")
    by_relation: dict[str, list[QueryOutcome]] = {}
    for outcome in outcomes:
        by_relation.setdefault(outcome.relation_id, []).append(outcome)
    relations = tuple(summarize_relation(rid, group) for rid, group in by_relation.items())

    # One array per MetricBundle field, in field order.
    columns = [np.array(c, dtype=np.float64) for c in zip(*(astuple(rel.metrics) for rel in relations))]
    macro = MetricBundle(*(float(c.mean()) for c in columns))
    macro_std = MetricBundle(*(float(c.std(ddof=0)) for c in columns))
    return EvaluationSummary(
        relations=relations,
        n_queries=len(outcomes),
        macro=macro,
        macro_std=macro_std,
        micro=_bundle(outcomes),
    )
