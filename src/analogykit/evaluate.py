"""End-to-end evaluation of analogy datasets against an embedding space.

For each record the pipeline composes the query-side vectors (``a``, the
example terms the chosen setting keeps, and ``c``), scores every candidate,
and derives per-query metrics.  A question is skipped, never silently
dropped or failed, when it cannot be scored at all:

* a query term has no in-vocabulary component words;
* a query term composes to an exact zero vector that cannot be normalized;
* every candidate is excluded by the query's own terms.

Skips are returned with their reasons so the caller can report them and
set its exit status accordingly.  A question whose listed answers are all
missing from the candidate index is still scored: it counts a miss with
average precision and reciprocal rank 0.0, and a warning is logged.

Records are evaluated one after another, and outcomes keep dataset order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import SETTINGS, AnalogyRecord, apply_setting
from .embeddings import CandidateIndex, EmbeddingMatrix, compose_term
from .metrics import (
    EvaluationSummary,
    QueryOutcome,
    average_precision,
    reciprocal_rank,
    summarize,
)
from .scoring import (
    DEFAULT_EPSILON,
    METHODS,
    AnalogyQuery,
    rank_answers,
    score_candidates,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SkippedQuery:
    relation_id: str
    a: str
    c: str
    reason: str


@dataclass(frozen=True)
class EvaluationResult:
    """Scored outcomes, skipped questions, and the aggregate summary.

    ``summary`` is ``None`` exactly when nothing was scored.
    """

    outcomes: tuple[QueryOutcome, ...]
    skipped: tuple[SkippedQuery, ...]
    summary: EvaluationSummary | None

    @property
    def n_scored(self) -> int:
        return len(self.outcomes)


class _SkipQuery(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _compose_query_vector(term: str, emb: EmbeddingMatrix, normalize: bool) -> np.ndarray:
    composed = compose_term(term, emb)
    if composed.vector is None:
        raise _SkipQuery(f"term {term!r} has no in-vocabulary words")
    vec = composed.vector
    if normalize:
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise _SkipQuery(f"term {term!r} composed to a zero vector")
        vec = vec / norm
    return vec


def _evaluate_one(
    record: AnalogyRecord,
    setting: str,
    emb: EmbeddingMatrix,
    index: CandidateIndex,
    method: str,
    epsilon: float,
    shift: bool,
    normalize: bool,
) -> QueryOutcome:
    reduced = apply_setting(record, setting)
    a_vec = _compose_query_vector(reduced.a, emb, normalize)
    b_rows = np.vstack([_compose_query_vector(b, emb, normalize) for b in reduced.b_list])
    c_vec = _compose_query_vector(reduced.c, emb, normalize)

    answer_indices: list[int] = []
    for d in reduced.d_list:
        i = index.index_of(d)
        if i is not None and i not in answer_indices:
            answer_indices.append(i)
    if not answer_indices:
        logger.warning(
            "no listed answer of %r : %r is in the candidate index; question scores 0",
            record.a,
            record.c,
        )

    excluded = {
        i
        for term in (reduced.a, *reduced.b_list, reduced.c)
        if (i := index.index_of(term)) is not None
    }
    query = AnalogyQuery(a=a_vec, b=b_rows, c=c_vec)
    scores = score_candidates(index, query, method, epsilon=epsilon, shift=shift)
    try:
        answer_positions, top = rank_answers(scores, answer_indices, excluded)
    except ValueError:
        raise _SkipQuery("every candidate is excluded") from None
    return QueryOutcome(
        relation_id=record.relation_id,
        a=record.a,
        c=record.c,
        top_guess=index.surfaces[top],
        relaxed_hit=top in answer_indices,
        average_precision=average_precision(answer_positions),
        reciprocal_rank=reciprocal_rank(answer_positions),
        n_answers_listed=len(record.d_list),
        n_answers_scored=len(answer_indices),
    )


def evaluate_records(
    records: list[AnalogyRecord],
    emb: EmbeddingMatrix,
    index: CandidateIndex,
    *,
    setting: str,
    method: str,
    epsilon: float = DEFAULT_EPSILON,
    shift: bool = False,
    normalize_queries: bool = True,
    workers: int = 1,
) -> EvaluationResult:
    """Evaluate ``records`` and aggregate the outcomes.

    ``normalize_queries`` controls whether each composed query vector is
    scaled to unit length before entering the scoring formulas.  Candidate
    vectors are always unit length by construction of the index.
    ``workers`` is accepted for compatibility and must be at least 1; it has
    no effect, since records are always evaluated sequentially.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    if method not in METHODS:
        raise ValueError(f"unknown scoring method {method!r}; expected one of {METHODS}")
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if emb.dim != index.dim:
        raise ValueError(f"embedding dimension {emb.dim} != candidate index dimension {index.dim}")

    outcomes: list[QueryOutcome] = []
    skipped: list[SkippedQuery] = []
    for record in records:
        try:
            outcomes.append(
                _evaluate_one(record, setting, emb, index, method, epsilon, shift, normalize_queries)
            )
        except _SkipQuery as skip:
            skipped.append(SkippedQuery(record.relation_id, record.a, record.c, skip.reason))

    if skipped:
        logger.warning("skipped %d of %d analogy questions", len(skipped), len(records))
    summary = summarize(outcomes) if outcomes else None
    return EvaluationResult(tuple(outcomes), tuple(skipped), summary)
