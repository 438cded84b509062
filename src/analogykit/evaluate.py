"""End-to-end evaluation of analogy datasets against an embedding space.

Terms are resolved once per run: each distinct term the setting reads
(``a``, the example terms it keeps, and ``c``) is composed into its query
vector or a skip reason, and each distinct query and answer term is looked
up in the candidate index.  Each question then scores every candidate from
those tables and derives per-query metrics.  A question is skipped, never
silently dropped or failed, when it cannot be scored at all:

* a query term has no in-vocabulary component words;
* a query term composes to an exact zero vector that cannot be normalized;
* every candidate is excluded by the query's own terms.

Skips are returned with their reasons so the caller can report them and
set its exit status accordingly; a question reports its first failing term
in the order ``a``, examples, ``c``.  A question whose listed answers are
all missing from the candidate index is still scored: it counts a miss
with average precision and reciprocal rank 0.0, and its outcome shows
``n_answers_scored == 0``.

Records are evaluated one after another, and outcomes keep dataset order.
"""

from __future__ import annotations

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


def _resolve(term: str, emb: EmbeddingMatrix, normalize: bool) -> np.ndarray | str:
    """``term``'s query vector, or the reason a question reading it is skipped."""
    vec = compose_term(term, emb).vector
    if vec is None:
        return f"term {term!r} has no in-vocabulary words"
    if normalize:
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return f"term {term!r} composed to a zero vector"
        vec = vec / norm
    return vec


def _evaluate_one(
    record: AnalogyRecord,
    reduced: AnalogyRecord,
    vectors: dict[str, np.ndarray | str],
    positions: dict[str, int | None],
    index: CandidateIndex,
    method: str,
    epsilon: float,
    shift: bool,
) -> QueryOutcome | str:
    """Score one question from the term tables, or return why it is skipped."""
    query_terms = (reduced.a, *reduced.b_list, reduced.c)
    resolved = [vectors[term] for term in query_terms]
    for vec in resolved:
        if isinstance(vec, str):
            return vec
    excluded = {i for term in query_terms if (i := positions[term]) is not None}
    if len(excluded) == len(index):
        return "every candidate is excluded"
    answers = list(dict.fromkeys(i for d in reduced.d_list if (i := positions[d]) is not None))
    query = AnalogyQuery(a=resolved[0], b=np.vstack(resolved[1:-1]), c=resolved[-1])
    scores = score_candidates(index, query, method, epsilon=epsilon, shift=shift)
    answer_positions, top = rank_answers(scores, answers, excluded)
    return QueryOutcome(
        relation_id=record.relation_id,
        a=record.a,
        c=record.c,
        top_guess=index.surfaces[top],
        relaxed_hit=top in answers,
        average_precision=average_precision(answer_positions),
        reciprocal_rank=reciprocal_rank(answer_positions),
        n_answers_listed=len(record.d_list),
        n_answers_scored=len(answers),
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

    reduced = [apply_setting(record, setting) for record in records]
    query_terms = dict.fromkeys(term for r in reduced for term in (r.a, *r.b_list, r.c))
    vectors = {term: _resolve(term, emb, normalize_queries) for term in query_terms}
    answer_terms = {d for r in reduced for d in r.d_list}
    positions = {term: index.index_of(term) for term in query_terms.keys() | answer_terms}

    outcomes: list[QueryOutcome] = []
    skipped: list[SkippedQuery] = []
    for record, r in zip(records, reduced):
        outcome = _evaluate_one(record, r, vectors, positions, index, method, epsilon, shift)
        if isinstance(outcome, str):
            skipped.append(SkippedQuery(record.relation_id, record.a, record.c, outcome))
        else:
            outcomes.append(outcome)

    summary = summarize(outcomes) if outcomes else None
    return EvaluationResult(tuple(outcomes), tuple(skipped), summary)
