"""End-to-end evaluation of analogy datasets against an embedding space.

A setting reads prefixes of each loaded record's example and answer lists
in place (``dataset.SETTINGS``).  Terms are resolved once per run: each
distinct term the setting reads (``a``, the example terms it keeps, and
``c``) is composed into its query vector or a skip reason, and each
distinct query and answer term is looked up in the candidate index.  One
loop over the records then reads each question from those tables and
either skips it or adds it to the current block.

A block is a run of consecutive scorable questions, scored by one matrix
product ``S = D @ M.T`` against the candidate matrix ``M``.  The rows of
``D`` are the block's distinct directions (``scoring.query_directions``),
each keyed by the terms it is built from, so questions share the ones they
have in common.  A block holds at most ``_BLOCK_BYTES // (8 * n)``
directions for ``n`` candidates; a question that needs more forms a block
on its own.  Each question then combines its rows of ``S`` into its scores
(``scoring.combine_rows``) and ranks its answers, and ``S`` is freed before
the next block is built.

A question is skipped, never silently dropped or failed, when it cannot be
scored at all:

* a query term has no in-vocabulary component words;
* queries are normalized and a query term's composed vector breaks the
  norm rule of :mod:`.embeddings` (it is zero, or its squares underflow or overflow);
* every candidate is excluded by the query's own terms.

Skips are returned with their reasons so the caller can report them and
set its exit status accordingly; a question reports its first failing term
in the order ``a``, examples, ``c``.  A question whose listed answers are
all missing from the candidate index is still scored: it counts a miss
with average precision and reciprocal rank 0.0, and its outcome shows
``n_answers_scored == 0``.  Outcomes keep dataset order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SETTINGS, AnalogyRecord
from .embeddings import CandidateIndex, EmbeddingMatrix, _breaks_norm_rule, _norm_problem, compose_term
from .metrics import (
    EvaluationSummary,
    QueryOutcome,
    average_precision,
    reciprocal_rank,
    summarize,
)
from .scoring import DEFAULT_EPSILON, METHODS, combine_rows, query_directions, rank_answers

# Bytes of one block's product S = D @ M.T, 20 directions on a 50 000-row
# index.  Over both passes of the benchmark's eval-allinfo workload (2 cores,
# 2 OpenBLAS threads), 4, 8 and 16 MiB took 0.47-0.93, 0.33 and 0.27 s and
# raised peak RSS by 5.9, 9.4 and 17.0 MB: speed bought with memory.  With
# streamed text loads and a gathered index, 12, 16 and 24 MiB raised the
# peak RSS of 8 MiB (181 MB on the eval workloads, 213 MB on load-text) by up
# to 16, 23 and 19 MB over all workloads, seeds 1 and 3 (table in CHANGES.md).
# Now that every input read holds one 1 MiB chunk, load-text peaks at 206 MB
# with 8 MiB (216 MB before): 10 MB of headroom for a wider block.  The eval
# workloads' 181 MB is set by the index build and did not move.
_BLOCK_BYTES = 8 * 2**20


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
        # sqrt(v.dot(v)) is np.linalg.norm(v), bit for bit.
        square = vec.dot(vec)
        if _breaks_norm_rule(square):
            return f"term {term!r} composed " + ("to a zero vector" if square == 0.0 else _norm_problem(square))
        vec = vec / np.sqrt(square)
    return vec


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
        raise ValueError(f"unknown setting {setting!r}; expected one of {tuple(SETTINGS)}")
    if method not in METHODS:
        raise ValueError(f"unknown scoring method {method!r}; expected one of {METHODS}")
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if emb.dim != index.dim:
        raise ValueError(f"embedding dimension {emb.dim} != candidate index dimension {index.dim}")

    n_b, n_d = SETTINGS[setting]
    query_terms = dict.fromkeys(t for r in records for t in (r.a, *r.b_list[:n_b], r.c))
    vectors = {term: _resolve(term, emb, normalize_queries) for term in query_terms}
    answer_terms = {d for r in records for d in r.d_list[:n_d]}
    positions = {term: index.index_of(term) for term in query_terms.keys() | answer_terms}

    outcomes: list[QueryOutcome] = []
    skipped: list[SkippedQuery] = []
    width = _BLOCK_BYTES // (8 * len(index))
    block: list[tuple] = []
    columns: dict = {}
    for r in records:
        terms = (r.a, *r.b_list[:n_b], r.c)
        resolved = [vectors[term] for term in terms]
        reason = next((vec for vec in resolved if isinstance(vec, str)), None)
        if reason is None:
            excluded = {i for term in terms if (i := positions[term]) is not None}
            if len(excluded) == len(index):
                reason = "every candidate is excluded"
        if reason is not None:
            skipped.append(SkippedQuery(r.relation_id, r.a, r.c, reason))
            continue
        answers = list(dict.fromkeys(i for d in r.d_list[:n_d] if (i := positions[d]) is not None))
        directions = query_directions(method, terms, resolved)
        if block and len(columns) + len({key for key, _ in directions} - columns.keys()) > width:
            outcomes += _score_block(block, columns, index, method, epsilon, shift)
            block, columns = [], {}
        columns.update(directions)
        block.append((r, excluded, answers, directions))
    if block:
        outcomes += _score_block(block, columns, index, method, epsilon, shift)

    summary = summarize(outcomes) if outcomes else None
    return EvaluationResult(tuple(outcomes), tuple(skipped), summary)


def _score_block(
    block: list[tuple], columns: dict, index: CandidateIndex, method: str, epsilon: float, shift: bool
) -> list[QueryOutcome]:
    """Score and rank a block's questions from one product ``S = D @ M.T``.

    ``S`` and every score row, some of them views into it, are freed on
    return, before the next block allocates its own.
    """
    row_of = {key: i for i, key in enumerate(columns)}
    sims = np.stack(list(columns.values())) @ index.matrix.T
    outcomes = []
    for r, excluded, answers, directions in block:
        rows = [sims[row_of[key]] for key, _ in directions]
        scores = combine_rows(method, rows, directions, epsilon=epsilon, shift=shift)
        answer_positions, top = rank_answers(scores, answers, excluded)
        outcomes.append(
            QueryOutcome(
                relation_id=r.relation_id,
                a=r.a,
                c=r.c,
                top_guess=index.surfaces[top],
                relaxed_hit=top in answers,
                average_precision=average_precision(answer_positions),
                reciprocal_rank=reciprocal_rank(answer_positions),
                n_answers_listed=len(r.d_list),
                n_answers_scored=len(answers),
            )
        )
    return outcomes
