"""Vector analogy scoring over a candidate index.

Three scoring methods rank every candidate ``d`` for a query
``a : b_1..b_k :: c : ?``:

* ``cosadd``: cosine between the candidate and the offset target
  ``c + (mean_i(b_i) - a)``.
* ``pairdist``: cosine between the pair directions ``d - c`` and
  ``mean_i(b_i) - a``.
* ``cosmul``: mean over ``i`` of ``cos(d, b_i) * cos(d, c) / (cos(d, a) + epsilon)``.

Shared conventions: ``cos(x, 0) = +0.0`` whenever either argument has zero
norm; ranking is by descending score with ties broken by ascending
candidate index.  ``shift=True`` affects cosmul only: each cosine in its
formula is first mapped to ``(cos + 1) / 2``, keeping every factor
non-negative for arbitrary vectors.  The other two methods take a single
cosine, where the map would not change the ranking, and ignore the flag.

Scores need not be finite.  Unshifted cosmul divides by
``cos(d, a) + epsilon``, which is exactly zero when ``cos(d, a) == -epsilon``:
the candidate then scores ``+inf`` or ``-inf`` by the sign of its
numerator, or NaN when the numerator is zero too, and no error is raised.
Ranking places ``+inf`` first, then finite scores, then ``-inf``, then
NaN; ties, including ``0.0`` against ``-0.0`` and between NaNs, go to the
lower index.  This is the order of a stable sort on the negated scores.

``score_candidates`` scores one query and is the reference: acceptance
criteria 2 and 7 pin its formulas bit for bit, and the kernel tests compare
against it.  It is the plain formula, not a fast path: each pairdist call
builds the ``n x dim`` difference matrix ``d - c`` for all ``n`` candidates.
Evaluation scores blocks of questions with a kernel instead.
``query_directions`` names the directions a question needs, the rows of one
product ``S = D @ M.T`` over the candidate matrix ``M`` give their dot
products with every candidate, and ``combine_rows`` turns a question's rows
into its scores:

* cosadd: one direction ``unit(c + mean_i(b_i) - a)``; its row is the score.
* pairdist: ``u = unit(mean_i(b_i) - a)`` and ``c`` as composed, and the
  score ``(S_u - c.u) / sqrt(1 - 2 S_c + c.c)``, which is ``cos(d - c, u)``
  for a unit candidate row ``d``.
* cosmul: ``unit(t)`` for each term ``t``; the rows are shifted and
  combined by the same code as in ``score_candidates``.

Both paths build each unit vector the same way, so kernel scores agree
with ``score_candidates`` to round-off (within 1e-12 in the tests), not bit
for bit: a product over a block adds in another order than one over a single
query.  Cosmul magnifies that round-off, as it does the score, by
``1 / (cos(d, a) + epsilon)``, so near a zero denominator the two agree to
fewer digits.  Pairdist's expanded form loses precision near ``d == c``.
At ``d == c`` its squared distance ``1 - 2 S_c + c.c`` comes out near
``+-1e-16`` instead of 0, so every candidate with a squared distance at or
below ``1e-12`` (``||d - c|| <= 1e-6``) scores 0.0, as ``d == c`` does in
``score_candidates``.  Above that the error falls with the square of the
distance: on random 200-d unit vectors it was up to 7e-6 at
``||d - c|| = 1.8e-6``, 2e-11 at 1e-3 and under 1e-12 from 5e-3 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Sequence

import numpy as np

from .embeddings import CandidateIndex

METHODS = ("cosadd", "pairdist", "cosmul")
DEFAULT_EPSILON = 0.001


def exemplar_offset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Offset direction learned from the example pairs: ``mean_i(b_i) - a``."""
    return b.mean(axis=0) - a


@dataclass(frozen=True)
class AnalogyQuery:
    """Query-side vectors: ``a`` and ``c`` are ``(dim,)``, ``b`` is ``(k, dim)``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.a.ndim != 1 or self.c.ndim != 1:
            raise ValueError("a and c must be 1-d vectors")
        if self.b.ndim != 2 or self.b.shape[0] < 1:
            raise ValueError("b must be a (k, dim) matrix with k >= 1")
        if not (self.a.shape[0] == self.b.shape[1] == self.c.shape[0]):
            raise ValueError("query vectors disagree on dimensionality")


def _shift(scores: np.ndarray, shift: bool) -> np.ndarray:
    return (scores + 1.0) / 2.0 if shift else scores


def _unit(v: np.ndarray) -> np.ndarray:
    # Candidate rows are unit vectors, so rows @ _unit(v) is their cosine with
    # v.  A zero-norm v gives the zero vector, whose product is +0.0 per row.
    norm = np.linalg.norm(v)
    return v / norm if norm != 0.0 else np.zeros_like(v)


def _cosmul(
    cos_a: np.ndarray, cos_b: Iterable[np.ndarray], cos_c: np.ndarray, epsilon: float, shift: bool
) -> np.ndarray:
    """Cosmul from the cosine rows of ``a``, each ``b_i`` and ``c``.

    The per-exemplar rows ``(s_b_i * s_c) / (s_a + epsilon)`` are summed in
    place, one at a time, and divided by their count.  The sum starts from
    +0.0, as ``np.mean`` does, so a single exemplar reduces to the plain
    three-term formula bit for bit and a -0.0 averages to +0.0.  ``cos_b``
    may be a generator; its rows are only read.
    """
    s_c = _shift(cos_c, shift)
    den = _shift(cos_a, shift) + epsilon
    total = np.zeros_like(s_c)
    # A zero denominator gives +-inf or NaN, and +inf and -inf average to NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, cos_b_i in enumerate(cos_b, 1):
            term = _shift(cos_b_i, shift) * s_c
            term /= den
            total += term
        total /= k
    return total


def score_candidates(
    index: CandidateIndex,
    query: AnalogyQuery,
    method: str,
    *,
    epsilon: float = DEFAULT_EPSILON,
    shift: bool = False,
) -> np.ndarray:
    """Score every index entry for ``query``; higher is better."""
    if method not in METHODS:
        raise ValueError(f"unknown scoring method {method!r}; expected one of {METHODS}")
    if query.a.shape[0] != index.dim:
        raise ValueError(f"query dimension {query.a.shape[0]} != index dimension {index.dim}")
    rows = index.matrix
    if method == "cosadd":
        return rows @ _unit(query.c + exemplar_offset(query.a, query.b))
    if method == "pairdist":
        diff = rows - query.c
        norms = np.linalg.norm(diff, axis=1)
        raw = diff @ _unit(exemplar_offset(query.a, query.b))
        return np.divide(raw, norms, out=np.zeros_like(raw), where=norms != 0.0)
    cos_b = (rows @ _unit(b_i) for b_i in query.b)
    return _cosmul(rows @ _unit(query.a), cos_b, rows @ _unit(query.c), epsilon, shift)


def query_directions(
    method: str, terms: Sequence[str], vectors: Sequence[np.ndarray]
) -> list[tuple[Hashable, np.ndarray]]:
    """The directions the block kernel scores ``a : b_1..b_k :: c`` against.

    ``terms`` are the question's terms ``(a, *b, c)`` and ``vectors`` their
    query vectors.  Each direction is keyed by the terms it is built from, so
    questions that share a key can share its row of ``S = D @ M.T``.
    """
    a, *b, c = vectors
    if method == "cosadd":
        return [(tuple(terms), _unit(c + exemplar_offset(a, np.vstack(b))))]
    if method == "pairdist":
        return [(tuple(terms[:-1]), _unit(exemplar_offset(a, np.vstack(b)))), (terms[-1], c)]
    return [(term, _unit(vec)) for term, vec in zip(terms, vectors)]


def combine_rows(
    method: str,
    rows: Sequence[np.ndarray],
    directions: Sequence[tuple[Hashable, np.ndarray]],
    *,
    epsilon: float = DEFAULT_EPSILON,
    shift: bool = False,
) -> np.ndarray:
    """A question's scores from ``rows``, the rows of ``S`` for its ``directions``."""
    if method == "cosadd":
        return rows[0]
    if method == "pairdist":
        (_, u), (_, c) = directions
        s_u, s_c = rows
        den2 = 1.0 - 2.0 * s_c + c @ c
        # At d == c the expanded ||d - c||^2 leaves about +-1e-16, not 0: any
        # candidate this near c scores 0.0, as d == c does in score_candidates.
        far = den2 > 1e-12
        # scores holds the square root, then the quotient, only where far.
        scores = np.zeros_like(den2)
        np.sqrt(den2, out=scores, where=far)
        return np.divide(s_u - c @ u, scores, out=scores, where=far)
    return _cosmul(rows[0], rows[1:-1], rows[-1], epsilon, shift)


def rank_candidates(scores: np.ndarray, exclusions: set[int] | None = None) -> np.ndarray:
    """Candidate indices by descending score, ties broken by ascending index.

    The stable sort over negated scores realizes the tie-break exactly, so
    rankings are reproducible across runs.  When ``exclusions`` is given
    those indices are removed from the returned order; removing every
    candidate is an error.
    """
    order = np.argsort(-scores, kind="stable")
    if not exclusions:
        return order
    kept = order[~np.isin(order, list(exclusions))]
    if kept.shape[0] == 0:
        raise ValueError("every candidate is excluded")
    return kept


def rank_answers(
    scores: np.ndarray, answers: Sequence[int], excluded: Collection[int] = ()
) -> tuple[list[int], int]:
    """1-based positions of ``answers`` in the full ranking, and the top guess.

    Positions count every candidate, excluded or not; the top guess is the
    best-ranked candidate outside ``excluded``.  Both follow the order of
    :func:`rank_candidates` without sorting: candidate ``i`` sits at
    ``#(s > s_i) + #(s == s_i, j < i) + 1``, and NaN scores come after all
    others.  Excluding every candidate is an error.
    """
    nan = np.isnan(scores)
    nan = nan if nan.any() else None  # without NaN scores, no NaN masks
    positions = []
    for i in answers:
        s_i = scores[i]
        if nan is not None and nan[i]:
            ahead = scores.shape[0] - np.count_nonzero(nan) + np.count_nonzero(nan[:i])
        else:
            ahead = np.count_nonzero(scores > s_i) + np.count_nonzero(scores[:i] == s_i)
        positions.append(int(ahead) + 1)

    kept = np.ones(scores.shape[0], dtype=bool)
    kept[list(excluded)] = False
    ordered = kept if nan is None else kept & ~nan
    if ordered.any():
        best = np.max(scores, where=ordered, initial=-np.inf)
        top = int(np.argmax(ordered & (scores == best)))
    elif kept.any():
        top = int(np.argmax(kept))
    else:
        raise ValueError("every candidate is excluded; cannot pick a top guess")
    return positions, top
