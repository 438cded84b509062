"""Analogy completion over word embeddings with multi-answer questions.

The package evaluates ``a : b :: c : ?`` questions where several example
terms and several correct answers may be listed, scores candidates with
three vector methods, reports relaxed accuracy plus rank-based metrics,
and can generate balanced analogy datasets from relation triples.

The top level re-exports the twelve entry points that load embeddings,
compose terms, build the candidate index, score, rank, evaluate and report.
Every other public name lives in the module that defines it, such as
:func:`analogykit.datagen.generate`, :func:`analogykit.dataset.load_dataset`
or :func:`analogykit.metrics.summarize`.
"""

from __future__ import annotations

from .dataset import AnalogyRecord
from .embeddings import (
    EmbeddingMatrix,
    build_candidate_index,
    compose_term,
    load_embeddings,
    normalize_term,
    save_embeddings,
)
from .evaluate import evaluate_records
from .reports import format_summary_table
from .scoring import AnalogyQuery, rank_candidates, score_candidates

__version__ = "0.1.0"

__all__ = [
    "AnalogyQuery",
    "AnalogyRecord",
    "EmbeddingMatrix",
    "build_candidate_index",
    "compose_term",
    "evaluate_records",
    "format_summary_table",
    "load_embeddings",
    "normalize_term",
    "rank_candidates",
    "save_embeddings",
    "score_candidates",
]
