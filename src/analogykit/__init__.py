"""Analogy completion over word embeddings with multi-answer questions.

The package evaluates ``a : b :: c : ?`` questions where several example
terms and several correct answers may be listed, scores candidates with
three vector methods, reports relaxed accuracy plus rank-based metrics,
and can generate balanced analogy datasets from relation triples.
"""

from __future__ import annotations

from .dataset import (
    SETTINGS,
    AnalogyFormatError,
    AnalogyRecord,
    ambiguity,
    apply_setting,
    combine_pairs,
    load_dataset,
    save_dataset,
)
from .datagen import (
    GenerationConfig,
    GenerationError,
    GenerationResult,
    Triple,
    choose_representative_term,
    frequent_concepts,
    generate,
    one_to_one_instances,
    sample_and_bundle,
    select_relations,
)
from .embeddings import (
    EMBEDDING_FORMATS,
    CandidateIndex,
    ComposedTerm,
    EmbeddingMatrix,
    EmbeddingParseError,
    build_candidate_index,
    compose_term,
    load_embeddings,
    normalize_term,
    save_embeddings,
    term_key,
)
from .evaluate import EvaluationResult, SkippedQuery, evaluate_records
from .metrics import (
    EvaluationSummary,
    MetricBundle,
    QueryOutcome,
    RelationSummary,
    average_precision,
    reciprocal_rank,
    summarize,
)
from .reports import (
    format_summary_table,
    load_outcomes_csv,
    write_outcomes_csv,
    write_summary_csv,
)
from .scoring import (
    DEFAULT_EPSILON,
    METHODS,
    AnalogyQuery,
    exemplar_offset,
    rank_candidates,
    score_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogyFormatError",
    "AnalogyQuery",
    "AnalogyRecord",
    "CandidateIndex",
    "ComposedTerm",
    "DEFAULT_EPSILON",
    "EMBEDDING_FORMATS",
    "EmbeddingMatrix",
    "EmbeddingParseError",
    "EvaluationResult",
    "EvaluationSummary",
    "GenerationConfig",
    "GenerationError",
    "GenerationResult",
    "METHODS",
    "MetricBundle",
    "QueryOutcome",
    "RelationSummary",
    "SETTINGS",
    "SkippedQuery",
    "Triple",
    "ambiguity",
    "apply_setting",
    "average_precision",
    "build_candidate_index",
    "choose_representative_term",
    "combine_pairs",
    "compose_term",
    "evaluate_records",
    "exemplar_offset",
    "format_summary_table",
    "frequent_concepts",
    "generate",
    "load_dataset",
    "load_embeddings",
    "load_outcomes_csv",
    "normalize_term",
    "one_to_one_instances",
    "rank_candidates",
    "reciprocal_rank",
    "sample_and_bundle",
    "save_dataset",
    "save_embeddings",
    "score_candidates",
    "select_relations",
    "summarize",
    "term_key",
    "write_outcomes_csv",
    "write_summary_csv",
]
