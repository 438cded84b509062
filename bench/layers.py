"""Which functions a traced run wraps, and the per-layer metrics derived from the spans.

Each target is wrapped at the binding its caller looks up: the job's own
calls go through ``analogykit.cli``, ``build_candidate_index`` finds
``compose_term`` in ``analogykit.embeddings``, and ``evaluate_records``
finds its helpers in ``analogykit.evaluate``.  ``README.md`` maps every
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from spans import SpanSet, duration, rss_growth_mb

CLI = "analogykit.cli"
EMB = "analogykit.embeddings"
EVA = "analogykit.evaluate"
GEN = "analogykit.datagen"

# (module, attribute, record peak RSS around the call)
TARGETS: list[tuple[str, str, bool]] = [
    (CLI, "load_embeddings", True),
    (CLI, "_read_candidate_terms", False),
    (CLI, "build_candidate_index", True),
    (CLI, "load_dataset", False),
    (CLI, "evaluate_records", True),
    (CLI, "write_outcomes_csv", False),
    (CLI, "format_summary_table", False),
    (CLI, "write_summary_csv", False),
    (CLI, "load_triples", False),
    (CLI, "load_lexicon", False),
    (CLI, "load_frequencies", False),
    (CLI, "generate", True),
    (CLI, "save_dataset", False),
    (CLI, "write_statistics", False),
    (CLI, "write_review", False),
    (EMB, "compose_term", False),
    (EVA, "compose_term", False),
    (EVA, "score_candidates", False),
    (EVA, "rank_candidates", False),
    (EVA, "ranking_positions", False),
    (EVA, "top_candidate", False),
    (EVA, "average_precision", False),
    (EVA, "reciprocal_rank", False),
    (EVA, "summarize", False),
    (GEN, "frequent_concepts", False),
    (GEN, "select_relations", False),
    (GEN, "sample_and_bundle", False),
    (GEN, "combine_pairs", False),
]

RANKING = (f"{EVA}.rank_candidates", f"{EVA}.ranking_positions", f"{EVA}.top_candidate")
PER_METHOD = ("pairdist", "cosmul")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    ``(0.0, 0.0)`` when there are fewer than 20 samples.
    """
    n = len(values)
    for tenths in (999, 990, 950, 900, 750, 500):
        if n * (1000 - tenths) >= 10 * 1000:
            return tenths / 10, float(np.percentile(values, tenths / 10))
    return 0.0, 0.0


def _timings(prefix: str, samples: list[float]) -> dict[str, float]:
    """Total, call count, median and tail of per-call durations, in s and ms."""
    pct, value = tail(samples)
    return {
        f"{prefix}_s": float(sum(samples)),
        f"{prefix}_calls": len(samples),
        f"{prefix}_ms_p50": float(np.median(samples)) * 1e3 if samples else 0.0,
        f"{prefix}_ms_tail": value * 1e3,
        f"{prefix}_tail_pct": pct,
    }


def _scoring(spans: SpanSet, scopes: list[list], n_candidates: int) -> dict[str, float]:
    score = [duration(r) for p in scopes for r in spans.under(p, f"{EVA}.score_candidates")]
    per_query = []
    for p in scopes:
        # The k-th call of each ranking function belongs to the k-th query.
        calls = [spans.under(p, name) for name in RANKING]
        per_query += [sum(duration(r) for r in group if r) for group in zip_longest(*calls)]
    out = _timings("scoring.score", score)
    out["scoring.ns_per_candidate"] = (
        out["scoring.score_s"] / (len(score) * n_candidates) * 1e9 if score and n_candidates else 0.0
    )
    out.update(_timings("scoring.rank", per_query))
    return out


def layer_metrics(spans: SpanSet, job: dict, wall_s: float, embedding_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""

    def total(*names: str) -> float:
        return sum(duration(r) for name in names for r in spans.named(name))

    def self_time(name: str) -> float:
        return sum(spans.self_time(r) for r in spans.named(name))

    def rss(name: str) -> float:
        return sum(rss_growth_mb(r) for r in spans.named(name))

    passes = job.get("passes", {})
    load_s = total(f"{CLI}.load_embeddings")
    m: dict[str, float] = {
        "embeddings.load_s": load_s,
        "embeddings.load_mb_per_s": embedding_mb / load_s if load_s else 0.0,
        "embeddings.index_build_s": total(f"{CLI}.build_candidate_index"),
        "embeddings.compose_calls": len(spans.named(f"{EMB}.compose_term")),
        "embeddings.index_rows": job.get("index_rows", 0),
        "embeddings.index_discarded": job.get("index_discarded", 0),
        "embeddings.load_rss_growth_mb": rss(f"{CLI}.load_embeddings"),
        "embeddings.index_rss_growth_mb": rss(f"{CLI}.build_candidate_index"),
        "dataset.load_s": total(f"{CLI}.load_dataset"),
        "dataset.records": job.get("records", job.get("records_saved", 0)),
        "dataset.combine_s": total(f"{GEN}.combine_pairs"),
        "dataset.save_s": total(f"{CLI}.save_dataset"),
    }
    all_passes = [r for method in passes for r in spans.named(f"pass.{method}")]
    m.update(_scoring(spans, all_passes, job.get("index_rows", 0)))
    for method in PER_METHOD:
        per = _scoring(spans, spans.named(f"pass.{method}"), job.get("index_rows", 0))
        m.update({f"{k}.{method}": per[k] for k in (
            "scoring.score_s", "scoring.score_calls", "scoring.score_ms_p50",
            "scoring.score_ms_tail", "scoring.ns_per_candidate")})
    m.update({
        "evaluate.total_s": total(f"{CLI}.evaluate_records"),
        "evaluate.self_s": self_time(f"{CLI}.evaluate_records"),
        "evaluate.compose_s": total(f"{EVA}.compose_term"),
        "evaluate.rss_growth_mb": rss(f"{CLI}.evaluate_records"),
        "evaluate.scored": sum(p["scored"] for p in passes.values()),
        "evaluate.skipped": sum(p["skipped"] for p in passes.values()),
        "evaluate.answers_missing": sum(p["answers_missing"] for p in passes.values()),
        "metrics.query_s": total(f"{EVA}.average_precision", f"{EVA}.reciprocal_rank"),
        "metrics.summarize_s": total(f"{EVA}.summarize"),
        "reports.write_s": total("reports.write"),
        "reports.bytes_written": job["bytes_written"] if passes else 0,
        "datagen.load_s": total(f"{CLI}.load_triples", f"{CLI}.load_lexicon", f"{CLI}.load_frequencies"),
        "datagen.filter_s": total(f"{GEN}.frequent_concepts"),
        "datagen.select_s": total(f"{GEN}.select_relations"),
        "datagen.bundle_s": total(f"{GEN}.sample_and_bundle"),
        "datagen.generate_self_s": self_time(f"{CLI}.generate"),
        "datagen.write_s": total(f"{CLI}.write_statistics", f"{CLI}.write_review"),
        "datagen.records": job.get("term_records", 0),
        "cli.other_s": wall_s - sum(duration(r) for r in spans.roots()),
    })
    return m
