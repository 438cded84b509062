"""Render evaluation summaries as an aligned text table or CSV files.

Output is deterministic: no timestamps, fixed column order, ``\\n`` line
endings.  Text-table floats use 4 decimal places for relation rows and
``mean (std)`` with 2 decimal places for the macro row; CSV floats use
``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from .evaluate import SkippedQuery
from .metrics import EvaluationSummary, MetricBundle, QueryOutcome
from .textio import open_text

_METRIC_FIELDS = ("relaxed_accuracy", "mean_ap", "mean_rr", "ambiguity")


def _fixed(bundle: MetricBundle) -> list[str]:
    return [f"{getattr(bundle, f):.4f}" for f in _METRIC_FIELDS]


def _mean_std(mean: MetricBundle, std: MetricBundle) -> list[str]:
    return [f"{getattr(mean, f):.2f} ({getattr(std, f):.2f})" for f in _METRIC_FIELDS]


def format_summary_table(summary: EvaluationSummary) -> str:
    """Aligned per-relation table with macro and micro overall rows."""
    header = ("relation", "n", "rel_acc", "map", "mrr", "ambiguity")
    body: list[tuple[str, ...]] = [
        (rel.relation_id, str(rel.n_queries), *_fixed(rel.metrics))
        for rel in summary.relations
    ]
    overall: list[tuple[str, ...]] = [
        ("overall (macro)", str(summary.n_queries), *_mean_std(summary.macro, summary.macro_std)),
        ("overall (micro)", str(summary.n_queries), *_fixed(summary.micro)),
    ]
    widths = [
        max(len(row[col]) for row in [header, *body, *overall])
        for col in range(len(header))
    ]

    def render(row: tuple[str, ...]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [row[col].rjust(widths[col]) for col in range(1, len(row))]
        return "  ".join(cells).rstrip()

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [render(header), rule]
    lines += [render(row) for row in body]
    lines.append(rule)
    lines += [render(row) for row in overall]
    return "\n".join(lines) + "\n"


def _repr_floats(bundle: MetricBundle) -> list[str]:
    return [repr(float(getattr(bundle, f))) for f in _METRIC_FIELDS]


def write_summary_csv(summary: EvaluationSummary, path: str | Path) -> None:
    """One row per relation plus ``__macro__``, ``__macro_std__``, ``__micro__`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["relation", "n", "rel_acc", "map", "mrr", "ambiguity"])
        for rel in summary.relations:
            writer.writerow([rel.relation_id, rel.n_queries, *_repr_floats(rel.metrics)])
        writer.writerow(["__macro__", summary.n_queries, *_repr_floats(summary.macro)])
        writer.writerow(["__macro_std__", summary.n_queries, *_repr_floats(summary.macro_std)])
        writer.writerow(["__micro__", summary.n_queries, *_repr_floats(summary.micro)])


_OUTCOME_HEADER = [
    "status",
    "relation_id",
    "a",
    "c",
    "top_guess",
    "relaxed_hit",
    "average_precision",
    "reciprocal_rank",
    "n_answers_listed",
    "n_answers_scored",
    "reason",
]


def write_outcomes_csv(
    outcomes: Sequence[QueryOutcome],
    skipped: Sequence[SkippedQuery],
    path: str | Path,
) -> None:
    """Per-question audit trail: every scored and skipped analogy question."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_OUTCOME_HEADER)
        for o in outcomes:
            writer.writerow(
                [
                    "scored",
                    o.relation_id,
                    o.a,
                    o.c,
                    o.top_guess,
                    "true" if o.relaxed_hit else "false",
                    repr(o.average_precision),
                    repr(o.reciprocal_rank),
                    o.n_answers_listed,
                    o.n_answers_scored,
                    "",
                ]
            )
        for s in skipped:
            writer.writerow(["skipped", s.relation_id, s.a, s.c, "", "", "", "", "", "", s.reason])


def load_outcomes_csv(path: str | Path) -> tuple[list[QueryOutcome], list[SkippedQuery]]:
    """Read back a file written by :func:`write_outcomes_csv`."""
    outcomes: list[QueryOutcome] = []
    skipped: list[SkippedQuery] = []
    reader = csv.reader(open_text(path))
    header = next(reader, None)
    if header != _OUTCOME_HEADER:
        raise ValueError(f"{path}: not an outcomes file (unexpected header)")
    for row in reader:
        if len(row) != len(_OUTCOME_HEADER):
            raise ValueError(f"{path}:{reader.line_num}: expected {len(_OUTCOME_HEADER)} fields")
        status = row[0]
        try:
            if status == "scored":
                if row[5] not in ("true", "false"):
                    raise ValueError(f"bad relaxed_hit {row[5]!r}")
                outcomes.append(
                    QueryOutcome(
                        relation_id=row[1],
                        a=row[2],
                        c=row[3],
                        top_guess=row[4],
                        relaxed_hit=row[5] == "true",
                        average_precision=float(row[6]),
                        reciprocal_rank=float(row[7]),
                        n_answers_listed=int(row[8]),
                        n_answers_scored=int(row[9]),
                    )
                )
            elif status == "skipped":
                skipped.append(SkippedQuery(relation_id=row[1], a=row[2], c=row[3], reason=row[10]))
            else:
                raise ValueError(f"unknown status {status!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return outcomes, skipped
