"""Render evaluation summaries as an aligned text table or CSV files.

Output is deterministic: no timestamps, fixed column order, ``\\n`` line
endings.  Text-table floats use 4 decimal places for relation rows and
``mean (std)`` with 2 decimal places for the macro row; CSV floats use
``repr`` so values round-trip exactly.

The outcomes CSV's columns are declared once, in :data:`_SCORED_COLUMNS`,
which gives each scored column's name, writer and reader; its header, the
rows :func:`write_outcomes_csv` writes and the records
:func:`load_outcomes_csv` reads back all come from that table.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, asdict, fields
from pathlib import Path
from typing import Sequence

from .evaluate import SkippedQuery
from .metrics import EvaluationSummary, MetricBundle, QueryOutcome
from .textio import open_text

# After "relation" and "n", one column per MetricBundle field, in field order.
_SUMMARY_HEADER = ("relation", "n", "rel_acc", "map", "mrr", "ambiguity")


def _fixed(bundle: MetricBundle) -> list[str]:
    return [f"{value:.4f}" for value in astuple(bundle)]


def _mean_std(mean: MetricBundle, std: MetricBundle) -> list[str]:
    return [f"{m:.2f} ({s:.2f})" for m, s in zip(astuple(mean), astuple(std))]


def format_summary_table(summary: EvaluationSummary) -> str:
    """Aligned per-relation table with macro and micro overall rows."""
    body: list[tuple[str, ...]] = [
        (rel.relation_id, str(rel.n_queries), *_fixed(rel.metrics))
        for rel in summary.relations
    ]
    overall: list[tuple[str, ...]] = [
        ("overall (macro)", str(summary.n_queries), *_mean_std(summary.macro, summary.macro_std)),
        ("overall (micro)", str(summary.n_queries), *_fixed(summary.micro)),
    ]
    widths = [
        max(len(row[col]) for row in [_SUMMARY_HEADER, *body, *overall])
        for col in range(len(_SUMMARY_HEADER))
    ]

    def render(row: tuple[str, ...]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [row[col].rjust(widths[col]) for col in range(1, len(row))]
        return "  ".join(cells).rstrip()

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [render(_SUMMARY_HEADER), rule]
    lines += [render(row) for row in body]
    lines.append(rule)
    lines += [render(row) for row in overall]
    return "\n".join(lines) + "\n"


def _repr_floats(bundle: MetricBundle) -> list[str]:
    return [repr(float(value)) for value in astuple(bundle)]


def write_summary_csv(summary: EvaluationSummary, path: str | Path) -> None:
    """One row per relation plus ``__macro__``, ``__macro_std__``, ``__micro__`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SUMMARY_HEADER)
        for rel in summary.relations:
            writer.writerow([rel.relation_id, rel.n_queries, *_repr_floats(rel.metrics)])
        writer.writerow(["__macro__", summary.n_queries, *_repr_floats(summary.macro)])
        writer.writerow(["__macro_std__", summary.n_queries, *_repr_floats(summary.macro_std)])
        writer.writerow(["__micro__", summary.n_queries, *_repr_floats(summary.micro)])


def _read_hit(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"bad relaxed_hit {cell!r}")
    return cell == "true"


# The columns between ``status`` and ``reason``, in file order: a QueryOutcome
# field, how its value is written, and how the cell is read back.  A skipped
# row fills only the SkippedQuery fields and leaves the others empty.
_SCORED_COLUMNS = (
    ("relation_id", str, str),
    ("a", str, str),
    ("c", str, str),
    ("top_guess", str, str),
    ("relaxed_hit", lambda hit: "true" if hit else "false", _read_hit),
    ("average_precision", repr, float),
    ("reciprocal_rank", repr, float),
    ("n_answers_listed", str, int),
    ("n_answers_scored", str, int),
)
_OUTCOME_HEADER = ["status", *(name for name, _, _ in _SCORED_COLUMNS), "reason"]


def write_outcomes_csv(
    outcomes: Sequence[QueryOutcome],
    skipped: Sequence[SkippedQuery],
    path: str | Path,
) -> None:
    """Per-question audit trail: every scored and skipped analogy question."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, _OUTCOME_HEADER, restval="", lineterminator="\n")
        writer.writeheader()
        for o in outcomes:
            cells = {name: write(getattr(o, name)) for name, write, _ in _SCORED_COLUMNS}
            writer.writerow({"status": "scored", **cells})
        for s in skipped:
            writer.writerow({"status": "skipped", **asdict(s)})


def load_outcomes_csv(path: str | Path) -> tuple[list[QueryOutcome], list[SkippedQuery]]:
    """Read back a file written by :func:`write_outcomes_csv`.

    Errors name the file and the line on which the bad record ends, also
    for a line the ``csv`` module rejects (a NUL byte before Python 3.11).
    A field may be as long as the file: the ``csv`` module's process-wide
    field size limit is raised to the file size for the read and restored
    afterwards.
    """
    outcomes: list[QueryOutcome] = []
    skipped: list[SkippedQuery] = []
    with open_text(path) as lines:
        reader = csv.reader(lines)
        limit = csv.field_size_limit(max(csv.field_size_limit(), Path(path).stat().st_size))
        try:
            header = next(reader, None)
            if header == _OUTCOME_HEADER:
                for row in reader:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields")
                    cells = dict(zip(header, row))
                    if cells["status"] == "scored":
                        values = {name: read(cells[name]) for name, _, read in _SCORED_COLUMNS}
                        outcomes.append(QueryOutcome(**values))
                    elif cells["status"] == "skipped":
                        skipped.append(SkippedQuery(**{f.name: cells[f.name] for f in fields(SkippedQuery)}))
                    else:
                        raise ValueError(f"unknown status {cells['status']!r}")
        except UnicodeDecodeError:  # a ValueError too; open_text names its own line
            raise
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        finally:
            csv.field_size_limit(limit)
    if header != _OUTCOME_HEADER:
        raise ValueError(f"{path}: not an outcomes file (unexpected header)")
    return outcomes, skipped
