"""Command-line interface: ``evaluate``, ``generate``, and ``report``.

Exit codes: 0 on success, 2 when evaluation skipped any analogy question
(the count goes to stderr), 1 on fatal errors such as unreadable input.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .datagen import (
    GenerationConfig,
    generate,
    load_allowlist,
    load_frequencies,
    load_lexicon,
    load_triples,
    write_review,
    write_statistics,
)
from .dataset import SETTINGS, load_dataset, save_dataset
from .embeddings import EMBEDDING_FORMATS, build_candidate_index, load_embeddings
from .evaluate import evaluate_records
from .metrics import EvaluationSummary, summarize
from .reports import (
    format_summary_table,
    load_outcomes_csv,
    write_outcomes_csv,
    write_summary_csv,
)
from .scoring import DEFAULT_EPSILON, METHODS
from .textio import open_text

logger = logging.getLogger(__name__)


def _read_candidate_terms(path: str) -> list[str]:
    """One candidate term per line (terms may contain spaces); blank lines skipped."""
    terms = [line.strip() for line in open_text(path) if line.strip()]
    if not terms:
        raise ValueError(f"{path}: no candidate terms")
    return terms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogykit",
        description="Evaluate analogy completion over word embeddings and generate analogy datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score an analogy dataset against embeddings")
    p_eval.add_argument("--embeddings", required=True, help="embedding vectors file")
    p_eval.add_argument("--embeddings-format", choices=EMBEDDING_FORMATS, default="text")
    p_eval.add_argument("--candidates", required=True, help="candidate term list, one term per line")
    p_eval.add_argument("--dataset", required=True, help="analogy dataset TSV")
    p_eval.add_argument("--setting", choices=SETTINGS, default="single")
    p_eval.add_argument("--method", choices=METHODS, default="cosadd")
    p_eval.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="cosmul denominator guard (default %(default)s)")
    p_eval.add_argument("--shift-cosines", action="store_true",
                        help="map cosines to (cos+1)/2 inside cosmul")
    p_eval.add_argument("--no-normalize", action="store_true",
                        help="keep composed query vectors at their raw length")
    p_eval.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; must be >= 1 and has no effect")
    p_eval.add_argument("--out-table", help="also write the text table to this file")
    p_eval.add_argument("--out-csv", help="write the summary CSV to this file")
    p_eval.add_argument("--out-outcomes", help="write the per-question CSV to this file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_gen = sub.add_parser("generate", help="build an analogy dataset from relation triples")
    p_gen.add_argument("--triples", required=True, help="TSV: subject, relation, object")
    p_gen.add_argument("--lexicon", required=True, help="TSV: concept, term (one line per term)")
    p_gen.add_argument("--frequencies", required=True, help="TSV: term, corpus count")
    p_gen.add_argument("--allowlist", help="file of relation ids to keep, one per line")
    p_gen.add_argument("--min-term-freq", type=int, default=25)
    p_gen.add_argument("--min-one-to-one", type=int, default=50)
    p_gen.add_argument("--pairs-per-relation", type=int, default=50)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True,
                       help="directory for dataset_ids.tsv, dataset_terms.tsv, statistics.tsv, review.tsv")
    p_gen.set_defaults(func=cmd_generate)

    p_rep = sub.add_parser("report", help="re-render summaries from a per-question outcomes CSV")
    p_rep.add_argument("--outcomes", required=True, help="file written by evaluate --out-outcomes")
    p_rep.add_argument("--out-table", help="also write the text table to this file")
    p_rep.add_argument("--out-csv", help="write the summary CSV to this file")
    p_rep.set_defaults(func=cmd_report)

    return parser


def _write_summary(summary: EvaluationSummary, args: argparse.Namespace) -> None:
    """Print the summary table and write ``--out-table`` and ``--out-csv`` when given."""
    table = format_summary_table(summary)
    sys.stdout.write(table)
    if args.out_table:
        Path(args.out_table).write_text(table, encoding="utf-8")
    if args.out_csv:
        write_summary_csv(summary, args.out_csv)


def cmd_evaluate(args: argparse.Namespace) -> int:
    emb = load_embeddings(args.embeddings, args.embeddings_format)
    index = build_candidate_index(_read_candidate_terms(args.candidates), emb)
    logger.info("candidate index: %d terms (%d discarded)", len(index), index.n_discarded)
    records = load_dataset(args.dataset)
    logger.info("loaded %d analogy records from %s", len(records), args.dataset)
    result = evaluate_records(
        records,
        emb,
        index,
        setting=args.setting,
        method=args.method,
        epsilon=args.epsilon,
        shift=args.shift_cosines,
        normalize_queries=not args.no_normalize,
        workers=args.workers,
    )
    for o in result.outcomes:
        if o.n_answers_scored == 0:
            logger.warning("no listed answer of %r : %r is in the candidate index; question scores 0", o.a, o.c)
    if args.out_outcomes:
        write_outcomes_csv(result.outcomes, result.skipped, args.out_outcomes)
    if result.summary is None:
        print("error: no analogy question could be scored", file=sys.stderr)
        return 1
    _write_summary(result.summary, args)
    if result.skipped:
        print(f"skipped {len(result.skipped)} of {len(records)} analogy questions", file=sys.stderr)
        return 2
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = GenerationConfig(
        min_term_freq=args.min_term_freq,
        min_one_to_one=args.min_one_to_one,
        pairs_per_relation=args.pairs_per_relation,
        rng_seed=args.seed,
        allowlist=load_allowlist(args.allowlist) if args.allowlist else None,
    )
    triples = load_triples(args.triples)
    lexicon = load_lexicon(args.lexicon)
    freqs = load_frequencies(args.frequencies)
    result = generate(triples, lexicon, freqs, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(list(result.id_records), out_dir / "dataset_ids.tsv")
    save_dataset(list(result.term_records), out_dir / "dataset_terms.tsv")
    write_statistics(result.stats, out_dir / "statistics.tsv")
    write_review(result.review, out_dir / "review.tsv")
    print(
        f"{len(result.selected_relations)} relations, {len(result.term_records)} analogies -> {out_dir}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    outcomes, skipped = load_outcomes_csv(args.outcomes)
    if not outcomes:
        print("error: outcomes file contains no scored questions", file=sys.stderr)
        return 1
    if skipped:
        logger.info("outcomes file records %d skipped questions", len(skipped))
    _write_summary(summarize(outcomes), args)
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
