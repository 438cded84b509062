"""One benchmark repetition, run in a fresh process by ``run.py``.

Evaluation workloads go load -> index -> dataset -> evaluate -> write and
the generation workload goes load -> generate -> write, through the same
``analogykit.cli`` bindings that ``cmd_evaluate`` and ``cmd_generate`` call,
with the program's defaults for everything the workload does not set
(one scoring worker, no candidate blocking).  ``eval-allinfo`` runs two
passes over one load.  Stage times come from clock reads between those
calls.  With ``--trace`` the calls listed in ``layers.TARGETS`` are also
wrapped, and the spans are written to ``--spans`` when the job ends.

    python3 bench/job.py --workload eval-cosadd --fixtures DIR --out DIR \
        --result FILE [--seed N] [--trace RUN_ID --spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import time
from pathlib import Path

from spans import Tracer, peak_rss_kb

ROOT = Path(__file__).resolve().parent.parent

# workload -> (embedding file, format, setting, ((method, shift-cosines), ...))
EVAL = {
    "eval-cosadd": ("embeddings.bin", "binary", "multi", (("cosadd", False),)),
    "eval-allinfo": ("embeddings.bin", "binary", "all-info", (("pairdist", False), ("cosmul", True))),
    "load-text": ("embeddings.txt", "text", "single", (("cosadd", False),)),
}
# Generation settings, as ``analogykit generate`` flags would give them.
GENERATE = {"min_term_freq": 25, "min_one_to_one": 50, "pairs_per_relation": 50}


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


def run_eval(cli, workload: str, fixtures: Path, out: Path, span) -> dict:
    emb_file, fmt, setting, passes = EVAL[workload]
    start = time.perf_counter()
    emb = cli.load_embeddings(str(fixtures / emb_file), fmt)
    index = cli.build_candidate_index(cli._read_candidate_terms(str(fixtures / "candidates.txt")), emb)
    records = cli.load_dataset(str(fixtures / "dataset.tsv"))
    job = {
        "setup_s": time.perf_counter() - start,
        "records": len(records),
        "index_rows": len(index),
        "index_discarded": index.n_discarded,
        "passes": {},
    }
    for method, shift in passes:
        with span(f"pass.{method}"):
            t = time.perf_counter()
            result = cli.evaluate_records(records, emb, index, setting=setting, method=method, shift=shift)
            eval_s = time.perf_counter() - t
            with span("reports.write"):
                cli.write_outcomes_csv(result.outcomes, result.skipped, str(out / f"outcomes.{method}.csv"))
                if result.summary is not None:
                    table = cli.format_summary_table(result.summary)
                    (out / f"table.{method}.txt").write_text(table, encoding="utf-8")
                    cli.write_summary_csv(result.summary, str(out / f"summary.{method}.csv"))
        job["passes"][method] = {
            "eval_s": eval_s,
            "scored": len(result.outcomes),
            "skipped": len(result.skipped),
            "answers_missing": sum(1 for o in result.outcomes if o.n_answers_scored == 0),
        }
    job["bytes_written"] = _bytes_in(out)
    return job


def run_generate(cli, fixtures: Path, out: Path, seed: int) -> dict:
    start = time.perf_counter()
    config = cli.GenerationConfig(rng_seed=seed, allowlist=None, **GENERATE)
    triples = cli.load_triples(str(fixtures / "triples.tsv"))
    lexicon = cli.load_lexicon(str(fixtures / "lexicon.tsv"))
    freqs = cli.load_frequencies(str(fixtures / "frequencies.tsv"))
    setup_s = time.perf_counter() - start
    t = time.perf_counter()
    result = cli.generate(triples, lexicon, freqs, config)
    generate_s = time.perf_counter() - t
    cli.save_dataset(list(result.id_records), out / "dataset_ids.tsv")
    cli.save_dataset(list(result.term_records), out / "dataset_terms.tsv")
    cli.write_statistics(result.stats, out / "statistics.tsv")
    cli.write_review(result.review, out / "review.tsv")
    return {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "term_records": len(result.term_records),
        "records_saved": len(result.id_records) + len(result.term_records),
        "bytes_written": _bytes_in(out),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*EVAL, "generate"])
    parser.add_argument("--fixtures", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="RUN_ID")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from analogykit import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"analogykit was imported from {cli.__file__}, not from {src}")
    # The same logging set-up as ``analogykit.cli.main``.
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from layers import TARGETS

        tracer = Tracer(args.trace)
        tracer.install(TARGETS)
        span = tracer.span

    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "generate":
        job = run_generate(cli, args.fixtures, args.out, args.seed)
    else:
        job = run_eval(cli, args.workload, args.fixtures, args.out, span)
    job["peak_rss_mb"] = peak_rss_kb() / 1024.0
    if tracer is not None:
        tracer.dump(str(args.spans))
    args.result.write_text(json.dumps(job), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
