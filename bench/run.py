"""Fixed-seed benchmark for analogykit's ``evaluate`` and ``generate`` paths.

    python3 bench/run.py --workload eval-cosadd --seed 1 --seconds 24 --trace 0

Builds the workload's input files from the seed (untimed), then runs the
workload as a batch job driven by one caller in a closed loop: one fresh
process per repetition (``job.py``), the next started when the previous one
has exited, for as many repetitions as fit in ``--seconds`` (at least one).
It checks the outputs (``reference.py``), prints every metric by name and
unit, and ends with one JSON line.  With ``--trace 0`` that line holds the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` untraced and
traced repetitions alternate, and the line holds the per-layer metrics.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREADS = min(2, os.cpu_count() or 1)
# Pin BLAS threads before numpy is imported here or in a job.
os.environ["OPENBLAS_NUM_THREADS"] = str(THREADS)

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from job import EVAL  # noqa: E402
from spans import SpanSet  # noqa: E402

WORKLOADS = (*EVAL, "generate")
JOB_TIMEOUT_S = 150
# Throughputs printed only on the workloads that have the matching passes.
ONLY_ON = {
    "queries_per_s": ("eval-cosadd", "load-text"),
    "queries_per_s.pairdist": ("eval-allinfo",),
    "queries_per_s.cosmul": ("eval-allinfo",),
    "analogies_per_s": ("generate",),
}


class JobFailed(RuntimeError):
    pass


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": THREADS,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


class Runner:
    """Runs repetitions of one workload and keeps what the check needs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.digests: list[str] = []
        self.count = 0

    def job(self, traced: bool) -> dict:
        k = self.count
        self.count += 1
        out, result, spans = self.work / f"rep{k}", self.work / f"rep{k}.json", self.work / f"rep{k}.spans.json"
        cmd = [sys.executable, str(BENCH / "job.py"), "--workload", self.workload,
               "--fixtures", str(self.work / "fixtures"), "--out", str(out),
               "--result", str(result), "--seed", str(self.seed)]
        if traced:
            cmd += ["--trace", f"{self.workload}-{self.seed}-{k}", "--spans", str(spans)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=JOB_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise JobFailed(f"repetition {k} ran longer than {JOB_TIMEOUT_S} s") from exc
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            err = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-15:]
            raise JobFailed(f"repetition {k} exited with {proc.returncode}:\n" + "\n".join(err))
        job = json.loads(result.read_text(encoding="utf-8"))
        job["wall_s"] = wall
        if traced:
            job["trace"] = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        self.digests.append(reference.outputs_digest(out))
        if k > 0:
            shutil.rmtree(out)
        return job

    def loop(self, budget_s: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced and traced repetitions.

        Rounds run back to back while the next is expected to end within the
        budget, and at least one runs.  A round is one untraced repetition,
        followed by one traced repetition when ``trace`` is set, so both
        kinds meet the same machine conditions.
        """
        plain: list[dict] = []
        traced: list[dict] = []
        rounds: list[float] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.fmean(rounds) <= budget_s:
            plain.append(self.job(traced=False))
            rounds.append(plain[-1]["wall_s"])
            if trace:
                traced.append(self.job(traced=True))
                rounds[-1] += traced[-1]["wall_s"]
        return plain, traced


def _med(values) -> float:
    return float(statistics.median(values))


def items(job: dict) -> tuple[int, float]:
    """Work items and seconds inside the core call: questions scored, or term records generated."""
    if "passes" in job:
        return (sum(p["scored"] for p in job["passes"].values()),
                sum(p["eval_s"] for p in job["passes"].values()))
    return job["term_records"], job["generate_s"]


def untraced_metrics(reps: list[dict], workload: str, failed_frac: float) -> dict[str, float]:
    """End-to-end metrics plus per-workload throughputs, medians over repetitions."""
    throughput = _med(n / s for n, s in map(items, reps))
    m = {
        "wall_s": _med(r["wall_s"] for r in reps),
        "setup_s": _med(r["setup_s"] for r in reps),
        "peak_rss_mb": _med(r["peak_rss_mb"] for r in reps),
        "failed_frac": failed_frac,
        "queries_per_s": throughput if workload in EVAL else 0.0,
        "analogies_per_s": 0.0 if workload in EVAL else throughput,
    }
    for method in layers.PER_METHOD:
        passes = [r["passes"][method] for r in reps if method in r.get("passes", {})]
        m[f"queries_per_s.{method}"] = _med(p["scored"] / p["eval_s"] for p in passes) if passes else 0.0
    return m


def traced_metrics(reps: list[dict], embedding_mb: float) -> tuple[dict[str, float], list[str]]:
    per_rep = [layers.layer_metrics(SpanSet(r["trace"]["spans"]), r, r["wall_s"], embedding_mb) for r in reps]
    absent = sorted({name for r in reps for name in r["trace"]["absent"]})
    return {k: _med(m[k] for m in per_rep) for k in per_rep[0]}, absent


def _row(name: str, value: float, unit: str) -> str:
    return f"  {name:34s} {value:14.6g} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: the running job is killed and waited for, and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "analogykit" / "__init__.py").is_file():
        print(f"error: no analogykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        built = time.perf_counter()
        fx = fixtures.build(args.workload, args.seed, work / "fixtures")
        built = time.perf_counter() - built
        files = fx.describe()  # reads every file, so repetitions find them in the page cache
        print(f"benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("environment:", json.dumps(environment(args.seed)))
        print(f"fixtures: built in {built:.2f} s, untimed; read warm from the page cache, disk is not measured")
        for name, info in files.items():
            print(f"  {name}: shape={info['shape']} bytes={info['bytes']} sha256={info['sha256']}")

        runner = Runner(args.workload, args.seed, work)
        plain, traced = runner.loop(args.seconds, trace=bool(args.trace))

        rng = np.random.default_rng([args.seed, 99])
        first = work / "rep0"
        if args.workload == "generate":
            attempted, failed, notes = reference.check_generate(fx, first, runner.digests)
        else:
            _, _, setting, passes = EVAL[args.workload]
            attempted, failed, notes = reference.check_eval(fx, setting, passes, plain[0], first, runner.digests, rng)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    measured = untraced_metrics(plain, args.workload, failed / attempted)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"loop: closed, one caller; {len(plain)} untraced and {len(traced)} traced repetitions, "
          f"one process each, {THREADS} BLAS threads, the program's default of 1 worker")
    print(f"end-to-end (median of {len(plain)} untraced repetitions):")
    for name in ("wall_s", "setup_s", *ONLY_ON, "peak_rss_mb", "failed_frac"):
        if args.workload in ONLY_ON.get(name, WORKLOADS):
            print(_row(name, measured[name], units[name]))
        else:
            print(f"  {name:34s} {'n/a':>14s} (not measured on {args.workload})")
    print(f"check: {failed} of {attempted} operations failed")
    for note in notes:
        print(f"  {note}")

    if args.trace:
        embedding_mb = files[EVAL[args.workload][0]]["bytes"] / 1e6 if args.workload in EVAL else 0.0
        layer, absent = traced_metrics(traced, embedding_mb)
        layer.update({k: measured[k] for k in ("failed_frac", "analogies_per_s", "queries_per_s",
                                               *(f"queries_per_s.{m}" for m in layers.PER_METHOD))})
        plain_wall, traced_wall = measured["wall_s"], _med(r["wall_s"] for r in traced)
        layer["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        print(f"per-layer (median of {len(traced)} traced repetitions; tails are the highest percentile "
              "with at least 10 samples beyond it):")
        for m in spec["per_layer"]:
            print(_row(m["name"], layer[m["name"]], m["unit"]))
        print("absent wrapped names:", ", ".join(absent) if absent else "none")
        names = [m["name"] for m in spec["per_layer"]]
        values = layer
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = measured
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
