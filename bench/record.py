"""Run the benchmark over several seeds and record one trajectory point.

    python3 bench/record.py --seeds 1-10 --out bench/results/NAME.json

For every workload, with ``run_seconds`` from ``BENCHMARK.json``: one
untraced run per seed, then one traced run on the first seed.  For each end-to-end metric the point keeps every run's value,
the median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median.  Per-layer metrics come from the traced run.
A run that exits with an error stops the recording.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result line and its environment record."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:"))
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds, seconds = _seeds(args.seeds), spec["run_seconds"]
    point: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            result, env = _run(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, correct={result['correct']}",
                  flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / median, "bound": m["bound"], "values": values}
            print(f"  {m['name']:14s} median {median:12.6g} {m['unit']:4s} spread {(q3 - q1) / median:.4f} "
                  f"(bound {m['bound']})", flush=True)
        traced, _ = _run(workload, seeds[0], seconds, 1)
        env.pop("seed")
        point["environment"] = env
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": runs[0]["attempted"],
            "failed": max(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
