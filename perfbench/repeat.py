"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --seeds 1-10 --trace-seeds 2024 --out perfbench/out/spread.json

For each workload in ``BENCHMARK.json``, runs ``run.py --trace 0`` once
per ``--seeds`` value and ``run.py --trace 1`` once per ``--trace-seeds``
value, one after the other, each for the file's ``run_seconds``.  Per
metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
the figure the bounds in ``BENCHMARK.json`` are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        summary[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds,
              "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds:
                continue
            results = []
            for seed in seeds:
                results.append(run(workload, seed, seconds, trace))
                print(f"{workload} seed {seed} trace {trace}: correct={results[-1]['correct']} "
                      f"attempted={results[-1]['attempted']} failed={results[-1]['failed']}", flush=True)
            entry[f"trace{trace}"] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": summarise(results),
            }
        report["workloads"][workload] = entry
        for name, s in entry.get("trace0", {}).get("metrics", {}).items():
            bound = bounds.get(name)
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']} spread {s['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else ""), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
