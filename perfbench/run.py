"""fluidrelay benchmark: three CLI workloads, checked, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload outage_map --seed 2024 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 2024 --seconds 35 --trace 0

Each repetition runs ``rep.py`` in a fresh interpreter, which calls
``fluidrelay.cli.main`` on a copy of ``base_scenario.json`` whose
``system.seed`` is ``--seed`` and writes the CSV under ``perfbench/out/``;
this process then checks the CSV (``checks.py``).  Repetitions run until
``--seconds`` would be exceeded (at least one).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
time of ``main()`` until the CSV is written), ``setup_s`` (median, over
fresh interpreters, of ``import fluidrelay.cli`` + ``load_scenario`` +
``build_correlation``) and ``peak_rss_mb`` (median peak resident memory
of a repetition's interpreter).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of ``spans.py``
(medians over the traced repetitions) plus ``trace.overhead_frac``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A repetition fails when the CLI exits
non-zero, its CSV fails a check, its bytes differ from the first
repetition's, or (``rate_sweep``) a replayed DF-subproblem case fails.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads anywhere in this process or its children.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NPROC = len(os.sched_getaffinity(0))
# Every workload runs at --threads 1, passed explicitly.  On a 2-vCPU host
# shared with other guests, --threads 2 (the CLI default there) was up to
# 1.75x slower per run, and its run-to-run spread was several times wider,
# as the pool threads pass the interpreter lock back and forth.  The pools
# gave no speedup on any command when the benchmark was added.
CLI_THREADS = 1

# Accuracy flags stay explicit so that a change of CLI default is not
# scored as a speed-up.  ``busy`` names functions each workload must call
# (zero calls means a rename broke the trace); ``idle`` names functions
# predicted to stay uncalled.
WORKLOADS = {
    "outage_map": {
        "argv": ["op-surface", "--steps", "20", "--target-error", "1e-4", "--max-samples", "2000000"],
        "busy": ("load_scenario", "build_correlation", "op_surface", "outage_probabilities",
                 "best_gain_cdf", "mvn_cdf"),
        "idle": ("solve_system", "optimize_powers", "solve_df_subproblem", "sample_gains"),
    },
    "copula_validate": {
        # A target no evaluation reaches makes every non-negligible CDF call
        # spend the whole 5e5-sample budget, so the engine's work (3.9-4.0 M
        # samples) hardly depends on the seed; at 1e-4 / 2e6 it ranged over
        # 6.6-8.0 M samples with the seed.
        "argv": ["validate", "--trials", "100000", "--points", "9", "--target-error", "1e-6",
                 "--max-samples", "500000"],
        "busy": ("load_scenario", "build_correlation", "empirical_best_gain_cdf", "empirical_outage",
                 "sample_gains", "best_gain_cdf", "outage_probabilities", "mvn_cdf"),
        "idle": ("solve_system", "optimize_powers", "solve_df_subproblem"),
    },
    "rate_sweep": {
        "argv": ["sweep"],
        # 25 of the scenario's 100 trials: a repetition takes about 3.5 s,
        # so a run's median rests on about ten of them.
        "system": {"trials": 25},
        "busy": ("load_scenario", "build_scenario", "build_correlation", "run_sweep", "run_benchmark",
                 "draw_gamma_ur", "sample_gains", "solve_system", "optimize_powers",
                 "solve_df_subproblem"),
        "idle": ("mvn_cdf", "best_gain_cdf", "best_gain_cdf_estimate", "outage_probabilities"),
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import fluidrelay.cli as cli
spec = cli.load_scenario(sys.argv[1])
cli.build_correlation(spec.grid)
print(time.perf_counter() - t0)
"""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def os_thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads: line in /proc/self/status")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": BLAS_ENV,
        "cli_threads": CLI_THREADS,
        "os_threads_before_load": os_thread_count(),
    }
    if env["os_threads_before_load"] != 1:
        raise RuntimeError(f"{env['os_threads_before_load']} threads alive before the load; BLAS not pinned?")
    return env


def write_scenario(workload: str, seed: int) -> Path:
    doc = json.loads((BENCH / "base_scenario.json").read_text())
    doc["system"].update(WORKLOADS[workload].get("system", {}), seed=seed)
    path = OUT / f"scenario-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def measure_setup(scenario: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(scenario)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cli_argv(workload: str, scenario: Path, csv_path: Path) -> list[str]:
    return WORKLOADS[workload]["argv"] + [str(scenario), "--threads", str(CLI_THREADS), "--out", str(csv_path)]


def run_once(workload: str, argv: list[str], csv_path: Path, spans_out: Path | None) -> dict:
    """One CLI call in a fresh interpreter; returns ``rep.py``'s record and the CSV text."""
    if csv_path.exists():
        csv_path.unlink()
    spec = {"workload": workload, "argv": argv, "spans_out": str(spans_out) if spans_out else None}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # rep.py catches what main() raises, so an exit without a record is a broken harness.
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"rep.py exited with code {proc.returncode}")
    rep = json.loads(lines[-1])
    rep["text"] = csv_path.read_text() if csv_path.exists() else ""
    return rep


def check_predictions(workload: str, counts: dict[str, int]) -> None:
    spec = WORKLOADS[workload]
    missing = [name for name in spec["busy"] if not counts.get(name)]
    if missing:
        raise RuntimeError(f"{workload}: layer functions predicted busy recorded no calls: {missing}")
    for name in spec["idle"]:
        if counts.get(name):
            log(f"warning: {workload}: {name} predicted idle but called {counts[name]} times")


def run_workload(args) -> dict:
    if not (SRC / "fluidrelay" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'fluidrelay'} not found; run from a fluidrelay checkout")
    OUT.mkdir(exist_ok=True)
    env = environment()
    scenario = write_scenario(args.workload, args.seed)
    csv_path = OUT / f"{args.workload}-seed{args.seed}.csv"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    argv = cli_argv(args.workload, scenario, csv_path)

    setup_times = measure_setup(scenario) if args.trace == 0 else []

    reps = []
    traced_metrics = []
    first_text = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        started = time.perf_counter()
        rep = run_once(args.workload, argv, csv_path, spans_path if traced else None)
        text = rep.pop("text")
        errors, accuracy = checks.check_output(args.workload, rep["exit_code"], text, args.seed)
        if first_text is None:
            first_text = text
        elif text != first_text:
            errors.append("output bytes differ from the first repetition")
        if rep["error"]:
            errors.append(rep["error"])
        errors.extend(rep.pop("df_errors"))
        if traced:
            check_predictions(args.workload, rep.pop("calls"))
            traced_metrics.append(rep.pop("layers"))
        rep.update(traced=traced, errors=errors, accuracy=accuracy, seconds=time.perf_counter() - started)
        reps.append(rep)
        log(f"{args.workload} rep {len(reps)}{' traced' if traced else ''}: "
            f"wall_s={rep['wall_s']:.3f} {'ok' if not errors else 'FAILED ' + '; '.join(errors)}")
        done = len(reps) >= (2 if args.trace == 1 else 1)
        typical = statistics.median(r["seconds"] for r in reps)
        if done and time.perf_counter() + typical > deadline:
            break

    failed = sum(1 for rep in reps if rep["errors"])
    untraced_wall = [rep["wall_s"] for rep in reps if not rep["traced"]]
    accuracy = {}
    for rep in reps:
        for name, value in rep["accuracy"].items():
            accuracy[name] = max(value, accuracy.get(name, value))
    accuracy["failed_frac"] = failed / len(reps)

    if args.trace == 0:
        values = {
            "wall_s": statistics.median(untraced_wall),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        }
        units = dict(END_TO_END)
    else:
        traced_wall = [rep["wall_s"] for rep in reps if rep["traced"]]
        values = {name: statistics.median(m[name] for m in traced_metrics) for name in traced_metrics[0]}
        values["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0
        units = dict(spans.PER_LAYER_METRICS)
        if set(values) != set(units):
            raise RuntimeError(f"per-layer metric set mismatch: {sorted(set(values) ^ set(units))}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"{args.workload} environment {json.dumps(env)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name, value in accuracy.items():
        print(f"{args.workload} {name} {value:.6g}")

    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, setup_times=setup_times, accuracy=accuracy, repetitions=reps)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return result


def run_all(args) -> dict:
    """Every workload, each in its own process so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
