"""Command-line interface: op-surface / validate / optimize / sweep.

Every command reads a JSON scenario file, computes, and emits one CSV
table (stdout or ``--out``).  Outputs are byte-deterministic for a fixed
scenario and flags; ``--threads`` only changes how work is scheduled.

Exit codes: 0 ok, 2 input error, 3 numerical error, 4 validation
failure, 5 infeasible.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .allocator import solve_system
from .channel import build_correlation
from .errors import InfeasibleError, NumericalError
from .harness import draw_gamma_ur, empirical_best_gain_cdf, empirical_outage, run_sweep
from .outage import (
    CopulaConfig,
    OutageQuery,
    Selection,
    best_gain_cdf,
    op_surface,
    outage_probabilities,
    snr_threshold,
)
from .scenario import build_scenario, load_scenario
from .seeding import derive_seed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4
EXIT_INFEASIBLE = 5

_VALIDATION_BUDGET = 0.05
_OP_PROBE_SCALES = (0.4, 0.9)  # fraction of the feasibility boundary
_OP_PROBE_GAINS = (1.0, 2.5)  # target best-gain CDF argument


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Selection):
        return value.value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _emit(header, rows, out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    data = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def cmd_op_surface(args) -> int:
    spec = load_scenario(args.scenario)
    scenario_xi = args.xi if args.xi is not None else spec.xi
    c_th = snr_threshold(scenario_xi)
    corr = build_correlation(spec.grid)
    budget = spec.users[0].budget

    def default_range(mean_snr: float) -> tuple[float, float]:
        hi = 3.0 * c_th / mean_snr
        if not math.isfinite(hi):
            raise ValueError(
                f"default power range 3*C_th/mean-SNR overflows at xi={scenario_xi}; "
                "pass --pu-range and --pr-range"
            )
        return 0.0, hi

    pu_lo, pu_hi = args.pu_range if args.pu_range else default_range(budget.gamma_bar_ub)
    pr_lo, pr_hi = args.pr_range if args.pr_range else default_range(budget.gamma_bar_rb)
    if pu_hi < pu_lo or pr_hi < pr_lo or pu_lo < 0 or pr_lo < 0:
        raise ValueError("power ranges must satisfy 0 <= lo <= hi")
    config = CopulaConfig(
        target_abs_error=args.target_error, max_samples=args.max_samples, seed=spec.seed
    )
    points = op_surface(
        np.linspace(pu_lo, pu_hi, args.steps),
        np.linspace(pr_lo, pr_hi, args.steps),
        scenario_xi,
        budget,
        corr,
        config,
        n_threads=args.threads,
    )
    rows = [
        (p.p_user, p.p_relay, p.xi, p.result.op_af, p.result.op_df, p.result.selection)
        for p in points
    ]
    _emit(("p_user_w", "p_relay_w", "xi", "op_af", "op_df", "selection"), rows, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = load_scenario(args.scenario)
    corr = build_correlation(spec.grid)
    budget = spec.users[0].budget
    xs = np.geomspace(0.1, 5.0, args.points)
    empirical = empirical_best_gain_cdf(corr, xs, args.trials, spec.seed)

    rows = []
    all_ok = True
    for i, point in enumerate(empirical):
        config = CopulaConfig(
            target_abs_error=args.target_error,
            max_samples=args.max_samples,
            seed=derive_seed(spec.seed, 100, i),
        )
        analytic = best_gain_cdf(point.x, corr, config)
        tolerance = max(_VALIDATION_BUDGET, 3.0 * point.std_err)
        ok = abs(analytic - point.cdf) <= tolerance
        all_ok &= ok
        rows.append(("cdf", point.x, None, None, "", analytic, point.cdf, point.std_err, tolerance, ok))

    c_th = snr_threshold(spec.xi)
    # Two probes below the feasibility boundary (deterministic OP = 1)
    # and two inside the body of the best-gain CDF, where the copula
    # actually gets exercised.
    probes = [
        (scale * c_th / (2.0 * budget.gamma_bar_ub), scale * c_th / (2.0 * budget.gamma_bar_rb))
        for scale in _OP_PROBE_SCALES
    ]
    probes += [
        (budget.sigma2_relay * c_th / (budget.alpha_ur * x0), 2.0 * c_th / budget.gamma_bar_rb)
        for x0 in _OP_PROBE_GAINS
    ]
    for j, (p_user, p_relay) in enumerate(probes):
        query = OutageQuery(p_user=p_user, p_relay=p_relay, xi=spec.xi)
        config = CopulaConfig(
            target_abs_error=args.target_error,
            max_samples=args.max_samples,
            seed=derive_seed(spec.seed, 200, j),
        )
        result = outage_probabilities(query, budget, corr, config)
        sampled = empirical_outage(query, budget, corr, args.trials, derive_seed(spec.seed, 300, j))
        for scheme, analytic, emp in (
            (Selection.AF, result.op_af, sampled.op_af),
            (Selection.DF, result.op_df, sampled.op_df),
        ):
            std_err = math.sqrt(emp * (1.0 - emp) / args.trials)
            tolerance = max(_VALIDATION_BUDGET, 3.0 * std_err)
            ok = abs(analytic - emp) <= tolerance
            all_ok &= ok
            rows.append(("op", None, p_user, p_relay, scheme, analytic, emp, std_err, tolerance, ok))

    _emit(
        (
            "kind",
            "x",
            "p_user_w",
            "p_relay_w",
            "scheme",
            "analytic",
            "empirical",
            "std_err",
            "tolerance",
            "within_budget",
        ),
        rows,
        args.out,
    )
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_optimize(args) -> int:
    spec = load_scenario(args.scenario)
    scenario = build_scenario(spec)
    corr = build_correlation(scenario.grid)
    gammas = draw_gamma_ur(scenario.users, corr, scenario.seed, 0)
    result = solve_system(scenario.users, scenario.total_bw, scenario.xi, gammas)
    rows = []
    for k in range(len(scenario.users)):
        rows.append(
            (
                "user",
                k,
                result.p_user[k],
                result.p_relay[k],
                result.scheme[k],
                result.bandwidth[k],
                result.snr[k],
                result.rate[k],
                None,
                None,
                None,
            )
        )
    rows.append(
        (
            "summary",
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            result.best_user_index,
            result.sum_rate,
            result.feasible,
        )
    )
    _emit(
        (
            "row",
            "user",
            "p_user_w",
            "p_relay_w",
            "scheme",
            "bandwidth_hz",
            "snr",
            "rate_bps",
            "best_user_index",
            "sum_rate_bps",
            "feasible",
        ),
        rows,
        args.out,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_scenario(args.scenario)
    if spec.sweep is None:
        raise ValueError("missing key: sweep (the sweep command needs a sweep section)")
    scenario = build_scenario(spec)
    result = run_sweep(scenario, spec.sweep, n_threads=args.threads)
    rows = [
        (row.sweep_value, row.scheme, row.trial, row.sum_rate, row.feasible)
        for row in result.rows
    ]
    _emit(("sweep_value", "scheme", "trial", "sum_rate_bps", "feasible"), rows, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidrelay",
        description="Fluid-antenna relay uplink: outage maps, validation, optimization, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="path to a JSON scenario file")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count(),
            help="worker threads (never affects output bytes)",
        )
        p.add_argument(
            "--target-error",
            type=float,
            default=1e-4,
            help="absolute error target for the copula CDF engine",
        )
        p.add_argument(
            "--max-samples",
            type=int,
            default=2_000_000,
            help="sample budget per copula CDF evaluation",
        )

    p_surface = sub.add_parser("op-surface", help="outage probabilities over a power grid")
    common(p_surface)
    p_surface.add_argument("--pu-range", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    p_surface.add_argument("--pr-range", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    p_surface.add_argument("--steps", type=int, default=20, help="grid points per power axis")
    p_surface.add_argument("--xi", type=float, default=None, help="override the scenario threshold")
    p_surface.set_defaults(func=cmd_op_surface)

    p_validate = sub.add_parser("validate", help="copula CDF and OP vs Monte Carlo")
    common(p_validate)
    p_validate.add_argument("--trials", type=int, default=100_000)
    p_validate.add_argument("--points", type=int, default=9, help="CDF evaluation points in [0.1, 5]")
    p_validate.set_defaults(func=cmd_validate)

    p_optimize = sub.add_parser("optimize", help="solve the sum-rate problem once")
    common(p_optimize)
    p_optimize.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="benchmark sweep from the scenario's sweep section")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
