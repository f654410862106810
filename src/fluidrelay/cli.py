"""Command-line interface: op-surface / validate / optimize / sweep.

Every command reads a JSON scenario file, computes, and emits one CSV
table (stdout or ``--out``).  Outputs are byte-deterministic for a fixed
scenario and flags.  ``--threads`` sets the number of ``op-surface``
workers, which changes how that map is scheduled but not its bytes; the
other commands run serially and ignore it.  ``--target-error`` and
``--max-samples`` exist only on ``op-surface`` and ``validate``, the
commands that evaluate the copula CDF, and are checked before any work.

Exit codes: 0 ok, 2 input error (including an allocation that cannot be
made), 3 numerical error, 4 validation failure, 5 infeasible.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .allocator import solve_system
from .channel import build_correlation
from .domain import check
from .errors import InfeasibleError, NumericalError
from .mvncdf import DEFAULT_MAX_SAMPLES, DEFAULT_TARGET_ABS_ERROR
from .harness import (
    TrialDraws,
    binomial_std_err,
    draw_gamma_ur,
    empirical_best_gain_cdf,
    empirical_outage,
    run_sweep,
)
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


def _flag(value) -> str:
    """A CSV boolean cell: ``true`` or ``false``."""
    return "true" if value else "false"


def _count(text: str) -> int:
    """argparse type for counts: any value but an integer >= 1 exits 2, naming its flag."""
    if not text.strip().removeprefix("+").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _emit(header, lines, out_path: str | None) -> None:
    """Write ``header`` and the formatted rows ``lines`` as one CSV table.

    Each command formats its rows with one f-string per row shape, cell by
    cell: floats as ``{:.9g}``, integers and labels as they are, booleans
    through :func:`_flag`, absent values as empty cells.
    """
    data = "\n".join([",".join(header), *lines]) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def cmd_op_surface(args) -> int:
    # The flags are checked against the domain before any work.
    if args.xi is not None:
        check("xi_bits", args.xi, "--xi")
    for flag, power_range in (("--pu-range", args.pu_range), ("--pr-range", args.pr_range)):
        if power_range and check("min_power_w", power_range[0], flag) > check("min_power_w", power_range[1], flag):
            raise ValueError(f"{flag}: LO must not exceed HI, got {power_range[0]} > {power_range[1]}")
    spec = load_scenario(args.scenario)
    config = CopulaConfig(args.target_error, args.max_samples, spec.seed)  # checked before any work
    scenario_xi = args.xi if args.xi is not None else spec.xi
    c_th = snr_threshold(scenario_xi)
    corr = build_correlation(spec.grid)
    budget = spec.users[0].budget
    pu_lo, pu_hi = args.pu_range or (0.0, 3.0 * c_th / budget.gamma_bar_ub)
    pr_lo, pr_hi = args.pr_range or (0.0, 3.0 * c_th / budget.gamma_bar_rb)
    points = op_surface(
        np.linspace(pu_lo, pu_hi, args.steps),
        np.linspace(pr_lo, pr_hi, args.steps),
        scenario_xi,
        budget,
        corr,
        config,
        n_threads=args.threads,
    )
    lines = [
        f"{p.p_user:.9g},{p.p_relay:.9g},{p.xi:.9g},{p.result.op_af:.9g},{p.result.op_df:.9g},"
        f"{p.result.selection.value}"
        for p in points
    ]
    _emit(("p_user_w", "p_relay_w", "xi", "op_af", "op_df", "selection"), lines, args.out)
    return EXIT_OK


def _pass_rule(analytic: float, empirical: float, std_err: float) -> tuple[float, bool]:
    """``(tolerance, within_budget)``: the larger of the fixed budget and 3 standard errors."""
    tolerance = max(_VALIDATION_BUDGET, 3.0 * std_err)
    return tolerance, abs(analytic - empirical) <= tolerance


def cmd_validate(args) -> int:
    spec = load_scenario(args.scenario)
    config = CopulaConfig(args.target_error, args.max_samples, spec.seed)  # checked before any work
    corr = build_correlation(spec.grid)
    budget = spec.users[0].budget
    xs = np.geomspace(0.1, 5.0, args.points)
    empirical = empirical_best_gain_cdf(corr, xs, args.trials, spec.seed)

    lines = []
    all_ok = True
    for i, point in enumerate(empirical):
        analytic = best_gain_cdf(point.x, corr, replace(config, seed=derive_seed(spec.seed, 100, i)))
        tolerance, ok = _pass_rule(analytic, point.cdf, point.std_err)
        all_ok &= ok
        lines.append(
            f"cdf,{point.x:.9g},,,,{analytic:.9g},{point.cdf:.9g},{point.std_err:.9g},{tolerance:.9g},{_flag(ok)}"
        )

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
        result = outage_probabilities(
            query, budget, corr, replace(config, seed=derive_seed(spec.seed, 200, j))
        )
        sampled = empirical_outage(query, budget, corr, args.trials, derive_seed(spec.seed, 300, j))
        for scheme, analytic, emp in (
            (Selection.AF, result.op_af, sampled.op_af),
            (Selection.DF, result.op_df, sampled.op_df),
        ):
            std_err = binomial_std_err(emp, args.trials)
            tolerance, ok = _pass_rule(analytic, emp, std_err)
            all_ok &= ok
            lines.append(
                f"op,,{p_user:.9g},{p_relay:.9g},{scheme.value},{analytic:.9g},{emp:.9g},{std_err:.9g},"
                f"{tolerance:.9g},{_flag(ok)}"
            )

    header = ("kind", "x", "p_user_w", "p_relay_w", "scheme", "analytic", "empirical", "std_err", "tolerance",
              "within_budget")
    _emit(header, lines, args.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_optimize(args) -> int:
    spec = load_scenario(args.scenario)
    scenario = build_scenario(spec)
    gammas = draw_gamma_ur(scenario.users, scenario.grid, TrialDraws(scenario.seed, 1, len(scenario.users)))
    result = solve_system(scenario.users, scenario.total_bw, scenario.xi, gammas)
    if result.errors[0] is not None:
        raise result.errors[0]
    lines = [
        f"user,{k},{result.p_user[0, k]:.9g},{result.p_relay[0, k]:.9g},{result.scheme[0, k].value},"
        f"{result.bandwidth[0, k]:.9g},{result.snr[0, k]:.9g},{result.rate[0, k]:.9g},,,"
        for k in range(len(scenario.users))
    ]
    lines.append(f"summary,,,,,,,,{np.argmax(result.snr[0])},{result.sum_rate[0]:.9g},true")
    header = ("row", "user", "p_user_w", "p_relay_w", "scheme", "bandwidth_hz", "snr", "rate_bps",
              "best_user_index", "sum_rate_bps", "feasible")
    _emit(header, lines, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_scenario(args.scenario)
    if spec.sweep is None:
        raise ValueError("missing key: sweep (the sweep command needs a sweep section)")
    if spec.sweep.variable == "relay_power_max":
        # Each value rebuilds every box from its user cap, so the file's own box is taken as given, unchecked.
        spec = replace(spec, users=tuple(replace(u, p_user_min=0.0, p_relay_min=0.0) for u in spec.users))
    scenario = build_scenario(spec)
    result = run_sweep(scenario, spec.sweep)
    lines = [
        f"{row.sweep_value:.9g},{row.scheme},{row.trial},{row.sum_rate:.9g},{_flag(row.feasible)}"
        for row in result.rows
    ]
    _emit(("sweep_value", "scheme", "trial", "sum_rate_bps", "feasible"), lines, args.out)
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
            type=_count,
            default=os.cpu_count(),
            help="op-surface worker threads, one p_user row per task; other commands "
            "ignore it (never affects output bytes)",
        )

    def engine(p):
        p.add_argument(
            "--target-error",
            type=float,
            default=DEFAULT_TARGET_ABS_ERROR,
            help="absolute error target for the copula CDF engine",
        )
        p.add_argument(
            "--max-samples",
            type=int,
            default=DEFAULT_MAX_SAMPLES,
            help="sample budget per copula CDF evaluation (at least 12)",
        )

    p_surface = sub.add_parser("op-surface", help="outage probabilities over a power grid")
    common(p_surface)
    engine(p_surface)
    p_surface.add_argument("--pu-range", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    p_surface.add_argument("--pr-range", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    p_surface.add_argument("--steps", type=_count, default=20, help="grid points per power axis")
    p_surface.add_argument("--xi", type=float, default=None, help="override the scenario threshold")
    p_surface.set_defaults(func=cmd_op_surface)

    p_validate = sub.add_parser("validate", help="copula CDF and OP vs Monte Carlo")
    common(p_validate)
    engine(p_validate)
    p_validate.add_argument("--trials", type=int, default=100_000)
    p_validate.add_argument("--points", type=_count, default=9, help="CDF evaluation points in [0.1, 5]")
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
    except (ValueError, OSError, MemoryError, OverflowError) as err:  # say, 1e15 or 1e30 trials
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
