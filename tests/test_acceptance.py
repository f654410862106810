"""Acceptance criteria, one test per criterion.

Each test prints a single ``[A##] PASS`` line (visible with ``pytest -s``)
after its assertions; a failure raises before the line prints.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fluidrelay import (
    CorrelationMatrix,
    InfeasibleError,
    LinkBudget,
    MvnProblem,
    OutageQuery,
    PortGrid,
    Selection,
    allocate_bandwidth,
    build_correlation,
    mvn_cdf,
    optimize_powers,
    scheme_region,
    select_scheme,
    snr_af,
    snr_df,
    solve_df_subproblem,
)
from fluidrelay.harness import (
    AVG_BANDWIDTH,
    PROPOSED,
    RANDOM_POWER,
    TAS,
    SweepSpec,
    empirical_best_gain_cdf,
    random_scenario,
    run_benchmark,
    run_sweep,
)
from fluidrelay.outage import CopulaConfig, best_gain_cdf, op_surface

from oracles import (
    df_subproblem_grid,
    lp_bandwidth,
    random_df_instance,
    random_power_instance,
    selection_aware_grid,
)


def report(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS: {detail}")


def test_a01_mvn_bivariate_orthant(pair_corr):
    worst_diff = 0.0
    worst_time = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        start = time.monotonic()
        est = mvn_cdf(MvnProblem(corr=pair_corr(rho), upper_limits=np.zeros(2), seed=17))
        elapsed = time.monotonic() - start
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert abs(est.value - exact) <= 1e-3, f"rho={rho}: {est.value} vs {exact}"
        assert elapsed < 1.0, f"rho={rho} took {elapsed:.2f}s"
        worst_diff = max(worst_diff, abs(est.value - exact))
        worst_time = max(worst_time, elapsed)
    report("A01", f"orthant max |diff| {worst_diff:.2e} (tol 1e-3), max {worst_time*1e3:.0f} ms/point")


def test_a02_copula_degeneration():
    single = build_correlation(PortGrid(1, 1, 0.0, 0.0))
    xs = np.linspace(0.05, 6.0, 20)
    worst_single = 0.0
    for x in xs:
        diff = abs(best_gain_cdf(float(x), single) - (-np.expm1(-x)))
        assert diff <= 1e-9, f"1x1 grid at x={x}: diff {diff}"
        worst_single = max(worst_single, diff)
    worst_identity = 0.0
    for dim in (2, 4):
        corr = CorrelationMatrix.identity(dim)
        for x in (0.25, 0.7, 1.5, 3.0):
            expected = (-np.expm1(-x)) ** dim
            diff = abs(best_gain_cdf(x, corr) - expected)
            assert diff <= 1e-3, f"identity N={dim} at x={x}: diff {diff}"
            worst_identity = max(worst_identity, diff)
    report(
        "A02",
        f"1x1 max |diff| {worst_single:.1e} (tol 1e-9); identity max |diff| {worst_identity:.1e} (tol 1e-3)",
    )


def test_a03_copula_vs_monte_carlo(default_grid_corr):
    start = time.monotonic()
    xs = (0.25, 0.5, 1.0, 2.0, 4.0)
    empirical = empirical_best_gain_cdf(default_grid_corr, xs, 1_000_000, seed=11)
    worst = 0.0
    for point in empirical:
        copula = best_gain_cdf(point.x, default_grid_corr, CopulaConfig(seed=3))
        diff = abs(copula - point.cdf)
        assert diff <= 0.05, f"x={point.x}: copula {copula:.4f} vs MC {point.cdf:.4f}"
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report("A03", f"4x4 grid max |copula-MC| {worst:.4f} (tol 0.05) in {elapsed:.1f}s")


def test_a04_op_piecewise_exact(default_grid_corr):
    budget = LinkBudget(alpha_ur=1.0, alpha_ub=1.0, alpha_rb=1.0, sigma2_relay=1.0, sigma2_bs=1.0)
    xi = 0.5  # C_th = 1: feasibility boundary pu+pr=1, AF-zero boundary pu=1
    config = CopulaConfig(target_abs_error=1e-2, max_samples=100_000, seed=7)
    powers = np.linspace(0.0, 2.5, 50)
    points = op_surface(powers, powers, xi, budget, default_grid_corr, config, n_threads=8)
    infeasible = zero_af = 0
    for point in points:
        mean_sum = point.p_user + point.p_relay  # unit mean SNRs per watt
        if mean_sum <= 1.0:
            assert point.result.op_af == 1.0 and point.result.op_df == 1.0
            assert point.result.selection is Selection.INFEASIBLE
            infeasible += 1
        elif point.p_user >= 1.0:  # xi_af <= 0: direct link alone suffices
            assert point.result.op_af == 0.0
            zero_af += 1
    assert infeasible > 100 and zero_af > 100, "grid must straddle both boundaries"
    report("A04", f"50x50 grid: {infeasible} infeasible points exactly 1, {zero_af} points op_af exactly 0")


def test_a05_selection_map_monotone_along_rays():
    rng = np.random.default_rng(2)
    for _ in range(100):
        gub, grb = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        c_th = 10.0 ** rng.uniform(-0.5, 0.7)
        xi = 0.5 * math.log2(1.0 + c_th)
        budget = LinkBudget(alpha_ur=1.0, alpha_ub=gub, alpha_rb=grb, sigma2_relay=1.0, sigma2_bs=1.0)
        du, dr = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        t_boundary = c_th / (du * gub + dr * grb)
        pattern = []
        for t in np.linspace(0.3, 10.0, 80) * t_boundary:
            sel = select_scheme(OutageQuery(t * du, t * dr, xi), budget)
            pattern.append({"INFEASIBLE": "I", "DF": "D", "AF": "A"}[sel.value])
        joined = "".join(pattern)
        collapsed = "".join(c for i, c in enumerate(joined) if i == 0 or joined[i - 1] != c)
        assert collapsed in {"I", "ID", "IA", "IDA", "D", "DA", "A"}, f"ray pattern {joined}"
    report("A05", "100 rays: selection always INFEASIBLE* -> DF* -> AF*, never interleaved")


def test_a06_bandwidth_closed_form_vs_lp():
    rng = np.random.default_rng(5)
    worst = 0.0
    infeasible_count = 0
    for i in range(100):
        k = int(rng.integers(1, 8))
        snrs = 10.0 ** rng.uniform(-1, 5, size=k)
        rate_mins = rng.uniform(0.0, 1e6, size=k)
        total = 10.0 ** rng.uniform(5.5, 7.0)
        if i % 7 == 0:
            rate_mins = rate_mins + 10.0 * total  # force infeasibility
        feasible, _, objective = lp_bandwidth(snrs, rate_mins, total)
        try:
            bandwidth = allocate_bandwidth(snrs, rate_mins, total)
        except InfeasibleError:
            assert not feasible, "closed form infeasible but LP solvable"
            infeasible_count += 1
            continue
        assert feasible, "closed form solvable but LP infeasible"
        sum_rate = float(np.sum(0.5 * bandwidth * np.log2(1.0 + snrs)))
        rel = abs(sum_rate - objective) / objective
        worst = max(worst, rel)
        assert rel <= 1e-6, f"instance {i}: relative gap {rel:.2e}"
    assert infeasible_count >= 10
    report("A06", f"100 instances: max relative gap vs LP {worst:.2e} (tol 1e-6), "
                  f"{infeasible_count} infeasible flagged identically")


def test_a07_power_control_vs_grid():
    rng = np.random.default_rng(6)
    worst_ratio = 1.0
    corner_cases = 0
    for i in range(100):
        cfg, s, c_th = random_power_instance(rng)
        pu, pr, scheme = optimize_powers(cfg, s, c_th)
        achieved = snr_af(pu, pr, s) if scheme is Selection.AF else snr_df(pu, pr, s)
        oracle = selection_aware_grid(cfg, s, c_th, steps=400)
        assert achieved >= (1.0 - 1e-3) * oracle, f"instance {i}: {achieved} vs grid {oracle}"
        worst_ratio = min(worst_ratio, achieved / oracle)
        if scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb) is Selection.DF:
            assert (pu, pr) == (cfg.p_user_max, cfg.p_relay_max)
            corner_cases += 1
    assert corner_cases >= 5
    report("A07", f"100 instances: min objective ratio vs 400x400 grid {worst_ratio:.6f} "
                  f"(floor 0.999); {corner_cases} max-corner cases exact")


def test_a08_df_subproblem_vs_grid():
    rng = np.random.default_rng(8)
    worst = 0.0
    slowest = 0.0
    for i in range(50):
        cfg, s, c_th = random_df_instance(rng)
        start = time.monotonic()
        _, _, value = solve_df_subproblem(cfg, s, c_th)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 0.05, f"instance {i} took {elapsed*1e3:.1f} ms"
        oracle = df_subproblem_grid(cfg, s, c_th, steps=2000)
        rel = abs(value - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"instance {i}: relative gap {rel:.2e}"
    report("A08", f"50 instances: max relative gap vs 2000x2000 grid {worst:.2e} (tol 1e-4), "
                  f"slowest solve {slowest*1e3:.1f} ms (cap 50 ms)")


def test_a09_end_to_end_trends():
    start = time.monotonic()
    scenario = random_scenario(num_users=4, seed=2027, trials=100)
    assert scenario.grid == PortGrid(4, 4, 1.0, 1.0)
    assert scenario.total_bw == 5e6 and scenario.xi == 0.1  # B*xi = 0.5 Mbps

    means = {}
    for scheme in (PROPOSED, TAS, AVG_BANDWIDTH, RANDOM_POWER):
        records = run_benchmark(scenario, scheme, seed=scenario.seed)
        rates = [r.sum_rate for r in records if r.feasible]
        assert len(rates) == scenario.trials
        means[scheme] = float(np.mean(rates))
    for scheme in (TAS, AVG_BANDWIDTH, RANDOM_POWER):
        assert means[PROPOSED] > means[scheme], f"proposed must beat {scheme}"

    ports = run_sweep(scenario, SweepSpec(variable="num_ports", values=(1, 2, 3, 4),
                                          schemes=(PROPOSED, TAS)))
    first_proposed = [r.sum_rate for r in ports.rows if r.sweep_value == 1.0 and r.scheme == PROPOSED]
    first_tas = [r.sum_rate for r in ports.rows if r.sweep_value == 1.0 and r.scheme == TAS]
    assert first_proposed == first_tas, "side-1 grid must reproduce TAS exactly"
    proposed_summary = [s for s in ports.summary if s.scheme == PROPOSED]
    for lo, hi in zip(proposed_summary, proposed_summary[1:]):
        slack = 2.0 * math.hypot(lo.std_error, hi.std_error)
        assert hi.mean_sum_rate >= lo.mean_sum_rate - slack

    relay = run_sweep(scenario, SweepSpec(variable="relay_power_max", values=(0.05, 0.1, 0.2),
                                          schemes=(PROPOSED,)))
    for lo, hi in zip(relay.summary, relay.summary[1:]):
        slack = 2.0 * math.hypot(lo.std_error, hi.std_error)
        assert hi.mean_sum_rate >= lo.mean_sum_rate - slack

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    gains = {s: means[PROPOSED] / means[s] - 1.0 for s in (TAS, AVG_BANDWIDTH, RANDOM_POWER)}
    report("A09", "100-seed means: proposed beats tas/avg/random by "
                  f"{gains[TAS]:.2%}/{gains[AVG_BANDWIDTH]:.2%}/{gains[RANDOM_POWER]:.2%}; "
                  f"sweeps monotone; {elapsed:.0f}s total (cap 600s)")


def test_a10_cli_byte_determinism(tmp_path):
    doc = {
        "grid": {"n1": 3, "n2": 3, "w1": 1.0, "w2": 1.0},
        "system": {"total_bw_hz": 5e6, "xi_bits": 0.1, "seed": 99, "trials": 6},
        "users": [
            {
                "alpha_ur": 1.2e-9, "alpha_ub": 1.1e-11, "alpha_rb": 0.9e-9,
                "sigma2_relay_dbm": -120, "sigma2_bs_dbm": -120,
                "p_user_max_w": 0.1, "p_relay_max_w": 0.1, "rate_min_bps": 4e5,
            },
            {
                "alpha_ur": 2.2e-9, "alpha_ub": 2.1e-11, "alpha_rb": 1.9e-9,
                "sigma2_relay_dbm": -120, "sigma2_bs_dbm": -120,
                "p_user_max_w": 0.1, "p_relay_max_w": 0.1, "rate_min_bps": 4e5,
            },
        ],
        "sweep": {"variable": "num_ports", "values": [1, 2, 4],
                  "schemes": ["proposed", "tas", "random_power"]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "fluidrelay", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    checked = []
    for command in (
        ("sweep", str(path)),
        ("op-surface", str(path), "--steps", "4", "--target-error", "5e-3"),
        ("optimize", str(path)),
        ("validate", str(path), "--trials", "20000", "--points", "4", "--target-error", "1e-3"),
    ):
        single = run(*command, "--threads", "1")
        eight = run(*command, "--threads", "8")
        again = run(*command, "--threads", "8")
        assert single == eight == again, f"{command[0]} output varies"
        checked.append(command[0])
    report("A10", f"byte-identical CSV at 1 and 8 threads for: {', '.join(checked)}")
