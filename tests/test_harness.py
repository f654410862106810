import math

import numpy as np
import pytest

from fluidrelay import (
    CorrelationMatrix,
    LinkBudget,
    OutageQuery,
    PortGrid,
    Selection,
    build_correlation,
)
from fluidrelay import harness
from fluidrelay.harness import (
    AVG_BANDWIDTH,
    PROPOSED,
    RANDOM_POWER,
    SCHEMES,
    TAS,
    Scenario,
    SweepSpec,
    empirical_best_gain_cdf,
    empirical_outage,
    random_scenario,
    run_benchmark,
    run_sweep,
)
from fluidrelay.outage import CopulaConfig, best_gain_cdf, outage_probabilities

UNIT_BUDGET = LinkBudget(alpha_ur=1.0, alpha_ub=1.0, alpha_rb=1.0, sigma2_relay=1.0, sigma2_bs=1.0)


class TestEmpiricalCdf:
    def test_single_port_median(self):
        corr = CorrelationMatrix.identity(1)
        points = empirical_best_gain_cdf(corr, [math.log(2.0)], 100_000, seed=3)
        assert points[0].cdf == pytest.approx(0.5, abs=3.0 * points[0].std_err + 1e-9)

    def test_independent_four_ports(self):
        corr = CorrelationMatrix.identity(4)
        points = empirical_best_gain_cdf(corr, [1.0], 200_000, seed=4)
        expected = (1.0 - math.exp(-1.0)) ** 4
        assert points[0].cdf == pytest.approx(expected, abs=3.0 * points[0].std_err + 1e-9)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            empirical_best_gain_cdf(CorrelationMatrix.identity(1), [1.0], 100, seed=1)

    def test_deterministic_per_seed(self, default_grid_corr):
        a = empirical_best_gain_cdf(default_grid_corr, [0.5, 2.0], 20_000, seed=9)
        b = empirical_best_gain_cdf(default_grid_corr, [0.5, 2.0], 20_000, seed=9)
        assert a == b

    def test_copula_agreement_on_default_grid(self, default_grid_corr):
        xs = np.linspace(0.1, 5.0, 8)
        empirical = empirical_best_gain_cdf(default_grid_corr, xs, 100_000, seed=12)
        for point in empirical:
            copula = best_gain_cdf(point.x, default_grid_corr, CopulaConfig(target_abs_error=1e-3, seed=7))
            assert abs(copula - point.cdf) <= 0.05


class TestEmpiricalOutage:
    def test_infeasible_is_exactly_one(self, default_grid_corr):
        q = OutageQuery(0.2, 0.2, 0.5)
        result = empirical_outage(q, UNIT_BUDGET, default_grid_corr, 10_000, seed=1)
        assert (result.op_af, result.op_df) == (1.0, 1.0)
        assert result.selection is Selection.INFEASIBLE

    def test_direct_link_sufficient_af_never_fails(self, default_grid_corr):
        q = OutageQuery(1.5, 0.5, 0.5)  # p_user*gamma_ub = 1.5 > C_th = 1
        assert empirical_outage(q, UNIT_BUDGET, default_grid_corr, 10_000, seed=2).op_af == 0.0

    def test_matches_analytic_interior(self, default_grid_corr):
        q = OutageQuery(0.8, 0.7, 0.5)
        config = CopulaConfig(target_abs_error=1e-3, seed=5)
        analytic = outage_probabilities(q, UNIT_BUDGET, default_grid_corr, config)
        trials = 100_000
        sampled = empirical_outage(q, UNIT_BUDGET, default_grid_corr, trials, seed=6)
        assert sampled.selection is analytic.selection
        for value, emp in ((analytic.op_af, sampled.op_af), (analytic.op_df, sampled.op_df)):
            sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials)
            assert abs(value - emp) <= max(0.05, 3.0 * sigma)

    def test_one_draw_serves_both_schemes(self, default_grid_corr, monkeypatch):
        draws = []
        original = harness._best_gain_samples
        monkeypatch.setattr(
            harness, "_best_gain_samples", lambda *args: draws.append(args) or original(*args)
        )
        q = OutageQuery(0.8, 0.7, 0.5)
        result = empirical_outage(q, UNIT_BUDGET, default_grid_corr, 10_000, seed=6)
        assert draws == [(default_grid_corr, 10_000, 6)]
        # With C_th = 1, AF fails iff p_user*gamma_ur < 0.68 and DF iff it is
        # below 1, so on one common draw AF cannot fail more often.
        assert 0.0 < result.op_af <= result.op_df < 1.0


class TestScenario:
    def test_random_scenario_ordering(self):
        scenario = random_scenario(num_users=6, seed=5)
        gains = [u.budget.alpha_ub for u in scenario.users]
        assert gains == sorted(gains)

    def test_min_power_guard(self):
        scenario = random_scenario(num_users=4, seed=8)
        for user in scenario.users:
            floor = (
                user.p_user_min * user.budget.gamma_bar_ub
                + user.p_relay_min * user.budget.gamma_bar_rb
            )
            assert floor >= scenario.c_th

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(users=(), grid=PortGrid(1, 1, 0, 0), total_bw=1e6, xi=0.1, seed=1, trials=1)

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="bandwidth", values=(1, 2))
        with pytest.raises(ValueError):
            SweepSpec(variable="num_ports", values=(2, 2))
        with pytest.raises(ValueError):
            SweepSpec(variable="num_ports", values=(1, 2), schemes=("proposed", "best"))


@pytest.fixture(scope="module")
def bench_scenario():
    return random_scenario(num_users=3, seed=42, trials=25)


@pytest.fixture(scope="module")
def sweep_scenario():
    return random_scenario(num_users=4, seed=77, trials=20)


class TestBenchmarks:
    @pytest.fixture
    def scenario(self, bench_scenario):
        return bench_scenario

    def test_unknown_scheme_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_benchmark(scenario, "zero_forcing", seed=1)

    def test_tas_equals_proposed_on_degenerate_grid(self, scenario):
        from dataclasses import replace

        flat = replace(scenario, grid=PortGrid(1, 1, 0.0, 0.0))
        proposed = run_benchmark(flat, PROPOSED, seed=scenario.seed)
        tas = run_benchmark(flat, TAS, seed=scenario.seed)
        assert proposed == tas

    def test_average_bandwidth_never_beats_proposed(self, scenario):
        proposed = run_benchmark(scenario, PROPOSED, seed=scenario.seed)
        average = run_benchmark(scenario, AVG_BANDWIDTH, seed=scenario.seed)
        for p, a in zip(proposed, average):
            assert a.sum_rate <= p.sum_rate + 1e-6

    def test_random_power_never_beats_proposed(self, scenario):
        proposed = run_benchmark(scenario, PROPOSED, seed=scenario.seed)
        random_power = run_benchmark(scenario, RANDOM_POWER, seed=scenario.seed)
        for p, r in zip(proposed, random_power):
            assert r.sum_rate <= p.sum_rate + 1e-6

    def test_thread_count_does_not_change_records(self, scenario):
        serial = run_benchmark(scenario, PROPOSED, seed=scenario.seed, n_threads=1)
        threaded = run_benchmark(scenario, PROPOSED, seed=scenario.seed, n_threads=8)
        assert serial == threaded

    def test_infeasible_trials_zero_rate_with_flag(self):
        scenario = random_scenario(num_users=2, seed=3, trials=5, rate_min=1e12)
        records = run_benchmark(scenario, PROPOSED, seed=scenario.seed)
        assert all(not r.feasible for r in records)
        assert all(r.sum_rate == 0.0 for r in records)
        assert all(r.reason == "INFEASIBLE_BANDWIDTH" for r in records)


class TestSweeps:
    @pytest.fixture
    def scenario(self, sweep_scenario):
        return sweep_scenario

    def test_row_count_contract(self, scenario):
        spec = SweepSpec(variable="num_users", values=(1, 2, 3, 4))
        result = run_sweep(scenario, spec)
        assert len(result.rows) == 4 * len(SCHEMES) * scenario.trials
        assert len(result.summary) == 4 * len(SCHEMES)

    def test_ports_sweep_starts_at_tas(self, scenario):
        spec = SweepSpec(variable="num_ports", values=(1, 2), schemes=(PROPOSED, TAS))
        result = run_sweep(scenario, spec)
        first_proposed = [r for r in result.rows if r.sweep_value == 1.0 and r.scheme == PROPOSED]
        first_tas = [r for r in result.rows if r.sweep_value == 1.0 and r.scheme == TAS]
        assert [r.sum_rate for r in first_proposed] == [r.sum_rate for r in first_tas]

    def test_relay_power_sweep_nondecreasing_per_trial(self, scenario):
        spec = SweepSpec(variable="relay_power_max", values=(0.05, 0.1, 0.2), schemes=(PROPOSED,))
        result = run_sweep(scenario, spec)
        by_trial = {}
        for row in result.rows:
            by_trial.setdefault(row.trial, []).append(row.sum_rate)
        for rates in by_trial.values():
            assert all(hi >= lo - 1e-6 for lo, hi in zip(rates, rates[1:]))

    def test_num_users_beyond_scenario_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_sweep(scenario, SweepSpec(variable="num_users", values=(1, 8)))

    def test_determinism_across_threads(self, scenario):
        spec = SweepSpec(variable="num_ports", values=(1, 3), schemes=(PROPOSED, RANDOM_POWER))
        assert run_sweep(scenario, spec, n_threads=1) == run_sweep(scenario, spec, n_threads=8)

    def test_standard_error_scaling(self):
        base = random_scenario(num_users=3, seed=11, trials=200)
        doubled = random_scenario(num_users=3, seed=11, trials=400)
        spec = SweepSpec(variable="num_ports", values=(4,), schemes=(PROPOSED,))
        se_base = run_sweep(base, spec).summary[0].std_error
        se_doubled = run_sweep(doubled, spec).summary[0].std_error
        ratio = se_base / se_doubled
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_all_infeasible_cell_reports_zero_variance(self):
        scenario = random_scenario(num_users=2, seed=13, trials=6, rate_min=1e12)
        spec = SweepSpec(variable="num_ports", values=(2,), schemes=(PROPOSED,))
        summary = run_sweep(scenario, spec).summary[0]
        assert summary.trials_used == 0
        assert summary.trials_excluded == 6
        assert summary.mean_sum_rate == 0.0
        assert summary.std_error == 0.0
