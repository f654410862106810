import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import best_gain_samples_per_chunk, run_benchmark_per_trial

from fluidrelay import (
    CorrelationMatrix,
    LinkBudget,
    OutageQuery,
    PortGrid,
    Selection,
    build_correlation,
    sample_gains,
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
    TrialDraws,
    empirical_best_gain_cdf,
    empirical_outage,
    random_scenario,
    run_benchmark,
    run_sweep,
)
from fluidrelay.outage import CopulaConfig, OutageResult, best_gain_cdf, outage_probabilities, snr_threshold
from fluidrelay.scenario import build_scenario, load_scenario
from fluidrelay.seeding import derive_seed, substream

DEFAULT_SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "default.json")

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

    @pytest.mark.parametrize(
        "scales, selection",
        [((0.2, 0.2), Selection.INFEASIBLE), ((0.45, 0.45), Selection.INFEASIBLE), ((0.0, 2.0), Selection.AF)],
    )
    def test_certain_outage_is_the_analytic_result(self, default_grid_corr, scales, selection):
        # validate's two probes below the feasibility boundary (0.4 and 0.9 of it), and no user power.
        budget = load_scenario(DEFAULT_SCENARIO).users[0].budget
        c_th = snr_threshold(0.1)
        q = OutageQuery(scales[0] * c_th / budget.gamma_bar_ub, scales[1] * c_th / budget.gamma_bar_rb, 0.1)
        sampled = empirical_outage(q, budget, default_grid_corr, 10_000, seed=7)
        assert sampled == outage_probabilities(q, budget, default_grid_corr) == OutageResult(1.0, 1.0, selection)

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
        original = harness._best_gain_blocks
        monkeypatch.setattr(
            harness, "_best_gain_blocks", lambda *args: draws.append(args) or original(*args)
        )
        q = OutageQuery(0.8, 0.7, 0.5)
        result = empirical_outage(q, UNIT_BUDGET, default_grid_corr, 10_000, seed=6)
        assert draws == [(default_grid_corr, 10_000, 6)]
        # With C_th = 1, AF fails iff p_user*gamma_ur < 0.68 and DF iff it is
        # below 1, so on one common draw AF cannot fail more often.
        assert 0.0 < result.op_af <= result.op_df < 1.0

    def test_memory_does_not_grow_with_trials(self, default_grid_corr):
        # Trial-length gain and SNR arrays peaked at 40.0e6 bytes here; counting
        # outages per 1024-row draw block peaks at 0.6e6.
        q = OutageQuery(0.8, 0.7, 0.5)
        tracemalloc.start()
        try:
            empirical_outage(q, UNIT_BUDGET, default_grid_corr, 1_000_000, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestStreamedSamples:
    """``_best_gain_samples`` draws in blocks of ``_DRAW_BLOCK`` rows with the
    bits of one complex-division draw per whole chunk."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4)])
    @pytest.mark.parametrize("trials", [10_000, 32_768 + 4_097, 32_768 + 4_097 + 1, 32_768 + 1, 2 * 32_768])
    def test_matches_one_draw_per_chunk(self, shape, trials):
        # At seed 21, 32768 + 4097 trials end in a one-row tail whose 4x4 best
        # gain rounds differently as a matrix-vector product.
        corr = build_correlation(PortGrid(*shape, 1.0, 1.0))
        expected = best_gain_samples_per_chunk(corr, trials, seed=21)
        assert np.array_equal(harness._best_gain_samples(corr, trials, 21), expected)

    def test_one_row_tail_joins_previous_block(self, monkeypatch):
        # 32768 + 4097 trials: the second chunk's blocks are 4 x 1024 + 1 rows
        # unless the one-row tail (a matrix-vector product) is folded in.
        counts = []
        original = harness.sample_gains
        monkeypatch.setattr(harness, "sample_gains", lambda *args: counts.append(args[2]) or original(*args))
        harness._best_gain_samples(build_correlation(PortGrid(3, 3, 1.0, 1.0)), 32_768 + 4_097, 3)
        assert sum(counts) == 32_768 + 4_097
        assert 1 not in counts and max(counts) <= harness._DRAW_BLOCK + 1

    def test_memory_is_bounded_by_the_block(self, default_grid_corr):
        # One draw per 32768-row chunk peaks at 34.4e6 bytes, 4096-row blocks at
        # 4.0e6 and 1024-row blocks at 1.3e6, 0.8e6 of it the (trials,) result.
        tracemalloc.start()
        try:
            harness._best_gain_samples(default_grid_corr, 100_000, 2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


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

    def test_bandwidth_bound_enforced(self):
        # Only the parser used to bound the bandwidth: at 1e308 Hz a benchmark's rates overflowed.
        scenario = random_scenario(2, seed=1, trials=3)
        for total_bw in (1e308, math.nextafter(1e12, math.inf), 0.5):
            with pytest.raises(ValueError, match="total_bw: must be in"):
                replace(scenario, total_bw=total_bw)
        records = run_benchmark(replace(scenario, total_bw=1e12), PROPOSED, 1)
        assert all(math.isfinite(r.sum_rate) for r in records) and max(r.sum_rate for r in records) > 1e12

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="bandwidth", values=(1, 2))
        with pytest.raises(ValueError):
            SweepSpec(variable="num_ports", values=(2, 2))
        with pytest.raises(ValueError):
            SweepSpec(variable="num_ports", values=(1, 2), schemes=("proposed", "best"))

    @pytest.mark.parametrize(
        "variable, value, words",
        [
            ("num_ports", math.inf, "inf must be finite"),
            ("num_users", math.nan, "nan must be finite"),
            ("relay_power_max", math.inf, "inf must be finite"),
            ("num_ports", 1.5, "1.5 must be a positive integer"),
            ("num_users", 1.7, "1.7 must be a positive integer"),
            ("num_ports", 0, "0 must be a positive integer"),
            ("relay_power_max", -1, "-1: must be in"),
            ("relay_power_max", 0.0, "0.0: must be in"),
            ("relay_power_max", 1e-31, "1e-31: must be in"),
            ("relay_power_max", 2e6, "2000000.0: must be in"),
        ],
    )
    def test_sweep_value_rejected_naming_it(self, variable, value, words):
        with pytest.raises(ValueError, match=f"{variable} sweep value {words}"):
            SweepSpec(variable=variable, values=(value,))

    def test_integral_float_counts_accepted(self):
        assert SweepSpec(variable="num_ports", values=(1, 2.0)).values == (1, 2.0)
        assert SweepSpec(variable="num_users", values=(3.0,)).values == (3.0,)


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


def _bits(records):
    return [(r.trial, r.sum_rate.hex(), r.feasible, r.reason) for r in records]


# Rate floors near the sum-rate ceiling leave some trials infeasible
# (INFEASIBLE_BANDWIDTH); zero minimum powers with a high threshold make
# the power-controlled schemes INFEASIBLE_POWER.  Nine users make numpy's
# pairwise sum differ from adding users one by one.
ORACLE_CASES = {
    "tight_rate": lambda: random_scenario(num_users=4, seed=5, trials=8, rate_min=1e7),
    "tas_edge": lambda: random_scenario(num_users=4, seed=5, trials=8, rate_min=8e6),
    "nine_users": lambda: random_scenario(num_users=9, seed=37, trials=6, rate_min=4e6),
    "loose": lambda: random_scenario(num_users=3, seed=31, trials=6, grid=PortGrid(3, 2, 1.5, 0.5)),
}
SWEEP_VALUES = {"num_users": (1, 2, 3), "num_ports": (1, 2, 3), "relay_power_max": (0.05, 0.1, 0.2)}


class TestSharedDraws:
    """One ``TrialDraws`` per sweep reproduces a fresh stream per (scheme, trial, user)."""

    @pytest.mark.parametrize("variable", sorted(SWEEP_VALUES))
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_sweep_records_match_per_trial_oracle(self, monkeypatch, case, variable):
        scenario = ORACLE_CASES[case]()
        calls = []
        original = harness.run_benchmark

        def recording(derived, scheme, seed, draws=None):
            records = original(derived, scheme, seed, draws)
            calls.append((derived, scheme, seed, records))
            return records

        monkeypatch.setattr(harness, "run_benchmark", recording)
        run_sweep(scenario, SweepSpec(variable=variable, values=SWEEP_VALUES[variable]))
        assert len(calls) == len(SWEEP_VALUES[variable]) * len(SCHEMES)
        for derived, scheme, seed, records in calls:
            assert _bits(records) == _bits(run_benchmark_per_trial(derived, scheme, seed)), scheme

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_cases_cover_feasible_and_infeasible_trials(self, case):
        scenario = ORACLE_CASES[case]()
        feasible = Counter(r.feasible for s in SCHEMES for r in run_benchmark(scenario, s, scenario.seed))
        if case == "loose":
            assert feasible == Counter({True: 4 * scenario.trials})
        else:
            assert feasible[True] and feasible[False]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_own_draws_match_per_trial_oracle(self, scheme):
        scenario = random_scenario(num_users=3, seed=19, trials=5, xi=2.0)
        scenario = replace(
            scenario, users=tuple(replace(u, p_user_min=0.0, p_relay_min=0.0) for u in scenario.users)
        )
        records = run_benchmark(scenario, scheme, scenario.seed)
        assert _bits(records) == _bits(run_benchmark_per_trial(scenario, scheme, scenario.seed))
        if scheme in (PROPOSED, TAS, AVG_BANDWIDTH):
            assert {r.reason for r in records} == {"INFEASIBLE_POWER"}

    @pytest.mark.parametrize("ports", [1, 2])
    def test_random_power_draws_below_threshold_match_per_trial_oracle(self, ports):
        # 1 mW relay caps and zero minimum powers let some random draws miss C_th = 255.
        spec = load_scenario(DEFAULT_SCENARIO)
        users = tuple(replace(u, p_relay_max=1e-3, p_user_min=0.0, p_relay_min=0.0) for u in spec.users)
        grid = replace(spec.grid, n1=ports, n2=ports)
        scenario = build_scenario(replace(spec, xi=4.0, trials=10, grid=grid, users=users))
        records = run_benchmark(scenario, RANDOM_POWER, scenario.seed)
        assert "INFEASIBLE_POWER" in {r.reason for r in records}
        assert _bits(records) == _bits(run_benchmark_per_trial(scenario, RANDOM_POWER, scenario.seed))

    @pytest.mark.parametrize("ports", [1, 2])
    def test_random_power_overflowing_need_matches_per_trial_oracle(self, ports):
        # The draws above, but user 1's cap at the domain's smallest, 1e-30 W, gives it an SNR so
        # small that its minimum slice overflows the budget: every trial that meets C_th is
        # INFEASIBLE_BANDWIDTH.  A 5e-324 W cap, whose slice overflowed a double, is rejected.
        spec = load_scenario(DEFAULT_SCENARIO)
        users = [replace(u, p_relay_max=1e-3, p_user_min=0.0, p_relay_min=0.0) for u in spec.users]
        grid = replace(spec.grid, n1=ports, n2=ports)
        users[1] = replace(users[1], p_user_max=5e-324)
        with pytest.raises(ValueError, match="p_user_max: must be in"):
            build_scenario(replace(spec, xi=4.0, trials=10, grid=grid, users=tuple(users)))
        users[1] = replace(users[1], p_user_max=1e-30)
        scenario = build_scenario(replace(spec, xi=4.0, trials=10, grid=grid, users=tuple(users)))
        records = run_benchmark(scenario, RANDOM_POWER, scenario.seed)
        assert {r.reason for r in records} == {"INFEASIBLE_POWER", "INFEASIBLE_BANDWIDTH"}
        assert _bits(records) == _bits(run_benchmark_per_trial(scenario, RANDOM_POWER, scenario.seed))

    @pytest.mark.parametrize(
        "variable, values, schemes",
        [
            ("num_ports", (1, 2, 3), SCHEMES),
            ("num_users", (1, 3), SCHEMES),
            ("relay_power_max", (0.05, 0.2), (PROPOSED, AVG_BANDWIDTH)),
        ],
    )
    def test_one_stream_per_trial_user_and_tag(self, monkeypatch, variable, values, schemes):
        scenario = random_scenario(num_users=3, seed=23, trials=4)
        derived = []
        original = harness.substream
        monkeypatch.setattr(harness, "substream", lambda *key: derived.append(key) or original(*key))
        run_sweep(scenario, SweepSpec(variable=variable, values=values, schemes=schemes))
        tags = Counter(key[-1] for key in derived)
        trials_users = scenario.trials * len(scenario.users)
        assert tags == Counter({0: trials_users, **({1: trials_users} if RANDOM_POWER in schemes else {})})
        assert len(set(derived)) == len(derived)

    def test_one_gain_draw_per_grid_trial_user(self, monkeypatch):
        scenario = random_scenario(num_users=3, seed=23, trials=4)
        draws = []
        original = harness.sample_gains
        monkeypatch.setattr(harness, "sample_gains", lambda *args: draws.append(args) or original(*args))
        run_sweep(scenario, SweepSpec(variable="num_ports", values=(1, 2, 3)))
        # Sides 1, 2, 3: three correlation matrices; the TAS grid is side 1's.
        assert len(draws) == 3 * scenario.trials * len(scenario.users)
        assert Counter(corr.dim for corr, _, _ in draws) == Counter({1: 12, 4: 12, 9: 12})

    def test_tas_shares_the_one_port_draw(self, monkeypatch):
        # A 1x1 grid's correlation is [[1]] whatever its aperture.
        scenario = random_scenario(num_users=3, seed=23, trials=4)
        draws = []
        original = harness.sample_gains
        monkeypatch.setattr(harness, "sample_gains", lambda *args: draws.append(args) or original(*args))
        run_sweep(scenario, SweepSpec(variable="num_ports", values=(1, 2), schemes=(PROPOSED, TAS)))
        assert len(draws) == scenario.trials * len(scenario.users) * 2

    def test_draws_for_another_seed_rejected(self):
        scenario = random_scenario(num_users=2, seed=3, trials=2)
        with pytest.raises(ValueError, match="seed 4"):
            run_benchmark(scenario, PROPOSED, scenario.seed, TrialDraws(4, 2, 2))

    @pytest.mark.parametrize(
        "trials, num_users, named",
        [
            (1, 2, "1 trials of 2 users, not 2 trials of 2"),
            (3, 2, "3 trials of 2 users, not 2 trials of 2"),
            (2, 1, "2 trials of 1 users, not 2 trials of 2"),
        ],
    )
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_draws_not_covering_the_scenario_rejected(self, scheme, trials, num_users, named):
        scenario = random_scenario(num_users=2, seed=3, trials=2)
        with pytest.raises(ValueError, match=named):
            run_benchmark(scenario, scheme, scenario.seed, TrialDraws(3, trials, num_users))


class TestDrawArrays:
    """``TrialDraws`` arrays against one fresh stream per (trial, user)."""

    def test_best_gains_match_one_row_per_stream(self):
        # One object serves every grid, so each grid must restart the streams.
        draws = TrialDraws(29, 5, 3)
        for shape in [(4, 4), (1, 1), (2, 3)]:
            grid = PortGrid(*shape, 1.0, 1.0)
            best = draws.best_gains(grid)
            assert best.shape == (5, 3)
            corr = build_correlation(grid)
            for t in range(5):
                for k in range(3):
                    gains = sample_gains(corr, substream(29, t, k, 0), 1)
                    assert best[t, k].hex() == float(np.max(np.abs(gains) ** 2)).hex(), (shape, t, k)

    def test_power_uniforms_match_two_scalar_draws(self):
        uniforms = TrialDraws(29, 5, 3).power_uniforms()
        assert uniforms.shape == (5, 3, 2)
        for t in range(5):
            for k in range(3):
                rng = substream(29, t, k, 1)
                assert [u.hex() for u in uniforms[t, k]] == [rng.random().hex(), rng.random().hex()]

    def test_equal_grids_share_one_array(self, monkeypatch):
        calls = []
        original = harness.sample_gains
        monkeypatch.setattr(harness, "sample_gains", lambda *args: calls.append(args) or original(*args))
        draws = TrialDraws(29, 4, 2)
        first = draws.best_gains(PortGrid(2, 3, 1.0, 0.5))
        assert draws.best_gains(PortGrid(2, 3, 1.0, 0.5)) is first
        assert len(calls) == 4 * 2


class TestStreamKeyCoincidences:
    """``SeedSequence`` ignores trailing zero words, so some keys share a stream (pinned, not endorsed)."""

    def test_trailing_zeros_address_the_same_stream(self):
        assert substream(5, 3, 0).random(4).tolist() == substream(5, 3).random(4).tolist()
        assert derive_seed(5, 3, 0) == derive_seed(5, 3)

    def test_validate_chunk_zero_is_trial_zero_user_zero(self):
        grid = PortGrid(2, 2, 1.0, 1.0)
        (chunk,) = harness._best_gain_blocks(build_correlation(grid), 1, 2024)
        assert chunk[0].hex() == TrialDraws(2024, 1, 1).best_gains(grid)[0, 0].hex()

    def test_random_scenario_stream_is_a_channel_stream(self):
        # Trial 41466 (0xA1FA), user 0.
        channel = substream(2024, 41466, 0, harness._CHANNEL_TAG)
        assert substream(2024, 0xA1FA).random(4).tolist() == channel.random(4).tolist()
