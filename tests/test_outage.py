import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fluidrelay import (
    CorrelationMatrix,
    InfeasibleError,
    LinkBudget,
    OutageQuery,
    Selection,
    PortGrid,
    best_gain_cdf,
    build_correlation,
    op_surface,
    outage_probabilities,
    scheme_region,
    select_scheme,
    xi_af,
    xi_df,
)
import fluidrelay.outage as outage
from fluidrelay.harness import empirical_best_gain_cdf
from fluidrelay.mvncdf import MvnEstimate, pivot_problems
from fluidrelay.outage import BestGainCdf, CopulaConfig, OutageCdfs, best_gain_cdf_estimate, snr_threshold
from fluidrelay.seeding import derive_seed


@pytest.fixture
def engine_calls(monkeypatch):
    """Count the engine calls made through ``outage``."""
    calls = []
    engine = outage.mvn_cdf

    def counting(problem):
        calls.append(problem)
        return engine(problem)

    monkeypatch.setattr(outage, "mvn_cdf", counting)
    return calls


UNIT_BUDGET = LinkBudget(alpha_ur=1.0, alpha_ub=1.0, alpha_rb=1.0, sigma2_relay=1.0, sigma2_bs=1.0)
XI_HALF = 0.5  # C_th = 1
# User 0 of scenarios/default.json: gamma_ub = 2e3 and gamma_rb = 1e6 per watt.
DEFAULT_USER0 = LinkBudget(alpha_ur=1e-9, alpha_ub=2e-12, alpha_rb=1e-9, sigma2_relay=1e-15, sigma2_bs=1e-15)


def xi_for_cth(c_th: float) -> float:
    return 0.5 * math.log2(1.0 + c_th)


class TestThresholds:
    def test_cth(self):
        assert OutageQuery(1.0, 1.0, XI_HALF).c_th == pytest.approx(1.0)

    def test_xi_af_zero_when_direct_link_meets_threshold(self):
        q = OutageQuery(1.0, 1.0, XI_HALF)  # C_th = 1 = p_user * gamma_ub
        assert xi_af(q, UNIT_BUDGET) == pytest.approx(0.0, abs=1e-15)

    def test_xi_af_derived_case(self):
        # gamma_rb = 2, C_th = 2: (1*(2+1)*(2-1)) / (1*1*(1+2-2)) = 3
        budget = LinkBudget(alpha_ur=1.0, alpha_ub=1.0, alpha_rb=2.0, sigma2_relay=1.0, sigma2_bs=1.0)
        q = OutageQuery(1.0, 1.0, xi_for_cth(2.0))
        value = xi_af(q, budget)
        assert value == pytest.approx(3.0, rel=1e-12)

        # cross-check: the AF SNR hits C_th exactly at that best-port gain
        def af_snr_at_gain(h2):
            gamma_ur = budget.alpha_ur * h2 / budget.sigma2_relay
            hop = q.p_user * gamma_ur
            relay = q.p_relay * budget.gamma_bar_rb
            return q.p_user * budget.gamma_bar_ub + hop * relay / (hop + relay + 1.0) - q.c_th

        assert brentq(af_snr_at_gain, 1e-9, 1e4) == pytest.approx(value, rel=1e-9)

    def test_snr_threshold(self):
        assert snr_threshold(XI_HALF) == 1.0
        assert snr_threshold(0.1) == 2.0 ** 0.2 - 1.0

    @pytest.mark.parametrize("xi", [0.0, -1.0, math.nan, math.inf, 600.0])
    def test_snr_threshold_rejects_bad_xi(self, xi):
        with pytest.raises(ValueError, match="xi"):
            snr_threshold(xi)

    @pytest.mark.parametrize(
        "field", ["alpha_ur", "alpha_ub", "alpha_rb", "sigma2_relay", "sigma2_bs"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_link_budget_rejects_non_finite_or_nonpositive(self, field, value):
        fields = dict(alpha_ur=1.0, alpha_ub=1.0, alpha_rb=1.0, sigma2_relay=1.0, sigma2_bs=1.0)
        with pytest.raises(ValueError, match=field):
            LinkBudget(**dict(fields, **{field: value}))

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 1.0, 0.1),
            (math.inf, 1.0, 0.1),
            (1.0, math.nan, 0.1),
            (1.0, -math.inf, 0.1),
            (1.0, 1.0, math.nan),
            (1.0, 1.0, math.inf),
            (1.0, 1.0, 600.0),
        ],
    )
    def test_outage_query_rejects_non_finite(self, args):
        with pytest.raises(ValueError):
            OutageQuery(*args)

    def test_xi_af_requires_positive_user_power(self):
        with pytest.raises(ValueError):
            xi_af(OutageQuery(0.0, 5.0, XI_HALF), UNIT_BUDGET)

    def test_xi_af_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            xi_af(OutageQuery(0.2, 0.2, XI_HALF), UNIT_BUDGET)

    def test_xi_af_huge_threshold_stays_finite(self):
        # C_th ~ 1.07e301: the direct products overflow to inf/inf.  With
        # a = C_th/2 and b = C_th the ratio is (b+1)/p_u * (C_th-a)/margin = 2.
        c_th = snr_threshold(500.0)
        q = OutageQuery(c_th / 2.0, c_th, 500.0)
        assert xi_af(q, UNIT_BUDGET) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("p_user", [1e-5, 2e-5, 1e-3])
    def test_xi_af_overflowing_relay_snr_takes_limit(self, p_user):
        # p_r * gamma_rb overflows: relay_term / margin -> 1, a limit the
        # finite form already reaches in double precision at p_r = 1e290.
        q = OutageQuery(p_user, 1e307, 0.1)
        limit = xi_af(OutageQuery(p_user, 1e290, 0.1), DEFAULT_USER0)
        assert xi_af(q, DEFAULT_USER0) == pytest.approx(limit, rel=1e-12)
        expected = scheme_region(p_user, 1e307, q.c_th, DEFAULT_USER0.gamma_bar_ub, DEFAULT_USER0.gamma_bar_rb)
        assert select_scheme(q, DEFAULT_USER0) is expected is Selection.AF

    @pytest.mark.parametrize("p_user, p_relay", [(1e306, 1e-3), (1e307, 2e-3), (1e307, 1e307)])
    def test_xi_af_overflowing_direct_snr_is_nonpositive(self, p_user, p_relay):
        q = OutageQuery(p_user, p_relay, 0.1)
        assert xi_af(q, DEFAULT_USER0) <= 0.0
        expected = scheme_region(p_user, p_relay, q.c_th, DEFAULT_USER0.gamma_bar_ub, DEFAULT_USER0.gamma_bar_rb)
        assert select_scheme(q, DEFAULT_USER0) is expected is Selection.AF

    def test_xi_df_all_ones(self):
        assert xi_df(OutageQuery(1.0, 1.0, XI_HALF), UNIT_BUDGET) == pytest.approx(1.0)

    def test_xi_df_inverse_in_user_power(self):
        assert xi_df(OutageQuery(2.0, 1.0, XI_HALF), UNIT_BUDGET) == pytest.approx(0.5)

    def test_xi_df_physical_scales(self):
        budget = LinkBudget(alpha_ur=1e-8, alpha_ub=1e-8, alpha_rb=1e-8, sigma2_relay=1e-12, sigma2_bs=1e-12)
        assert xi_df(OutageQuery(0.1, 0.1, XI_HALF), budget) == pytest.approx(1e-3, rel=1e-12)


class TestBestGainCdf:
    def test_zero_is_exact(self, default_grid_corr):
        assert best_gain_cdf(0.0, default_grid_corr) == 0.0

    def test_negative_rejected(self, default_grid_corr):
        with pytest.raises(ValueError):
            best_gain_cdf(-0.1, default_grid_corr)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"target_abs_error": 0.5}, "target_abs_error must be in (0, 0.1], got 0.5"),
            ({"max_samples": 11}, "max_samples must be at least 12"),
            ({"seed": -1}, "seed must be a nonnegative integer"),
        ],
    )
    def test_config_checked_like_engine_problem(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CopulaConfig(**fields)

    def test_single_port_is_marginal(self):
        corr = CorrelationMatrix.identity(1)
        assert best_gain_cdf(math.log(2.0), corr) == pytest.approx(0.5, abs=1e-9)

    def test_independent_pair_is_product(self):
        corr = CorrelationMatrix.identity(2)
        assert best_gain_cdf(math.log(2.0), corr) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_identity_matches_power_law(self, dim):
        corr = CorrelationMatrix.identity(dim)
        for x in (0.3, 1.0, 2.5):
            expected = (-np.expm1(-x)) ** dim
            assert best_gain_cdf(x, corr) == pytest.approx(expected, abs=1e-3)

    def test_nondecreasing(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=1e-3, seed=8)
        values = [best_gain_cdf(x, default_grid_corr, config) for x in (0.5, 1.0, 2.0, 4.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 2e-3

    def test_monte_carlo_agreement_small_grids(self):
        # model error plus sampling noise stays inside the 0.05 budget
        for grid in (PortGrid(1, 2, 0.0, 1.0), PortGrid(2, 2, 1.0, 1.0), PortGrid(1, 4, 0.0, 1.0)):
            corr = build_correlation(grid)
            empirical = empirical_best_gain_cdf(corr, [0.5, 1.0, 2.0], 1_000_000, seed=21)
            for point in empirical:
                copula = best_gain_cdf(point.x, corr, CopulaConfig(seed=13))
                assert abs(copula - point.cdf) <= 0.05


class TestBestGainCdfMemo:
    def test_repeat_reaches_engine_once(self, default_grid_corr, engine_calls):
        cdf = BestGainCdf(default_grid_corr, CopulaConfig(target_abs_error=5e-3, seed=5))
        first = best_gain_cdf_estimate(1.3, cdf)
        again = best_gain_cdf_estimate(1.3, cdf)
        assert len(engine_calls) == 1
        assert again == first
        assert best_gain_cdf(1.3, cdf) == first.value
        assert len(engine_calls) == 1

    def test_each_key_part_reaches_engine(self, default_grid_corr, pair_corr, engine_calls):
        config = CopulaConfig(target_abs_error=5e-3, seed=5)
        cdf = BestGainCdf(default_grid_corr, config)
        cdf.estimate(1.3)
        cdf.estimate(1.4)
        BestGainCdf(default_grid_corr, CopulaConfig(target_abs_error=5e-3, seed=6)).estimate(1.3)
        BestGainCdf(default_grid_corr, CopulaConfig(target_abs_error=4e-3, seed=5)).estimate(1.3)
        BestGainCdf(pair_corr(0.3), config).estimate(1.3)
        assert len(engine_calls) == 5
        assert [problem.corr.dim for problem in engine_calls] == [16, 16, 16, 16, 2]

    def test_threads_share_memo_consistently(self, pair_corr, engine_calls):
        cdf = BestGainCdf(pair_corr(0.4), CopulaConfig(target_abs_error=1e-2, seed=8))
        xs = [0.3, 0.6, 0.9, 1.2, 1.5]
        expected = {x: cdf.estimate(x) for x in xs}
        work = [xs[i % len(xs)] for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(cdf.estimate, work, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[x] for x in work]
        assert len(engine_calls) == len(xs)

    def test_matrix_call_builds_its_own_memo(self, default_grid_corr, engine_calls):
        config = CopulaConfig(target_abs_error=5e-3, seed=5)
        first = best_gain_cdf_estimate(1.3, default_grid_corr, config)
        assert best_gain_cdf_estimate(1.3, default_grid_corr, config) == first
        assert len(engine_calls) == 2

    def test_object_carries_its_config(self, default_grid_corr):
        cdf = BestGainCdf(default_grid_corr)
        with pytest.raises(TypeError, match="carries its own config"):
            best_gain_cdf(1.3, cdf, CopulaConfig())
        q = OutageQuery(1.5, 0.5, XI_HALF)
        with pytest.raises(TypeError, match="carries its own config"):
            outage_probabilities(q, UNIT_BUDGET, OutageCdfs(default_grid_corr), CopulaConfig())

    def test_prepared_thresholds_arrive_pivoted(self, default_grid_corr, engine_calls):
        config = CopulaConfig(target_abs_error=5e-3, seed=5)
        xs = [0.02, 0.7, 1.3, 4.0]
        cdf = BestGainCdf(default_grid_corr, config, [0.0, *xs, 1.3])  # zero and repeated thresholds are not pending
        assert list(cdf._pending) == xs
        cdfs = OutageCdfs(default_grid_corr, config, [(0.0, 0.7), (1.3, 0.7), (4.0, 0.02)])
        assert list(cdfs.af._pending) == [1.3, 4.0]
        assert list(cdfs.df._pending) == [0.7, 0.02]
        lookups = [(cdfs.af, 1.3), (cdfs.af, 4.0), (cdfs.df, 0.7), (cdfs.df, 0.02)]
        plain = [BestGainCdf(default_grid_corr, cdf.config).estimate(x) for cdf, x in lookups]
        del engine_calls[:]
        assert [cdf.estimate(x) for cdf, x in lookups] == plain
        assert [problem._pivot is not None for problem in engine_calls] == [True, True, True, True]
        assert cdfs.af._pending == cdfs.df._pending == {}

    def test_one_port_needs_no_pivot(self):
        cdfs = OutageCdfs(CorrelationMatrix.identity(1), CopulaConfig(), [(1.0, 2.0)])
        assert cdfs.af._pending == cdfs.df._pending == {}
        assert cdfs.af.estimate(math.log(2.0)).value == pytest.approx(0.5, abs=1e-9)

    def test_outage_cdfs_derive_scheme_seeds(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=5e-3, seed=11)
        cdfs = OutageCdfs(default_grid_corr, config)
        assert cdfs.af.config == CopulaConfig(target_abs_error=5e-3, seed=derive_seed(11, 0))
        assert cdfs.df.config == CopulaConfig(target_abs_error=5e-3, seed=derive_seed(11, 1))
        assert cdfs.af.corr is cdfs.df.corr is default_grid_corr
        q = OutageQuery(1.5, 0.5, XI_HALF)
        via_matrix = outage_probabilities(q, UNIT_BUDGET, default_grid_corr, config)
        assert outage_probabilities(q, UNIT_BUDGET, cdfs) == via_matrix

    def test_nan_argument_rejected(self, default_grid_corr):
        with pytest.raises(ValueError, match="argument x must be >= 0, got nan"):
            best_gain_cdf_estimate(math.nan, default_grid_corr)

    def test_zero_threshold_skips_engine(self, default_grid_corr, engine_calls):
        assert best_gain_cdf_estimate(0.0, default_grid_corr).value == 0.0
        assert engine_calls == []


class TestOutageProbabilities:
    def test_infeasible_region_exact_ones(self, default_grid_corr):
        result = outage_probabilities(OutageQuery(0.3, 0.3, XI_HALF), UNIT_BUDGET, default_grid_corr)
        assert result.op_af == 1.0
        assert result.op_df == 1.0
        assert result.selection is Selection.INFEASIBLE

    def test_boundary_equality_is_infeasible(self, default_grid_corr):
        result = outage_probabilities(OutageQuery(0.5, 0.5, XI_HALF), UNIT_BUDGET, default_grid_corr)
        assert result.selection is Selection.INFEASIBLE

    def test_direct_link_sufficient_gives_zero_af(self, default_grid_corr):
        # C_th <= p_user * gamma_ub: AF outage impossible, DF still possible
        result = outage_probabilities(OutageQuery(1.5, 0.5, XI_HALF), UNIT_BUDGET, default_grid_corr)
        assert result.op_af == 0.0
        assert result.op_df > 0.0
        assert result.selection is Selection.AF

    def test_df_at_low_powers_af_at_high_powers(self, default_grid_corr):
        low = outage_probabilities(OutageQuery(0.6, 0.55, XI_HALF), UNIT_BUDGET, default_grid_corr)
        high = outage_probabilities(OutageQuery(5.0, 5.0, XI_HALF), UNIT_BUDGET, default_grid_corr)
        assert low.selection is Selection.DF
        assert high.selection is Selection.AF

    def test_selection_matches_op_comparison(self, default_grid_corr):
        # wherever both CDF arguments are positive, the reported OPs must
        # order consistently with the selection (up to engine error)
        config = CopulaConfig(target_abs_error=1e-3, seed=5)
        for pu, pr in ((0.6, 0.55), (0.8, 0.9), (1.2, 0.4), (2.0, 3.0)):
            q = OutageQuery(pu, pr, XI_HALF)
            result = outage_probabilities(q, UNIT_BUDGET, default_grid_corr, config)
            slack = 4e-3
            if result.selection is Selection.AF:
                assert result.op_df >= result.op_af - slack
            else:
                assert result.op_af >= result.op_df - slack

    def test_selection_matches_scheme_region(self, default_grid_corr):
        rng = np.random.default_rng(42)
        c_th = 1.0
        for _ in range(200):
            pu = rng.uniform(0.05, 4.0)
            pr = rng.uniform(0.05, 4.0)
            if pu + pr <= c_th:
                continue
            q = OutageQuery(pu, pr, XI_HALF)
            expected = scheme_region(pu, pr, c_th, 1.0, 1.0)
            assert select_scheme(q, UNIT_BUDGET) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        xi=st.one_of(st.floats(1e-3, 20.0), st.floats(500.0, 511.99)),
        direct=st.floats(1e-6, 3.0),
        relay=st.floats(0.0, 3.0),
        gamma_ub=st.floats(1.0, 1e9),
        gamma_rb=st.floats(1.0, 1e9),
    )
    def test_select_scheme_is_scheme_region(self, xi, direct, relay, gamma_ub, gamma_rb):
        # Powers are drawn as fractions of C_th per unit SNR, so huge C_th
        # (xi near 512) still gives feasible points.
        c_th = snr_threshold(xi)
        p_user = direct * (c_th / gamma_ub)
        p_relay = relay * (c_th / gamma_rb)
        assume(math.isfinite(p_user) and math.isfinite(p_relay) and p_user > 0)
        lb = LinkBudget(alpha_ur=1.0, alpha_ub=gamma_ub, alpha_rb=gamma_rb, sigma2_relay=1.0, sigma2_bs=1.0)
        selection = select_scheme(OutageQuery(p_user, p_relay, xi), lb)
        assume(selection is not Selection.INFEASIBLE)
        assert selection is scheme_region(p_user, p_relay, c_th, gamma_ub, gamma_rb)

    def test_op_monotone_in_powers(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=1e-3, seed=10)
        base = outage_probabilities(OutageQuery(0.7, 0.6, XI_HALF), UNIT_BUDGET, default_grid_corr, config)
        more_relay = outage_probabilities(OutageQuery(0.7, 1.0, XI_HALF), UNIT_BUDGET, default_grid_corr, config)
        more_user = outage_probabilities(OutageQuery(1.0, 0.6, XI_HALF), UNIT_BUDGET, default_grid_corr, config)
        slack = 4e-3
        assert more_relay.op_af <= base.op_af + slack
        assert more_relay.op_df <= base.op_df + slack
        assert more_user.op_af <= base.op_af + slack
        assert more_user.op_df <= base.op_df + slack

    def test_op_near_one_just_above_feasibility(self, default_grid_corr):
        # high threshold, barely feasible thanks to relay power: outage
        # nearly certain with either scheme
        xi = xi_for_cth(4.66)
        config = CopulaConfig(target_abs_error=1e-3, seed=9)
        result = outage_probabilities(
            OutageQuery(0.5, 4.5, xi), UNIT_BUDGET, default_grid_corr, config
        )
        assert result.op_af >= 0.95
        assert result.op_df >= 0.95

    def test_threshold_comparison_identity(self):
        # xi_af > xi_df iff the closed-form region ratio exceeds 1,
        # checked on 1e4 random feasible points
        rng = np.random.default_rng(7)
        budget = LinkBudget(alpha_ur=1.3, alpha_ub=0.8, alpha_rb=1.9, sigma2_relay=0.7, sigma2_bs=1.1)
        count = 0
        while count < 10_000:
            c_th = rng.uniform(0.05, 5.0)
            pu = rng.uniform(0.01, 10.0)
            pr = rng.uniform(0.01, 10.0)
            a = pu * budget.gamma_bar_ub
            b = pr * budget.gamma_bar_rb
            if a + b <= c_th * 1.0000001:
                continue
            count += 1
            q = OutageQuery(pu, pr, xi_for_cth(c_th))
            ratio = (c_th * c_th + c_th) / ((c_th + 1.0) * a + a * b)
            assert (xi_af(q, budget) > xi_df(q, budget)) == (ratio > 1.0)


class TestOpSurface:
    def test_row_count_and_order(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=5e-3, seed=1)
        points = op_surface([0.4, 0.8], [0.3, 0.9], XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        assert [(p.p_user, p.p_relay) for p in points] == [
            (0.4, 0.3),
            (0.4, 0.9),
            (0.8, 0.3),
            (0.8, 0.9),
        ]

    def test_infeasible_rows_marked(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=5e-3, seed=1)
        points = op_surface([0.1, 0.2], [0.1, 0.2], XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        assert all(p.result.selection is Selection.INFEASIBLE for p in points)

    def test_thread_count_does_not_change_results(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=5e-3, seed=2)
        serial = op_surface([0.6, 1.2], [0.5, 1.5], XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        threaded = op_surface(
            [0.6, 1.2], [0.5, 1.5], XI_HALF, UNIT_BUDGET, default_grid_corr, config, n_threads=8
        )
        assert serial == threaded

    def test_threads_make_serial_engine_calls(self, default_grid_corr, engine_calls):
        # One task per p_user row: no two threads miss on a row's DF threshold.
        config = CopulaConfig(target_abs_error=5e-3, seed=6)
        args = ([0.6, 0.8, 1.0, 1.2], [0.3, 0.5, 0.8, 1.1, 1.5, 2.0], XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        serial = op_surface(*args)
        serial_calls = len(engine_calls)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = op_surface(*args, n_threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert len(engine_calls) == 2 * serial_calls

    def test_repeated_user_powers_evaluated_once(self, default_grid_corr, engine_calls):
        # Each distinct p_user is one row task, so repeats neither race nor re-evaluate.
        config = CopulaConfig(target_abs_error=5e-3, seed=9)
        p_users = [0.8, 1.2, 0.8, 0.8, 1.2, 0.8]
        p_relays = [0.3, 0.5, 0.8, 1.1, 1.5, 2.0]
        args = (p_users, p_relays, XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        thresholds = set()
        for pu in set(p_users):
            for pr in p_relays:
                q = OutageQuery(pu, pr, XI_HALF)
                if select_scheme(q, UNIT_BUDGET) is not Selection.INFEASIBLE:
                    thresholds.add(("df", xi_df(q, UNIT_BUDGET)))
                    if xi_af(q, UNIT_BUDGET) > 0:
                        thresholds.add(("af", xi_af(q, UNIT_BUDGET)))
        serial = op_surface(*args, n_threads=1)
        serial_calls = len(engine_calls)
        del engine_calls[:]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = op_surface(*args, n_threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert [p.p_user for p in threaded[:: len(p_relays)]] == p_users
        assert threaded == serial
        assert len(engine_calls) == serial_calls == len(thresholds)

    def test_common_random_numbers_across_map(self, default_grid_corr, engine_calls):
        config = CopulaConfig(target_abs_error=5e-3, seed=4)
        p_users = [0.6, 0.9, 1.2]
        p_relays = [0.2, 0.5, 1.0, 1.5]
        points = op_surface(p_users, p_relays, XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        feasible = [p for p in points if p.result.selection is not Selection.INFEASIBLE]
        assert len(feasible) > len(p_users)
        for pu in p_users:
            op_df = {p.result.op_df for p in feasible if p.p_user == pu}
            assert len(op_df) == 1
        thresholds = set()
        for p in feasible:
            q = OutageQuery(p.p_user, p.p_relay, XI_HALF)
            thresholds.add(("df", xi_df(q, UNIT_BUDGET)))
            if xi_af(q, UNIT_BUDGET) > 0:
                thresholds.add(("af", xi_af(q, UNIT_BUDGET)))
        assert len(engine_calls) == len(thresholds)

    def test_empty_grid_rejected(self, default_grid_corr):
        with pytest.raises(ValueError):
            op_surface([], [1.0], XI_HALF, UNIT_BUDGET, default_grid_corr)

    def test_op_af_nonincreasing_along_relay_power(self, default_grid_corr):
        config = CopulaConfig(target_abs_error=1e-3, seed=3)
        points = op_surface([0.7], [0.35, 0.6, 1.0, 1.6], XI_HALF, UNIT_BUDGET, default_grid_corr, config)
        ops = [p.result.op_af for p in points]
        for lo, hi in zip(ops, ops[1:]):
            assert hi <= lo + 4e-3
