import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluidrelay import (
    InfeasibleError,
    LinkBudget,
    Selection,
    SnrTriple,
    TrialAllocations,
    UserConfig,
    allocate_bandwidth,
    derive_min_powers,
    optimize_powers,
    scheme_region,
    snr_af,
    snr_df,
    solve_df_subproblem,
    solve_system,
)
from fluidrelay.outage import mean_snr_sum, snr_threshold

from oracles import (
    df_subproblem_grid,
    df_subproblem_sweep,
    leader_residual_is_tight,
    lp_bandwidth,
    random_df_instance,
    random_power_instance,
    scalar_optimize_powers,
    scalar_solve_df_subproblem,
    scalar_solve_system,
    selection_aware_grid,
)

TRIPLE = SnrTriple(gamma_ub=1.0, gamma_ur=2.0, gamma_rb=3.0)


def unit_budget(gamma_ub=1.0, gamma_rb=1.0):
    return LinkBudget(alpha_ur=1.0, alpha_ub=gamma_ub, alpha_rb=gamma_rb, sigma2_relay=1.0, sigma2_bs=1.0)


def split_box_instances(seed, count):
    """Instances whose box the scheme-region curve splits, so optimize_powers solves the DF subproblem."""
    rng = np.random.default_rng(seed)
    while count:
        cfg, s, c_th = random_power_instance(rng)
        a = cfg.p_user_min * s.gamma_ub
        b = cfg.p_relay_min * s.gamma_rb
        max_corner = scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb)
        if max_corner is Selection.AF and (c_th + 1.0) * a + a * b <= c_th * c_th + c_th:
            count -= 1
            yield cfg, s, c_th


def assert_df_point(cfg, s, c_th, result):
    """The point lies in the box and the DF region, and the value is its DF SNR."""
    pu, pr, value = result
    slack = 1e-12
    assert cfg.p_user_min * (1.0 - slack) <= pu <= cfg.p_user_max
    assert cfg.p_relay_min <= pr <= cfg.p_relay_max
    a = pu * s.gamma_ub
    b = pr * s.gamma_rb
    assert (c_th + 1.0) * a + a * b <= (c_th * c_th + c_th) * (1.0 + slack)
    assert value == snr_df(pu, pr, s)


class TestSnrFormulas:
    def test_af_direct_plus_relayed(self):
        # Gamma_UB=1, Gamma_UR=2, Gamma_RB=3 -> 1 + 6/6 = 2
        assert snr_af(1.0, 1.0, TRIPLE) == pytest.approx(2.0)

    def test_af_no_relay_power(self):
        assert snr_af(1.0, 0.0, TRIPLE) == pytest.approx(1.0)

    def test_af_saturates_at_relay_bottleneck(self):
        strong_hop = SnrTriple(gamma_ub=1.0, gamma_ur=1e12, gamma_rb=3.0)
        assert snr_af(1.0, 1.0, strong_hop) == pytest.approx(1.0 + 3.0, rel=1e-9)

    def test_df_decode_bottleneck(self):
        s = SnrTriple(gamma_ub=1.0, gamma_ur=2.0, gamma_rb=3.0)
        assert snr_df(1.0, 1.0, s) == pytest.approx(2.0)

    def test_df_zero_hop(self):
        s = SnrTriple(gamma_ub=1.0, gamma_ur=0.0, gamma_rb=1.0)
        assert snr_df(1.0, 1.0, s) == 0.0

    def test_df_bs_side_bottleneck(self):
        s = SnrTriple(gamma_ub=1.0, gamma_ur=5.0, gamma_rb=1.0)
        assert snr_df(1.0, 1.0, s) == pytest.approx(2.0)

    def test_monotone_in_powers(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s = SnrTriple(*(10.0 ** rng.uniform(-2, 2, size=3)))
            pu, pr = 10.0 ** rng.uniform(-2, 2, size=2)
            dp = 10.0 ** rng.uniform(-3, 0)
            assert snr_af(pu + dp, pr, s) >= snr_af(pu, pr, s)
            assert snr_af(pu, pr + dp, s) >= snr_af(pu, pr, s)
            assert snr_df(pu + dp, pr, s) >= snr_df(pu, pr, s)
            assert snr_df(pu, pr + dp, s) >= snr_df(pu, pr, s)


class TestUserConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_min", np.nan),
            ("rate_min", np.inf),
            ("rate_min", -1.0),
            ("p_user_max", np.nan),
            ("p_user_max", np.inf),
            ("p_relay_max", np.inf),
        ],
    )
    def test_rejects_non_finite_or_negative(self, field, value):
        fields = dict(budget=unit_budget(), p_user_max=1.0, p_relay_max=1.0, rate_min=0.0)
        with pytest.raises(ValueError):
            UserConfig(**dict(fields, **{field: value}))

    @pytest.mark.parametrize(
        "field, edge, outside",
        [
            ("p_user_max", 1e-30, math.nextafter(1e-30, 0)),
            ("p_relay_max", 1e6, math.nextafter(1e6, math.inf)),
            ("p_user_min", 1e-80, math.nextafter(1e-80, 0)),
            ("rate_min", 1e13, math.nextafter(1e13, math.inf)),
            ("rate_min", 1e-3, 5e-324),
        ],
    )
    def test_domain_edges(self, field, edge, outside):
        fields = dict(budget=unit_budget(), p_user_max=1e6, p_relay_max=1e6, rate_min=0.0)
        assert getattr(UserConfig(**dict(fields, **{field: edge})), field) == edge
        with pytest.raises(ValueError, match=f"{field}: must be"):
            UserConfig(**dict(fields, **{field: outside}))


class TestAllocateBandwidth:
    def test_single_user_takes_everything(self):
        assert allocate_bandwidth([3.0], [0.0], 5e6) == pytest.approx([5e6])

    def test_two_user_closed_form(self):
        # B=5 MHz, SNRs (1,3), minimums 0.5 Mbps each
        bandwidth = allocate_bandwidth([1.0, 3.0], [0.5e6, 0.5e6], 5e6)
        assert bandwidth[0] == pytest.approx(1e6, rel=1e-9)
        assert bandwidth[1] == pytest.approx(4e6, rel=1e-9)
        rates = 0.5 * bandwidth * np.log2(1.0 + np.array([1.0, 3.0]))
        assert rates[0] == pytest.approx(0.5e6, rel=1e-9)
        assert rates[1] == pytest.approx(4e6, rel=1e-9)

    def test_infeasible_when_floors_exceed_budget(self):
        with pytest.raises(InfeasibleError) as err:
            allocate_bandwidth([1.0, 1.0], [1e6, 1e6], 1e6)
        assert err.value.reason == "INFEASIBLE_BANDWIDTH"

    def test_leader_need_dwarfing_the_others_is_infeasible(self):
        # The leader's 1.3e29 Hz need absorbs the other user's 6.8e4 Hz in the
        # summed needs, so its residual reads the whole 5e6 Hz and its row overshoots
        # the budget.  The row is infeasible, and no search lowers that residual.
        with pytest.raises(InfeasibleError) as err:
            allocate_bandwidth([30053.339015540496, 28017.88352606808], [1e30, 5e5], 5e6)
        assert err.value.reason == "INFEASIBLE_BANDWIDTH"

    def test_zero_snr_with_rate_floor(self):
        with pytest.raises(InfeasibleError):
            allocate_bandwidth([0.0, 1.0], [1e5, 1e5], 1e6)

    def test_tiny_leader_residual_is_the_largest_that_fits(self):
        # The leader's 2.2e-8 Hz residual has an ulp 2^-53 of the budget's: lowering
        # it one ulp at a time until the row fits would take about 4.5e15 steps.
        snrs = [330.7363794811689, 0.03077294051434192, 0.7621324210825122, 1.9140814635044372]
        rate_mins = [0.0, 2526054.585821947, 2994483.036712152, 14817386.939007709]
        total = 142071635.13105342
        assert leader_residual_is_tight(allocate_bandwidth(snrs, rate_mins, total), snrs, rate_mins, total)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        num_users=st.integers(2, 12),  # past numpy's 8-element pairwise block
        total=st.floats(1e3, 1e9),
        gap_exponent=st.floats(6.0, 16.0),
        # A leader floor this small vanishes from every partial sum of the slices.
        leader_rate=st.just(0.0) | st.floats(5e-324, 1e-300, allow_subnormal=True),
    )
    def test_near_exhausted_budget_leaves_the_leader_the_largest_residual(
        self, data, num_users, total, gap_exponent, leader_rate
    ):
        leader = data.draw(st.integers(0, num_users - 1))
        others = st.lists(st.floats(1e-3, 1e3), min_size=num_users - 1, max_size=num_users - 1)
        snrs, weights = np.array(data.draw(others)), np.array(data.draw(others))
        # The others' slices sum to total * (1 - 10^-gap_exponent).
        slices = total * (1.0 - 10.0**-gap_exponent) * weights / weights.sum()
        rate_mins = np.insert(0.5 * slices * (np.log1p(snrs) / np.log(2.0)), leader, leader_rate)
        snrs = np.insert(snrs, leader, 2.0 * snrs.max())
        try:
            bandwidth = allocate_bandwidth(snrs, rate_mins, total)
        except InfeasibleError as err:
            assert err.reason == "INFEASIBLE_BANDWIDTH"
            return
        closed_form = total - np.where(np.arange(num_users) == leader, 0.0, bandwidth).sum()
        # A closed-form residual that fits stays; one that overshoots drops to the largest that fits.
        assert bandwidth[leader] <= closed_form
        assert leader_residual_is_tight(bandwidth, snrs, rate_mins, total) or bandwidth[leader] == closed_form

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.integers(1, 7)
            snrs = 10.0 ** rng.uniform(-1, 5, size=k)
            rate_mins = rng.uniform(0.0, 1e6, size=k)
            total = 10.0 ** rng.uniform(5.5, 7.5)
            feasible, _, objective = lp_bandwidth(snrs, rate_mins, total)
            try:
                bandwidth = allocate_bandwidth(snrs, rate_mins, total)
            except InfeasibleError:
                assert not feasible
                continue
            assert feasible
            sum_rate = float(np.sum(0.5 * bandwidth * np.log2(1.0 + snrs)))
            assert sum_rate == pytest.approx(objective, rel=1e-6)

    def test_exact_inequalities(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = rng.integers(1, 6)
            snrs = 10.0 ** rng.uniform(-1, 5, size=k)
            rate_mins = rng.uniform(0.0, 5e5, size=k)
            total = 10.0 ** rng.uniform(6, 7)
            try:
                bandwidth = allocate_bandwidth(snrs, rate_mins, total)
            except InfeasibleError:
                continue
            assert bandwidth.sum() <= total
            rates = 0.5 * bandwidth * (np.log1p(snrs) / np.log(2.0))
            assert np.all(rates >= rate_mins)


class TestSchemeRegion:
    def test_large_powers_af(self):
        assert scheme_region(100.0, 100.0, 1.0, 1.0, 1.0) is Selection.AF

    def test_near_boundary_df(self):
        # just feasible with a small threshold margin, relay-heavy
        assert scheme_region(0.2, 0.9, 1.0, 1.0, 1.0) is Selection.DF

    def test_boundary_tie_is_af(self):
        # (C+1)a + ab = C^2 + C exactly: a=0.5, b=1, C=1 -> 1+0.5 vs 2? pick exact:
        # C=1 -> need 2a + ab = 2; with b=2, a=0.5: 1 + 1 = 2
        assert scheme_region(0.5, 2.0, 1.0, 1.0, 1.0) is Selection.AF

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            scheme_region(0.2, 0.2, 1.0, 1.0, 1.0)


class TestDeriveMinPowers:
    def test_guard_holds(self):
        budget = unit_budget(2.0, 3.0)
        pu, pr = derive_min_powers(budget, 1.0, 1.0, 1.0)
        assert pu * 2.0 + pr * 3.0 >= 1.0
        assert pu == pytest.approx(0.2, rel=1e-9)  # t = C_th / 5

    def test_returns_the_smallest_passing_scaling(self):
        # t = 5/12: the pair sums to exactly C_th, and no smaller scaling reaches it.
        pu, pr = derive_min_powers(unit_budget(1.0, 3.0), 0.3, 0.7, 1.0)
        assert (pu, pr) == (0.125, 0.2916666666666667)
        assert mean_snr_sum(pu, pr, 1.0, 3.0) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        gamma_ub=st.floats(1e-6, 1e9),
        gamma_rb=st.floats(1e-6, 1e9),
        p_relay_max=st.floats(1e-6, 1e2),
        log_fraction=st.floats(-9.0, 0.0),
    )
    def test_one_double_below_the_scaling_fails_the_guard(self, gamma_ub, gamma_rb, p_relay_max, log_fraction):
        # With p_user_max = 1 the derived user power is the scaling t itself.
        c_th = 10.0**log_fraction * mean_snr_sum(1.0, p_relay_max, gamma_ub, gamma_rb)
        t, pr = derive_min_powers(unit_budget(gamma_ub, gamma_rb), 1.0, p_relay_max, c_th)
        assert pr == t * p_relay_max and mean_snr_sum(t, pr, gamma_ub, gamma_rb) >= c_th
        lower = math.nextafter(t, 0.0)
        assert mean_snr_sum(lower, lower * p_relay_max, gamma_ub, gamma_rb) < c_th

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError) as err:
            derive_min_powers(unit_budget(), 0.3, 0.3, 1.0)
        assert err.value.reason == "INFEASIBLE_POWER"

    def test_exact_boundary_keeps_full_power(self):
        pu, pr = derive_min_powers(unit_budget(), 0.5, 0.5, 1.0)
        assert pu == pytest.approx(0.5)
        assert pr == pytest.approx(0.5)

    def test_non_finite_sum_at_max_powers_rejected(self):
        # A sum at maximum powers overflowed only for gains or caps beyond the domain.
        with pytest.raises(ValueError, match="alpha_ub: must be in"):
            derive_min_powers(unit_budget(1e300, 1.0), 1e10, 1.0, 1.0)
        with pytest.raises(ValueError, match="p_user_max: must be in"):
            derive_min_powers(unit_budget(1e10, 1.0), 1e10, 1.0, 1.0)
        # The domain's largest sum, 2e36, with its smallest C_th: the corner is
        # about 7e-43 of the caps, down to 7e-73 W, a normal double.
        edge = LinkBudget(alpha_ur=1.0, alpha_ub=1e10, alpha_rb=1e10, sigma2_relay=1.0, sigma2_bs=1e-20)
        for p_user_max, p_relay_max in ((1e6, 1e6), (1e-30, 1e6)):
            pu, pr = derive_min_powers(edge, p_user_max, p_relay_max, snr_threshold(1e-6))
            assert 6.9e-73 <= pu and 6.9e-73 <= pr
            assert mean_snr_sum(pu, pr, edge.gamma_bar_ub, edge.gamma_bar_rb) >= snr_threshold(1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        gamma_ub=st.floats(1e-6, 1e9),
        gamma_rb=st.floats(1e-6, 1e9),
        p_user_max=st.floats(1e-6, 1e2),
        p_relay_max=st.floats(1e-6, 1e2),
        log_fraction=st.floats(-9.0, 0.0),
        gamma_ur=st.floats(0.0, 1e9),
    )
    def test_min_powers_pass_the_optimizer_guard(
        self, gamma_ub, gamma_rb, p_user_max, p_relay_max, log_fraction, gamma_ur
    ):
        budget = unit_budget(gamma_ub, gamma_rb)
        c_th = 10.0**log_fraction * mean_snr_sum(p_user_max, p_relay_max, gamma_ub, gamma_rb)
        pu, pr = derive_min_powers(budget, p_user_max, p_relay_max, c_th)
        assert 0.0 <= pu <= p_user_max
        assert 0.0 <= pr <= p_relay_max
        cfg = UserConfig(budget, p_user_max, p_relay_max, pu, pr)
        optimize_powers(cfg, SnrTriple.from_budget(budget, gamma_ur), c_th)  # no INFEASIBLE_POWER


class TestOptimizePowers:
    def test_proposition1_df_corner(self):
        # a box whose max corner is still DF: a=0.6, b=0.6, C=1 gives
        # 2*0.6 + 0.36 = 1.56 < 2 -> the whole box is DF territory
        cfg = UserConfig(unit_budget(), 0.6, 0.6, 0.5, 0.5, 0.0)
        s = SnrTriple(gamma_ub=1.0, gamma_ur=0.9, gamma_rb=1.0)
        pu, pr, scheme = optimize_powers(cfg, s, 1.0)
        assert (pu, pr) == (0.6, 0.6)
        assert scheme is Selection.DF

    def test_af_everywhere_when_min_corner_af(self):
        # min corner already AF (ratio < 1) -> max powers with AF
        cfg = UserConfig(unit_budget(4.0, 4.0), 2.0, 2.0, 1.0, 1.0, 0.0)
        s = SnrTriple(gamma_ub=4.0, gamma_ur=3.0, gamma_rb=4.0)
        pu, pr, scheme = optimize_powers(cfg, s, 1.0)
        assert (pu, pr) == (2.0, 2.0)
        assert scheme is Selection.AF

    def test_guard_violation_raises(self):
        cfg = UserConfig(unit_budget(), 1.0, 1.0, 0.1, 0.1, 0.0)
        with pytest.raises(InfeasibleError):
            optimize_powers(cfg, SnrTriple(1.0, 1.0, 1.0), 1.0)

    def test_lemma1_whole_box_df(self):
        # DF at the max corner implies DF at 1e3 random interior points
        rng = np.random.default_rng(5)
        found = False
        for _ in range(200):
            cfg, s, c_th = random_power_instance(rng)
            if scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb) is not Selection.DF:
                continue
            found = True
            pu = rng.uniform(cfg.p_user_min, cfg.p_user_max, size=1000)
            pr = rng.uniform(cfg.p_relay_min, cfg.p_relay_max, size=1000)
            for u, r in zip(pu, pr):
                assert scheme_region(u, r, c_th, s.gamma_ub, s.gamma_rb) is Selection.DF
            break
        assert found

    def test_lemma2_whole_box_af(self):
        # strictly-AF min corner implies AF at 1e3 random interior points
        rng = np.random.default_rng(6)
        found = False
        for _ in range(400):
            cfg, s, c_th = random_power_instance(rng)
            a = cfg.p_user_min * s.gamma_ub
            b = cfg.p_relay_min * s.gamma_rb
            if (c_th + 1.0) * a + a * b <= c_th * c_th + c_th:  # not strictly AF
                continue
            found = True
            pu = rng.uniform(cfg.p_user_min, cfg.p_user_max, size=1000)
            pr = rng.uniform(cfg.p_relay_min, cfg.p_relay_max, size=1000)
            for u, r in zip(pu, pr):
                assert scheme_region(u, r, c_th, s.gamma_ub, s.gamma_rb) is Selection.AF
            break
        assert found

    def test_beats_selection_aware_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg, s, c_th = random_power_instance(rng)
            pu, pr, scheme = optimize_powers(cfg, s, c_th)
            achieved = snr_af(pu, pr, s) if scheme is Selection.AF else snr_df(pu, pr, s)
            oracle = selection_aware_grid(cfg, s, c_th, steps=400)
            assert achieved >= (1.0 - 1e-3) * oracle

    def test_proposition1_cases_return_corner_exactly(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(5000):
            if checked >= 30:
                break
            cfg, s, c_th = random_power_instance(rng)
            if scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb) is Selection.DF:
                pu, pr, scheme = optimize_powers(cfg, s, c_th)
                assert (pu, pr) == (cfg.p_user_max, cfg.p_relay_max)
                assert scheme is Selection.DF
                checked += 1
        assert checked >= 30


class TestDfSubproblem:
    def test_slack_constraint_hits_corner(self):
        # DF region covers the whole box -> objective maximized at max corner
        cfg = UserConfig(unit_budget(0.4, 0.4), 1.0, 1.0, 0.9, 0.9, 0.0)
        s = SnrTriple(gamma_ub=0.4, gamma_ur=10.0, gamma_rb=0.4)
        c_th = 1.0  # (C+1)*0.4 + 0.16 = 0.96 < 2 even at max
        pu, pr, value = solve_df_subproblem(cfg, s, c_th)
        assert pu == pytest.approx(1.0)
        assert pr == pytest.approx(1.0)
        assert value == pytest.approx(snr_df(1.0, 1.0, s), rel=1e-12)

    def test_tiny_gamma_ur_pins_decode_branch(self):
        cfg = UserConfig(unit_budget(0.9, 0.9), 1.0, 1.0, 0.6, 0.6, 0.0)
        s = SnrTriple(gamma_ub=0.9, gamma_ur=1e-4, gamma_rb=0.9)
        pu, pr, value = solve_df_subproblem(cfg, s, 1.0)
        # objective = gamma_ur * p_user: p_user should be at its largest
        # feasible value given the DF-region cap
        assert value == pytest.approx(pu * 1e-4, rel=1e-12)
        assert pu >= 0.6

    def test_precondition_enforced(self):
        cfg = UserConfig(unit_budget(5.0, 5.0), 1.0, 1.0, 0.9, 0.9, 0.0)
        s = SnrTriple(gamma_ub=5.0, gamma_ur=1.0, gamma_rb=5.0)
        with pytest.raises(ValueError):
            solve_df_subproblem(cfg, s, 1.0)  # min corner deep in AF region

    @pytest.mark.parametrize("gamma_ub, gamma_rb", [(1.0, 0.0), (0.0, 1.0)])
    def test_zero_mean_snr_rejected(self, gamma_ub, gamma_rb):
        # The domain keeps every mean SNR at 1e-30 or more; optimize_powers asks the same.
        cfg = UserConfig(unit_budget(), 1.0, 0.5, 0.2, 0.1, 0.0)
        with pytest.raises(ValueError, match="positive mean UB/RB SNRs"):
            solve_df_subproblem(cfg, SnrTriple(gamma_ub, 2.0, gamma_rb), 1.0)

    def test_closed_form_not_below_sweep(self):
        for cfg, s, c_th in split_box_instances(seed=21, count=400):
            result = solve_df_subproblem(cfg, s, c_th)
            assert_df_point(cfg, s, c_th, result)
            assert result[2] >= df_subproblem_sweep(cfg, s, c_th) * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "box, triple, expected",
        [
            # fixed relay power: the user power sits at the DF-region cap 2/2.5
            ((0.2, 1.0, 0.5, 0.5), (1.0, 2.0, 1.0), (0.8, 0.5, 1.3)),
            # gamma_ur < gamma_ub: flat up to the kink r* = 0.5, least relay power wins
            ((0.1, 0.8, 0.1, 2.0), (1.0, 0.5, 1.0), (0.8, 0.1, 0.4)),
            # kink r* = 0 left of the box: optimum at the branch crossing t = 1 + sqrt(5)
            ((0.1, 1.0, 0.2, 3.0), (1.0, 3.0, 1.0),
             (2.0 / (1.0 + 5.0 ** 0.5), 5.0 ** 0.5 - 1.0, 6.0 / (1.0 + 5.0 ** 0.5))),
            # kink r* = 2 right of the box: user power stays at its maximum
            ((0.1, 0.5, 0.1, 1.0), (1.0, 4.0, 1.0), (0.5, 1.0, 1.5)),
        ],
        ids=["fixed_relay_power", "gamma_ur_below_gamma_ub", "kink_left", "kink_right"],
    )
    def test_explicit_cases(self, box, triple, expected):
        pu_min, pu_max, pr_min, pr_max = box
        cfg = UserConfig(unit_budget(), pu_max, pr_max, pu_min, pr_min, 0.0)
        s = SnrTriple(*triple)
        result = solve_df_subproblem(cfg, s, 1.0)
        assert result == pytest.approx(expected, rel=1e-12)
        assert_df_point(cfg, s, 1.0, result)
        assert result[2] >= df_subproblem_sweep(cfg, s, 1.0) * (1.0 - 1e-12)
        assert result[2] >= df_subproblem_grid(cfg, s, 1.0, steps=400)

    def test_matches_fine_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg, s, c_th = random_df_instance(rng)
            _, _, value = solve_df_subproblem(cfg, s, c_th)
            oracle = df_subproblem_grid(cfg, s, c_th, steps=2000)
            assert value == pytest.approx(oracle, rel=1e-4)


class TestSolveSystem:
    def _user(self, rate_min=0.5e6):
        budget = LinkBudget(
            alpha_ur=1e-9, alpha_ub=1e-11, alpha_rb=1e-9, sigma2_relay=1e-15, sigma2_bs=1e-15
        )
        pu_min, pr_min = derive_min_powers(budget, 0.1, 0.1, 2.0 ** 0.2 - 1.0)
        return UserConfig(budget, 0.1, 0.1, pu_min, pr_min, rate_min)

    def test_single_user_gets_all_bandwidth(self):
        user = self._user(rate_min=0.0)
        result = solve_system([user], 5e6, 0.1, [[2.5e6]])
        assert result.bandwidth[0, 0] == pytest.approx(5e6)
        assert result.scheme[0, 0] is Selection.AF
        expected = 0.5 * 5e6 * np.log2(1.0 + result.snr[0, 0])
        assert result.sum_rate[0] == pytest.approx(expected, rel=1e-12)

    def test_constraints_hold_exactly(self):
        users = [self._user() for _ in range(4)]
        result = solve_system(users, 5e6, 0.1, [[1e5, 2e5, 1.5e5, 3e5]])
        assert result.errors == (None,)
        assert result.bandwidth.sum() <= 5e6
        assert np.all(result.rate[0] >= np.array([u.rate_min for u in users]))
        assert np.all(result.p_user <= 0.1)
        assert np.all(result.p_relay <= 0.1)
        assert np.all(result.bandwidth >= 0.0)
        assert np.argmax(result.bandwidth[0]) == np.argmax(result.snr[0])  # the leader takes the residual

    def test_rate_floor_too_high_is_infeasible(self):
        user = self._user(rate_min=1e9)
        result = solve_system([user, user], 5e6, 0.1, [[1e5, 1e5]])
        (err,) = result.errors
        assert isinstance(err, InfeasibleError) and err.reason == "INFEASIBLE_BANDWIDTH"
        assert result.sum_rate[0] == 0.0 and not result.bandwidth.any()

    def test_df_user_power_at_its_floor_stays_in_the_box(self):
        # The best relay power is r_top = relay_at_cap(p_user_min), and
        # user_cap(r_top) rounds one ulp below p_user_min.
        floor = 0.26531714729012135
        users = [
            UserConfig(unit_budget(1.7287949293378078, 38.14990669030426), 1.0, 1.0, floor, floor, 0.0),
            UserConfig(unit_budget(3.6801750787330008, 3.6801750787330008), 1.0, 1.0, 0.5, 0.5, 0.0),
        ]
        result = solve_system(users, 1e6, 1.11328125, [[155.19169627, 0.0]])
        assert result.errors == (None,) and result.scheme[0, 0] is Selection.DF
        assert result.p_user[0, 0] == floor
        assert scalar_solve_system(users, 1e6, 1.11328125, np.array([155.19169627, 0.0])).p_user[0] == floor

    def test_deterministic(self):
        users = [self._user() for _ in range(3)]
        gammas = [[1e5, 2e5, 3e5]]
        a = solve_system(users, 5e6, 0.1, gammas)
        b = solve_system(users, 5e6, 0.1, gammas)
        assert np.array_equal(a.bandwidth, b.bandwidth)
        assert np.array_equal(a.sum_rate, b.sum_rate)

    def test_user_count_mismatch(self):
        with pytest.raises(ValueError):
            solve_system([self._user()], 5e6, 0.1, [[1e5, 1e5]])


def gamma_ur_fan(s, count=9):
    """``s`` with ``gamma_ur`` spread over four decades around its value, as an array over trials."""
    return SnrTriple(s.gamma_ub, s.gamma_ur * np.logspace(-2.0, 2.0, count), s.gamma_rb)


class TestArraysOverTrials:
    """An array of ``gamma_ur`` gives, element by element, the per-trial scalar solver's bits."""

    def test_df_subproblem_matches_scalar_oracle(self):
        for cfg, s, c_th in split_box_instances(seed=31, count=60):
            fan = gamma_ur_fan(s)
            users, relays, values = solve_df_subproblem(cfg, fan, c_th)
            for i, gamma_ur in enumerate(fan.gamma_ur):
                one = SnrTriple(s.gamma_ub, float(gamma_ur), s.gamma_rb)
                expected = scalar_solve_df_subproblem(cfg, one, c_th)
                assert (users[i], relays[i], values[i]) == expected

    def test_optimize_powers_matches_scalar_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            cfg, s, c_th = random_power_instance(rng)
            fan = gamma_ur_fan(s)
            p_user, p_relay, schemes = optimize_powers(cfg, fan, c_th)
            assert p_user.shape == p_relay.shape == schemes.shape == fan.gamma_ur.shape
            for i, gamma_ur in enumerate(fan.gamma_ur):
                one = SnrTriple(s.gamma_ub, float(gamma_ur), s.gamma_rb)
                expected = scalar_optimize_powers(cfg, one, c_th)
                assert (p_user[i], p_relay[i], schemes[i]) == expected

    def test_float_in_float_out(self):
        cfg, s, c_th = next(split_box_instances(seed=33, count=1))
        assert all(type(x) is float for x in solve_df_subproblem(cfg, s, c_th))
        p_user, p_relay, scheme = optimize_powers(cfg, s, c_th)
        assert type(p_user) is float and type(p_relay) is float and isinstance(scheme, Selection)

    def test_nan_crossing_never_wins(self):
        # The crossing was inf/inf (NaN) only where 4*(C_th**2 + C_th) overflows, past C_th ~ 4e153,
        # which the domain rejects.  At its largest C_th (xi = 32) every candidate is a number.
        with pytest.raises(ValueError, match="xi: must be in"):
            snr_threshold(256.0)
        c_th = snr_threshold(32.0)
        gub, grb = 0.5 * c_th, 1.5 * c_th
        cfg = UserConfig(unit_budget(), 1.0, 1.0, 0.5, 0.8 / 1.5, 0.0)
        fan = SnrTriple(gub, 1.5 * c_th * np.logspace(-0.5, 0.05, 9), grb)
        users, relays, values = solve_df_subproblem(cfg, fan, c_th)
        p_user, p_relay, schemes = optimize_powers(cfg, fan, c_th)
        assert not np.isnan(values).any()
        for i, gamma_ur in enumerate(fan.gamma_ur):
            one = SnrTriple(gub, float(gamma_ur), grb)
            assert (users[i], relays[i], values[i]) == scalar_solve_df_subproblem(cfg, one, c_th)
            assert (p_user[i], p_relay[i], schemes[i]) == scalar_optimize_powers(cfg, one, c_th)
        assert (schemes == Selection.DF).sum() == 3

    def test_overflowing_bound_is_outside_the_domain(self):
        # C_th**2 overflows from C_th ~ 1.34e154 on (xi near 256 bits), which snr_threshold rejects;
        # at the domain's largest C_th the DF subproblem solves with a finite bound.
        with pytest.raises(ValueError, match="xi: must be in"):
            snr_threshold(300.0)
        c_th = snr_threshold(32.0)
        cfg = UserConfig(unit_budget(), 1.0, 1.0, 0.5, 0.5, 0.0)
        p_user, p_relay, value = solve_df_subproblem(cfg, SnrTriple(c_th, c_th, c_th), c_th)
        assert all(math.isfinite(x) for x in (p_user, p_relay, value))
        assert mean_snr_sum(p_user, p_relay, c_th, c_th) >= c_th

    def test_negative_gamma_ur_in_array_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SnrTriple(1.0, np.array([1.0, -1e-9]), 1.0)


class TestUsersAsColumns:
    """A sequence of users is one call whose every column equals that user's own call, bit for bit."""

    WHOLE_DF = UserConfig(unit_budget(), 0.6, 0.6, 0.5, 0.5, 0.0)  # max corner 1.56 <= 2: DF
    WHOLE_AF = UserConfig(unit_budget(4.0, 4.0), 2.0, 2.0, 1.0, 1.0, 0.0)  # min corner strictly AF
    SPLIT = UserConfig(unit_budget(), 1.0, 1.0, 0.5, 0.5, 0.0)  # min corner DF, max corner AF
    MISSES = UserConfig(unit_budget(), 1.0, 1.0, 0.1, 0.1, 0.0)  # minimum corner sums to 0.2 < C_th = 1
    MISSES_MORE = UserConfig(unit_budget(), 1.0, 1.0, 0.05, 0.05, 0.0)

    @staticmethod
    def columns(users, trials=33):
        gur = np.outer(np.logspace(-2.0, 2.0, trials), np.arange(1.0, len(users) + 1.0))
        return SnrTriple.from_budget([u.budget for u in users], gur)

    @staticmethod
    def own(user, s, k):
        return SnrTriple.from_budget(user.budget, s.gamma_ur[..., k])

    def test_optimize_powers_columns_are_per_user_calls(self):
        users = [self.WHOLE_DF, self.WHOLE_AF, self.SPLIT]
        s = self.columns(users)
        p_user, p_relay, schemes = optimize_powers(users, s, 1.0)
        assert p_user.shape == p_relay.shape == schemes.shape == s.gamma_ur.shape
        for k, user in enumerate(users):
            own_user, own_relay, own_schemes = optimize_powers(user, self.own(user, s, k), 1.0)
            assert p_user[:, k].tobytes() == own_user.tobytes()
            assert p_relay[:, k].tobytes() == own_relay.tobytes()
            assert list(schemes[:, k]) == list(own_schemes)
        # Every case of the power problem is present: DF on the whole box, AF on the whole box, and a split.
        assert set(schemes[:, 0]) == {Selection.DF} and set(schemes[:, 1]) == {Selection.AF}
        assert set(schemes[:, 2]) == {Selection.AF, Selection.DF}

    def test_df_subproblem_columns_are_per_user_calls(self):
        users = [self.SPLIT, self.WHOLE_DF]
        s = self.columns(users)
        columns = solve_df_subproblem(users, s, 1.0)
        for k, user in enumerate(users):
            for got, want in zip(columns, solve_df_subproblem(user, self.own(user, s, k), 1.0)):
                assert got[:, k].tobytes() == want.tobytes()

    def test_one_trial_of_k_users(self):
        users = [self.WHOLE_DF, self.WHOLE_AF, self.SPLIT]
        s = SnrTriple.from_budget([u.budget for u in users], np.array([0.5, 2.0, 1.0]))
        p_user, p_relay, schemes = optimize_powers(users, s, 1.0)
        for k, user in enumerate(users):
            assert (p_user[k], p_relay[k], schemes[k]) == optimize_powers(user, self.own(user, s, k), 1.0)

    def test_first_user_that_misses_the_threshold_raises_its_own_error(self):
        users = [self.WHOLE_DF, self.MISSES, self.WHOLE_AF, self.SPLIT, self.MISSES_MORE]
        s = self.columns(users)
        with pytest.raises(InfeasibleError) as own:
            optimize_powers(self.MISSES, self.own(self.MISSES, s, 1), 1.0)
        with pytest.raises(InfeasibleError) as columns:
            optimize_powers(users, s, 1.0)
        assert str(columns.value) == str(own.value)
        assert str(own.value) == "INFEASIBLE_POWER: minimum powers give mean SNR sum 0.2 < threshold 1"

    def test_gamma_ur_must_end_in_the_user_axis(self):
        users = [self.WHOLE_DF, self.SPLIT]
        with pytest.raises(ValueError, match="shaped"):
            optimize_powers(users, SnrTriple.from_budget([u.budget for u in users], np.ones((2, 3))), 1.0)


@st.composite
def trial_systems(draw):
    """(users, total_bw, xi, (T, K) gains): boxes from derived, raised or zero minimum powers."""
    xi = draw(st.floats(0.05, 2.0))
    c_th = snr_threshold(xi)
    count = draw(st.integers(1, 5))
    users = []
    for _ in range(count):
        pu_max, pr_max = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
        a_max, b_max = (c_th * 10.0 ** draw(st.floats(-1.3, 2.0)) for _ in range(2))
        assume(a_max + b_max >= c_th)
        budget = unit_budget(a_max / pu_max, b_max / pr_max)
        pu_min, pr_min = derive_min_powers(budget, pu_max, pr_max, c_th)
        floor = draw(st.sampled_from(["derived"] * 5 + ["raised"] * 6 + ["zero"]))
        if floor == "raised":
            grow = draw(st.floats(1.0, 3.0))
            pu_min, pr_min = min(pu_min * grow, pu_max), min(pr_min * grow, pr_max)
        elif floor == "zero":  # guard fails: INFEASIBLE_POWER in every trial
            pu_min = pr_min = 0.0
        rate_min = draw(st.sampled_from([0.0, 1e5, 5e5, 2e6]))
        users.append(UserConfig(budget, pu_max, pr_max, pu_min, pr_min, rate_min))
    trials = draw(st.integers(1, 6))
    gain = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    scales = [c_th / u.p_user_max for u in users]
    gammas = np.array([[scale * draw(gain) for scale in scales] for _ in range(trials)])
    return users, draw(st.sampled_from([1e6, 5e6, 2e7])), xi, gammas


class TestSolveSystemTrials:
    @settings(max_examples=150, deadline=None)
    @given(system=trial_systems())
    def test_rows_are_k_calls_and_meet_constraints_exactly(self, system):
        # Each row is its own one-row call, bit for bit, and the per-trial scalar oracle's solution.
        users, total_bw, xi, gammas = system
        result = solve_system(users, total_bw, xi, gammas)
        assert isinstance(result, TrialAllocations)
        assert result.sum_rate.shape == (len(gammas),) and len(result.errors) == len(gammas)
        rate_mins = np.array([u.rate_min for u in users])
        for t, row in enumerate(gammas):
            single = solve_system(users, total_bw, xi, row[None, :])
            for field in ("p_user", "p_relay", "bandwidth", "snr", "rate", "sum_rate"):
                assert getattr(result, field)[t].tobytes() == getattr(single, field)[0].tobytes(), field
            assert tuple(result.scheme[t]) == tuple(single.scheme[0])
            err = result.errors[t]
            if err is not None:
                assert str(single.errors[0]) == str(err)
                assert result.sum_rate[t] == 0.0 and not result.rate[t].any()
                with pytest.raises(InfeasibleError, match=err.reason):
                    scalar_solve_system(users, total_bw, xi, row)
                continue
            assert single.errors == (None,)
            assert result.sum_rate[t] == sum(result.rate[t].tolist())
            oracle = scalar_solve_system(users, total_bw, xi, row)
            for field in ("p_user", "p_relay", "bandwidth", "snr", "rate"):
                assert getattr(result, field)[t].tobytes() == getattr(oracle, field).tobytes(), field
            assert tuple(result.scheme[t]) == oracle.scheme
            # Exact inequalities, as the allocator promises.
            assert result.bandwidth[t].sum() <= total_bw
            assert np.all(0.5 * result.bandwidth[t] * (np.log1p(result.snr[t]) / np.log(2.0)) >= rate_mins)
            for u, pu, pr in zip(users, result.p_user[t], result.p_relay[t]):
                assert u.p_user_min <= pu <= u.p_user_max
                assert u.p_relay_min <= pr <= u.p_relay_max

    def test_power_infeasible_marks_every_trial(self):
        fits = UserConfig(unit_budget(), 1.0, 1.0, 0.5, 0.5, 0.0)
        fails = UserConfig(unit_budget(), 1.0, 1.0, 0.1, 0.1, 0.0)  # guard 0.2 < C_th = 1
        result = solve_system([fits, fails], 1e6, 0.5, np.ones((3, 2)))
        assert [err.reason for err in result.errors] == ["INFEASIBLE_POWER"] * 3
        assert not result.sum_rate.any() and not result.bandwidth.any()
        # The user solved before the failing box keeps no values either.
        assert np.isnan(result.p_user).all() and np.isnan(result.p_relay).all() and np.isnan(result.snr).all()
        assert all(scheme is None for scheme in result.scheme.flat)

    # The last is one realization of both users, which must come as a (1, 2) row.
    @pytest.mark.parametrize("gains", [np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), np.ones(2)])
    def test_gain_shape_must_match_users(self, gains):
        user = UserConfig(unit_budget(), 1.0, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="per user"):
            solve_system([user, user], 1e6, 0.1, gains)
