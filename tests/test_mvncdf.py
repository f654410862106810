import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import _reordered_cholesky, equicorrelated_mvn_cdf, mvn_cdf_per_shift
from scipy.special import ndtr

from fluidrelay import (
    CorrelationMatrix,
    MvnProblem,
    PortGrid,
    build_correlation,
    mvn_cdf,
    std_normal_quantile,
)
from fluidrelay import mvncdf
from fluidrelay.mvncdf import _NUM_SHIFTS, _pivoted_cholesky, _round_shifts, _truncated_mean, pivot_problems
from fluidrelay.seeding import substream


def bivariate_orthant(rho: float) -> float:
    """P(Z1<=0, Z2<=0) for correlated standard normals (arcsine law)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_table_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_symmetry(self):
        assert std_normal_quantile(0.025) == pytest.approx(-std_normal_quantile(0.975), abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, u):
        with pytest.raises(ValueError):
            std_normal_quantile(u)

    def test_cdf_roundtrip(self):
        for u in np.geomspace(1e-6, 0.5, 30):
            assert ndtr(std_normal_quantile(u)) == pytest.approx(u, abs=1e-8)
            assert ndtr(std_normal_quantile(1.0 - u)) == pytest.approx(1.0 - u, abs=1e-8)

    def test_tail_accuracy(self):
        # inverse of the CDF to 1e-9 absolute over the full clamp window
        for u in (1e-12, 1e-9, 0.1, 0.9, 1.0 - 1e-9):
            z = std_normal_quantile(u)
            assert ndtr(z) == pytest.approx(u, abs=1e-9)


class TestMvnCdf:
    def test_one_dimensional_median(self):
        est = mvn_cdf(MvnProblem(corr=CorrelationMatrix.identity(1), upper_limits=np.array([0.0])))
        assert est.value == 0.5
        assert est.est_error == 0.0
        assert est.converged

    def test_independent_quarter(self):
        est = mvn_cdf(MvnProblem(corr=CorrelationMatrix.identity(2), upper_limits=np.zeros(2)))
        assert est.value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_bivariate_orthant(self, pair_corr, rho):
        est = mvn_cdf(MvnProblem(corr=pair_corr(rho), upper_limits=np.zeros(2), seed=17))
        assert est.value == pytest.approx(bivariate_orthant(rho), abs=1e-3)
        assert est.converged

    def test_diagonal_is_product_of_marginals(self):
        limits = np.array([-1.0, 0.3, 1.7, 0.0])
        est = mvn_cdf(MvnProblem(corr=CorrelationMatrix.identity(4), upper_limits=limits, seed=3))
        assert est.value == pytest.approx(float(np.prod(ndtr(limits))), abs=1e-4)

    def test_monotone_in_limits(self, default_grid_corr):
        base = np.full(16, 0.8)
        lifted = base.copy()
        lifted[5] = 1.4
        lo = mvn_cdf(MvnProblem(corr=default_grid_corr, upper_limits=base, seed=11))
        hi = mvn_cdf(MvnProblem(corr=default_grid_corr, upper_limits=lifted, seed=11))
        assert hi.value >= lo.value - (lo.est_error + hi.est_error)

    def test_permutation_consistent(self, default_grid_corr):
        rng = np.random.default_rng(2)
        limits = rng.uniform(-0.5, 1.5, size=16)
        perm = rng.permutation(16)
        entries = np.asarray(default_grid_corr.entries)
        permuted = CorrelationMatrix(
            dim=16,
            entries=entries[np.ix_(perm, perm)],
            factor=np.linalg.cholesky(entries[np.ix_(perm, perm)]),
        )
        a = mvn_cdf(MvnProblem(corr=default_grid_corr, upper_limits=limits, seed=5))
        b = mvn_cdf(MvnProblem(corr=permuted, upper_limits=limits[perm], seed=6))
        assert a.value == pytest.approx(b.value, abs=a.est_error + b.est_error)

    def test_infinite_limits(self, pair_corr):
        corr = pair_corr(0.4)
        all_inf = mvn_cdf(MvnProblem(corr=corr, upper_limits=np.array([np.inf, np.inf])))
        assert all_inf.value == 1.0
        neg = mvn_cdf(MvnProblem(corr=corr, upper_limits=np.array([-np.inf, 0.0])))
        assert neg.value == 0.0
        dropped = mvn_cdf(MvnProblem(corr=corr, upper_limits=np.array([0.3, np.inf])))
        assert dropped.value == pytest.approx(float(ndtr(0.3)), abs=1e-12)

    def test_dimension_mismatch(self, pair_corr):
        with pytest.raises(ValueError):
            MvnProblem(corr=pair_corr(0.1), upper_limits=np.zeros(3))

    def test_max_samples_below_one_per_shift_rejected(self, pair_corr):
        with pytest.raises(ValueError, match="at least 12"):
            MvnProblem(corr=pair_corr(0.1), upper_limits=np.zeros(2), max_samples=11)
        est = mvn_cdf(MvnProblem(corr=pair_corr(0.1), upper_limits=np.zeros(2), max_samples=12))
        assert est.samples_used == 12
        assert math.isfinite(est.est_error)

    def test_target_error_validation(self, pair_corr):
        with pytest.raises(ValueError):
            MvnProblem(corr=pair_corr(0.1), upper_limits=np.zeros(2), target_abs_error=0.5)

    def test_deterministic_per_seed(self, default_grid_corr):
        problem = MvnProblem(corr=default_grid_corr, upper_limits=np.full(16, 1.0), seed=99)
        assert mvn_cdf(problem).value == mvn_cdf(problem).value

    def test_seed_changes_randomization_not_answer(self, default_grid_corr):
        limits = np.full(16, 1.1)
        a = mvn_cdf(MvnProblem(corr=default_grid_corr, upper_limits=limits, seed=1))
        b = mvn_cdf(MvnProblem(corr=default_grid_corr, upper_limits=limits, seed=2))
        assert a.value != b.value  # different randomization
        assert a.value == pytest.approx(b.value, abs=a.est_error + b.est_error)

    def test_budget_cap_reports_unconverged(self, default_grid_corr):
        est = mvn_cdf(
            MvnProblem(
                corr=default_grid_corr,
                upper_limits=np.full(16, 1.1),
                target_abs_error=1e-6,
                max_samples=20_000,
                seed=4,
            )
        )
        assert not est.converged
        assert est.samples_used <= 20_000
        assert est.est_error > 1e-6

    @pytest.mark.parametrize("far", [-1e10, -1e200])
    def test_far_tail_finite_limit(self, far):
        corr = build_correlation(PortGrid(2, 2, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mvn_cdf(MvnProblem(corr=corr, upper_limits=[far, 0.0, 0.0, 0.0]))
        assert est.value == 0.0
        assert math.isfinite(est.est_error)


@pytest.mark.parametrize(
    "cb, expected",
    [
        # -phi(cb)/Phi(cb) to 60 digits (mpmath), rounded to double
        (-3.0, -3.2830986549304364),
        (-40.0, -40.02496884720726),
        (-999.0, -999.001000998995),
        (-1001.0, -1001.000998999005),
        (-1e10, -1e10),
        (-1e200, -1e200),
    ],
)
def test_truncated_mean_far_tail(cb, expected):
    assert _truncated_mean(cb) == pytest.approx(expected, rel=1e-10)


def _random_corr(rng, dim: int) -> CorrelationMatrix:
    a = rng.standard_normal((dim, dim + 2))
    cov = a @ a.T
    scale = np.sqrt(np.diag(cov))
    matrix = cov / np.outer(scale, scale)
    matrix = 0.5 * (matrix + matrix.T)
    np.fill_diagonal(matrix, 1.0)
    return CorrelationMatrix(dim=dim, entries=matrix, factor=np.linalg.cholesky(matrix))


def _assert_same_estimate(problem):
    got = mvn_cdf(problem)
    ref = mvn_cdf_per_shift(problem)
    assert abs(got.value - ref.value) <= 1e-12 + 1e-12 * abs(ref.value)
    assert got.est_error == pytest.approx(ref.est_error, rel=1e-8)
    assert got.samples_used == ref.samples_used
    assert got.converged == ref.converged
    return got


class TestBlockedKernel:
    """The blocked kernel reproduces the one-shift-at-a-time engine."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9, 12, 16])
    def test_random_correlation(self, dim):
        rng = np.random.default_rng(100 + dim)
        problem = MvnProblem(
            corr=_random_corr(rng, dim),
            upper_limits=rng.uniform(-1.5, 1.5, dim),
            target_abs_error=2e-4,
            seed=dim,
        )
        _assert_same_estimate(problem)

    def test_deep_tail(self, default_grid_corr):
        limits = np.random.default_rng(7).normal(-7.0, 0.2, 16)
        problem = MvnProblem(corr=default_grid_corr, upper_limits=limits, seed=3)
        got = _assert_same_estimate(problem)
        assert got.value == pytest.approx(mvn_cdf_per_shift(problem).value, rel=1e-10)

    def test_round_split_across_blocks(self, default_grid_corr):
        # Rounds 1 and 2 (1024 and 2048 points per shift) exceed one block.
        problem = MvnProblem(
            corr=default_grid_corr, upper_limits=np.full(16, 0.8), target_abs_error=2e-4, seed=5
        )
        assert _assert_same_estimate(problem).samples_used == 12 * (512 + 1024 + 2048)

    def test_budget_truncated_last_round(self, default_grid_corr):
        # Rounds of 512..16384 points use 387072 samples; the last round
        # gets (500000 - 387072) // 12 = 9410 points per shift.
        problem = MvnProblem(
            corr=default_grid_corr,
            upper_limits=np.full(16, 1.1),
            target_abs_error=1e-6,
            max_samples=500_000,
            seed=4,
        )
        got = _assert_same_estimate(problem)
        assert got.samples_used == 387_072 + 12 * 9410
        assert not got.converged


def _unconverged_problem(corr, **budget):
    return MvnProblem(corr=corr, upper_limits=np.full(16, 1.1), target_abs_error=1e-6, seed=4, **budget)


class TestLatticeSlices:
    """Rounds above ``_BLOCK_ROWS`` points run in lattice slices with the bits
    of one pass over the whole round."""

    @pytest.mark.parametrize(
        "budget, value, est_error",
        [
            # Rounds of 512..16384 points, then 9410 (the truncated-round problem).
            ({"max_samples": 500_000}, "0x1.54a23e2de9db1p-3", "0x1.4c1bb03ddcb77p-13"),
            # The default budget: rounds of 512..65536 points, then 36106.
            ({}, "0x1.54a2ce956a20fp-3", "0x1.30bc0c4a2cea6p-14"),
        ],
    )
    def test_bits_pinned(self, default_grid_corr, budget, value, est_error):
        # Recorded from the engine that integrated each round's lattice in one pass.
        got = mvn_cdf(_unconverged_problem(default_grid_corr, **budget))
        assert (got.value.hex(), got.est_error.hex()) == (value, est_error)
        assert not got.converged

    def test_memory_is_bounded_by_the_block(self, default_grid_corr):
        # Whole-round frac and points arrays peaked at 17.3e6 bytes here;
        # 8192-point slices at 2.8e6.
        tracemalloc.start()
        try:
            mvn_cdf(_unconverged_problem(default_grid_corr))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestLatticeBuilds:
    def test_one_slice_lattice_built_once_per_round(self, default_grid_corr, monkeypatch):
        builds = []
        build = mvncdf._lattice_frac

        def counting(generator, lo, hi, buf):
            builds.append((lo, hi))
            return build(generator, lo, hi, buf)

        monkeypatch.setattr(mvncdf, "_lattice_frac", counting)
        got = mvn_cdf(_unconverged_problem(default_grid_corr, max_samples=500_000))
        # Rounds of 512..8192 points fit one slice: one build each.  The
        # 16384-point round takes one shift per block and two slices a
        # block; the truncated 9410-point round likewise.
        one_slice = [(0, 512 << r) for r in range(5)]
        assert builds == one_slice + [(0, 8192), (8192, 16384)] * 12 + [(0, 8192), (8192, 9410)] * 12
        assert got.samples_used == 387_072 + 12 * 9410


def _best_gain_limits(corr: CorrelationMatrix, xs) -> np.ndarray:
    marginals = np.clip(-np.expm1(-np.asarray(xs)), 1e-12, 1.0 - 1e-12)
    return np.repeat([[std_normal_quantile(m)] for m in marginals], corr.dim, axis=1)


class TestStackedPivot:
    """One stacked pivot reproduces the per-problem pivot bit for bit."""

    @pytest.mark.parametrize(
        "grid", [PortGrid(4, 4, 1.0, 1.0), PortGrid(6, 6, 2.0, 2.0), PortGrid(2, 3, 1.0, 1.0)]
    )
    def test_bits_match_per_problem_pivot(self, grid):
        corr = build_correlation(grid)
        limits = _best_gain_limits(corr, np.geomspace(1e-4, 20.0, 40))
        stack = np.broadcast_to(corr.entries, (len(limits), corr.dim, corr.dim))
        factors, permuted = _pivoted_cholesky(stack, limits)
        for factor, lim, row in zip(factors, permuted, limits):
            ref_factor, ref_limits = _reordered_cholesky(corr.entries, row)
            assert np.array_equal(factor, ref_factor)
            assert np.array_equal(lim, ref_limits)
        # The thresholds do not all share one pivot order.
        assert len({factor[:, 0].tobytes() for factor in factors}) > 1

    def test_stack_of_one_and_mixed_matrices(self, default_grid_corr):
        rng = np.random.default_rng(3)
        corrs = [default_grid_corr, _random_corr(rng, 16), _random_corr(rng, 16)]
        limits = rng.uniform(-2.0, 2.0, (3, 16))
        factors, permuted = _pivoted_cholesky(np.stack([c.entries for c in corrs]), limits)
        for corr, factor, lim, row in zip(corrs, factors, permuted, limits):
            one_factor, one_limits = _pivoted_cholesky(corr.entries[None], row[None])
            ref_factor, ref_limits = _reordered_cholesky(corr.entries, row)
            assert np.array_equal(one_factor[0], ref_factor) and np.array_equal(factor, ref_factor)
            assert np.array_equal(one_limits[0], ref_limits) and np.array_equal(lim, ref_limits)

    def test_pivoted_problems_give_the_same_estimates(self, default_grid_corr):
        problems = [
            MvnProblem(corr=default_grid_corr, upper_limits=row, target_abs_error=1e-3, seed=9)
            for row in _best_gain_limits(default_grid_corr, [0.05, 0.8, 2.5])
        ]
        plain = [mvn_cdf(problem) for problem in problems]
        pivot_problems(problems)
        assert all(problem._pivot is not None for problem in problems)
        assert [mvn_cdf(problem) for problem in problems] == plain

    @pytest.mark.parametrize("limits", [[0.3, np.inf], [0.3, -np.inf], [0.3]])
    def test_pivot_problems_needs_finite_limits_in_two_dimensions(self, pair_corr, limits):
        corr = pair_corr(0.4) if len(limits) == 2 else CorrelationMatrix.identity(1)
        with pytest.raises(ValueError, match="finite limits in dimension >= 2"):
            pivot_problems([MvnProblem(corr=corr, upper_limits=limits)])


class TestExactReference:
    """The engine against the exact equicorrelated CDF, from the body down to F ~ 3e-8."""

    def test_oracle_matches_closed_forms(self):
        # n = 1 is the marginal; rho -> 0 factorizes.
        assert equicorrelated_mvn_cdf(1, 0.5, 0.7) == pytest.approx(float(ndtr(0.7)), rel=1e-9)
        assert equicorrelated_mvn_cdf(4, 1e-12, -1.0) == pytest.approx(float(ndtr(-1.0)) ** 4, rel=1e-9)
        # Orthant of a pair: 1/4 + asin(rho) / (2 pi).
        assert equicorrelated_mvn_cdf(2, 0.5, 0.0) == pytest.approx(bivariate_orthant(0.5), rel=1e-9)

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 1.0])
    def test_error_within_estimate(self, n, rho, z):
        matrix = np.full((n, n), rho)
        np.fill_diagonal(matrix, 1.0)
        problem = MvnProblem(
            corr=CorrelationMatrix(dim=n, entries=matrix, factor=np.linalg.cholesky(matrix)),
            upper_limits=np.full(n, z),
            target_abs_error=1e-3, max_samples=100_000, seed=7,
        )
        est = mvn_cdf(problem)
        assert abs(est.value - equicorrelated_mvn_cdf(n, rho, z)) <= est.est_error


class TestRoundShifts:
    def test_cached_shifts_equal_fresh_draws_and_are_read_only(self):
        shifts = _round_shifts(17, 2, 5)
        fresh = np.array([substream(17, 2, s).random(5) for s in range(_NUM_SHIFTS)])
        assert np.array_equal(shifts, fresh)
        assert _round_shifts(17, 2, 5) is shifts
        assert not shifts.flags.writeable
        with pytest.raises(ValueError):
            shifts[0, 0] = 0.5
        assert _round_shifts.cache_info().maxsize is not None

    def test_key_parts_select_distinct_shifts(self):
        base = _round_shifts(17, 2, 5)
        assert not np.array_equal(base, _round_shifts(18, 2, 5))
        assert not np.array_equal(base, _round_shifts(17, 3, 5))
        assert _round_shifts(17, 2, 6).shape == (_NUM_SHIFTS, 6)
