import math
import warnings

import numpy as np
import pytest
from oracles import mvn_cdf_per_shift
from scipy.special import ndtr

from fluidrelay import (
    CorrelationMatrix,
    MvnProblem,
    PortGrid,
    build_correlation,
    mvn_cdf,
    std_normal_quantile,
)
from fluidrelay.mvncdf import _truncated_mean


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
