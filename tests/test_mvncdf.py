import math

import numpy as np
import pytest
from scipy.special import ndtr

from fluidrelay import CorrelationMatrix, MvnProblem, mvn_cdf, std_normal_quantile


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
