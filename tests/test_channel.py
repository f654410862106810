import numpy as np
import pytest
from scipy.stats import kstest

from fluidrelay import CorrelationMatrix, PortGrid, build_correlation, sample_gains
from fluidrelay.seeding import substream

from oracles import gains_by_division, j0_series, port_coords, port_index, spatial_correlation


class TestPortGrid:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PortGrid(0, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            PortGrid(4, 4, -0.5, 1.0)

    def test_num_ports(self):
        assert PortGrid(4, 4, 1.0, 1.0).num_ports == 16
        assert PortGrid(1, 1, 0.0, 0.0).num_ports == 1


class TestPortIndex:
    def test_first_port(self):
        assert port_index(1, 1, PortGrid(3, 5, 1.0, 1.0)) == 1

    def test_row_major_mapping(self):
        assert port_index(2, 3, PortGrid(4, 4, 1.0, 1.0)) == 7

    def test_last_port_equals_total(self):
        grid = PortGrid(4, 4, 1.0, 1.0)
        assert port_index(4, 4, grid) == grid.num_ports

    def test_out_of_range(self):
        grid = PortGrid(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            port_index(0, 1, grid)
        with pytest.raises(ValueError):
            port_index(1, 3, grid)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (3, 5), (4, 4)])
    def test_bijection_roundtrip(self, n1, n2):
        grid = PortGrid(n1, n2, 0.7, 1.3)
        seen = set()
        for a in range(1, n1 + 1):
            for b in range(1, n2 + 1):
                idx = port_index(a, b, grid)
                assert port_coords(idx, grid) == (a, b)
                seen.add(idx)
        assert seen == set(range(1, grid.num_ports + 1))


class TestSpatialCorrelation:
    def test_same_port_is_one(self):
        grid = PortGrid(4, 4, 1.0, 1.0)
        assert spatial_correlation((2, 3), (2, 3), grid) == 1.0

    def test_full_period_zero(self):
        # offset 1 wavelength -> argument 2*pi -> sin(2*pi)/(2*pi) = 0
        grid = PortGrid(2, 1, 1.0, 0.0)
        assert spatial_correlation((1, 1), (2, 1), grid) == pytest.approx(0.0, abs=1e-15)

    def test_third_of_aperture(self):
        # n2=4, w2=1: offset 1/3, argument 2*pi/3; checked against the
        # series expansion of sin(x)/x.
        grid = PortGrid(1, 4, 0.0, 1.0)
        value = spatial_correlation((1, 1), (1, 2), grid)
        assert value == pytest.approx(0.41350, abs=5e-6)
        assert value == pytest.approx(j0_series(2.0 * np.pi / 3.0), abs=1e-12)

    def test_single_port_dimension_has_no_extent(self):
        grid = PortGrid(1, 3, 5.0, 1.0)  # w1 irrelevant when n1 == 1
        assert spatial_correlation((1, 1), (1, 3), grid) == spatial_correlation(
            (1, 1), (1, 3), PortGrid(1, 3, 0.0, 1.0)
        )


class TestBuildCorrelation:
    def test_single_port(self):
        corr = build_correlation(PortGrid(1, 1, 0.0, 0.0))
        assert corr.dim == 1
        assert corr.entries[0, 0] == 1.0

    def test_two_ports_full_period_identity(self):
        corr = build_correlation(PortGrid(2, 1, 1.0, 0.0))
        assert np.allclose(corr.entries, np.eye(2), atol=1e-12)

    def test_default_grid_spot_entry(self, default_grid_corr):
        # ports 1 and 2 differ by one step along dimension 2
        assert default_grid_corr.entries[0, 1] == pytest.approx(0.41350, abs=5e-6)

    def test_matches_pairwise_function(self, default_grid_corr):
        grid = PortGrid(4, 4, 1.0, 1.0)
        for a in ((1, 1), (2, 3), (4, 4)):
            for b in ((1, 2), (3, 1), (4, 4)):
                i = port_index(*a, grid) - 1
                j = port_index(*b, grid) - 1
                assert default_grid_corr.entries[i, j] == pytest.approx(
                    spatial_correlation(a, b, grid), abs=1e-12
                )

    def test_invariants(self, default_grid_corr):
        entries = default_grid_corr.entries
        assert np.all(entries.diagonal() == 1.0)
        assert np.array_equal(entries, entries.T)
        assert np.max(np.abs(entries)) <= 1.0 + 1e-12

    def test_factor_reproduces_matrix(self, default_grid_corr):
        reproduced = default_grid_corr.factor @ default_grid_corr.factor.T
        assert np.max(np.abs(reproduced - default_grid_corr.entries)) <= 1e-10

    def test_dense_grid_survives_regularization(self):
        # many ports on a small aperture: numerically semidefinite kernel
        corr = build_correlation(PortGrid(8, 8, 0.5, 0.5))
        assert np.max(np.abs(corr.factor @ corr.factor.T - corr.entries)) <= 1e-10


class TestCorrelationMatrixValidation:
    def test_rejects_bad_diagonal(self):
        bad = np.array([[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix(dim=2, entries=bad, factor=np.linalg.cholesky(bad))

    def test_rejects_asymmetry(self):
        bad = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(dim=2, entries=bad, factor=np.eye(2))

    def test_rejects_mismatched_factor(self):
        good = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="factor"):
            CorrelationMatrix(dim=2, entries=good, factor=np.eye(2))

    def test_entries_immutable(self, default_grid_corr):
        with pytest.raises(ValueError):
            default_grid_corr.entries[0, 1] = 0.0

    def test_hashes_and_compares_by_identity(self, default_grid_corr):
        twin = CorrelationMatrix(
            dim=default_grid_corr.dim, entries=default_grid_corr.entries, factor=default_grid_corr.factor
        )
        assert default_grid_corr == default_grid_corr
        assert twin != default_grid_corr
        assert hash(default_grid_corr) == hash(default_grid_corr)
        assert len({default_grid_corr, twin, default_grid_corr}) == 2


class TestSampling:
    def test_unit_mean_single_port(self):
        corr = CorrelationMatrix.identity(1)
        gains = sample_gains(corr, substream(7), 1_000_000)
        power = np.abs(gains[:, 0]) ** 2
        assert power.mean() == pytest.approx(1.0, abs=0.01)

    def test_best_gain_distribution_independent_ports(self):
        # P(max of 4 iid Exp(1) <= 1) = (1 - e^-1)^4
        corr = CorrelationMatrix.identity(4)
        gains = sample_gains(corr, substream(9), 1_000_000)
        best = np.max(np.abs(gains) ** 2, axis=1)
        expected = (1.0 - np.exp(-1.0)) ** 4
        assert np.mean(best <= 1.0) == pytest.approx(expected, abs=0.01)

    def test_deterministic_for_fixed_stream(self, default_grid_corr):
        first = sample_gains(default_grid_corr, substream(123, 4, 5), 3)
        second = sample_gains(default_grid_corr, substream(123, 4, 5), 3)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4), (6, 6)])
    @pytest.mark.parametrize("count", [1, 2, 4097])
    def test_scaled_view_matches_complex_division(self, shape, count):
        # In-place scaling by 1/sqrt(2) read as complex gives the bits of
        # building the complex gains and dividing them by sqrt(2).
        corr = build_correlation(PortGrid(*shape, 1.0, 1.0))
        expected = gains_by_division(corr, substream(17), count)
        assert np.array_equal(sample_gains(corr, substream(17), count), expected)

    def test_first_port_draw_stable_under_grid_growth(self):
        # the same stream yields the same port-1 gain for any port count
        small = build_correlation(PortGrid(1, 1, 0.0, 0.0))
        large = build_correlation(PortGrid(4, 4, 1.0, 1.0))
        g_small = sample_gains(small, substream(55), 1)[0]
        g_large = sample_gains(large, substream(55), 1)[0]
        assert g_small[0] == g_large[0]

    def test_marginals_are_exponential(self):
        corr = build_correlation(PortGrid(2, 2, 1.0, 1.0))
        gains = sample_gains(corr, substream(31), 1_000_000)
        for port in range(corr.dim):
            stat = kstest(np.abs(gains[:, port]) ** 2, "expon").statistic
            assert stat < 0.01

    def test_real_part_correlation_reproduces_matrix(self):
        corr = build_correlation(PortGrid(2, 2, 1.0, 1.0))
        gains = sample_gains(corr, substream(77), 1_000_000)
        empirical = np.corrcoef(gains.real.T)
        assert np.max(np.abs(empirical - corr.entries)) < 0.02

    def test_best_gain_invariant_under_consistent_permutation(self, default_grid_corr):
        power = np.abs(sample_gains(default_grid_corr, substream(5), 1)[0]) ** 2
        perm = substream(6).permutation(default_grid_corr.dim)
        assert float(power[perm].max()) == pytest.approx(float(power.max()), rel=0, abs=0)
