import numpy as np
import pytest

from cstrack.kde import BANDWIDTH_FLOOR, BoundedDensity, silverman_bandwidth


class TestBandwidth:
    def test_identical_samples_floor(self):
        assert silverman_bandwidth(np.full(50, 0.5)) == BANDWIDTH_FLOOR

    def test_silverman_formula(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.2, 0.8, 200)
        h = silverman_bandwidth(samples)
        std = samples.std(ddof=1)
        iqr = np.subtract(*np.percentile(samples, [75, 25]))
        expected = 0.9 * min(std, iqr / 1.34) * 200 ** (-0.2)
        assert h == pytest.approx(expected, rel=1e-12)


class TestDensity:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            BoundedDensity([0.5])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BoundedDensity([0.5, 1.5])

    def test_spike_symmetric_about_half(self):
        dens = BoundedDensity([0.5] * 10)
        xs = np.linspace(0.0, 1.0, 101)
        vals = dens(xs)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)
        assert vals[50] == vals.max()

    def test_uniform_grid_wide_bandwidth_near_flat(self):
        # Quadrature oracle: density of near-uniform samples with a wide
        # kernel stays within 10% of 1 everywhere.
        samples = np.linspace(0.0, 1.0, 101)
        dens = BoundedDensity(samples, bandwidth=0.25)
        xs = np.linspace(0.0, 1.0, 501)
        vals = dens(xs)
        assert np.abs(vals - 1.0).max() < 0.1

    def test_bimodal_modes_near_cluster_centers(self):
        samples = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
        dens = BoundedDensity(samples, bandwidth=0.05)
        xs = np.linspace(0.0, 1.0, 2001)
        vals = dens(xs)
        # Mode-finding oracle: local maxima of the sampled density.
        interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        modes = xs[1:-1][interior]
        assert len(modes) == 2
        assert abs(modes[0] - 0.1) < 0.05
        assert abs(modes[1] - 0.9) < 0.05

    def test_integral_one_narrow_and_wide(self):
        rng = np.random.default_rng(1)
        for bandwidth in (None, 0.01, 0.2, 0.45):
            samples = rng.uniform(0.0, 1.0, 64)
            dens = BoundedDensity(samples, bandwidth=bandwidth)
            assert dens.integral() == pytest.approx(1.0, abs=1e-3)

    def test_integral_one_for_edge_hugging_samples(self):
        dens = BoundedDensity(np.array([0.0, 0.0, 1.0, 0.01, 0.99]), bandwidth=0.3)
        assert dens.integral() == pytest.approx(1.0, abs=1e-3)

    def test_scalar_input_returns_float(self):
        dens = BoundedDensity([0.3, 0.7])
        assert isinstance(dens(0.5), float)
