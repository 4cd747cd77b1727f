"""Tests for the energy and subspace-dimension reference detectors.

Oracles: exact arithmetic on constructed vector sets (Pythagorean energy
doubling, known covariance ranks for one/two/three sources), a direct
full-dimension covariance eigendecomposition cross-check for the Gram
shortcut, and a closed-form mean for the noisy energy statistic.
"""

import numpy as np
import pytest

from spoofdet.baselines import (
    SdConfig,
    ed_statistic,
    sd_eigenvalues,
    sd_statistic,
)
from spoofdet.errors import ConfigurationError, ShapeError


def random_unit(dimension, seed):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=dimension) + 1j * gen.normal(size=dimension)
    return v / np.linalg.norm(v)


def row_energies(rows):
    """Squared norm of each row: the energy samples of a set of vectors."""
    return np.sum(np.abs(np.asarray(rows)) ** 2, axis=1)


class TestEnergyDetector:
    def test_constant_samples(self):
        assert ed_statistic(np.ones(10)) == 1.0

    def test_orthogonal_attack_doubles_energy(self):
        h = random_unit(32, 0) * 1.7
        g = random_unit(32, 1) * np.linalg.norm(h)
        g = g - h * (np.vdot(h, g) / np.vdot(h, h))
        g = g / np.linalg.norm(g) * np.linalg.norm(h)
        quiet = row_energies([h])
        attacked = row_energies([h + g])
        ratio = ed_statistic(attacked) / ed_statistic(quiet)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_noisy_mean_matches_closed_form(self):
        gen = np.random.default_rng(5)
        dimension, n_samples, variance = 64, 4000, 0.25
        h = random_unit(dimension, 2) * 2.0
        noise = (
            gen.normal(size=(n_samples, dimension))
            + 1j * gen.normal(size=(n_samples, dimension))
        ) * np.sqrt(variance / 2)
        rows = h[None, :] + noise
        samples = row_energies(rows)
        statistic = ed_statistic(samples)
        expected = float(np.linalg.norm(h) ** 2) + dimension * variance
        spread = float(np.std(samples)) / np.sqrt(n_samples)
        assert abs(statistic - expected) < 3 * spread

    def test_scale_covariance(self):
        samples = np.array([0.5, 2.0, 1.25])
        base = ed_statistic(samples)
        assert ed_statistic(3.0 * samples) == pytest.approx(
            3.0 * base, rel=1e-12
        )

    def test_empty_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            ed_statistic(np.zeros(0))


class TestSubspaceDimension:
    def test_rank_one_static_source(self):
        h = random_unit(24, 3)
        gen = np.random.default_rng(4)
        amplitudes = gen.normal(size=8) + 1j * gen.normal(size=8)
        rows = np.outer(amplitudes, h)
        assert sd_statistic(rows) == 1

    def test_rank_two_attacker(self):
        h = random_unit(24, 5)
        g = random_unit(24, 6)
        gen = np.random.default_rng(7)
        a = gen.normal(size=8) + 1j * gen.normal(size=8)
        b = gen.normal(size=8) + 1j * gen.normal(size=8)
        rows = np.outer(a, h) + np.outer(b, g)
        assert sd_statistic(rows) == 2

    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_rank_matches_source_count(self, n_sources):
        gen = np.random.default_rng(10 + n_sources)
        dimension, window = 32, 12
        rows = np.zeros((window, dimension), dtype=np.complex128)
        for s in range(n_sources):
            direction = random_unit(dimension, 100 + s)
            weights = gen.normal(size=window) + 1j * gen.normal(size=window)
            rows += np.outer(weights, direction)
        assert sd_statistic(rows) == n_sources

    def test_permutation_invariance(self):
        gen = np.random.default_rng(11)
        rows = gen.normal(size=(9, 20)) + 1j * gen.normal(size=(9, 20))
        base = sd_statistic(rows)
        permuted = rows[gen.permutation(9)]
        assert sd_statistic(permuted) == base
        assert sd_eigenvalues(permuted) == pytest.approx(
            sd_eigenvalues(rows), rel=1e-9
        )

    def test_scale_invariance_of_dimension(self):
        gen = np.random.default_rng(12)
        h = random_unit(16, 13)
        rows = np.outer(gen.normal(size=6) + 1j * gen.normal(size=6), h)
        rows = rows + 0.01 * (
            gen.normal(size=(6, 16)) + 1j * gen.normal(size=(6, 16))
        )
        assert sd_statistic(7.5 * rows) == sd_statistic(rows)

    def test_gram_spectrum_matches_direct_covariance(self):
        gen = np.random.default_rng(14)
        window, dimension = 4, 6
        rows = gen.normal(size=(window, dimension)) + 1j * gen.normal(
            size=(window, dimension)
        )
        gram_eigs = sd_eigenvalues(rows)
        covariance = np.zeros((dimension, dimension), dtype=np.complex128)
        for l in range(window):
            covariance += np.outer(rows[l], rows[l].conj())
        covariance /= window
        direct = np.linalg.eigvalsh(covariance)[::-1]
        assert gram_eigs == pytest.approx(direct[:window], abs=1e-10)

    def test_window_of_one_rejected(self):
        with pytest.raises(ConfigurationError):
            sd_statistic(np.ones((1, 8), dtype=np.complex128))

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeError):
            sd_statistic(np.ones(8, dtype=np.complex128))

    def test_zero_window_dimension_zero(self):
        assert sd_statistic(np.zeros((4, 8), dtype=np.complex128)) == 0

    def test_noisy_window_runs(self):
        gen = np.random.default_rng(15)
        h = random_unit(32, 16)
        rows = np.outer(
            gen.normal(size=10) + 1j * gen.normal(size=10), h
        ) + 2.0 * (
            gen.normal(size=(10, 32)) + 1j * gen.normal(size=(10, 32))
        )
        dimension = sd_statistic(rows)
        assert isinstance(dimension, int)
        assert 0 <= dimension <= 10

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SdConfig(noise_floor_multiple=0.0)
        with pytest.raises(ConfigurationError):
            SdConfig(relative_floor=-1e-9)
        with pytest.raises(ConfigurationError):
            SdConfig(samples_per_subframe=0)
        assert SdConfig().noise_floor_multiple == 3.0
