"""Signal-chain oracles: exact impulse-channel receives, transform
unitarity, noiseless least-squares exactness, noise-level bookkeeping, and
linearity in the attack amplitude."""

import numpy as np
import pytest

from spoofdet.channel import vectorize_taps
from spoofdet.errors import (
    ConfigurationError,
    PilotDivisionError,
    ShapeError,
)
from spoofdet.link import (
    frequency_reference,
    ls_estimate,
    simulate_subframe,
    to_frequency_domain,
    transmit_receive_td,
)
from spoofdet.zc import build_pool, cyclic_shift, generate_zc

N = 13
TAU = 3


def impulse_channel(tap_index, num_antennas=2, num_taps=TAU):
    taps = np.zeros((num_taps, num_antennas), dtype=complex)
    taps[tap_index, :] = 1.0
    return taps


def random_channel(rng, num_antennas=2, num_taps=TAU):
    return rng.normal(size=(num_taps, num_antennas)) + 1j * rng.normal(
        size=(num_taps, num_antennas)
    )


def estimate_energies(estimate):
    """Squared norm of each sample's stacked estimate."""
    return np.sum(np.abs(estimate.fd) ** 2, axis=1)


def one_user_pool(shift_size=5):
    return build_pool(generate_zc(N, 1), shift_size=shift_size, num_users=1)


def receive(pool, channels, attacker=None, noise_variance=0.0, n_samples=1,
            rng=0):
    return transmit_receive_td(
        pool, channels, attacker, noise_variance, n_samples, rng
    )


class TestTransmitReceive:
    def test_identity_channel_returns_scaled_pilot(self):
        pool = one_user_pool()
        y = receive(pool, [2.0 * impulse_channel(0)])
        expected = 2.0 * pool[0]
        for m in range(2):
            np.testing.assert_allclose(y[0, m], expected, atol=1e-12)

    def test_one_tap_delay_is_circular_shift(self):
        pool = one_user_pool()
        y = receive(pool, [impulse_channel(1)])
        expected = cyclic_shift(pool[0], -1)
        np.testing.assert_allclose(y[0, 0], expected, atol=1e-12)

    def test_attack_with_identical_channel_doubles_receive(self):
        pool = one_user_pool()
        h = impulse_channel(1)
        quiet = receive(pool, [h])
        attacked = receive(pool, [h], attacker=h)
        np.testing.assert_allclose(attacked, 2.0 * quiet, atol=1e-12)

    def test_two_users_superpose(self):
        pool = build_pool(generate_zc(N, 1), shift_size=5, num_users=2)
        rng = np.random.default_rng(3)
        h0, h1 = random_channel(rng), random_channel(rng)
        zero = np.zeros((TAU, 2), dtype=complex)
        both = receive(pool, [h0, h1])
        only0 = receive(pool, [h0, zero])
        only1 = receive(pool, [zero, h1])
        np.testing.assert_allclose(both, only0 + only1, atol=1e-10)

    def test_noise_variance_realized(self):
        zero_channel = np.zeros((TAU, 2), dtype=complex)
        y = receive(one_user_pool(), [zero_channel], noise_variance=0.5,
                    n_samples=4000, rng=11)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.5, rel=0.03)

    def test_pilots_interfering_within_the_delay_window_rejected(self):
        # Two pilots 3 samples apart correlate at lag 3: a delay spread of
        # 3 taps keeps the victim's estimate exact, one of 4 would not.
        pool = build_pool(generate_zc(N, 1), shift_size=3, num_users=2)
        rng = np.random.default_rng(5)
        channels = [random_channel(rng, num_taps=3) for _ in range(2)]
        est = simulate_subframe(pool, channels, None, 0.0, 1, 0)
        np.testing.assert_allclose(
            est.tap[0], vectorize_taps(channels[0]), atol=1e-12
        )
        short = impulse_channel(0, num_taps=1)
        long = impulse_channel(0, num_taps=4)
        with pytest.raises(ConfigurationError, match="correlate"):
            receive(pool, [long, short])
        with pytest.raises(ConfigurationError, match="correlate"):
            receive(pool, [short, short], attacker=long)

    def test_channel_count_must_match_pool_size(self):
        h = impulse_channel(0)
        with pytest.raises(ConfigurationError):
            receive(one_user_pool(), [h, h])
        two_users = build_pool(generate_zc(N, 1), shift_size=5, num_users=2)
        with pytest.raises(ConfigurationError):
            receive(two_users, [h])


class TestFrequencyDomain:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(
            to_frequency_domain(np.zeros((1, 2, N))), np.zeros((1, 2, N))
        )

    def test_impulse_has_flat_spectrum(self):
        x = np.zeros(N, dtype=complex)
        x[0] = 1.0
        spectrum = to_frequency_domain(x)
        np.testing.assert_allclose(np.abs(spectrum), 1 / np.sqrt(N), atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, N)) + 1j * rng.normal(size=(3, 2, N))
        assert np.linalg.norm(to_frequency_domain(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-10
        )


class TestLsEstimate:
    def run_chain(self, channels, attacker, pool, n_samples=1):
        return simulate_subframe(pool, channels, attacker, 0.0, n_samples, 0)

    def test_noiseless_estimate_is_exact(self):
        pool = one_user_pool()
        rng = np.random.default_rng(5)
        h = random_channel(rng)
        est = self.run_chain([h], None, pool, n_samples=3)
        reference = frequency_reference(h, N)
        for l in range(3):
            np.testing.assert_allclose(est.fd[l], reference, atol=1e-10)
            np.testing.assert_allclose(est.tap[l], vectorize_taps(h), atol=1e-10)

    def test_attack_bias_adds_exactly(self):
        pool = one_user_pool()
        rng = np.random.default_rng(6)
        h, g = random_channel(rng), random_channel(rng)
        est = self.run_chain([h], g, pool)
        expected = frequency_reference(h, N) + frequency_reference(g, N)
        np.testing.assert_allclose(est.fd[0], expected, atol=1e-10)

    def test_partial_amplitude_attack(self):
        pool = one_user_pool()
        rng = np.random.default_rng(8)
        h, g = random_channel(rng), random_channel(rng)
        est = self.run_chain([h], 0.5 * g, pool)
        expected = frequency_reference(h, N) + 0.5 * frequency_reference(
            g, N
        )
        np.testing.assert_allclose(est.fd[0], expected, atol=1e-10)

    def test_linearity_in_attack_power(self):
        # Quadrupling the attacker's power doubles its amplitude, and with
        # it the attacker's contribution to the estimate.
        pool = one_user_pool()
        rng = np.random.default_rng(9)
        h, g = random_channel(rng), random_channel(rng)
        base = self.run_chain([h], None, pool).fd[0]
        one = self.run_chain([h], g, pool).fd[0]
        four = self.run_chain([h], 2.0 * g, pool).fd[0]
        np.testing.assert_allclose(four - base, 2.0 * (one - base), atol=1e-10)

    def test_sample_mean_converges_to_reference(self):
        sigma2, n_samples = 1e-3, 10_000
        rng = np.random.default_rng(10)
        h = random_channel(rng)
        est = simulate_subframe(
            one_user_pool(), [h], None, sigma2, n_samples, rng=12
        )
        reference = frequency_reference(h, N)
        tol = 5.0 * np.sqrt(N * sigma2 / n_samples)
        assert np.max(np.abs(est.fd.mean(axis=0) - reference)) < tol

    def test_hypothesis_separation_display(self):
        pool = one_user_pool()
        rng = np.random.default_rng(14)
        h, g = random_channel(rng), random_channel(rng)
        rho = 0.8
        est = self.run_chain([h], rho * g, pool)
        s = estimate_energies(est)[0]
        h_bar = frequency_reference(h, N)
        g_bar = frequency_reference(g, N)
        quad = (
            np.linalg.norm(h_bar) ** 2
            + 2 * rho * np.real(np.vdot(h_bar, g_bar))
            + rho**2 * np.linalg.norm(g_bar) ** 2
        )
        assert s == pytest.approx(quad, rel=1e-10)
        quiet = estimate_energies(self.run_chain([h], None, pool))[0]
        assert s > quiet

    def test_num_taps_out_of_range_rejected(self):
        pool = one_user_pool()
        y = np.zeros((1, 2, N), dtype=complex)
        with pytest.raises(ConfigurationError):
            ls_estimate(y, pool[0], num_taps=0)

    def test_receive_without_a_sample_axis_rejected(self):
        # A receive is (L, M, N): one (M, N) subframe is not promoted.
        pool = one_user_pool()
        with pytest.raises(ShapeError):
            ls_estimate(np.zeros((2, N), dtype=complex), pool[0], TAU)

    def test_pilot_with_a_zero_bin_rejected(self):
        # The DFT of [1, 1, -1, -1] / 2 is zero at bins 0 and 2, so the
        # division by the pilot spectrum is undefined there.
        pilot = np.array([1.0, 1.0, -1.0, -1.0]) / 2
        with pytest.raises(PilotDivisionError, match="zero bin"):
            ls_estimate(np.ones((1, 2, 4), dtype=complex), pilot, 1)


class TestObserve:
    def test_noiseless_samples_constant(self):
        rng = np.random.default_rng(20)
        h = random_channel(rng)
        est = simulate_subframe(one_user_pool(), [h], None, 0.0, 5, rng=0)
        expected = np.linalg.norm(frequency_reference(h, N)) ** 2
        np.testing.assert_allclose(estimate_energies(est), expected, rtol=1e-10)


class TestNoiseBookkeeping:
    def test_chain_realizes_target_fd_variance(self):
        # Least squares scales the receive noise by N in the frequency
        # domain; the tap form undoes that.
        sigma2 = 0.7 / N**2
        rng = np.random.default_rng(31)
        h = random_channel(rng)
        est = simulate_subframe(one_user_pool(), [h], None, sigma2, 4000, rng=32)
        noise = est.fd - frequency_reference(h, N)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(
            N * sigma2, rel=0.05
        )
        tap_noise = est.tap - vectorize_taps(h)
        assert np.mean(np.abs(tap_noise) ** 2) == pytest.approx(
            sigma2, rel=0.05
        )

    def test_chain_deterministic_given_seed(self):
        rng = np.random.default_rng(40)
        h = random_channel(rng)
        a, b = (
            simulate_subframe(one_user_pool(), [h], None, 0.3, 8, rng=41)
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.fd, b.fd)
        np.testing.assert_array_equal(a.tap, b.tap)
