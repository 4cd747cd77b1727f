"""Signal-chain oracles: exact impulse-channel receives, transform
unitarity, noiseless least-squares exactness, noise-level bookkeeping, and
linearity in the attack amplitude."""

import numpy as np
import pytest

from spoofdet.errors import ConfigurationError, ShapeError
from spoofdet.link import (
    AttackProfile,
    LinkConfig,
    fd_noise_variance,
    frequency_reference,
    ls_estimate,
    simulate_subframe,
    tap_reference,
    td_equivalent_noise_variance,
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


def one_user_setup(noise_variance=0.0, n_samples=1, victim_power=1.0):
    pool = build_pool(generate_zc(N, 1), shift_size=5, num_users=2)
    cfg = LinkConfig(
        n_subcarriers=N,
        n_samples=n_samples,
        num_users=1,
        victim_index=0,
        victim_power=victim_power,
        noise_variance=noise_variance,
    )
    return pool, cfg


class TestTransmitReceive:
    def test_identity_channel_returns_scaled_pilot(self):
        pool, cfg = one_user_setup(victim_power=4.0)
        y = transmit_receive_td(
            pool, [impulse_channel(0)], AttackProfile.inactive(), cfg, rng=0
        )
        expected = 2.0 * pool.sequences[0]
        for m in range(2):
            np.testing.assert_allclose(y[0, m], expected, atol=1e-12)

    def test_one_tap_delay_is_circular_shift(self):
        pool, cfg = one_user_setup()
        y = transmit_receive_td(
            pool, [impulse_channel(1)], AttackProfile.inactive(), cfg, rng=0
        )
        expected = cyclic_shift(pool.sequences[0], -1)
        np.testing.assert_allclose(y[0, 0], expected, atol=1e-12)

    def test_attack_with_identical_channel_doubles_receive(self):
        pool, cfg = one_user_setup()
        h = impulse_channel(1)
        quiet = transmit_receive_td(
            pool, [h], AttackProfile.inactive(), cfg, rng=0
        )
        attacked = transmit_receive_td(
            pool,
            [h],
            AttackProfile(active=True, rho=1.0, channel=h),
            cfg,
            rng=0,
        )
        np.testing.assert_allclose(attacked, 2.0 * quiet, atol=1e-12)

    def test_two_users_superpose(self):
        pool = build_pool(generate_zc(N, 1), shift_size=5, num_users=2)
        cfg = LinkConfig(
            n_subcarriers=N, n_samples=1, num_users=2, victim_index=0
        )
        rng = np.random.default_rng(3)
        h0, h1 = random_channel(rng), random_channel(rng)
        zero = np.zeros((TAU, 2), dtype=complex)
        both = transmit_receive_td(
            pool, [h0, h1], AttackProfile.inactive(), cfg, rng=0
        )
        only0 = transmit_receive_td(
            pool, [h0, zero], AttackProfile.inactive(), cfg, rng=0
        )
        only1 = transmit_receive_td(
            pool, [zero, h1], AttackProfile.inactive(), cfg, rng=0
        )
        np.testing.assert_allclose(both, only0 + only1, atol=1e-10)

    def test_noise_variance_realized(self):
        pool, cfg = one_user_setup(noise_variance=0.5, n_samples=4000)
        zero_channel = np.zeros((TAU, 2), dtype=complex)
        y = transmit_receive_td(
            pool, [zero_channel], AttackProfile.inactive(), cfg, rng=11
        )
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.5, rel=0.03)

    def test_delay_spread_must_stay_below_shift_size(self):
        pool = build_pool(generate_zc(N, 1), shift_size=2, num_users=2)
        cfg = LinkConfig(n_subcarriers=N, n_samples=1, num_users=1, victim_index=0)
        with pytest.raises(ConfigurationError):
            transmit_receive_td(
                pool, [impulse_channel(0, num_taps=3)], AttackProfile.inactive(), cfg, 0
            )

    def test_pool_length_mismatch_rejected(self):
        pool = build_pool(generate_zc(11, 1), shift_size=5, num_users=1)
        cfg = LinkConfig(n_subcarriers=N, n_samples=1, num_users=1, victim_index=0)
        with pytest.raises(ConfigurationError):
            transmit_receive_td(
                pool, [impulse_channel(0)], AttackProfile.inactive(), cfg, 0
            )


class TestFrequencyDomain:
    def test_zero_maps_to_zero(self):
        _, cfg = one_user_setup()
        np.testing.assert_array_equal(
            to_frequency_domain(np.zeros((1, 2, N)), cfg), np.zeros((1, 2, N))
        )

    def test_impulse_has_flat_spectrum(self):
        _, cfg = one_user_setup()
        x = np.zeros(N, dtype=complex)
        x[0] = 1.0
        spectrum = to_frequency_domain(x, cfg)
        np.testing.assert_allclose(np.abs(spectrum), 1 / np.sqrt(N), atol=1e-12)

    def test_parseval(self):
        _, cfg = one_user_setup()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, N)) + 1j * rng.normal(size=(3, 2, N))
        assert np.linalg.norm(to_frequency_domain(x, cfg)) == pytest.approx(
            np.linalg.norm(x), abs=1e-10
        )

    def test_length_mismatch_rejected(self):
        _, cfg = one_user_setup()
        with pytest.raises(ShapeError):
            to_frequency_domain(np.zeros((2, N + 1)), cfg)


class TestLsEstimate:
    def run_chain(self, channels, attack, cfg, pool, rng=0, num_taps=TAU):
        y_td = transmit_receive_td(pool, channels, attack, cfg, rng)
        y_fd = to_frequency_domain(y_td, cfg)
        pilot = pool.sequence_for_user(cfg.victim_index)
        return ls_estimate(y_fd, pilot, cfg, num_taps=num_taps)

    def test_noiseless_estimate_is_exact(self):
        pool, cfg = one_user_setup(n_samples=3, victim_power=2.5)
        rng = np.random.default_rng(5)
        h = random_channel(rng)
        est = self.run_chain([h], AttackProfile.inactive(), cfg, pool)
        reference = frequency_reference(h, N)
        for l in range(3):
            np.testing.assert_allclose(est.fd[l], reference, atol=1e-10)
            np.testing.assert_allclose(est.tap[l], tap_reference(h), atol=1e-10)

    def test_attack_bias_adds_exactly(self):
        pool, cfg = one_user_setup()
        rng = np.random.default_rng(6)
        h, g = random_channel(rng), random_channel(rng)
        est = self.run_chain(
            [h], AttackProfile(active=True, rho=1.0, channel=g), cfg, pool
        )
        expected = frequency_reference(h, N) + frequency_reference(g, N)
        np.testing.assert_allclose(est.fd[0], expected, atol=1e-10)

    def test_partial_amplitude_attack(self):
        pool, cfg = one_user_setup()
        rng = np.random.default_rng(8)
        h, g = random_channel(rng), random_channel(rng)
        est = self.run_chain(
            [h], AttackProfile(active=True, rho=0.5, channel=g), cfg, pool
        )
        expected = frequency_reference(h, N) + 0.5 * frequency_reference(
            g, N
        )
        np.testing.assert_allclose(est.fd[0], expected, atol=1e-10)

    def test_linearity_in_attack_power(self):
        # Quadrupling the attacker's power doubles its amplitude contribution.
        pool, cfg = one_user_setup()
        rng = np.random.default_rng(9)
        h, g = random_channel(rng), random_channel(rng)
        base = self.run_chain([h], AttackProfile.inactive(), cfg, pool).fd[0]
        # rho = sqrt(P_attacker / P_victim): powers 1 and 4 over 1.
        one = self.run_chain(
            [h], AttackProfile(active=True, rho=1.0, channel=g), cfg, pool
        ).fd[0]
        four = self.run_chain(
            [h], AttackProfile(active=True, rho=2.0, channel=g), cfg, pool
        ).fd[0]
        np.testing.assert_allclose(four - base, 2.0 * (one - base), atol=1e-10)

    def test_sample_mean_converges_to_reference(self):
        pool, cfg = one_user_setup(noise_variance=0.2, n_samples=10_000)
        rng = np.random.default_rng(10)
        h = random_channel(rng)
        est = simulate_subframe(pool, [h], AttackProfile.inactive(), cfg, rng=12)
        reference = frequency_reference(h, N)
        v = fd_noise_variance(cfg)
        tol = 5.0 * np.sqrt(v / cfg.n_samples)
        assert np.max(np.abs(est.fd.mean(axis=0) - reference)) < tol

    def test_hypothesis_separation_display(self):
        pool, cfg = one_user_setup()
        rng = np.random.default_rng(14)
        h, g = random_channel(rng), random_channel(rng)
        rho = 0.8
        est = self.run_chain(
            [h], AttackProfile(active=True, rho=rho, channel=g), cfg, pool
        )
        s = estimate_energies(est)[0]
        h_bar = frequency_reference(h, N)
        g_bar = frequency_reference(g, N)
        quad = (
            np.linalg.norm(h_bar) ** 2
            + 2 * rho * np.real(np.vdot(h_bar, g_bar))
            + rho**2 * np.linalg.norm(g_bar) ** 2
        )
        assert s == pytest.approx(quad, rel=1e-10)
        quiet = estimate_energies(
            self.run_chain([h], AttackProfile.inactive(), cfg, pool)
        )[0]
        assert s > quiet

    def test_num_taps_out_of_range_rejected(self):
        pool, cfg = one_user_setup()
        y = np.zeros((1, 2, N), dtype=complex)
        with pytest.raises(ConfigurationError):
            ls_estimate(y, pool.sequences[0], cfg, num_taps=0)


class TestObserve:
    def test_noiseless_samples_constant(self):
        pool, cfg = one_user_setup(n_samples=5)
        rng = np.random.default_rng(20)
        h = random_channel(rng)
        est = simulate_subframe(pool, [h], AttackProfile.inactive(), cfg, rng=0)
        expected = np.linalg.norm(frequency_reference(h, N)) ** 2
        np.testing.assert_allclose(estimate_energies(est), expected, rtol=1e-10)


class TestNoiseBookkeeping:
    def test_convention_formulas(self):
        cfg = LinkConfig(
            n_subcarriers=N,
            n_samples=1,
            num_users=1,
            victim_index=0,
            victim_power=4.0,
            noise_variance=0.26,
        )
        assert fd_noise_variance(cfg) == pytest.approx(0.26 / (N * 4.0))
        assert td_equivalent_noise_variance(cfg) == pytest.approx(
            fd_noise_variance(cfg) * 4.0 / N
        )

    def test_chain_realizes_target_fd_variance(self):
        pool, cfg = one_user_setup(noise_variance=0.7, n_samples=4000)
        rng = np.random.default_rng(31)
        h = random_channel(rng)
        est = simulate_subframe(pool, [h], AttackProfile.inactive(), cfg, rng=32)
        reference = frequency_reference(h, N)
        noise = est.fd - reference
        v_target = fd_noise_variance(cfg)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(v_target, rel=0.05)
        tap_noise = est.tap - tap_reference(h)
        assert np.mean(np.abs(tap_noise) ** 2) == pytest.approx(
            v_target / N, rel=0.05
        )

    def test_chain_deterministic_given_seed(self):
        pool, cfg = one_user_setup(noise_variance=0.3, n_samples=8)
        rng = np.random.default_rng(40)
        h = random_channel(rng)
        a = simulate_subframe(pool, [h], AttackProfile.inactive(), cfg, rng=41)
        b = simulate_subframe(pool, [h], AttackProfile.inactive(), cfg, rng=41)
        np.testing.assert_array_equal(a.fd, b.fd)
        np.testing.assert_array_equal(a.tap, b.tap)


class TestAttackProfile:
    def test_active_without_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackProfile(active=True, rho=1.0, channel=None)

    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackProfile(active=False, rho=-0.1)
