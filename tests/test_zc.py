"""Sequence-family oracles: exact element values, amplitude/energy
invariants, brute-force periodic correlation, and pool construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofdet.errors import CapacityError, ConfigurationError
from spoofdet.zc import (
    build_pool,
    cyclic_shift,
    generate_zc,
    periodic_correlation,
)

PRIMES = [5, 7, 13]


def brute_force_correlation(a, b):
    """Independent oracle: all-lag periodic correlation by explicit loops."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    for s in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += a[j] * np.conj(b[(j + s) % n])
        out[s] = acc
    return out


class TestGenerate:
    def test_last_element_n5_r1_is_real_peak(self):
        # j = 5: phase exponent is -i*pi*5*6/5 = -6*i*pi, a whole number of
        # turns, so the element must equal 1/sqrt(5) exactly.
        seq = generate_zc(5, 1)
        assert seq[-1] == pytest.approx(1 / np.sqrt(5), abs=1e-12)
        assert abs(seq[-1].imag) < 1e-12

    def test_constant_amplitude_n5(self):
        seq = generate_zc(5, 1)
        assert seq.shape == (5,)
        np.testing.assert_allclose(
            np.abs(seq), 1 / np.sqrt(5), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [5, 7, 12, 13, 139])
    def test_constant_amplitude_and_unit_energy(self, n):
        for root in {1, 2, n - 1}:
            seq = generate_zc(n, root)
            np.testing.assert_allclose(
                np.abs(seq), 1 / np.sqrt(n), rtol=0, atol=1e-12
            )
            assert np.linalg.norm(seq) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_root_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_zc(5, 0)
        with pytest.raises(ConfigurationError):
            generate_zc(5, 5)
        with pytest.raises(ConfigurationError):
            generate_zc(5, -1)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_zc(1, 1)


class TestCorrelation:
    @pytest.mark.parametrize("n", PRIMES)
    def test_zero_autocorrelation_prime_lengths(self, n):
        for root in range(1, n):
            z = generate_zc(n, root)
            corr = brute_force_correlation(z, z)
            assert corr[0] == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(corr[1:])) < 1e-9

    @pytest.mark.parametrize("n", PRIMES)
    def test_constant_cross_correlation_prime_lengths(self, n):
        for r1 in range(1, n):
            for r2 in range(r1 + 1, n):
                a = generate_zc(n, r1)
                b = generate_zc(n, r2)
                corr = brute_force_correlation(a, b)
                np.testing.assert_allclose(
                    np.abs(corr), 1 / np.sqrt(n), rtol=0, atol=1e-9
                )

    def test_n7_cross_root_all_shifts(self):
        a = generate_zc(7, 1)
        b = generate_zc(7, 2)
        for s in range(7):
            inner = np.vdot(cyclic_shift(b, s), a)
            assert abs(inner) == pytest.approx(1 / np.sqrt(7), abs=1e-9)

    @pytest.mark.parametrize("n", PRIMES)
    def test_fft_correlation_matches_brute_force(self, n):
        a = generate_zc(n, 1)
        b = generate_zc(n, min(2, n - 1))
        np.testing.assert_allclose(
            periodic_correlation(a, b),
            brute_force_correlation(a, b),
            atol=1e-12,
        )


class TestCyclicShift:
    def test_identity_shift(self):
        x = np.array([1 + 1j, 2.0, 3 - 1j])
        np.testing.assert_array_equal(cyclic_shift(x, 0), x)

    def test_single_rotation(self):
        a, b, c = 1 + 0j, 2 + 0j, 3 + 0j
        np.testing.assert_array_equal(
            cyclic_shift(np.array([a, b, c]), 1), np.array([b, c, a])
        )

    def test_full_period_shift(self):
        x = np.array([1 + 1j, 2.0, 3 - 1j])
        np.testing.assert_array_equal(cyclic_shift(x, 3), x)

    def test_shift_normalized_modulo_length(self):
        x = np.arange(5) + 0j
        np.testing.assert_array_equal(cyclic_shift(x, 7), cyclic_shift(x, 2))
        np.testing.assert_array_equal(cyclic_shift(x, -1), cyclic_shift(x, 4))

    @given(
        shift=st.integers(min_value=-20, max_value=20),
        n=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_energy_preserved(self, shift, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(cyclic_shift(x, shift)) == pytest.approx(
            np.linalg.norm(x), rel=1e-12
        )

    @given(
        a=st.integers(min_value=0, max_value=12),
        b=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_composition(self, a, b):
        x = np.arange(7) + 0.5j
        np.testing.assert_array_equal(
            cyclic_shift(cyclic_shift(x, a), b), cyclic_shift(x, a + b)
        )


class TestPool:
    def test_single_root_shift_progression(self):
        root = generate_zc(12, 1)
        pilots = build_pool(root, shift_size=4, num_users=3)
        assert pilots.shape == (3, 12)
        assert pilots.dtype == np.complex128
        for k in range(3):
            np.testing.assert_array_equal(
                pilots[k], cyclic_shift(root, 4 * k)
            )

    def test_capacity_error_when_shifts_do_not_fit(self):
        with pytest.raises(CapacityError):
            build_pool(generate_zc(12, 1), shift_size=5, num_users=3)

    def test_assignment_identity_and_lookup(self):
        # User k's pilot is row k, and no caller can change it in place.
        pilots = build_pool(generate_zc(13, 1), shift_size=4, num_users=2)
        assert not pilots.flags.writeable
        with pytest.raises(ValueError):
            pilots[1, 0] = 0.0
        with pytest.raises(ValueError):
            pilots[0] *= 2.0

    def test_same_root_entries_orthogonal_over_delay_window(self):
        # Entries separated by shift_size stay orthogonal at every lag
        # shorter than shift_size (prime length), which is what makes the
        # pool usable for multipath estimation with delay spread < shift.
        tau = 3
        pilots = build_pool(generate_zc(13, 1), shift_size=4, num_users=3)
        for i in range(len(pilots)):
            for j in range(len(pilots)):
                if i == j:
                    continue
                corr = brute_force_correlation(pilots[i], pilots[j])
                assert np.max(np.abs(corr[:tau])) < 1e-9

    @given(
        n=st.sampled_from([5, 7, 13, 139]),
        shift_size=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_pool_entries_unit_energy_and_spacing(self, n, shift_size, seed):
        rng = np.random.default_rng(seed)
        root = generate_zc(n, int(rng.integers(1, n)))
        capacity = n // shift_size
        if capacity == 0:
            return
        pilots = build_pool(root, shift_size, capacity)
        assert pilots.shape == (capacity, n)
        for k, seq in enumerate(pilots):
            assert np.linalg.norm(seq) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_array_equal(
                seq, cyclic_shift(root, k * shift_size)
            )
