"""Constant-amplitude reference sequences and cyclic-shift preamble pools.

The uplink reference signal is a polyphase sequence whose elements all have
magnitude ``1/sqrt(N)``.  For prime length ``N`` the family has two properties
this package relies on:

* periodic autocorrelation of one root is zero at every nonzero lag, so
  cyclic shifts of one root are exactly orthogonal over short delay windows;
* the periodic cross-correlation between two distinct roots has constant
  magnitude ``1/sqrt(N)`` at every lag.

A preamble pool holds one root's cyclic shifts, one per user: user ``k``
transmits the root advanced by ``k * shift_size`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, ShapeError

__all__ = [
    "PreamblePool",
    "generate_zc",
    "cyclic_shift",
    "build_pool",
    "periodic_correlation",
]


@dataclass(frozen=True)
class PreamblePool:
    """One root's cyclic shifts, entry ``k`` being user ``k``'s pilot.

    Entries differ by multiples of ``shift_size`` samples, so for prime
    length they are orthogonal over any delay window shorter than
    ``shift_size``.

    Attributes
    ----------
    sequences : tuple of numpy.ndarray
        User pilots ``p_0 .. p_{K-1}``, each a complex vector of length ``N``.
    shift_size : int
        Cyclic-shift separation between consecutive entries.  Callers
        combining the pool with a multipath channel must keep the channel's
        delay-spread length strictly below this value.
    """

    sequences: tuple
    shift_size: int

    @property
    def size(self) -> int:
        return len(self.sequences)

    @property
    def length(self) -> int:
        return len(self.sequences[0])

    def sequence_for_user(self, user: int) -> np.ndarray:
        """Return the pilot of ``user``."""
        if not 0 <= user < self.size:
            raise ConfigurationError(f"user {user} has no assigned sequence")
        return self.sequences[user]


def generate_zc(length: int, root: int) -> np.ndarray:
    """Generate a single-root constant-amplitude sequence.

    Element ``j`` (1-based, ``j = 1 .. N``) equals
    ``exp(-i * pi * root * j * (j + 1) / N) / sqrt(N)``, so every element
    has magnitude ``1/sqrt(N)`` and the sequence has unit energy.

    Parameters
    ----------
    length : int
        Sequence length ``N``, at least 2.  Prime lengths give the ideal
        correlation properties; composite lengths are permitted.
    root : int
        Root index in ``1 .. N - 1``.

    Returns
    -------
    numpy.ndarray
        Complex vector of shape ``(N,)``.
    """
    if length < 2:
        raise ConfigurationError(f"sequence length must be >= 2, got {length}")
    if not 1 <= root <= length - 1:
        raise ConfigurationError(
            f"root must lie in 1..{length - 1}, got {root}"
        )
    j = np.arange(1, length + 1, dtype=np.float64)
    phase = -np.pi * root * j * (j + 1.0) / length
    return np.exp(1j * phase) / np.sqrt(length)


def cyclic_shift(seq: np.ndarray, shift: int) -> np.ndarray:
    """Cyclically advance a vector: ``out[j] = seq[(j + shift) mod N]``.

    The shift is normalized modulo the length, so any integer is accepted.
    Energy is preserved exactly.
    """
    seq = np.asarray(seq)
    if seq.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {seq.shape}")
    return np.roll(seq, -int(shift))


def periodic_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-lag periodic cross-correlation ``c[s] = sum_j a[j] * conj(b[(j+s) mod N])``.

    Computed by FFT; equals the brute-force double loop to rounding error.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")
    # c[s] = sum_j a[j] conj(b[j+s]) = IDFT(conj(DFT(a)) * DFT(b)) conjugated
    return np.conj(np.fft.ifft(np.conj(np.fft.fft(a)) * np.fft.fft(b))) * 1.0


def build_pool(
    root: np.ndarray, shift_size: int, num_users: int
) -> PreamblePool:
    """Give user ``k`` the root advanced by ``k * shift_size`` samples.

    Parameters
    ----------
    root : numpy.ndarray
        Root sequence, as returned by :func:`generate_zc`.
    shift_size : int
        Cyclic-shift separation between users; must be positive.  Choose it
        strictly greater than the channel delay-spread length so that the
        users' pilots stay orthogonal over the delay window.
    num_users : int
        Number of users, each given one entry.

    Raises
    ------
    CapacityError
        If ``num_users`` shifts of ``shift_size`` do not fit in the root's
        length.
    """
    length = len(root)
    if shift_size < 1:
        raise ConfigurationError(f"shift_size must be positive, got {shift_size}")
    if num_users < 1:
        raise ConfigurationError(f"num_users must be positive, got {num_users}")
    capacity = length // shift_size
    if num_users > capacity:
        raise CapacityError(
            f"requested {num_users} sequences but shift size {shift_size} "
            f"over length {length} supplies only {capacity}"
        )
    return PreamblePool(
        sequences=tuple(
            cyclic_shift(root, k * shift_size) for k in range(num_users)
        ),
        shift_size=shift_size,
    )
