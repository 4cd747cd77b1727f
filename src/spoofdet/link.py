"""Uplink pilot transmit/receive chain and least-squares channel estimation.

This module is the test oracle of the harness: ``experiments.TrialSimulator``
builds its observations in closed form, and the tests check those shortcuts
against this chain.  No other module of the package imports it.

The chain: every user circularly convolves its pilot with its multipath
channel at each antenna, an attacker may inject the victim's pilot through
its own channel, white Gaussian noise is added in the time domain, a
unitary FFT moves each antenna to the frequency domain, and dividing by the
victim's pilot spectrum gives the per-sample least-squares estimate of the
victim's stacked frequency response.  It follows the scenario's
conventions and has no settings of its own:

* User ``k`` sends row ``k`` of the ``(K, N)`` pilot array
  (``ScenarioConfig.build_pool``) at unit power; user 0 is the victim.  The
  array fixes the transform size ``N`` and the user count ``K``.  The least
  squares separates the users only if no two pilots correlate at a cyclic
  lag shorter than the delay spread, so a longer channel is rejected.
* The attacker is its ``(tau, M)`` tap matrix already scaled by the
  amplitude ratio ``rho``, or ``None`` when there is no attack.  It shifts
  every estimate by its own stacked response, the bias the detectors look
  for.
* Noise is one per-element receive-noise variance ``sigma^2``, for a
  scenario ``ScenarioConfig.receive_noise_variance``.  Pilots have unit
  energy, so the frequency-domain estimate noise has per-element
  variance ``N * sigma^2`` (the scenario's ``estimate_noise_variance``)
  and the delay-tap form has ``sigma^2``; exact for prime ``N`` (flat
  pilot spectrum).

Estimates come in two forms: stacked frequency-domain (antenna-major,
dimension ``M * N``) and delay-tap (tap-major, dimension ``M * tau``),
projected back through the first ``tau`` Fourier columns.
``build_subframe_batch`` turns the tap form into the extractor's sensing
batch, as the harness's shortcut does in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import beamspace, complex_normal
from .errors import ConfigurationError, PilotDivisionError, ShapeError
from .extractor import SensingBatch
from .scenario import VICTIM
from .zc import periodic_correlation

__all__ = [
    "StackedEstimate",
    "transmit_receive_td",
    "to_frequency_domain",
    "ls_estimate",
    "simulate_subframe",
    "build_subframe_batch",
    "frequency_reference",
]

# Above rounding error for the correlation of two unit-energy pilots.
_CORRELATED = 1e-9


@dataclass(frozen=True)
class StackedEstimate:
    """Per-sample least-squares estimates of the victim's channel.

    Attributes
    ----------
    fd : numpy.ndarray
        Shape ``(L, M * N)``: stacked frequency-domain estimates,
        antenna-major (antenna 0's ``N`` bins, then antenna 1's, ...).
    tap : numpy.ndarray
        Shape ``(L, M * tau)``: delay-tap estimates, tap-major (tap 0's
        ``M`` antennas, then tap 1's, ...), matching the fingerprint
        coordinate layout.
    """

    fd: np.ndarray
    tap: np.ndarray
    num_antennas: int
    num_taps: int


def _padded_taps(taps: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad a (tau, M) tap matrix to (n, M) along the delay axis."""
    tau, m_ant = taps.shape
    if tau > n:
        raise ConfigurationError(
            f"delay spread {tau} exceeds the {n}-point transform"
        )
    padded = np.zeros((n, m_ant), dtype=np.complex128)
    padded[:tau] = taps
    return padded


def _check_delay_window(pilots: np.ndarray, delay_spread: int) -> None:
    """Reject a delay spread over which two pilots' estimates interfere."""
    for i, j in itertools.permutations(range(len(pilots)), 2):
        lags = periodic_correlation(pilots[i], pilots[j])[:delay_spread]
        if np.max(np.abs(lags)) > _CORRELATED:
            raise ConfigurationError(
                f"pilots {i} and {j} correlate at a cyclic lag shorter than "
                f"the delay spread {delay_spread}; their estimates would "
                "interfere"
            )


def _receive(pilot: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Clean ``(M, N)`` receive of ``pilot`` through ``taps``: the circular
    convolution of pilot and channel at each antenna."""
    taps_fd = np.fft.fft(_padded_taps(taps, len(pilot)), axis=0)
    return np.fft.ifft(np.fft.fft(pilot)[None, :] * taps_fd.T, axis=1)


def transmit_receive_td(
    pilots: np.ndarray,
    channels: Sequence[np.ndarray],
    attacker: np.ndarray | None,
    noise_variance: float,
    n_samples: int,
    rng,
) -> np.ndarray:
    """Simulate the received time-domain pilot symbol at every antenna.

    ``channels`` holds each user's ``(tau, M)`` tap matrix, one per row of
    the ``(K, N)`` array ``pilots``.  Returns an array of shape
    ``(n_samples, M, N)``: for each sample the sum over users of ``p_k circ
    h_{k,m}``, plus ``p_0 circ g_m`` for the attacker's (rho-scaled) taps
    ``g``, plus independent complex Gaussian noise of per-element variance
    ``noise_variance``.
    """
    num_users, n = pilots.shape
    if len(channels) != num_users:
        raise ConfigurationError(
            f"expected {num_users} user channels, got {len(channels)}"
        )
    if noise_variance < 0:
        raise ConfigurationError("noise variance must be non-negative")
    sources = list(enumerate(channels))
    if attacker is not None:
        sources.append((VICTIM, attacker))
    m_ant = channels[0].shape[1]
    if any(taps.shape[1] != m_ant for _, taps in sources):
        raise ConfigurationError("all channels must share the antenna count")
    _check_delay_window(pilots, max(taps.shape[0] for _, taps in sources))
    clean = sum(_receive(pilots[k], taps) for k, taps in sources)

    out = np.broadcast_to(clean, (n_samples, m_ant, n)).copy()
    if noise_variance > 0:
        out += complex_normal(out.shape, math.sqrt(noise_variance / 2.0), rng)
    return out


def to_frequency_domain(y_td: np.ndarray) -> np.ndarray:
    """Unitary FFT along the last axis; energy is preserved exactly."""
    return np.fft.fft(np.asarray(y_td), axis=-1, norm="ortho")


def ls_estimate(
    y_fd: np.ndarray, pilot: np.ndarray, num_taps: int
) -> StackedEstimate:
    """Least-squares estimate of the victim's stacked frequency response.

    Per sample and antenna, each frequency bin of the receive is divided by
    the pilot's unitary spectrum.  The result is the victim's stacked
    response plus the attacker's (when spoofed) plus noise.  The delay-tap
    form is obtained by the unitary inverse transform restricted to the
    first ``num_taps`` taps, scaled to undo the stacking gain.
    """
    y_fd = np.asarray(y_fd, dtype=np.complex128)
    pilot = np.asarray(pilot, dtype=np.complex128)
    n = pilot.shape[-1]
    if y_fd.ndim != 3 or pilot.ndim != 1 or y_fd.shape[-1] != n:
        raise ShapeError(
            f"expected (L, M, {n}) receive for a pilot of shape "
            f"{pilot.shape}, got {y_fd.shape}"
        )
    if num_taps < 1 or num_taps > n:
        raise ConfigurationError(f"num_taps {num_taps} outside 1..{n}")
    pilot_spectrum = np.fft.fft(pilot, norm="ortho")
    if np.min(np.abs(pilot_spectrum)) < 1e-12:
        raise PilotDivisionError(
            "pilot spectrum contains a (near-)zero bin; least-squares "
            "division is undefined"
        )
    estimates = y_fd / pilot_spectrum[None, None, :]

    n_samples, m_ant = estimates.shape[0], estimates.shape[1]
    fd = estimates.reshape(n_samples, m_ant * n)
    taps = np.fft.ifft(estimates, axis=-1, norm="ortho")[:, :, :num_taps]
    taps = taps / np.sqrt(n)
    tap = np.transpose(taps, (0, 2, 1)).reshape(n_samples, num_taps * m_ant)
    return StackedEstimate(fd, tap, m_ant, num_taps)


def simulate_subframe(
    pilots: np.ndarray,
    channels: Sequence[np.ndarray],
    attacker: np.ndarray | None,
    noise_variance: float,
    n_samples: int,
    rng,
    num_taps: int | None = None,
) -> StackedEstimate:
    """Run the full chain for one subframe: transmit, FFT, least squares.

    ``num_taps`` defaults to the victim channel's delay spread.
    """
    if num_taps is None:
        num_taps = channels[VICTIM].shape[0]
    y_td = transmit_receive_td(
        pilots, channels, attacker, noise_variance, n_samples, rng
    )
    return ls_estimate(to_frequency_domain(y_td), pilots[VICTIM], num_taps)


def frequency_reference(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Noise-free stacked frequency response of a (tau, M) tap matrix.

    Antenna ``m`` contributes ``sqrt(N)`` times the unitary transform of its
    zero-padded tap vector; blocks are stacked antenna-major into a vector
    of length ``M * N``.  This is exactly what a noiseless, unspoofed
    least-squares estimate returns.
    """
    padded = _padded_taps(np.asarray(taps), n_subcarriers)
    spectra = np.sqrt(n_subcarriers) * np.fft.fft(padded, axis=0, norm="ortho")
    return spectra.T.reshape(-1)


def build_subframe_batch(
    estimate: StackedEstimate, probes: np.ndarray
) -> SensingBatch:
    """Turn a subframe's tap-form estimates into a sensing batch.

    Each sample is the squared probe response of that sample's estimate in
    beam-by-tap coordinates, ``s(l) = |<h(l), B x(l)>|^2`` where ``B`` is
    the unitary per-tap beam transform, divided by the mean over the
    subframe (unless that is zero), as ``TrialSimulator.sensing_batch``
    does.
    """
    probes = np.asarray(probes, dtype=np.complex128)
    n_samples = estimate.tap.shape[0]
    d = estimate.num_taps * estimate.num_antennas
    if probes.shape != (n_samples, d):
        raise ShapeError(
            f"expected probes of shape {(n_samples, d)}, got {probes.shape}"
        )
    taps = estimate.tap.reshape(n_samples, estimate.num_taps, estimate.num_antennas)
    beams = beamspace(taps).reshape(n_samples, d)
    samples = np.abs(np.einsum("ld,ld->l", probes.conj(), beams)) ** 2
    mean = float(np.mean(samples))
    if mean > 0:
        samples = samples / mean
    return SensingBatch(probes=probes, samples=samples)
