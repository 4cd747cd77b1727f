"""Uplink pilot transmit/receive chain and least-squares channel estimation.

This module is the test oracle of the harness: ``experiments.TrialSimulator``
builds its observations in closed form, and the tests check those shortcuts
against this chain.  No other module of the package imports it.

The chain is: every user circularly convolves its assigned reference
sequence with its multipath channel at each antenna; an attacker may inject
the victim's sequence through its own channel; white Gaussian noise is added
in the time domain; a unitary FFT moves each antenna to the frequency
domain; dividing by the victim's known pilot spectrum gives the per-sample
least-squares estimate of the victim's stacked frequency response.

With zero noise and no attacker the estimate equals the true stacked
response exactly.  An active attacker with amplitude ratio ``rho`` shifts
every estimate by ``rho`` times the attacker's stacked response — the bias
the detectors in this package look for.

Two equivalent estimate forms are carried side by side: the stacked
frequency-domain form (antenna-major, dimension ``M * N``) and the compact
delay-tap form (tap-major, dimension ``M * tau``) obtained by projecting
back through the first ``tau`` Fourier columns.  For flat-spectrum pilots
(prime length) the tap form's per-element noise variance is exactly the
frequency-domain variance divided by ``N``.

``LinkConfig.for_scenario`` gives the chain settings of a scenario, and
``build_subframe_batch`` turns a subframe's estimates into the extractor's
sensing batch, as the harness's shortcut does in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import as_generator, beamspace
from .errors import ConfigurationError, PilotDivisionError, ShapeError
from .extractor import SensingBatch
from .scenario import ScenarioConfig
from .zc import PreamblePool

__all__ = [
    "LinkConfig",
    "AttackProfile",
    "StackedEstimate",
    "transmit_receive_td",
    "to_frequency_domain",
    "ls_estimate",
    "simulate_subframe",
    "build_subframe_batch",
    "frequency_reference",
    "tap_reference",
    "fd_noise_variance",
    "td_equivalent_noise_variance",
]


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of the uplink estimation chain.

    Attributes
    ----------
    n_subcarriers : int
        FFT size ``N``; must equal the reference-sequence length for the
        chain to be unitary end to end.
    n_samples : int
        Number of per-subframe estimation samples ``L`` (one per repeated
        pilot symbol).
    num_users : int
        Active user count ``K``.
    victim_index : int
        0-based index of the monitored user.
    victim_power : float
        Linear transmit power of every user's pilot.
    noise_variance : float
        Nominal noise variance sigma^2; the per-element variance of the
        estimate noise is ``sigma^2 / (N * P)`` (see
        :func:`fd_noise_variance`).
    """

    n_subcarriers: int
    n_samples: int
    num_users: int
    victim_index: int
    victim_power: float = 1.0
    noise_variance: float = 0.0

    def __post_init__(self) -> None:
        if self.n_subcarriers < 2:
            raise ConfigurationError("need at least two subcarriers")
        if self.n_samples < 1:
            raise ConfigurationError("need at least one sample per subframe")
        if self.num_users < 1:
            raise ConfigurationError("need at least one user")
        if not 0 <= self.victim_index < self.num_users:
            raise ConfigurationError(
                f"victim index {self.victim_index} outside 0..{self.num_users - 1}"
            )
        if self.victim_power <= 0:
            raise ConfigurationError("victim power must be positive")
        if self.noise_variance < 0:
            raise ConfigurationError("noise variance must be non-negative")

    @classmethod
    def for_scenario(cls, cfg: ScenarioConfig) -> "LinkConfig":
        """Chain settings realizing the scenario's estimate-noise level, at
        the unit transmit power the scenario normalizes to."""
        return cls(
            n_subcarriers=cfg.sequence_length,
            n_samples=cfg.n_samples,
            num_users=cfg.num_users,
            victim_index=0,  # the harness monitors user 0
            noise_variance=cfg.estimate_noise_variance * cfg.sequence_length,
        )


@dataclass(frozen=True)
class AttackProfile:
    """Spoofing-attack description: amplitude ratio and attacker channel.

    ``rho`` is the attacker-to-victim amplitude ratio ``sqrt(P_A / P_k)``;
    ``channel`` is the attacker's ``(tau, M)`` tap matrix.  An inactive
    profile contributes exactly zero regardless of ``rho``.
    """

    active: bool
    rho: float = 0.0
    channel: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ConfigurationError("amplitude ratio must be non-negative")
        if self.active and self.channel is None:
            raise ConfigurationError("an active attack needs a channel")

    @classmethod
    def inactive(cls) -> "AttackProfile":
        return cls(active=False, rho=0.0, channel=None)


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
    subframe_index : int
    """

    fd: np.ndarray
    tap: np.ndarray
    subframe_index: int
    n_subcarriers: int
    num_antennas: int
    num_taps: int

    @property
    def n_samples(self) -> int:
        return self.fd.shape[0]


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


def fd_noise_variance(cfg: LinkConfig) -> float:
    """Per-element variance of the estimate noise, ``sigma^2 / (N * P)``."""
    return cfg.noise_variance / (cfg.n_subcarriers * cfg.victim_power)


def td_equivalent_noise_variance(cfg: LinkConfig) -> float:
    """Time-domain injection variance that realizes ``fd_noise_variance``.

    Least-squares division amplifies a flat-spectrum pilot's time-domain
    noise variance by ``N / P``, so injecting ``v * P / N`` in the time
    domain yields per-element estimate noise ``v``.  Exact for prime-length
    sequences (flat pilot spectrum).
    """
    return fd_noise_variance(cfg) * cfg.victim_power / cfg.n_subcarriers


def transmit_receive_td(
    pool: PreamblePool,
    channels: Sequence[np.ndarray],
    attack: AttackProfile,
    cfg: LinkConfig,
    rng,
    noise_variance: float | None = None,
) -> np.ndarray:
    """Simulate the received time-domain pilot symbol at every antenna.

    ``channels`` holds each user's ``(tau, M)`` tap matrix.  Returns an
    array of shape ``(L, M, N)``: for each sample ``l`` the sum over users
    of ``sqrt(P) * (p_k circ h_{k,m})``, with ``P`` the ``victim_power``
    every user transmits at, plus — when the attack is active — ``rho *
    sqrt(P) * (p_victim circ g_m)``, plus independent complex Gaussian
    noise of per-element variance ``noise_variance`` (defaults to
    ``cfg.noise_variance``, applied literally).
    """
    n = cfg.n_subcarriers
    if pool.length != n:
        raise ConfigurationError(
            f"pool length {pool.length} does not match {n} subcarriers"
        )
    if len(channels) != cfg.num_users:
        raise ConfigurationError(
            f"expected {cfg.num_users} user channels, got {len(channels)}"
        )
    gen = as_generator(rng)
    sigma2 = cfg.noise_variance if noise_variance is None else noise_variance
    if sigma2 < 0:
        raise ConfigurationError("noise variance must be non-negative")

    m_ant = channels[0].shape[1]
    clean = np.zeros((m_ant, n), dtype=np.complex128)
    for k, taps in enumerate(channels):
        if taps.shape[1] != m_ant:
            raise ConfigurationError("all channels must share the antenna count")
        if taps.shape[0] >= pool.shift_size:
            raise ConfigurationError(
                f"delay spread {taps.shape[0]} is not smaller than the "
                f"pool shift size {pool.shift_size}; same-root sequences "
                "would interfere"
            )
        pilot = pool.sequence_for_user(k)
        pilot_spectrum = np.fft.fft(pilot)
        taps_fd = np.fft.fft(_padded_taps(taps, n), axis=0)
        clean += np.sqrt(cfg.victim_power) * np.fft.ifft(
            pilot_spectrum[None, :] * taps_fd.T, axis=1
        )

    if attack.active and attack.rho > 0:
        if attack.channel.shape[1] != m_ant:
            raise ConfigurationError(
                "attacker channel antenna count differs from the users'"
            )
        victim_pilot = pool.sequence_for_user(cfg.victim_index)
        pilot_spectrum = np.fft.fft(victim_pilot)
        g_fd = np.fft.fft(_padded_taps(attack.channel, n), axis=0)
        amplitude = attack.rho * np.sqrt(cfg.victim_power)
        clean += amplitude * np.fft.ifft(
            pilot_spectrum[None, :] * g_fd.T, axis=1
        )

    out = np.broadcast_to(clean, (cfg.n_samples, m_ant, n)).copy()
    if sigma2 > 0:
        scale = np.sqrt(sigma2 / 2.0)
        out += gen.normal(scale=scale, size=out.shape) + 1j * gen.normal(
            scale=scale, size=out.shape
        )
    return out


def to_frequency_domain(y_td: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """Unitary FFT along the last axis; energy is preserved exactly."""
    y_td = np.asarray(y_td)
    if y_td.shape[-1] != cfg.n_subcarriers:
        raise ShapeError(
            f"last axis {y_td.shape[-1]} does not match "
            f"{cfg.n_subcarriers} subcarriers"
        )
    return np.fft.fft(y_td, axis=-1, norm="ortho")


def ls_estimate(
    y_fd: np.ndarray,
    pilot: np.ndarray,
    cfg: LinkConfig,
    num_taps: int,
    subframe_index: int = 0,
) -> StackedEstimate:
    """Least-squares estimate of the victim's stacked frequency response.

    Per sample and antenna, each frequency bin of the receive is divided by
    ``sqrt(P_victim)`` times the pilot's unitary spectrum.  The result is
    the victim's scaled stacked response plus ``rho`` times the attacker's
    (when spoofed) plus noise.  The delay-tap form is obtained by the
    unitary inverse transform restricted to the first ``num_taps`` taps,
    scaled to undo the stacking gain.
    """
    y_fd = np.asarray(y_fd, dtype=np.complex128)
    if y_fd.ndim == 2:
        y_fd = y_fd[None, :, :]
    if y_fd.ndim != 3 or y_fd.shape[-1] != cfg.n_subcarriers:
        raise ShapeError(f"expected (L, M, N) receive, got {y_fd.shape}")
    if num_taps < 1 or num_taps > cfg.n_subcarriers:
        raise ConfigurationError(
            f"num_taps {num_taps} outside 1..{cfg.n_subcarriers}"
        )
    n = cfg.n_subcarriers
    pilot_spectrum = np.fft.fft(np.asarray(pilot, dtype=np.complex128), norm="ortho")
    if np.min(np.abs(pilot_spectrum)) < 1e-12:
        raise PilotDivisionError(
            "pilot spectrum contains a (near-)zero bin; least-squares "
            "division is undefined"
        )
    denom = np.sqrt(cfg.victim_power) * pilot_spectrum
    estimates = y_fd / denom[None, None, :]

    n_samples, m_ant = estimates.shape[0], estimates.shape[1]
    fd = estimates.reshape(n_samples, m_ant * n)
    taps = np.fft.ifft(estimates, axis=-1, norm="ortho")[:, :, :num_taps]
    taps = taps / np.sqrt(n)
    tap = np.transpose(taps, (0, 2, 1)).reshape(n_samples, num_taps * m_ant)
    return StackedEstimate(
        fd=fd,
        tap=tap,
        subframe_index=subframe_index,
        n_subcarriers=n,
        num_antennas=m_ant,
        num_taps=num_taps,
    )


def simulate_subframe(
    pool: PreamblePool,
    channels: Sequence[np.ndarray],
    attack: AttackProfile,
    cfg: LinkConfig,
    rng,
    subframe_index: int = 0,
    num_taps: int | None = None,
) -> StackedEstimate:
    """Run the full chain for one subframe: transmit, FFT, least squares.

    The time-domain injection variance is chosen so that the estimate
    noise lands at ``fd_noise_variance(cfg)`` per element.
    """
    if num_taps is None:
        num_taps = channels[cfg.victim_index].shape[0]
    y_td = transmit_receive_td(
        pool,
        channels,
        attack,
        cfg,
        rng,
        noise_variance=td_equivalent_noise_variance(cfg),
    )
    y_fd = to_frequency_domain(y_td, cfg)
    pilot = pool.sequence_for_user(cfg.victim_index)
    return ls_estimate(y_fd, pilot, cfg, num_taps, subframe_index)


def frequency_reference(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Noise-free stacked frequency response of a (tau, M) tap matrix.

    Antenna ``m`` contributes ``sqrt(N)`` times the unitary transform of its
    zero-padded tap vector; blocks are stacked antenna-major into a vector
    of length ``M * N``.  This is exactly what a noiseless, unspoofed
    least-squares estimate returns.
    """
    taps = np.asarray(taps)
    tau, m_ant = taps.shape
    if tau > n_subcarriers:
        raise ConfigurationError(
            f"delay spread {tau} exceeds {n_subcarriers} subcarriers"
        )
    padded = np.zeros((n_subcarriers, m_ant), dtype=np.complex128)
    padded[:tau] = taps
    spectra = np.sqrt(n_subcarriers) * np.fft.fft(padded, axis=0, norm="ortho")
    return spectra.T.reshape(-1)


def tap_reference(taps: np.ndarray) -> np.ndarray:
    """Noise-free tap-form estimate: the tap matrix flattened tap-major."""
    taps = np.asarray(taps)
    return taps.reshape(-1)


def build_subframe_batch(
    estimate: StackedEstimate,
    probes: np.ndarray,
    normalize: bool = True,
) -> SensingBatch:
    """Turn a subframe's tap-form estimates into a sensing batch.

    Each sample is the squared probe response of that sample's estimate in
    beam-by-tap coordinates: ``s(l) = |<h(l), B x(l)>|^2`` where ``B`` is
    the unitary per-tap beam transform.  With ``normalize`` the samples are
    divided by their mean, making thresholds scale-free.
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
    responses = np.einsum("ld,ld->l", probes.conj(), beams)
    samples = np.abs(responses) ** 2
    if normalize:
        mean = float(np.mean(samples))
        if mean > 0:
            samples = samples / mean
    return SensingBatch(
        probes=probes, samples=samples, subframe_index=estimate.subframe_index
    )
