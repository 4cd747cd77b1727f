"""Sparse spatial-fingerprint extraction from scalar probe measurements.

One subframe yields ``L`` scalar samples, each the squared magnitude of a
known random probe vector applied to that sample's channel estimate (in
beam-by-tap coordinates).  The extractor recovers a sparse vector whose
squared probe responses, after removing a common offset, reproduce the
samples: it minimizes the mean squared residual

    mean_l [ s(l) - |<h(l), phi>|^2 - (mean(s) - ||phi||^2) ]^2

over ``phi`` by hard-thresholded gradient descent, started from a spectral
initializer restricted to a pre-selected coordinate subset.  The recovered
support concentrates on the dominant beams of the underlying channel, so
the normalized vector acts as a spatial fingerprint: stable across
subframes for one transmitter, disrupted when a second transmitter
contaminates the estimates.

The loss depends on ``phi`` only through ``|<h, phi>|^2`` and ``||phi||^2``,
so solutions carry an arbitrary global phase; consumers must compare
fingerprints with phase-invariant metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import as_generator, beamspace
from .errors import (
    ConfigurationError,
    ExtractionError,
    InitializationError,
    ShapeError,
    check_numeric_fields,
)
from .link import StackedEstimate

__all__ = [
    "ExtractorConfig",
    "SensingBatch",
    "SparsityFingerprint",
    "ExtractionDiagnostics",
    "loss",
    "gradient",
    "threshold_value",
    "hard_threshold",
    "support_statistic",
    "select_support",
    "support_threshold",
    "spectral_init",
    "extract",
    "draw_gaussian_probes",
    "build_subframe_batch",
]


@dataclass(frozen=True)
class ExtractorConfig:
    """Tuning knobs of the thresholded-gradient extraction.

    Attributes
    ----------
    max_iterations : int
        Gradient-descent iteration budget; 0 returns the initializer.
    step_size : float
        Base step size, applied relative to the sample mean (the effective
        step is ``step_size / mean(s)`` so behavior is invariant to the
        overall sample scale).  Every iteration starts from this base step
        and halves it whenever a candidate would increase the loss, up to
        ``max_backtracks`` times; the halving does not carry over to the
        next iteration.
    threshold_scale : float
        Multiplier on the residual-driven adaptive threshold.
    tolerance : float
        Early-stop threshold on the relative iterate change.
    """

    max_iterations: int = 200
    step_size: float = 0.1
    threshold_scale: float = 15.0
    tolerance: float = 1e-6
    max_backtracks: int = 20
    divergence_factor: float = 1e6

    def __post_init__(self) -> None:
        check_numeric_fields(self)
        if self.max_iterations < 0:
            raise ConfigurationError("iteration budget must be non-negative")
        if self.step_size <= 0:
            raise ConfigurationError("step size must be positive")
        if self.threshold_scale <= 0:
            raise ConfigurationError("threshold scale must be positive")
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        if self.max_backtracks < 0:
            raise ConfigurationError("backtrack budget must be non-negative")
        if self.divergence_factor <= 1:
            raise ConfigurationError("divergence factor must exceed 1")


@dataclass(frozen=True)
class SensingBatch:
    """Probe vectors and scalar samples for one subframe.

    Attributes
    ----------
    probes : numpy.ndarray
        Shape ``(L, D)``; row ``l`` is the known probe vector ``h(l)``.
    samples : numpy.ndarray
        Shape ``(L,)`` of real non-negative measurements ``s(l)``.
    subframe_index : int
    normalized : bool
        Whether the samples were divided by their pre-normalization mean
        (diagnostic only; all algorithms work at any scale).

    The conjugated probes and the sample mean are computed once per batch
    and cached, so ``probes`` and ``samples`` must not be mutated after
    construction.
    """

    probes: np.ndarray
    samples: np.ndarray
    subframe_index: int = 0
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.probes.ndim != 2:
            raise ShapeError(f"probes must be (L, D), got {self.probes.shape}")
        if self.samples.shape != (self.probes.shape[0],):
            raise ShapeError(
                f"{self.probes.shape[0]} probes but samples of shape "
                f"{self.samples.shape}"
            )
        if self.probes.shape[0] < 1:
            raise ConfigurationError("a batch needs at least one sample")

    @property
    def n_samples(self) -> int:
        return self.probes.shape[0]

    @property
    def dimension(self) -> int:
        return self.probes.shape[1]

    @cached_property
    def conj_probes(self) -> np.ndarray:
        """``probes.conj()``, built on first use and kept for the batch."""
        return self.probes.conj()

    @cached_property
    def sample_mean(self) -> float:
        return float(np.mean(self.samples))

    def offset(self, phi: np.ndarray) -> float:
        """The common offset ``mean(s) - ||phi||^2`` absorbed by the loss."""
        return self.sample_mean - float(np.linalg.norm(phi) ** 2)


@dataclass(frozen=True)
class ExtractionDiagnostics:
    final_loss: float
    iterations: int
    initial_support: tuple
    init_fallback: bool
    degenerate_init: bool
    converged: bool
    backtracks_exhausted: bool


@dataclass(frozen=True)
class SparsityFingerprint:
    """A sparse fingerprint vector with its support and run diagnostics."""

    values: np.ndarray
    support: tuple
    subframe_index: int
    diagnostics: ExtractionDiagnostics | None = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _responses(batch: SensingBatch, phi: np.ndarray) -> np.ndarray:
    """Probe responses ``zeta_l = <h(l), phi>`` (conjugate-linear in h)."""
    return batch.conj_probes @ phi


def _residuals(batch: SensingBatch, phi: np.ndarray) -> tuple:
    """Evaluate ``phi`` once: its residuals and probe responses.

    Every quantity of the descent at ``phi`` (loss, gradient, threshold) is
    a function of this pair, so :func:`extract` computes it once per point
    and hands it to the helpers below.
    """
    zeta = _responses(batch, phi)
    residual = batch.samples - np.abs(zeta) ** 2 - batch.offset(phi)
    return residual, zeta


def _mean_square(residual: np.ndarray) -> float:
    return float(np.mean(residual**2))


def _gradient_at(
    batch: SensingBatch,
    phi: np.ndarray,
    residual: np.ndarray,
    zeta: np.ndarray,
) -> np.ndarray:
    total = (residual.sum()) * phi - batch.probes.T @ (residual * zeta)
    return (2.0 / batch.n_samples) * total


def _threshold_at(
    batch: SensingBatch,
    residual: np.ndarray,
    zeta: np.ndarray,
    cfg: ExtractorConfig,
) -> float:
    d = batch.dimension
    kappa = math.log(d * batch.n_samples) / d**2
    total = float(np.sum(residual**2 * np.abs(zeta) ** 2))
    return cfg.threshold_scale * math.sqrt(kappa * total)


def loss(batch: SensingBatch, phi: np.ndarray) -> float:
    """Mean squared residual of the offset-corrected quadratic fit."""
    residual, _ = _residuals(batch, phi)
    return _mean_square(residual)


def gradient(batch: SensingBatch, phi: np.ndarray) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of :func:`loss` at ``phi``.

    For real-coordinate finite differences, ``dL/dRe(phi_i) = 2 Re(g_i)``
    and ``dL/dIm(phi_i) = 2 Im(g_i)``.
    """
    residual, zeta = _residuals(batch, phi)
    return _gradient_at(batch, phi, residual, zeta)


def threshold_value(
    batch: SensingBatch, phi: np.ndarray, cfg: ExtractorConfig
) -> float:
    """Adaptive threshold ``alpha * sqrt(kappa * sum_l r_l^2 |zeta_l|^2)``
    with ``kappa = ln(D * L) / D^2``."""
    residual, zeta = _residuals(batch, phi)
    return _threshold_at(batch, residual, zeta, cfg)


def hard_threshold(z: np.ndarray, delta: float) -> np.ndarray:
    """Zero every entry with magnitude strictly below ``delta``.

    Entries exactly at the threshold are kept.
    """
    if delta < 0:
        raise ConfigurationError("threshold must be non-negative")
    z = np.asarray(z)
    return np.where(np.abs(z) >= delta, z, 0.0)


def support_statistic(batch: SensingBatch) -> np.ndarray:
    """Per-coordinate screening statistic ``|mean_l s(l) (|h_i(l)|^2 - 1)|``.

    For unit-variance probes its expectation is the squared magnitude of
    the underlying vector's i-th coordinate, so large values flag likely
    support coordinates.
    """
    weights = np.abs(batch.probes) ** 2 - 1.0
    return np.abs(batch.samples @ weights) / batch.n_samples


def support_threshold(dimension: int, n_samples: int) -> float:
    """Screening cut ``sqrt(ln(D * L) / D)``."""
    return math.sqrt(math.log(dimension * n_samples) / dimension)


def select_support(batch: SensingBatch) -> tuple:
    """Coordinates whose screening statistic exceeds the cut.

    May be empty (e.g. for all-zero samples); callers that need a nonempty
    seed fall back to the largest-statistic coordinate.
    """
    stat = support_statistic(batch)
    gamma = support_threshold(batch.dimension, batch.n_samples)
    return tuple(int(i) for i in np.flatnonzero(stat > gamma))


def spectral_init(batch: SensingBatch, support: Sequence[int]) -> tuple:
    """Spectral initializer restricted to the selected coordinates.

    Builds the mean-centered weighted probe covariance on the support,
    takes the eigenvector of largest-magnitude eigenvalue, and scales it by
    ``sqrt(|psi| / 2)`` where ``psi`` is the weighted quadratic response of
    that direction minus the sample mean.  If the centered covariance is
    identically zero (all samples equal), the direction falls back to the
    basis vector of the largest-screening-statistic support coordinate.

    Returns ``(phi, degenerate)``, where ``degenerate`` says whether the
    fallback was taken.
    """
    support = tuple(int(i) for i in support)
    if len(support) == 0:
        raise InitializationError("cannot initialize on an empty support")
    if any(i < 0 or i >= batch.dimension for i in support):
        raise ConfigurationError(f"support {support} outside the dimension")

    sub = batch.probes[:, support]
    weights = batch.samples - batch.sample_mean
    z = (sub.T * weights) @ sub.conj() / batch.n_samples
    if not np.all(np.isfinite(z)):
        raise InitializationError("centered probe covariance is not finite")

    scale = float(np.max(np.abs(z))) if z.size else 0.0
    degenerate = scale < 1e-15 * max(1.0, abs(batch.sample_mean))
    if degenerate:
        # All samples equal: the centered covariance vanishes and no
        # spectral direction exists.  Fall back to the support coordinate
        # with the largest screening statistic.
        stat = support_statistic(batch)[list(support)]
        v_sub = np.zeros(len(support), dtype=np.complex128)
        v_sub[int(np.argmax(stat))] = 1.0
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(z)
        v_sub = eigenvectors[:, int(np.argmax(np.abs(eigenvalues)))]

    v = np.zeros(batch.dimension, dtype=np.complex128)
    v[list(support)] = v_sub
    quad = float(
        np.mean(batch.samples * np.abs(_responses(batch, v)) ** 2)
    )
    psi = quad - batch.sample_mean
    return v * math.sqrt(abs(psi) / 2.0), degenerate


def extract(
    batch: SensingBatch, cfg: ExtractorConfig | None = None
) -> SparsityFingerprint:
    """Full extraction: support screening, spectral start, thresholded
    gradient descent with monotone backtracking.

    Raises
    ------
    ExtractionError
        If the loss diverges or the recovered vector is identically zero
        (samples carry no usable structure).
    """
    if cfg is None:
        cfg = ExtractorConfig()

    support = select_support(batch)
    init_fallback = len(support) == 0
    if init_fallback:
        support = (int(np.argmax(support_statistic(batch))),)

    phi, degenerate_init = spectral_init(batch, support)

    # The residuals and responses of the current iterate are carried from
    # the accepted candidate, so each point is evaluated exactly once.
    residual, zeta = _residuals(batch, phi)
    current_loss = _mean_square(residual)
    initial_loss = max(current_loss, np.finfo(float).tiny)
    if not np.isfinite(current_loss):
        raise ExtractionError("loss is not finite at the initializer")

    mean = batch.sample_mean
    base_step = cfg.step_size / mean if mean > 0 else cfg.step_size
    iterations = 0
    converged = False
    backtracks_exhausted = False

    for _ in range(cfg.max_iterations):
        grad = _gradient_at(batch, phi, residual, zeta)
        delta = _threshold_at(batch, residual, zeta, cfg)
        step = base_step
        accepted = False
        for _ in range(cfg.max_backtracks + 1):
            candidate = hard_threshold(phi - step * grad, step * delta)
            candidate_residual, candidate_zeta = _residuals(batch, candidate)
            candidate_loss = _mean_square(candidate_residual)
            if np.isfinite(candidate_loss) and candidate_loss <= current_loss:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            backtracks_exhausted = True
            break
        iterations += 1
        change = np.linalg.norm(candidate - phi)
        scale = max(np.linalg.norm(phi), np.finfo(float).tiny)
        phi, current_loss = candidate, candidate_loss
        residual, zeta = candidate_residual, candidate_zeta
        if current_loss > cfg.divergence_factor * initial_loss:
            raise ExtractionError(
                f"loss diverged: {current_loss:.3e} from {initial_loss:.3e}"
            )
        if change <= cfg.tolerance * scale:
            converged = True
            break

    if np.linalg.norm(phi) == 0.0:
        raise ExtractionError(
            "extraction produced an identically zero vector; the samples "
            "carry no usable energy"
        )

    final_support = tuple(int(i) for i in np.flatnonzero(phi))
    diagnostics = ExtractionDiagnostics(
        final_loss=float(current_loss),
        iterations=iterations,
        initial_support=support,
        init_fallback=init_fallback,
        degenerate_init=degenerate_init,
        converged=converged,
        backtracks_exhausted=backtracks_exhausted,
    )
    return SparsityFingerprint(
        values=phi,
        support=final_support,
        subframe_index=batch.subframe_index,
        diagnostics=diagnostics,
    )


def draw_gaussian_probes(
    n_samples: int, dimension: int, rng
) -> np.ndarray:
    """Complex Gaussian probes with unit variance per entry."""
    gen = as_generator(rng)
    return (
        gen.normal(size=(n_samples, dimension))
        + 1j * gen.normal(size=(n_samples, dimension))
    ) / math.sqrt(2.0)


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
    normalized = False
    if normalize:
        mean = float(np.mean(samples))
        if mean > 0:
            samples = samples / mean
            normalized = True
    return SensingBatch(
        probes=probes,
        samples=samples,
        subframe_index=estimate.subframe_index,
        normalized=normalized,
    )
