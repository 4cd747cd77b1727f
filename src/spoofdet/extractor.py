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
from typing import NamedTuple, Sequence

import numpy as np

from .channel import complex_normal
from .errors import (
    ConfigurationError,
    ExtractionError,
    InitializationError,
    ShapeError,
    check_numeric_fields,
)

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
    max_backtracks : int
        Step halvings allowed per iteration.  When every one of the
        ``max_backtracks + 1`` candidates would raise the loss (or is not
        finite), the descent stops at the current iterate and flags
        ``backtracks_exhausted``.
    """

    max_iterations: int = 200
    step_size: float = 0.1
    threshold_scale: float = 15.0
    tolerance: float = 1e-6
    max_backtracks: int = 20

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
        return _evaluate(self, phi).offset


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


def _norm(v: np.ndarray) -> float:
    """``||v||``, computed as ``np.linalg.norm`` computes it for a 1-D
    complex vector, without its argument handling."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class _Point(NamedTuple):
    """Everything the descent reads at one point ``phi``: the residuals,
    the probe responses ``zeta``, the loss, ``||phi||``, the offset, and
    the elementwise squares ``r2 = residual**2`` and ``a2 = |zeta|**2``."""

    residual: np.ndarray
    zeta: np.ndarray
    loss: float
    norm: float
    offset: float
    r2: np.ndarray
    a2: np.ndarray


def _evaluate(batch: SensingBatch, phi: np.ndarray) -> _Point:
    """Evaluate ``phi`` once: one mat-vec, then elementwise work.

    Every quantity of the descent at ``phi`` (loss, gradient, threshold,
    offset) is a function of the returned point, so :func:`extract`
    evaluates each point exactly once and the public helpers below read
    the same values.

    The results must equal, bit for bit, the expressions the descent was
    defined with; only cheaper calls doing the same floating-point
    operations in the same order are allowed:

    * ``norm`` is ``sqrt(re.re + im.im)``, which is what
      ``np.linalg.norm`` computes for a 1-D complex vector;
    * ``offset`` is ``mean(s) - norm**2`` with a true power: ``pow(x, 2)``
      and ``x * x`` differ in the last bit for about 1 in 1400 values;
    * ``a2`` is ``a * a`` for ``a = |zeta|``, and ``r2`` is
      ``residual * residual``, which is what an array ``**2`` computes;
    * ``residual`` is ``(s - a2) - offset``, subtracted in that order;
    * ``loss`` is ``add.reduce(r2) / L``, which is what ``np.mean`` does.
    """
    zeta = _responses(batch, phi)
    a2 = np.abs(zeta)
    a2 *= a2
    norm = _norm(phi)
    offset = batch.sample_mean - norm**2
    residual = batch.samples - a2
    residual -= offset
    r2 = residual * residual
    loss = float(np.add.reduce(r2)) / batch.n_samples
    return _Point(residual, zeta, loss, norm, offset, r2, a2)


def _gradient_at(
    point: _Point, phi: np.ndarray, probes_t: np.ndarray, two_over_l: float
) -> np.ndarray:
    """Wirtinger gradient at ``phi``; ``probes_t`` is ``probes.T`` and
    ``two_over_l`` is ``2.0 / L``."""
    residual = point.residual
    total = np.add.reduce(residual) * phi - probes_t @ (residual * point.zeta)
    return two_over_l * total


def _kappa(batch: SensingBatch) -> float:
    d = batch.dimension
    return math.log(d * batch.n_samples) / d**2


def _threshold_at(point: _Point, kappa: float, cfg: ExtractorConfig) -> float:
    total = float(np.add.reduce(point.r2 * point.a2))
    return cfg.threshold_scale * math.sqrt(kappa * total)


def loss(batch: SensingBatch, phi: np.ndarray) -> float:
    """Mean squared residual of the offset-corrected quadratic fit."""
    return _evaluate(batch, phi).loss


def gradient(batch: SensingBatch, phi: np.ndarray) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of :func:`loss` at ``phi``.

    For real-coordinate finite differences, ``dL/dRe(phi_i) = 2 Re(g_i)``
    and ``dL/dIm(phi_i) = 2 Im(g_i)``.
    """
    return _gradient_at(
        _evaluate(batch, phi), phi, batch.probes.T, 2.0 / batch.n_samples
    )


def threshold_value(
    batch: SensingBatch, phi: np.ndarray, cfg: ExtractorConfig
) -> float:
    """Adaptive threshold ``alpha * sqrt(kappa * sum_l r_l^2 |zeta_l|^2)``
    with ``kappa = ln(D * L) / D^2``."""
    return _threshold_at(_evaluate(batch, phi), _kappa(batch), cfg)


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

    This is the resumable descent ``_Descent`` run to the end; a caller
    that may stop early (``experiments.run_single_trial``) advances one
    itself.  Once an iterate is exactly zero, the descent cannot leave it:
    the gradient, the threshold and hence the candidate are all exactly
    zero there, and the backtracking test ``<=`` accepts the equal-loss
    candidate, so the next iteration converges and the zero-vector error
    follows.

    Raises
    ------
    ExtractionError
        If the loss is not finite at the initializer, or the recovered
        vector is identically zero (samples carry no usable structure).
    """
    if cfg is None:
        cfg = ExtractorConfig()
    return _Descent(batch, cfg).finish()


class _Descent:
    """The descent of :func:`extract`, advanced one iteration at a time.

    Construction is the first advance: the support screen, the spectral
    start, the initial evaluation and one iteration; it raises what
    :func:`extract` would raise there.  ``iterate`` is the latest iterate;
    :meth:`finish` runs the remaining iterations and returns the
    fingerprint, or raises the zero-vector ``ExtractionError``.  A descent
    that ends during an advance (it converged, exhausted its backtracks or
    had no iteration budget) keeps its fingerprint for :meth:`finish`.
    """

    def __init__(self, batch: SensingBatch, cfg: ExtractorConfig):
        self._steps = _descend(batch, cfg)
        self._fingerprint: SparsityFingerprint | None = None
        self._advance()

    def _advance(self) -> None:
        try:
            self.iterate = next(self._steps)
        except StopIteration as stop:
            self._fingerprint = stop.value
            self.iterate = stop.value.values

    def finish(self) -> SparsityFingerprint:
        while self._fingerprint is None:
            self._advance()
        return self._fingerprint


def _descend(batch: SensingBatch, cfg: ExtractorConfig):
    """Generator behind ``_Descent``: yields the iterate after each
    iteration that does not end the descent, and returns the fingerprint."""
    support = select_support(batch)
    init_fallback = len(support) == 0
    if init_fallback:
        support = (int(np.argmax(support_statistic(batch))),)

    phi, degenerate_init = spectral_init(batch, support)

    # The evaluation of the current iterate is carried from the accepted
    # candidate, so each point is evaluated exactly once.
    point = _evaluate(batch, phi)
    current_loss = point.loss
    if not math.isfinite(current_loss):
        raise ExtractionError("loss is not finite at the initializer")

    mean = batch.sample_mean
    base_step = cfg.step_size / mean if mean > 0 else cfg.step_size
    probes_t = batch.probes.T
    two_over_l = 2.0 / batch.n_samples
    kappa = _kappa(batch)
    tiny = np.finfo(float).tiny
    iterations = 0
    converged = False
    backtracks_exhausted = False

    for _ in range(cfg.max_iterations):
        grad = _gradient_at(point, phi, probes_t, two_over_l)
        delta = _threshold_at(point, kappa, cfg)
        step = base_step
        accepted = False
        for _ in range(cfg.max_backtracks + 1):
            candidate = hard_threshold(phi - step * grad, step * delta)
            candidate_point = _evaluate(batch, candidate)
            candidate_loss = candidate_point.loss
            if math.isfinite(candidate_loss) and candidate_loss <= current_loss:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            backtracks_exhausted = True
            break
        iterations += 1
        change = _norm(candidate - phi)
        scale = max(point.norm, tiny)
        phi, point, current_loss = candidate, candidate_point, candidate_loss
        if change <= cfg.tolerance * scale:
            converged = True
            break
        yield phi

    if point.norm == 0.0:
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
    """Complex Gaussian probes with unit variance per entry: the bits of
    ``(x + 1j * y) / sqrt(2)``, real parts drawn first."""
    return complex_normal((n_samples, dimension), 1.0 / math.sqrt(2.0), rng)
