"""Sparse spatial-fingerprint extraction from scalar probe measurements.

One subframe yields ``L`` scalar samples, each the squared magnitude of a
known random probe vector applied to that sample's channel estimate (in
beam-by-tap coordinates).  The extractor recovers a sparse vector whose
squared probe responses, after removing a common offset, reproduce the
samples: it minimizes the mean squared residual

    mean_l [ s(l) - |<h(l), phi>|^2 - (mean(s) - ||phi||^2) ]^2

over ``phi`` by hard-thresholded gradient descent, started from a spectral
initializer restricted to a pre-selected subset of at most ``L``
coordinates, so that no start is wider than its batch.  Every start is one
solve: the eigenvalues of the subset's weighted probe covariance, one
inverse-iteration solve for the lead direction, a map back through the
probes, and a rotation that fixes its phase.  The descent stops once its
support and loss have settled: after five accepted iterations in a row
that each keep the support and lower the loss by at most ``tolerance``
times the loss before them, or reach a loss at the rounding level of the
squared samples, ``eps * mean(s)**2``.  The recovered support
concentrates on the dominant beams of the underlying channel, so the
normalized vector acts as a spatial fingerprint: stable across subframes
for one transmitter, disrupted when a second transmitter contaminates the
estimates.

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
    "extract_all",
    "draw_gaussian_probes",
    "probe_responses",
]

# Base step of the descent, relative to the sample mean: the effective step
# is ``BASE_STEP / mean(s)``, so behaviour is invariant to the overall
# sample scale.  Every iteration starts from this step and halves it
# whenever a candidate would increase the loss, up to ``MAX_BACKTRACKS``
# times; the halving does not carry over to the next iteration.
BASE_STEP = 0.1
# Gradient-descent iteration budget; 0 returns the initializer.
MAX_ITERATIONS = 200
# Step halvings allowed per iteration.  When every one of the
# ``MAX_BACKTRACKS + 1`` candidates would raise the loss (or is not finite),
# the descent stops at the current iterate and flags
# ``backtracks_exhausted``.
MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class ExtractorConfig:
    """Tuning knobs of the thresholded-gradient extraction.

    Attributes
    ----------
    threshold_scale : float
        Multiplier on the residual-driven adaptive threshold.
    tolerance : float
        Relative bound on the loss drop of a settled iteration.  An
        accepted iteration is settled when its candidate keeps the current
        support and lowers the loss by at most ``tolerance`` times the
        current loss, or when the candidate's loss is at most
        ``eps * mean(s)**2`` (a noiseless batch's loss falls by a steady
        ratio toward 0 and never drops by a small relative amount); five
        settled iterations in a row end the descent as converged.  At 0
        only iterations that leave the loss exactly where it was, or reach
        that floor, count as settled.
    """

    threshold_scale: float = 15.0
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        check_numeric_fields(self)
        if self.threshold_scale <= 0:
            raise ConfigurationError("threshold scale must be positive")
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")


@dataclass(frozen=True)
class SensingBatch:
    """Probe vectors and scalar samples for one subframe.

    Attributes
    ----------
    probes : numpy.ndarray
        Shape ``(L, D)``; row ``l`` is the known probe vector ``h(l)``.
    samples : numpy.ndarray
        Shape ``(L,)`` of real non-negative measurements ``s(l)``.

    The sample mean is computed once per batch and cached, so ``samples``
    must not be mutated after construction.  No conjugated copy of the
    probes is kept: the probe responses conjugate the vector instead.
    """

    probes: np.ndarray
    samples: np.ndarray

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
    def sample_mean(self) -> float:
        return float(np.mean(self.samples))


@dataclass(frozen=True)
class ExtractionDiagnostics:
    """How one descent went.

    ``iterations`` counts accepted iterations.  ``converged`` says that the
    descent stopped because its support and loss had settled (see
    ``ExtractorConfig.tolerance``); ``backtracks_exhausted`` that no step
    lowered the loss.  A descent with neither flag ran its full
    ``MAX_ITERATIONS`` budget.  ``initial_support`` is the screened
    support, ``init_fallback`` says that the screen kept no coordinate and
    the largest-statistic one was used, and ``degenerate_init`` that the
    spectral start took its fallback direction.
    """

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
    diagnostics: ExtractionDiagnostics | None = None


# A descent stops after this many settled iterations in a row (see
# ``ExtractorConfig.tolerance``).
_SETTLE_ITERATIONS = 5

_ZERO_VECTOR = (
    "extraction produced an identically zero vector; the samples carry no "
    "usable energy"
)


def probe_responses(probes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Responses ``zeta_l = <h(l), phi>`` of the ``(L, D)`` probe rows
    ``h(l)`` (conjugate-linear in h).

    Formed as ``conj(probes @ conj(phi))``, with the outer conjugate taken
    in place, so no conjugated copy of the probes is made.  Its bits are
    those of ``probes.conj() @ phi``: the same mat-vec kernel runs on the
    same layout with only the signs of operands flipped, and
    round-to-nearest is symmetric in sign.  The one exception is an exact
    zero, which may come out as ``-0.0`` where the copy gives ``+0.0`` (at
    the zero vector); the sign of a zero changes neither ``|zeta|`` nor any
    sum the gradient forms from ``zeta``.
    """
    zeta = probes @ phi.conj()
    return np.conjugate(zeta, out=zeta)


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
    zeta = probe_responses(batch.probes, phi)
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
    """Coordinates whose screening statistic exceeds the cut, at most ``L``
    of them, in ascending order.

    When more than ``L`` pass, the ``L`` largest statistics are kept (the
    top-s screen of SPARTA, Wang et al., IEEE TSP 2018, with ``s = L``); of
    equal statistics the lower coordinate is kept first.  May be empty
    (e.g. for all-zero samples); callers that need a nonempty seed fall
    back to the largest-statistic coordinate.
    """
    stat = support_statistic(batch)
    gamma = support_threshold(batch.dimension, batch.n_samples)
    passed = np.flatnonzero(stat > gamma)
    if passed.size > batch.n_samples:
        top = np.argsort(-stat[passed], kind="stable")[:batch.n_samples]
        passed = np.sort(passed[top])
    return tuple(passed.tolist())


def spectral_init(batch: SensingBatch, support: Sequence[int]) -> tuple:
    """Spectral initializer restricted to the selected coordinates.

    Takes the lead direction (largest-magnitude eigenvalue) of the
    mean-centered weighted probe covariance on the support and scales it by
    ``sqrt(|psi| / 2)`` where ``psi`` is the weighted quadratic response of
    that direction minus the sample mean.  If the centered covariance is
    identically zero (all samples equal), the direction falls back to the
    basis vector of the largest-screening-statistic support coordinate.

    The covariance is ``T = A diag(w) A^H / L``, with ``A`` the ``s x L``
    support probes, transposed, and ``w`` the centered samples; a support
    wider than ``L`` (never one from :func:`select_support`) makes it
    rank-deficient and is solved alike.  Its eigenvalues give the lead
    ``mu``, and one solve of ``(T - mu (1 + 1e-12) I) u = 1`` its
    eigenvector ``u`` (the nudge keeps an exactly diagonal ``T``
    solvable).  The direction is the map back ``A (w * A^H u) = L T u``,
    kept rather than ``u`` because the records were made with its
    rounding.  It is normalized and rotated to make its largest-magnitude
    entry real and positive: the loss ignores this phase, but the
    descent's rounding, and so exact similarity ties, do not.  The
    non-finite and the all-zero checks read ``T``.

    Returns ``(phi, degenerate)``, where ``degenerate`` says whether the
    fallback was taken.

    Raises
    ------
    InitializationError
        If the support is empty or ``T`` is not finite.
    ConfigurationError
        If the support holds a non-integer, a repeated or an out-of-range
        coordinate.
    """
    index = np.asarray(support)
    if index.size == 0:
        raise InitializationError("cannot initialize on an empty support")
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ConfigurationError(
            f"support {support} is not a sequence of integers"
        )
    ordered = np.sort(index)
    if ordered[0] < 0 or ordered[-1] >= batch.dimension:
        raise ConfigurationError(f"support {support} outside the dimension")
    if (ordered[1:] == ordered[:-1]).any():
        raise ConfigurationError(f"support {support} repeats a coordinate")

    factor = batch.probes[:, index].T  # A
    weights = batch.samples - batch.sample_mean
    adjoint = factor.conj().T  # A^H
    matrix = (factor * weights) @ adjoint / batch.n_samples
    if not np.all(np.isfinite(matrix)):
        raise InitializationError("centered probe covariance is not finite")

    scale = float(np.max(np.abs(matrix)))
    degenerate = scale < 1e-15 * max(1.0, abs(batch.sample_mean))
    if degenerate:
        # All samples equal: the centered covariance vanishes and no
        # spectral direction exists.  Fall back to the support coordinate
        # with the largest screening statistic.
        stat = support_statistic(batch)[index]
        v_sub = np.zeros(index.size, dtype=np.complex128)
        v_sub[int(np.argmax(stat))] = 1.0
    else:
        eigenvalues = np.linalg.eigvalsh(matrix)
        lead = eigenvalues[int(np.argmax(np.abs(eigenvalues)))]
        shifted = matrix - lead * (1.0 + 1e-12) * np.eye(len(matrix))
        u = np.linalg.solve(shifted, np.ones(len(matrix)))
        v_sub = factor @ (weights * (adjoint @ u))
        v_sub /= _norm(v_sub)
        peak = v_sub[int(np.argmax(np.abs(v_sub)))]
        v_sub *= peak.conjugate() / abs(peak)

    v = np.zeros(batch.dimension, dtype=np.complex128)
    v[index] = v_sub
    quad = float(
        np.mean(batch.samples * np.abs(probe_responses(batch.probes, v)) ** 2)
    )
    psi = quad - batch.sample_mean
    return v * math.sqrt(abs(psi) / 2.0), degenerate


def extract(
    batch: SensingBatch, cfg: ExtractorConfig | None = None
) -> SparsityFingerprint:
    """Full extraction of one batch, as :func:`extract_all` of ``[batch]``:
    support screening, spectral start, thresholded gradient descent with
    monotone backtracking, until the support and loss have settled (see
    ``ExtractorConfig.tolerance``) or the ``MAX_ITERATIONS`` budget is spent.

    The descent ends at its first iterate that is exactly zero: the zero
    vector is a fixed point of the update (the gradient and the threshold
    both vanish there), so running on could only return it.

    Raises
    ------
    ExtractionError
        If the loss is not finite at the initializer, or an iterate is
        identically zero (samples carry no usable structure).
    """
    return extract_all([batch], cfg)[0]


def extract_all(batches, cfg: ExtractorConfig | None = None) -> list:
    """The fingerprints of ``batches``, each as :func:`extract` gives it.

    ``batches`` is read once and lazily: each descent is started (support
    screen, spectral start, first iteration) before the next batch is
    taken, and the descents are finished in order after the last start.
    The first error, in that order, is raised.  Most failing descents fail
    at their start, so such a sequence takes no batch after the failing
    one and runs no more than the first iteration of the ones before it.
    """
    if cfg is None:
        cfg = ExtractorConfig()
    started = []
    for batch in batches:
        descent = _descend(batch, cfg)
        started.append((descent, next(descent)))
    return [
        next(descent) if fingerprint is None else fingerprint
        for descent, fingerprint in started
    ]


def _descend(batch: SensingBatch, cfg: ExtractorConfig):
    """The descent of one batch as a generator: it yields None after its
    first iteration unless that iteration ends it, then the fingerprint."""
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
    base_step = BASE_STEP / mean if mean > 0 else BASE_STEP
    probes_t = batch.probes.T
    two_over_l = 2.0 / batch.n_samples
    kappa = _kappa(batch)
    # A noiseless batch's loss falls by a steady ratio toward 0, so its
    # relative drop never gets small: a loss at the rounding level of the
    # squared samples also counts as settled.
    loss_floor = float(np.finfo(float).eps) * mean**2
    iterations = 0
    settled = 0
    converged = False
    backtracks_exhausted = False

    for _ in range(MAX_ITERATIONS):
        grad = _gradient_at(point, phi, probes_t, two_over_l)
        delta = _threshold_at(point, kappa, cfg)
        step = base_step
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
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
        drop = current_loss - candidate_loss
        if candidate_loss <= loss_floor or (
            drop <= cfg.tolerance * current_loss
            and np.array_equal(candidate != 0, phi != 0)
        ):
            settled += 1
        else:
            settled = 0
        phi, point, current_loss = candidate, candidate_point, candidate_loss
        if point.norm == 0.0 and not phi.any():
            raise ExtractionError(_ZERO_VECTOR)
        if settled == _SETTLE_ITERATIONS:
            converged = True
            break
        if iterations == 1:
            yield

    if point.norm == 0.0:  # also when the squares of tiny entries underflow
        raise ExtractionError(_ZERO_VECTOR)

    final_support = tuple(np.flatnonzero(phi).tolist())
    diagnostics = ExtractionDiagnostics(
        final_loss=float(current_loss),
        iterations=iterations,
        initial_support=support,
        init_fallback=init_fallback,
        degenerate_init=degenerate_init,
        converged=converged,
        backtracks_exhausted=backtracks_exhausted,
    )
    yield SparsityFingerprint(
        values=phi,
        support=final_support,
        diagnostics=diagnostics,
    )


def draw_gaussian_probes(
    n_samples: int, dimension: int, rng
) -> np.ndarray:
    """Complex Gaussian probes with unit variance per entry: the bits of
    ``(x + 1j * y) / sqrt(2)``, real parts drawn first."""
    return complex_normal((n_samples, dimension), 1.0 / math.sqrt(2.0), rng)
