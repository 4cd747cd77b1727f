"""Reference detectors used for ROC comparison.

Two canonical benchmarks:

* Energy detector (ED): averages scalar energy samples of the received
  signal over a subframe and alarms when the mean exceeds a threshold.
  It needs no channel knowledge but reacts only to total power, so it
  requires many observations and degrades sharply with fewer samples.

* Subspace-dimension detector (SD): counts significant eigenvalues of the
  sample covariance over a window of antenna-space snapshot rows of the
  received signal, one per subcarrier (the summed receive of every user,
  plus the attacker's when present), and alarms when the count exceeds
  the expected dimension.
  A second transmitter adds an independent direction; heavy noise buries
  its eigenvalue under the noise floor.

Both are pure statistic functions of plain arrays; thresholds are swept by
the experiment harness to trace ROC curves.

The covariance spectrum is computed through the window-sized Gram matrix,
whose eigenvalues are exactly the nonzero covariance eigenvalues, so
windows far smaller than the snapshot dimension stay cheap and
well-defined.  The significance cut is the larger of
``NOISE_FLOOR_MULTIPLE`` (3) times the median window eigenvalue and
``RELATIVE_FLOOR`` (1e-9) times the leading eigenvalue, which keeps
exact-rank cases stable in floating point.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "ed_statistic",
    "sd_eigenvalues",
    "sd_statistic",
]

RELATIVE_FLOOR = 1e-9
# An eigenvalue is significant when it exceeds this multiple of the median
# eigenvalue of the window.  The count also never takes an eigenvalue at or
# below ``RELATIVE_FLOOR`` times the leading one.
NOISE_FLOOR_MULTIPLE = 3.0


def ed_statistic(samples: np.ndarray) -> float:
    """Average sample energy over the subframe."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise ConfigurationError("energy detector needs at least one sample")
    return float(np.mean(samples))


def _window_matrix(window: np.ndarray) -> np.ndarray:
    matrix = np.asarray(window)
    if matrix.ndim != 2:
        raise ShapeError(
            f"snapshot window must be 2-D (samples x dimension), got "
            f"shape {matrix.shape}"
        )
    if matrix.shape[0] < 2:
        raise ConfigurationError(
            "sample covariance needs a window of at least 2 snapshots"
        )
    return matrix.astype(np.complex128, copy=False)


def sd_eigenvalues(window: np.ndarray) -> np.ndarray:
    """Covariance spectrum of a snapshot window, descending.

    Returns ``min(samples, dimension)`` values — the part of the sample
    covariance's spectrum that can be nonzero.  The eigendecomposition
    runs on the smaller Gram side (window-sized for short windows,
    dimension-sized for tall ones), which carries exactly the same
    nonzero spectrum.  Values below float noise may come out slightly
    negative and are clamped to zero.
    """
    matrix = _window_matrix(window)
    n_samples, dimension = matrix.shape
    if n_samples <= dimension:
        gram = matrix @ matrix.conj().T / n_samples
    else:
        gram = matrix.conj().T @ matrix / n_samples
    eigenvalues = np.linalg.eigvalsh(gram)
    return np.maximum(eigenvalues[::-1], 0.0)


def sd_statistic(
    window: np.ndarray, noise_floor_multiple: float = NOISE_FLOOR_MULTIPLE
) -> int:
    """Estimated signal-subspace dimension of a snapshot window.

    Counts eigenvalues above ``max(multiple * median, RELATIVE_FLOOR *
    leading)`` where the median runs over the covariance spectrum
    returned by :func:`sd_eigenvalues` and ``RELATIVE_FLOOR`` is 1e-9.
    The multiple is a parameter only for ``bench/replay.py``, which passes
    ``ScenarioConfig.subspace_config()``; the parameter goes when that
    replay is retired (ROADMAP item 14).
    """
    if not noise_floor_multiple > 0:
        raise ConfigurationError("noise-floor multiple must be positive")
    eigenvalues = sd_eigenvalues(window)
    leading = float(eigenvalues[0])
    cut = max(
        noise_floor_multiple * float(np.median(eigenvalues)),
        RELATIVE_FLOOR * leading,
    )
    return int(np.sum(eigenvalues > cut))
