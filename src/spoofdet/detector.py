"""Sequential fingerprint-similarity anomaly detection.

Each subframe yields a sparse spatial fingerprint of the monitored user's
channel.  Under normal operation consecutive fingerprints point in nearly
the same direction, so their normalized inner-product magnitude stays close
to one; a second transmitter superimposes its own spatial structure and
drags the similarity down.  :func:`run_stream` is one fold over a stream:
it compares each fingerprint with a reference, judges a similarity at or
above the threshold normal and one below it an alarm.  Only a fingerprint
judged normal replaces the reference, so an attack cannot poison the
comparisons that follow it.

Fingerprints carry an arbitrary global phase (the extraction loss is
phase-invariant), so the similarity uses the Hermitian inner product with
an absolute value: it is invariant to independent phase and scale on either
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateFingerprintError
from .extractor import SparsityFingerprint

__all__ = [
    "DEFAULT_THRESHOLD",
    "StreamResult",
    "check_threshold",
    "similarity",
    "run_stream",
]

DEFAULT_THRESHOLD = 0.92


def check_threshold(threshold: float) -> None:
    """Reject a similarity threshold outside [0, 1] with
    :class:`ConfigurationError`."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(
            f"similarity threshold must lie in [0, 1], got {threshold}"
        )


def similarity(fingerprint_a, fingerprint_b) -> float:
    """Normalized Hermitian inner-product magnitude, clamped to [0, 1].

    Invariant under independent nonzero complex scaling of either argument
    and symmetric in its arguments.  Two fingerprints whose one nonzero is
    the same coordinate are collinear and score exactly 1.0, not whatever
    the rounding of the general expression gives.
    """
    a = fingerprint_a.values
    b = fingerprint_b.values
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateFingerprintError(
            "cannot compare a zero-norm fingerprint"
        )
    support = np.flatnonzero(a)
    if support.size == 1 and np.array_equal(support, np.flatnonzero(b)):
        return 1.0
    value = float(abs(np.vdot(a, b))) / (norm_a * norm_b)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class StreamResult:
    """The similarities of one stream's positions ``2..n``, each against
    the last earlier fingerprint judged normal, and the threshold that
    judged them."""

    similarities: tuple
    threshold: float

    @property
    def first_alarm_index(self) -> int | None:
        """The first 1-based position judged an alarm, or ``None`` when
        the whole stream is normal."""
        for position, value in enumerate(self.similarities, start=2):
            if value < self.threshold:
                return position
        return None


def run_stream(
    fingerprints: Sequence[SparsityFingerprint],
    threshold: float = DEFAULT_THRESHOLD,
) -> StreamResult:
    """Fold the sequential rule over an ordered fingerprint stream.

    The first fingerprint is the first reference and gets no similarity.
    Each later one is compared with the reference; a similarity at or above
    ``threshold`` is normal and makes it the reference, one below is an
    alarm and keeps the reference.  An empty stream or a threshold outside
    [0, 1] is a configuration error; a zero-norm fingerprint is degenerate.
    """
    if len(fingerprints) == 0:
        raise ConfigurationError("fingerprint stream is empty")
    check_threshold(threshold)
    reference = fingerprints[0]
    if np.linalg.norm(reference.values) == 0.0:
        raise DegenerateFingerprintError("reference fingerprint has zero norm")
    similarities = []
    for fingerprint in fingerprints[1:]:
        value = similarity(reference, fingerprint)
        similarities.append(value)
        if value >= threshold:
            reference = fingerprint
    return StreamResult(tuple(similarities), threshold)
