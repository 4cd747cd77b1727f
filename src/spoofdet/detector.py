"""Sequential fingerprint-similarity anomaly detection.

Each subframe yields a sparse spatial fingerprint of the monitored user's
channel.  Under normal operation consecutive fingerprints point in nearly
the same direction, so their normalized inner-product magnitude stays close
to one; a second transmitter superimposes its own spatial structure and
drags the similarity down.  The detector keeps a reference fingerprint,
compares each new fingerprint against it, and raises an alarm whenever the
similarity falls below a calibrated threshold.  Only a fingerprint judged
normal replaces the reference, so an attack cannot poison the comparisons
that follow it.

Fingerprints carry an arbitrary global phase (the extraction loss is
phase-invariant), so the similarity uses the Hermitian inner product with
an absolute value: it is invariant to independent phase and scale on either
argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateFingerprintError
from .extractor import SparsityFingerprint

__all__ = [
    "Decision",
    "DetectionOutcome",
    "DetectorState",
    "StreamResult",
    "similarity",
    "step",
    "run_stream",
]

DEFAULT_THRESHOLD = 0.92


class Decision(str, Enum):
    NORMAL = "normal"
    ALARM = "spoofing-alarm"


@dataclass(frozen=True)
class DetectionOutcome:
    """One decision record: which subframe, how similar, what was decided,
    and which reference subframe the comparison used."""

    subframe_index: int
    similarity: float
    decision: Decision
    reference_subframe: int


@dataclass
class DetectorState:
    """Mutable per-user detector state.

    The reference is the most recent fingerprint judged normal: an alarmed
    fingerprint never becomes the reference, so a transient attack cannot
    poison later comparisons.
    """

    reference: SparsityFingerprint
    threshold: float = DEFAULT_THRESHOLD
    history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(
                f"similarity threshold must lie in [0, 1], got {self.threshold}"
            )
        if self.reference.norm == 0.0:
            raise DegenerateFingerprintError(
                "reference fingerprint has zero norm"
            )

    @property
    def first_alarm_index(self) -> int | None:
        for outcome in self.history:
            if outcome.decision is Decision.ALARM:
                return outcome.subframe_index
        return None


@dataclass(frozen=True)
class StreamResult:
    outcomes: tuple
    first_alarm_index: int | None
    state: DetectorState


def _values(fingerprint) -> np.ndarray:
    if isinstance(fingerprint, SparsityFingerprint):
        return fingerprint.values
    return np.asarray(fingerprint)


def similarity(fingerprint_a, fingerprint_b) -> float:
    """Normalized Hermitian inner-product magnitude, clamped to [0, 1].

    Invariant under independent nonzero complex scaling of either argument
    and symmetric in its arguments.
    """
    a = _values(fingerprint_a)
    b = _values(fingerprint_b)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateFingerprintError(
            "cannot compare a zero-norm fingerprint"
        )
    value = float(abs(np.vdot(a, b))) / (norm_a * norm_b)
    return min(max(value, 0.0), 1.0)


def step(state: DetectorState, new: SparsityFingerprint) -> DetectionOutcome:
    """Compare ``new`` against the reference and decide.

    Similarity at or above the threshold is normal and promotes ``new`` to
    the reference; below the threshold raises a spoofing alarm and keeps
    the reference.  Degenerate input or an out-of-order subframe index
    raises without touching the state.
    """
    if new.norm == 0.0:
        raise DegenerateFingerprintError(
            "new fingerprint has zero norm; state unchanged"
        )
    if state.history and new.subframe_index <= state.history[-1].subframe_index:
        raise ConfigurationError(
            f"subframe indices must be strictly increasing: got "
            f"{new.subframe_index} after {state.history[-1].subframe_index}"
        )

    value = similarity(state.reference, new)
    decision = Decision.NORMAL if value >= state.threshold else Decision.ALARM
    outcome = DetectionOutcome(
        subframe_index=new.subframe_index,
        similarity=value,
        decision=decision,
        reference_subframe=state.reference.subframe_index,
    )
    state.history.append(outcome)
    if decision is Decision.NORMAL:
        state.reference = new
    return outcome


def run_stream(
    fingerprints: Sequence[SparsityFingerprint],
    threshold: float = DEFAULT_THRESHOLD,
) -> StreamResult:
    """Fold :func:`step` over an ordered fingerprint stream.

    Positions are numbered 1-based; the first fingerprint initializes the
    reference and produces no decision, so outcomes start at position 2.
    The first-alarm index is the smallest position decided as an alarm, or
    ``None`` when the whole stream is normal.
    """
    if len(fingerprints) == 0:
        raise ConfigurationError("fingerprint stream is empty")
    renumbered = [
        replace(fp, subframe_index=position)
        for position, fp in enumerate(fingerprints, start=1)
    ]
    state = DetectorState(reference=renumbered[0], threshold=threshold)
    for fp in renumbered[1:]:
        step(state, fp)
    return StreamResult(
        outcomes=tuple(state.history),
        first_alarm_index=state.first_alarm_index,
        state=state,
    )
