"""Scenario configuration: one object tying every module's knobs together.

A scenario fixes the array and user population, the radio operating point
(signal-to-noise and jammer-to-signal ratios), the pilot layout, the channel
profile, per-detector settings, and the Monte Carlo budget.  It can be
round-tripped through a nested YAML file and hashed for reproducibility
bookkeeping.

Conventions baked in here rather than scattered through the harness:

* A resource block holds ``SAMPLES_PER_RB = 12`` estimation samples, the
  NR block's 12 subcarriers (3GPP TS 38.211 section 4.4.4.1), so
  ``L = 12 * rb_count``: 16 blocks give 192 samples and 4 blocks give 48.
* Absolute transmit powers are normalized away; only the two ratios matter.
  The stated signal-to-noise ratio is interpreted at the channel-estimate
  level: the per-element estimate-noise variance is
  ``ESTIMATE_SIGNAL_LEVEL / snr_linear``, with ``ESTIMATE_SIGNAL_LEVEL =
  5.0`` the estimate's reference signal level per element.
* User 0 is the monitored user (``experiments.VICTIM``).  Users are
  exchangeable, so any one of them stands for all: every channel is drawn
  i.i.d. from its own seed stream, every pilot is a cyclic shift of one
  root sequence, and the attacker spoofs whichever pilot is watched.
* Actors have no range.  The channel profile is a normalized small-scale
  one with no distance in it, so each trial places every user and the
  attacker by a uniformly drawn azimuth alone.
* The attacker's strength is calibrated per trial so that its received
  energy over the victim's is exactly the configured jammer-to-signal
  ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .baselines import SdConfig
from .detector import DEFAULT_THRESHOLD
from .errors import ConfigurationError, check_numeric_fields
from .extractor import ExtractorConfig
from .zc import build_pool, generate_zc

SAMPLES_PER_RB = 12
ESTIMATE_SIGNAL_LEVEL = 5.0

# The YAML layout, in file order: each section and the ScenarioConfig fields
# it holds.  The ``extractor`` and ``subspace`` sections hold the fields of
# the nested config of that name.
_LAYOUT = {
    "array": ("num_antennas", "element_spacing_wavelengths"),
    "users": ("num_users",),
    "radio": ("snr_db", "jsr_db"),
    "pilot": ("sequence_length", "shift_size", "rb_count"),
    "channel": ("num_taps", "tap_duration_ns", "cluster_table"),
    "extractor": ExtractorConfig,
    "detector": ("similarity_threshold",),
    "subspace": SdConfig,
    "experiment": ("trials", "master_seed", "output_dir", "workers"),
}

# The fields that decide where and how the trials run, not what they make.
RUN_FIELDS = frozenset({"output_dir", "workers"})


def pilot_pool(length: int, shift_size: int, num_users: int) -> np.ndarray:
    """Read-only ``(num_users, length)`` array of the users' pilots: the
    cyclic shifts, ``shift_size`` apart, of Zadoff-Chu root 1, the one root
    every scenario uses."""
    return build_pool(generate_zc(length, 1), shift_size, num_users)


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to linear units."""
    return float(10.0 ** (value_db / 10.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated deployment and experiment.

    Attributes
    ----------
    num_antennas, num_users, num_taps, sequence_length, shift_size
        Array size M, active user count K, channel delay-spread length in
        taps, reference-sequence length N, and the cyclic-shift separation
        of the pilot pool (at least the delay spread, so that same-root
        pilots stay orthogonal over the delay window, and K shifts must fit
        into N).
    rb_count
        Occupied resource blocks; ``SAMPLES_PER_RB`` times this is the
        per-subframe sample budget L.
    snr_db, jsr_db
        Radio operating point: the received signal-to-noise ratio and the
        received jammer-to-signal ratio.
    element_spacing_wavelengths
        Array spacing in carrier wavelengths; must be positive.
    tap_duration_ns, cluster_table
        Channel sampling and the path of the cluster profile (``None``
        selects the packaged default profile).
    extractor, similarity_threshold
        Fingerprint-extraction settings and the sequential detector's
        similarity threshold (only a subframe judged normal updates its
        reference).
    subspace
        Subspace-detector settings.
    trials, master_seed, output_dir, workers
        Monte Carlo budget, root seed, result directory, and the process
        count of a run: above 1, a pool of workers with one BLAS thread each
        (needs a ``__main__`` guard); at 1, BLAS's default thread count,
        though ``OPENBLAS_NUM_THREADS=1`` ran small cells faster (L=48 on 2
        vCPU: 562 against 438 trials/s).
    """

    num_antennas: int = 64
    num_users: int = 16
    num_taps: int = 4
    sequence_length: int = 139
    shift_size: int = 5
    rb_count: int = 16
    snr_db: float = 5.0
    jsr_db: float = 0.0
    element_spacing_wavelengths: float = 0.5
    tap_duration_ns: float = 240.0
    cluster_table: str | None = None
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    similarity_threshold: float = DEFAULT_THRESHOLD
    subspace: SdConfig = field(default_factory=SdConfig)
    trials: int = 500
    master_seed: int = 2026
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self) -> None:
        check_numeric_fields(self)
        # Paths are stored as str, so a Path and its string compare, print
        # and hash alike.
        for name, optional in (("cluster_table", True), ("output_dir", False)):
            value = getattr(self, name)
            if value is None and optional:
                continue
            path = (
                os.fspath(value) if isinstance(value, (str, os.PathLike))
                else None
            )
            if not isinstance(path, str):
                raise ConfigurationError(
                    f"{name} must be a path, got {value!r}"
                )
            object.__setattr__(self, name, path)
        for name, kind in (("extractor", ExtractorConfig),
                           ("subspace", SdConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be an {kind.__name__}, got {value!r}"
                )
        for name in ("num_antennas", "num_users", "num_taps", "rb_count",
                     "trials", "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.sequence_length < 2:
            raise ConfigurationError("sequence length must be at least 2")
        if self.shift_size < self.num_taps:
            raise ConfigurationError(
                f"shift size {self.shift_size} must be at least the delay "
                f"spread {self.num_taps} to keep same-root pilots "
                "orthogonal over the delay window"
            )
        self.build_pool()  # raises CapacityError if the users do not fit
        if self.element_spacing_wavelengths <= 0:
            raise ConfigurationError("element spacing must be positive")
        for name in ("snr_db", "jsr_db"):
            try:
                ratio = db_to_linear(getattr(self, name))
            except OverflowError:
                ratio = math.inf
            if not 0.0 < ratio < math.inf:
                raise ConfigurationError(
                    f"{name} = {getattr(self, name)} gives a linear ratio "
                    "that is not a positive finite float"
                )
        if not (math.isfinite(self.estimate_noise_variance)
                and self.receive_noise_variance > 0):
            raise ConfigurationError(
                f"snr_db {self.snr_db} gives a noise variance that is not "
                "positive and finite"
            )
        if self.tap_duration_ns <= 0:
            raise ConfigurationError("tap duration must be positive")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ConfigurationError(
                "similarity threshold must lie in [0, 1]"
            )
        if self.master_seed < 0:
            raise ConfigurationError("master seed must be non-negative")

    # ---------------------------------------------------------------- derived

    @property
    def n_samples(self) -> int:
        """Per-subframe estimation samples L implied by the block count."""
        return SAMPLES_PER_RB * self.rb_count

    @property
    def fingerprint_dimension(self) -> int:
        """Sparse-fingerprint length: taps times antennas."""
        return self.num_taps * self.num_antennas

    @property
    def snr_linear(self) -> float:
        return db_to_linear(self.snr_db)

    @property
    def jsr_linear(self) -> float:
        return db_to_linear(self.jsr_db)

    @property
    def estimate_noise_variance(self) -> float:
        """Target per-element variance of the frequency-domain estimate noise."""
        return ESTIMATE_SIGNAL_LEVEL / self.snr_linear

    @property
    def receive_noise_variance(self) -> float:
        """Per-element variance of the raw received-signal noise, and of the
        delay-tap estimate noise.

        Both laws share this value because every user transmits at unit
        power and the pilot spectrum is flat: least-squares division by the
        pilot scales the receive noise by ``N`` into the frequency-domain
        estimate noise, and the delay-tap form divides that by ``N`` again.
        """
        return self.estimate_noise_variance / self.sequence_length

    def build_pool(self) -> np.ndarray:
        """The users' pilots: :func:`pilot_pool` of this config."""
        return pilot_pool(
            self.sequence_length, self.shift_size, self.num_users
        )

    def subspace_config(self) -> SdConfig:
        """``self.subspace``.  Its one caller is ``bench/replay.py``, and it
        goes when that replay is retired (ROADMAP.md)."""
        return self.subspace

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Nested plain-data view mirroring the YAML layout."""
        return {
            section: (
                asdict(getattr(self, section)) if isinstance(keys, type)
                else {key: getattr(self, key) for key in keys}
            )
            for section, keys in _LAYOUT.items()
        }

    def config_hash(self) -> str:
        """Stable short hash of every field that can change a trial: all
        but the ``RUN_FIELDS``."""
        raw = self.to_dict()
        for name in RUN_FIELDS:
            del raw["experiment"][name]
        payload = json.dumps(raw, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_yaml(self, path: str | Path) -> None:
        Path(path).write_text(
            yaml.safe_dump(self.to_dict(), sort_keys=False)
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build a config from the nested plain-data layout.

        Missing sections or keys fall back to defaults; unknown keys and
        values of the wrong type are rejected so typos fail loudly.
        """
        if not isinstance(raw, dict):
            raise ConfigurationError("configuration root must be a mapping")
        unknown_sections = set(raw) - set(_LAYOUT)
        if unknown_sections:
            raise ConfigurationError(
                f"unknown configuration sections: {sorted(unknown_sections)}"
            )
        kwargs: dict = {}
        for section, keys in _LAYOUT.items():
            body = raw.get(section)
            if body is None:
                body = {}
            if not isinstance(body, dict):
                raise ConfigurationError(
                    f"section {section!r} must be a mapping"
                )
            nested = isinstance(keys, type)
            valid = {f.name for f in fields(keys)} if nested else set(keys)
            unknown = set(body) - valid
            if unknown:
                raise ConfigurationError(
                    f"unknown keys in section {section!r}: {sorted(unknown)}"
                )
            if nested:
                kwargs[section] = keys(**body)
            else:
                kwargs.update(body)
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read configuration file {path}: {exc}"
            ) from exc
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(
                f"configuration file {path} is not valid YAML: {exc}"
            ) from exc
        if raw is None:
            raw = {}
        return cls.from_dict(raw)
