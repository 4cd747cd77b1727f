"""Scenario configuration: one object tying every module's knobs together.

A scenario fixes the array and user population, the radio operating point
(signal-to-noise and jammer-to-signal ratios), the pilot layout, the channel
profile, per-detector settings, and the Monte Carlo budget.  It can be
round-tripped through a nested YAML file and hashed for reproducibility
bookkeeping.

Conventions baked in here rather than scattered through the harness:

* Resource blocks map to estimation samples linearly: ``L = samples_per_rb *
  rb_count`` (12 samples per block by default, so 16 blocks give 192 samples
  and 4 blocks give 48).
* Absolute transmit powers are normalized away; only the two ratios matter.
  The stated signal-to-noise ratio is interpreted at the channel-estimate
  level: the per-element estimate-noise variance is ``link_gain /
  snr_linear``, with ``link_gain`` the reference per-element signal level
  of the estimate.  The full chain's nominal noise variance
  (``link.LinkConfig.for_scenario``) is back-solved from that target.
* The attacker's strength is calibrated per trial so that its received
  energy over the victim's is exactly the configured jammer-to-signal
  ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .baselines import SdConfig
from .detector import DEFAULT_THRESHOLD
from .errors import ConfigurationError, check_numeric_fields
from .extractor import ExtractorConfig
from .zc import PreamblePool, build_pool, generate_zc


# The YAML layout, in file order: each section and the ScenarioConfig fields
# it holds.  The ``extractor`` and ``subspace`` sections hold the fields of
# the nested config of that name.
_LAYOUT = {
    "array": ("num_antennas", "element_spacing_wavelengths"),
    "users": ("num_users", "victim_index"),
    "radio": ("snr_db", "jsr_db", "link_gain", "victim_power"),
    "pilot": ("sequence_length", "shift_size", "rb_count", "samples_per_rb"),
    "channel": ("num_taps", "tap_duration_ns", "cluster_table"),
    "geometry": ("inner_radius_m", "outer_radius_m"),
    "extractor": ExtractorConfig,
    "detector": ("similarity_threshold",),
    "subspace": SdConfig,
    "experiment": ("trials", "master_seed", "output_dir", "workers"),
}


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
        of the pilot pool (must exceed the delay spread so same-root pilots
        stay orthogonal over the delay window).
    rb_count, samples_per_rb
        Occupied resource blocks and the per-block estimation-sample
        count; their product is the per-subframe sample budget L.
    snr_db, jsr_db, link_gain, victim_power, victim_index
        Radio operating point.  ``snr_db`` is the received signal-to-noise
        ratio; ``jsr_db`` the received jammer-to-signal ratio; ``link_gain``
        the per-element estimate signal reference used to convert the SNR
        into an estimate-noise variance.
    inner_radius_m, outer_radius_m, element_spacing_wavelengths
        Deployment annulus and array spacing.
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
        Monte Carlo budget, root seed, result directory, and worker count.
    """

    num_antennas: int = 64
    num_users: int = 16
    num_taps: int = 4
    sequence_length: int = 139
    shift_size: int = 5
    rb_count: int = 16
    samples_per_rb: int = 12
    snr_db: float = 5.0
    jsr_db: float = 0.0
    link_gain: float = 5.0
    victim_power: float = 1.0
    victim_index: int = 0
    inner_radius_m: float = 100.0
    outer_radius_m: float = 120.0
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
        for name in ("num_antennas", "num_users", "num_taps", "rb_count",
                     "samples_per_rb", "trials", "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.sequence_length < 2:
            raise ConfigurationError("sequence length must be at least 2")
        if self.shift_size <= self.num_taps:
            raise ConfigurationError(
                f"shift size {self.shift_size} must exceed the delay "
                f"spread {self.num_taps} to keep same-root pilots "
                "orthogonal over the delay window"
            )
        if not 0 <= self.victim_index < self.num_users:
            raise ConfigurationError(
                f"victim index {self.victim_index} outside "
                f"0..{self.num_users - 1}"
            )
        if self.link_gain <= 0:
            raise ConfigurationError("link gain must be positive")
        if self.victim_power <= 0:
            raise ConfigurationError("victim power must be positive")
        if not 0 < self.inner_radius_m < self.outer_radius_m:
            raise ConfigurationError(
                "need 0 < inner radius < outer radius"
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
        return self.samples_per_rb * self.rb_count

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
        return self.link_gain / self.snr_linear

    @property
    def tap_noise_variance(self) -> float:
        """Per-element variance of the delay-tap estimate noise."""
        return self.estimate_noise_variance / self.sequence_length

    @property
    def receive_noise_variance(self) -> float:
        """Per-element variance of the raw received-signal noise."""
        return (self.estimate_noise_variance * self.victim_power
                / self.sequence_length)

    def build_pool(self) -> PreamblePool:
        """Single-root pilot pool with one entry per user."""
        return build_pool(
            generate_zc(self.sequence_length, 1), self.shift_size,
            self.num_users,
        )

    def subspace_config(self) -> SdConfig:
        """Subspace-detector settings."""
        return self.subspace

    def cell_tag(self) -> str:
        """Short label for this operating point, used in file naming."""
        return f"snr{self.snr_db:+g}_rb{self.rb_count}"

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
        """Stable short hash of every field that can change a trial.

        ``output_dir`` and ``workers`` are left out: they decide where and
        how the trials run, not what they produce.
        """
        raw = self.to_dict()
        experiment = raw["experiment"]
        del experiment["output_dir"], experiment["workers"]
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
