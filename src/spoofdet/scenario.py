"""Scenario configuration: one object tying every module's knobs together.

A scenario fixes the array and user population, the radio operating point
(signal-to-noise and jammer-to-signal ratios), the pilot layout, the channel
profile (which also fixes the delay-tap window), per-detector settings, and
the Monte Carlo budget.  It can be read from a flat YAML file keyed by its
own field names (the layout of ``to_dict``) and hashed for reproducibility
bookkeeping.

Conventions baked in here rather than scattered through the harness:

* A resource block holds ``SAMPLES_PER_RB = 12`` estimation samples, the
  NR block's 12 subcarriers (3GPP TS 38.211 section 4.4.4.1), so
  ``L = 12 * rb_count``: 16 blocks give 192 samples and 4 blocks give 48.
* The users' pilots are cyclic shifts of one Zadoff-Chu root,
  ``PILOT_SHIFT = 5`` samples apart.  Same-root pilots stay orthogonal
  over a delay window no longer than the shift, so a scenario holds at
  most ``PILOT_SHIFT`` taps.
* Delay taps are ``channel.TAP_DURATION_NS = 240`` ns apart, and the
  delay window is the cluster profile's span: it ends at the tap of the
  last cluster.  A profile fits within ``PILOT_SHIFT`` taps, 1.2 us, or
  every trial of it fails with ``ClusterTableError``.
* Absolute transmit powers are normalized away; only the two ratios matter.
  The stated signal-to-noise ratio is interpreted at the channel-estimate
  level: the per-element estimate-noise variance is
  ``ESTIMATE_SIGNAL_LEVEL / snr_linear``, with ``ESTIMATE_SIGNAL_LEVEL =
  5.0`` the estimate's reference signal level per element.
* User 0, ``VICTIM``, is the monitored user.  Users are exchangeable, so
  any one of them stands for all: every channel is drawn i.i.d. from its
  own seed stream, every pilot is a cyclic shift of one root sequence, and
  the attacker spoofs whichever pilot is watched.
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
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .baselines import NOISE_FLOOR_MULTIPLE
from .channel import (
    TAP_DURATION_NS,
    ClusterTable,
    default_cluster_table,
    load_cluster_table,
    nearest_taps,
)
from .errors import ClusterTableError, ConfigurationError, check_numeric_fields
from .extractor import ExtractorConfig
from .zc import build_pool, generate_zc

SAMPLES_PER_RB = 12
PILOT_SHIFT = 5
ESTIMATE_SIGNAL_LEVEL = 5.0
VICTIM = 0

# The fields that decide where and how the trials run, not what they make.
RUN_FIELDS = frozenset({"workers"})


def pilot_pool(length: int, num_users: int) -> np.ndarray:
    """Read-only ``(num_users, length)`` array of the users' pilots: the
    cyclic shifts, ``PILOT_SHIFT`` apart, of Zadoff-Chu root 1, the one root
    every scenario uses."""
    return build_pool(generate_zc(length, 1), PILOT_SHIFT, num_users)


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to linear units."""
    return float(10.0 ** (value_db / 10.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated deployment and experiment.

    Attributes
    ----------
    num_antennas, num_users, sequence_length
        Array size M (a uniform linear array with half-wavelength spacing,
        ``channel.ELEMENT_SPACING_WAVELENGTHS``), active user count K, and
        reference-sequence length N (K shifts of ``PILOT_SHIFT`` must fit
        into it).
    rb_count
        Occupied resource blocks; ``SAMPLES_PER_RB`` times this is the
        per-subframe sample budget L.
    snr_db, jsr_db
        Radio operating point: the received signal-to-noise ratio and the
        received jammer-to-signal ratio.
    cluster_table
        The path of a YAML cluster profile in the layout of
        ``ClusterTable.from_dict``, its clusters sampled every
        ``channel.TAP_DURATION_NS``; ``None`` selects the default profile
        built into ``channel.py`` (``default_cluster_table``), which reads
        no file; ``from_yaml`` joins a relative one to the scenario file's
        directory.  The ``table`` property reads it once per config, and
        the ``num_taps`` property takes the delay window from it.
    threshold_scale, tolerance
        The fingerprint extractor's two settings, with the defaults and the
        meaning of ``ExtractorConfig``; the ``extractor`` property bundles
        them.  They are plain fields so that ``run_sweep`` can take either
        as an axis.
    trials, master_seed, workers
        Monte Carlo budget, root seed, and the process count of a run:
        above 1, a pool of workers with one BLAS thread each (needs a
        ``__main__`` guard); at 1, BLAS's default thread count, which
        ``OPENBLAS_NUM_THREADS=1`` did not consistently beat (L=48 and
        L=192 on 2 vCPU).  The result directory is not a setting: it is
        the ``out_dir`` argument of ``run_scenario`` and ``run_sweep``.
    """

    num_antennas: int = 64
    num_users: int = 16
    sequence_length: int = 139
    rb_count: int = 16
    snr_db: float = 5.0
    jsr_db: float = 0.0
    cluster_table: str | None = None
    threshold_scale: float = ExtractorConfig.threshold_scale
    tolerance: float = ExtractorConfig.tolerance
    trials: int = 500
    master_seed: int = 2026
    workers: int = 1

    # ``channel.TAP_DURATION_NS``, which ``bench/replay.py`` reads here.  Not
    # a field: it goes when that replay is retired (ROADMAP item 14).
    tap_duration_ns: ClassVar[float] = TAP_DURATION_NS

    def __post_init__(self) -> None:
        check_numeric_fields(self)
        # The cluster table's path is stored as str, so a Path and its
        # string compare, print and hash alike.
        table = self.cluster_table
        if table is not None:
            path = (
                os.fspath(table) if isinstance(table, (str, os.PathLike))
                else None
            )
            if not isinstance(path, str):
                raise ConfigurationError(
                    f"cluster_table must be a path, got {table!r}"
                )
            object.__setattr__(self, "cluster_table", path)
        self.extractor  # raises what ExtractorConfig rejects
        for name in ("num_antennas", "num_users", "rb_count", "trials",
                     "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.sequence_length < 2:
            raise ConfigurationError("sequence length must be at least 2")
        self.build_pool()  # raises CapacityError if the users do not fit
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
        if self.master_seed < 0:
            raise ConfigurationError("master seed must be non-negative")

    # ---------------------------------------------------------------- derived

    @property
    def extractor(self) -> ExtractorConfig:
        """The extractor's settings, as ``extract`` takes them."""
        return ExtractorConfig(self.threshold_scale, self.tolerance)

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

    @cached_property
    def table(self) -> ClusterTable:
        """The table ``cluster_table`` names, read at first use and kept (a
        pickled copy carries it) for the trials and ``config_hash``; a path
        that gives no table raises ``ClusterTableError`` at every use."""
        if self.cluster_table is None:
            return default_cluster_table()
        return load_cluster_table(self.cluster_table)

    @cached_property
    def num_taps(self) -> int:
        """The delay window T in taps, the span of ``table``: one more than
        the tap nearest the last cluster's delay (``channel.nearest_taps``,
        the rounding the channel draws use).  Taken once per config and
        kept, as ``table`` is; a table beyond ``PILOT_SHIFT`` taps, or a
        path that gives none, raises ``ClusterTableError`` at every use."""
        table = self.table
        last = table.num_clusters - 1
        tap = int(nearest_taps(table, TAP_DURATION_NS)[last])
        if tap >= PILOT_SHIFT:
            raise ClusterTableError(
                f"cluster {last} at {table.delays_ns[last]} ns maps to tap "
                f"{tap}, so the profile spans {tap + 1} taps, more than the "
                f"PILOT_SHIFT = {PILOT_SHIFT} over which same-root pilots "
                f"stay orthogonal ({TAP_DURATION_NS} ns per tap)"
            )
        return tap + 1

    def build_pool(self) -> np.ndarray:
        """The users' pilots: :func:`pilot_pool` of this config."""
        return pilot_pool(self.sequence_length, self.num_users)

    def subspace_config(self) -> float:
        """``baselines.NOISE_FLOOR_MULTIPLE``, which ``bench/replay.py``
        passes to ``sd_statistic``.  It goes when that replay is retired
        (ROADMAP item 14)."""
        return NOISE_FLOOR_MULTIPLE

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Flat plain-data view, ``{field name: value}`` in declaration
        order: the layout of a scenario file."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def config_hash(self) -> str:
        """Stable short hash of every field that can change a trial: all
        but the ``RUN_FIELDS``.

        ``cluster_table`` is hashed as ``table``, the table the trials draw
        from: its four columns and ``ricean_k_db``, so one table hashes
        alike under any path that names it.  A path that does not give a
        table hashes as the path: the trials that fail on it still get a
        summary.
        """
        raw = self.to_dict()
        for name in RUN_FIELDS:
            del raw[name]
        try:
            table = self.table
        except ClusterTableError:
            pass
        else:
            raw["cluster_table"] = {
                f.name: np.asarray(getattr(table, f.name)).tolist()
                for f in fields(table)
            }
        payload = json.dumps(raw, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build a config from the flat layout of ``to_dict``.

        Missing keys fall back to defaults; a key that is not a field and a
        value of the wrong type are rejected, so typos fail loudly.
        """
        if not isinstance(raw, dict):
            raise ConfigurationError("configuration root must be a mapping")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            # A YAML key need not be a string: sorted by repr, a mix of
            # types still gives a message, not a TypeError.
            raise ConfigurationError(
                f"unknown configuration keys: {sorted(unknown, key=repr)}"
            )
        return cls(**raw)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ScenarioConfig":
        """Build a config from a scenario file in the layout of ``to_dict``,
        joining a relative ``cluster_table`` to the file's directory."""
        import yaml  # only reading a scenario file needs it

        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
        table = raw.get("cluster_table") if isinstance(raw, dict) else None
        if isinstance(table, str) and not os.path.isabs(table):
            raw["cluster_table"] = os.path.join(os.path.dirname(path), table)
        try:
            return cls.from_dict(raw)
        except ConfigurationError as exc:
            raise type(exc)(f"configuration file {path}: {exc}") from exc
