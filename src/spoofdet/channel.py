"""Clustered-delay-line multipath channel draws on a uniform linear array.

Energy arrives in a small number of delay/azimuth clusters.  Each cluster is
realized as a bundle of rays with independent uniform phases and Gaussian
angle offsets around the cluster azimuth; an optional Ricean factor on the
first cluster splits off a deterministic-direction dominant ray.  Because the
cluster count is small and angular spreads are narrow, the per-tap response
across antennas is sparse in the beam (DFT-across-antennas) domain — the
physical property the fingerprint extractor exploits.

Draws are normalized small-scale profiles with no distance in them: the
expected squared Frobenius norm of the tap matrix is ``M * sum(cluster
powers) = M``, and an actor enters a draw only through its line-of-sight
azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ClusterTableError, ConfigurationError, ShapeError

__all__ = [
    "ClusterTable",
    "GeometryScenario",
    "load_cluster_table",
    "default_cluster_table",
    "steering_vector",
    "draw_channel",
    "draw_azimuths",
    "beamspace",
    "vectorize_taps",
    "as_generator",
    "complex_normal",
]

DEFAULT_TABLE_PATH = Path(__file__).parent / "data" / "clustered_los.yaml"

# Equal-power rays that make up each cluster's diffuse part.
RAYS_PER_CLUSTER = 20


@dataclass(frozen=True)
class ClusterTable:
    """Per-cluster delay/power/angle parameterization of a multipath profile.

    Attributes
    ----------
    delays_ns : numpy.ndarray
        Cluster excess delays in nanoseconds, non-negative, sorted ascending.
    powers : numpy.ndarray
        Linear cluster powers normalized to sum to one.
    azimuths_deg : numpy.ndarray
        Cluster azimuth offsets in degrees, relative to the source's
        line-of-sight azimuth as seen from the array.
    spreads_deg : numpy.ndarray
        Per-cluster ray angular spread (standard deviation, degrees).
    ricean_k_db : float or None
        Ricean factor for the first cluster in dB.  When set, a fraction
        ``K/(K+1)`` of the first cluster's power goes to a single
        deterministic-direction ray at the exact cluster azimuth and the
        remainder is spread over diffuse rays.  ``None`` means fully diffuse.

    The table keeps read-only float copies of the four columns, so one
    instance can be shared by every trial of a run.
    """

    delays_ns: np.ndarray
    powers: np.ndarray
    azimuths_deg: np.ndarray
    spreads_deg: np.ndarray
    ricean_k_db: float | None = None

    def __post_init__(self) -> None:
        for name in ("delays_ns", "powers", "azimuths_deg", "spreads_deg"):
            column = np.array(getattr(self, name), dtype=float)
            if column.ndim != 1:
                raise ClusterTableError(f"{name} must be a list of numbers")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        arrays = (self.delays_ns, self.powers, self.azimuths_deg, self.spreads_deg)
        n = len(self.delays_ns)
        if n == 0:
            raise ClusterTableError("cluster table must contain at least one cluster")
        if any(len(a) != n for a in arrays):
            raise ClusterTableError("cluster table columns differ in length")
        if np.any(self.delays_ns < 0):
            raise ClusterTableError("cluster delays must be non-negative")
        if np.any(np.diff(self.delays_ns) < 0):
            raise ClusterTableError("cluster delays must be sorted ascending")
        if np.any(self.powers <= 0):
            raise ClusterTableError("cluster powers must be positive")
        if abs(float(np.sum(self.powers)) - 1.0) > 1e-9:
            raise ClusterTableError("normalized cluster powers must sum to 1")
        if np.any(self.spreads_deg < 0):
            raise ClusterTableError("angular spreads must be non-negative")

    @property
    def num_clusters(self) -> int:
        return len(self.delays_ns)

    @classmethod
    def from_dict(cls, raw: dict) -> "ClusterTable":
        """Build a table from a plain mapping (e.g. a parsed YAML document).

        Recognized keys: ``delays_ns``, ``powers_db`` (relative powers in dB,
        normalized here to sum to one in linear units), ``azimuths_deg``,
        ``spreads_deg``, and optional ``ricean_k_db``.  A missing key or a
        value that is not a number raises :class:`ClusterTableError`.
        """
        try:
            delays = np.asarray(raw["delays_ns"], dtype=float)
            powers_db = np.asarray(raw["powers_db"], dtype=float)
            azimuths = np.asarray(raw["azimuths_deg"], dtype=float)
            spreads = np.asarray(raw["spreads_deg"], dtype=float)
            k_db = raw.get("ricean_k_db")
            k_db = None if k_db is None else float(k_db)
        except KeyError as missing:
            raise ClusterTableError(f"cluster table missing key {missing}") from None
        except (TypeError, ValueError) as exc:
            raise ClusterTableError(f"cluster table value: {exc}") from None
        powers = 10.0 ** (powers_db / 10.0)
        total = float(np.sum(powers))
        if total <= 0:
            raise ClusterTableError("cluster powers sum to zero")
        return cls(
            delays_ns=delays,
            powers=powers / total,
            azimuths_deg=azimuths,
            spreads_deg=spreads,
            ricean_k_db=k_db,
        )


def load_cluster_table(path: str | Path) -> ClusterTable:
    """Load a :class:`ClusterTable` from a YAML file.

    A file that cannot be read, is not valid YAML or does not hold a valid
    table raises :class:`ClusterTableError` naming the path, so a trial
    records it as it records any other configuration error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ClusterTableError("expected a mapping at top level")
        return ClusterTable.from_dict(raw)
    except (OSError, UnicodeDecodeError, yaml.YAMLError,
            ClusterTableError) as exc:
        raise ClusterTableError(f"{path}: {exc}") from exc


def default_cluster_table() -> ClusterTable:
    """Return the shipped line-of-sight-dominant cluster profile."""
    return load_cluster_table(DEFAULT_TABLE_PATH)


@dataclass(frozen=True)
class GeometryScenario:
    """Array geometry plus each actor's line-of-sight azimuth.

    Attributes
    ----------
    num_antennas : int
        Array size ``M`` (uniform linear array).
    element_spacing_wavelengths : float
        Inter-element spacing in carrier wavelengths (0.5 = half wavelength).
    user_azimuths_deg : tuple of float
        One azimuth per served user, in degrees.
    attacker_azimuth_deg : float
    """

    num_antennas: int
    element_spacing_wavelengths: float
    user_azimuths_deg: tuple
    attacker_azimuth_deg: float

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ConfigurationError("need at least one antenna")
        if self.element_spacing_wavelengths <= 0:
            raise ConfigurationError("element spacing must be positive")

    def azimuth_of(self, source: int | str) -> float:
        """Resolve a source id: a 0-based user index or ``"attacker"``."""
        if source == "attacker":
            return self.attacker_azimuth_deg
        users = self.user_azimuths_deg
        if isinstance(source, int) and 0 <= source < len(users):
            return users[source]
        raise ConfigurationError(f"unknown source id {source!r}")


def steering_vector(
    num_antennas: int, azimuth_deg: float, spacing_wavelengths: float = 0.5
) -> np.ndarray:
    """Uniform-linear-array response to a plane wave from ``azimuth_deg``.

    Element ``m`` has phase ``2*pi*spacing*m*sin(azimuth)``; broadside (0
    degrees) gives the all-ones vector.
    """
    m = np.arange(num_antennas)
    phase = 2.0 * np.pi * spacing_wavelengths * m * math.sin(math.radians(azimuth_deg))
    return np.exp(1j * phase)


def as_generator(seed) -> np.random.Generator:
    """Use ``seed`` as is if it is a Generator, else seed a new one from it."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_normal(shape, scale: float, rng) -> np.ndarray:
    """``scale * (x + 1j * y)`` for standard normal ``x``, then ``y``.

    The complex array is allocated once and each part is written as
    ``scale * x`` in place.  Those are the bits numpy gives for a real
    times a complex array, and for a complex array divided by
    ``1 / scale`` (complex-by-real division multiplies each part by the
    reciprocal).  ``standard_normal`` gives the values of ``normal(0, 1)``
    and leaves the generator at the same position, without its
    location-scale step.
    """
    gen = as_generator(rng)
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(gen.standard_normal(size=shape), scale, out=out.real)
    np.multiply(gen.standard_normal(size=shape), scale, out=out.imag)
    return out


def draw_channel(
    scenario: GeometryScenario,
    table: ClusterTable,
    source: int | str,
    num_taps: int,
    tap_duration_ns: float,
    rng,
) -> np.ndarray:
    """Draw the ``(num_taps, M)`` tap matrix of one channel of ``source``.

    Row ``t`` is the response across antennas at delay tap ``t``.

    Each cluster maps to the tap nearest its delay and contributes a bundle
    of ``RAYS_PER_CLUSTER`` equal-power rays with independent uniform phases
    and Gaussian azimuth offsets (standard deviation = the cluster's spread)
    around the cluster azimuth.  With a Ricean factor configured, the first
    cluster instead sends the fraction ``K/(K+1)`` of its power on a single
    random-phase ray at the exact cluster azimuth.  Expected total energy is
    ``M`` (per-antenna unit average gain); per-draw randomness enters only
    through ray phases and angle offsets.

    Parameters
    ----------
    rng : int, SeedSequence, or numpy.random.Generator
        Seed material for reproducible draws.
    """
    if num_taps < 1:
        raise ConfigurationError(f"num_taps must be positive, got {num_taps}")
    if tap_duration_ns <= 0:
        raise ConfigurationError("tap duration must be positive")
    gen = as_generator(rng)
    azimuth = scenario.azimuth_of(source)
    m_ant = scenario.num_antennas
    spacing = scenario.element_spacing_wavelengths

    taps = np.zeros((num_taps, m_ant), dtype=np.complex128)
    cluster_azimuths = azimuth + table.azimuths_deg

    for c in range(table.num_clusters):
        tap_index = int(round(table.delays_ns[c] / tap_duration_ns))
        if tap_index >= num_taps:
            raise ClusterTableError(
                f"cluster {c} at {table.delays_ns[c]} ns maps to tap "
                f"{tap_index}, beyond the {num_taps}-tap window "
                f"({tap_duration_ns} ns per tap)"
            )
        power = float(table.powers[c])
        diffuse_power = power
        if c == 0 and table.ricean_k_db is not None:
            k_lin = 10.0 ** (table.ricean_k_db / 10.0)
            dominant_power = power * k_lin / (k_lin + 1.0)
            diffuse_power = power / (k_lin + 1.0)
            phase = gen.uniform(0.0, 2.0 * np.pi)
            taps[tap_index] += (
                math.sqrt(dominant_power)
                * np.exp(1j * phase)
                * steering_vector(m_ant, cluster_azimuths[c], spacing)
            )
        ray_amp = math.sqrt(diffuse_power / RAYS_PER_CLUSTER)
        offsets = gen.normal(0.0, table.spreads_deg[c], size=RAYS_PER_CLUSTER)
        phases = gen.uniform(0.0, 2.0 * np.pi, size=RAYS_PER_CLUSTER)
        sines = np.sin(np.radians(cluster_azimuths[c] + offsets))
        steering = np.exp(
            2j * np.pi * spacing * np.outer(sines, np.arange(m_ant))
        )
        gains = ray_amp * np.exp(1j * phases)
        taps[tap_index] += gains @ steering

    return taps


def draw_azimuths(count: int, rng) -> list[float]:
    """Draw ``count`` azimuths uniformly on ``[0, 360)`` degrees.

    The stream's first ``count`` values are skipped: they once held the
    actors' ranges, which no channel draw reads, so skipping them keeps
    every seed's azimuths as they were.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    gen = as_generator(rng)
    return gen.uniform(0.0, 360.0, size=2 * count)[count:].tolist()


def beamspace(taps: np.ndarray) -> np.ndarray:
    """Unitary DFT across the antenna axis, tap by tap.

    Input shape ``(..., num_taps, M)``; output has the same shape with the
    last axis in beam coordinates.  Energy is preserved exactly.
    """
    taps = np.asarray(taps)
    if taps.ndim < 2:
        raise ShapeError(f"expected (..., taps, antennas), got {taps.shape}")
    return np.fft.fft(taps, axis=-1, norm="ortho")


def vectorize_taps(taps: np.ndarray) -> np.ndarray:
    """Flatten a ``(num_taps, M)`` matrix tap-major into a length ``M*tau``
    vector: coordinate ``i = tap * M + column``."""
    taps = np.asarray(taps)
    if taps.ndim != 2:
        raise ShapeError(f"expected a (taps, antennas) matrix, got {taps.shape}")
    return taps.reshape(-1)
