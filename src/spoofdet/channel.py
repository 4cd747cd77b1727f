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

``draw_channels`` draws any number of sources in one vectorised pass, each
from its own generator, so a source's channel is bit for bit the one
``draw_channel`` gives it alone.  A ray's response across the array is
computed as the powers of one phasor: one complex exponential per ray
instead of one per antenna.  ``steering_vector`` computes that response
element by element; no draw calls it, and it is the oracle the tests hold
the phasor powers to.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClusterTableError, ConfigurationError, ShapeError

__all__ = [
    "ClusterTable",
    "GeometryScenario",
    "load_cluster_table",
    "default_cluster_table",
    "steering_vector",
    "draw_channel",
    "draw_channels",
    "draw_azimuths",
    "beamspace",
    "vectorize_taps",
    "complex_normal",
]

# The default clustered multipath profile: one dominant line-of-sight
# cluster plus three weaker non-line-of-sight clusters.  The structure (LOS
# cluster with a strong Ricean factor, a few weak delayed clusters with small
# angular spread) follows standardized urban-macro clustered-delay-line
# profiles; the exact numbers are a documented stand-in, not a transcription
# of any standards table.  A YAML file passed as ``cluster_table`` holds the
# same keys.
_CLUSTERED_LOS = {
    # Cluster excess delays in nanoseconds, ascending.
    "delays_ns": [0.0, 35.0, 245.0, 610.0],
    # Relative cluster powers in dB, normalized to sum to 1 in linear units.
    "powers_db": [0.0, -13.5, -18.8, -21.0],
    # Cluster azimuth offsets in degrees, relative to the source's
    # line-of-sight direction.
    "azimuths_deg": [0.0, 28.0, -36.0, 54.0],
    # Per-cluster ray angular spread (standard deviation), degrees.
    "spreads_deg": [1.0, 3.0, 3.0, 3.0],
    # Ricean factor of the first cluster in dB (optional).
    "ricean_k_db": 13.3,
}

# Equal-power rays that make up each cluster's diffuse part.
RAYS_PER_CLUSTER = 20

# Inter-element spacing of every array, in carrier wavelengths: the
# half-wavelength uniform linear array, whose beams are 2/M rad wide.
ELEMENT_SPACING_WAVELENGTHS = 0.5

# Delay-tap duration of every trial's channel, in nanoseconds: a cluster
# maps to the tap nearest its delay over this, so the four taps of the
# default scenario cover the default profile's clusters up to 610 ns.
TAP_DURATION_NS = 240.0


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

    Every entry of the four columns, and ``ricean_k_db`` when set, must be
    finite.  The table keeps read-only float copies of the columns, so one
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
            # NaN passes every range check below.
            if not np.isfinite(column).all():
                raise ClusterTableError(f"{name} must be finite, got {column}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        k_db = self.ricean_k_db
        if k_db is not None and not math.isfinite(k_db):
            raise ClusterTableError(f"ricean_k_db must be finite, got {k_db}")
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
        ``spreads_deg``, and optional ``ricean_k_db``.  A missing key, a
        value that is not a number or one that is not finite raises
        :class:`ClusterTableError`.
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
    import yaml  # only reading a table file needs it

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
    """Return the built-in line-of-sight-dominant cluster profile."""
    return ClusterTable.from_dict(_CLUSTERED_LOS)


@dataclass(frozen=True)
class GeometryScenario:
    """Array geometry plus each actor's line-of-sight azimuth.

    Attributes
    ----------
    num_antennas : int
        Array size ``M`` (uniform linear array with element spacing
        ``ELEMENT_SPACING_WAVELENGTHS``).
    user_azimuths_deg : tuple of float
        One azimuth per served user, in degrees.
    attacker_azimuth_deg : float
    """

    num_antennas: int
    user_azimuths_deg: tuple
    attacker_azimuth_deg: float

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ConfigurationError("need at least one antenna")

    def azimuth_of(self, source: int | str) -> float:
        """Resolve a source id: a 0-based user index or ``"attacker"``."""
        if source == "attacker":
            return self.attacker_azimuth_deg
        users = self.user_azimuths_deg
        if isinstance(source, int) and 0 <= source < len(users):
            return users[source]
        raise ConfigurationError(f"unknown source id {source!r}")


def steering_vector(num_antennas: int, azimuth_deg: float) -> np.ndarray:
    """Uniform-linear-array response to a plane wave from ``azimuth_deg``.

    Element ``m`` has phase ``2*pi*spacing*m*sin(azimuth)``, with the
    spacing ``ELEMENT_SPACING_WAVELENGTHS``; broadside (0 degrees) gives
    the all-ones vector.  One exponential per element: the test oracle of
    the phasor powers the channel draws use.
    """
    m = np.arange(num_antennas)
    phase = (
        2.0 * np.pi * ELEMENT_SPACING_WAVELENGTHS * m
        * math.sin(math.radians(azimuth_deg))
    )
    return np.exp(1j * phase)


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
    gen = np.random.default_rng(rng)
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(gen.standard_normal(size=shape), scale, out=out.real)
    np.multiply(gen.standard_normal(size=shape), scale, out=out.imag)
    return out


def _steering_powers(sines: np.ndarray, num_antennas: int, gains) -> np.ndarray:
    """``gains * exp(2j*pi*spacing*m*sines)`` for ``m = 0..M-1``, with the
    antenna index on a new leading axis: shape ``(M, *sines.shape)``.

    A ray's response across the array is the powers of one phasor
    ``z = exp(2j*pi*spacing*sine)``, so each ray costs one complex
    exponential instead of ``M``.  The powers are built by doubling: rows
    ``n..2n-1`` are rows ``0..n-1`` times ``z**n``.  The rounding error of
    row ``m`` grows about linearly in ``m``; ``steering_vector`` is the
    oracle the tests hold it to.
    """
    phasor = np.exp(2j * np.pi * ELEMENT_SPACING_WAVELENGTHS * sines)
    rows = np.empty((num_antennas, *phasor.shape), dtype=np.complex128)
    rows[0] = gains
    filled = 1
    while filled < num_antennas:
        count = min(filled, num_antennas - filled)
        np.multiply(rows[:count], phasor, out=rows[filled:filled + count])
        phasor = phasor * phasor
        filled += count
    return rows


def _cluster_taps(
    table: ClusterTable, num_taps: int, tap_duration_ns: float
) -> np.ndarray:
    """The delay tap nearest each cluster's delay; a cluster beyond the
    ``num_taps``-tap window raises :class:`ClusterTableError`."""
    taps = np.rint(table.delays_ns / tap_duration_ns).astype(int)
    for c, tap_index in enumerate(taps):
        if tap_index >= num_taps:
            raise ClusterTableError(
                f"cluster {c} at {table.delays_ns[c]} ns maps to tap "
                f"{tap_index}, beyond the {num_taps}-tap window "
                f"({tap_duration_ns} ns per tap)"
            )
    return taps


def draw_channels(
    scenario: GeometryScenario,
    table: ClusterTable,
    sources: Sequence[int | str],
    num_taps: int,
    tap_duration_ns: float,
    rngs: Sequence,
) -> np.ndarray:
    """Draw the ``(S, num_taps, M)`` tap matrices of ``S`` channels, one
    per entry of ``sources``, source ``i`` from generator ``rngs[i]``.

    Row ``t`` of a matrix is the response across antennas at delay tap
    ``t``.  Each cluster maps to the tap nearest its delay and contributes
    a bundle of ``RAYS_PER_CLUSTER`` equal-power rays with independent
    uniform phases and Gaussian azimuth offsets (standard deviation = the
    cluster's spread) around the cluster azimuth.  With a Ricean factor
    configured, the first cluster instead sends the fraction ``K/(K+1)`` of
    its power on a single random-phase ray at the exact cluster azimuth.
    Expected total energy is ``M`` (per-antenna unit average gain);
    per-draw randomness enters only through ray phases and angle offsets.

    Each source draws from its own generator, in this order: the dominant
    ray's phase, then for each cluster its angle offsets and its ray
    phases, so a source's channel does not depend on the other sources of
    the call.  Then every ray of every source, the dominant ones too, goes
    through one pass of ``_steering_powers``, and each tap sums its
    clusters' rays.

    Parameters
    ----------
    sources : sequence of int or "attacker"
        Source ids as :meth:`GeometryScenario.azimuth_of` reads them.
    rngs : sequence of (int, SeedSequence, or numpy.random.Generator)
        Seed material for reproducible draws, one per source.
    """
    if num_taps < 1:
        raise ConfigurationError(f"num_taps must be positive, got {num_taps}")
    if tap_duration_ns <= 0:
        raise ConfigurationError("tap duration must be positive")
    azimuths = np.array([scenario.azimuth_of(s) for s in sources], dtype=float)
    n_sources = len(azimuths)
    if len(rngs) != n_sources:
        raise ConfigurationError(
            f"need one generator per source, got {len(rngs)} for "
            f"{n_sources} sources"
        )
    cluster_taps = _cluster_taps(table, num_taps, tap_duration_ns)

    dominant = table.ricean_k_db is not None
    n_rays = table.num_clusters * RAYS_PER_CLUSTER
    offsets = np.empty((n_sources, table.num_clusters, RAYS_PER_CLUSTER))
    phases = np.empty_like(offsets)
    dominant_phases = np.empty(n_sources)
    for s, rng in enumerate(rngs):
        gen = np.random.default_rng(rng)
        if dominant:
            dominant_phases[s] = gen.random()
        for c in range(table.num_clusters):
            gen.standard_normal(out=offsets[s, c])
            gen.random(out=phases[s, c])
    # normal(0, spread) and uniform(0, 2 pi) give these draws scaled, from
    # the same stream positions; scaling once skips their per-call
    # location-scale step.
    offsets *= table.spreads_deg[:, None]
    phases *= 2.0 * np.pi

    diffuse_powers = table.powers.copy()
    if dominant:
        k_lin = 10.0 ** (table.ricean_k_db / 10.0)
        diffuse_powers[0] = table.powers[0] / (k_lin + 1.0)
    # Every source's rays, (S, rays): each cluster's bundle in delay
    # order, after the dominant ray, so each tap's rays are contiguous.
    cluster_azimuths = azimuths[:, None] + table.azimuths_deg
    ray_azimuths = (cluster_azimuths[:, :, None] + offsets).reshape(
        n_sources, n_rays
    )
    amplitudes = np.sqrt(diffuse_powers / RAYS_PER_CLUSTER)
    gains = (amplitudes[:, None] * np.exp(1j * phases)).reshape(
        n_sources, n_rays
    )
    ray_taps = np.repeat(cluster_taps, RAYS_PER_CLUSTER)
    if dominant:
        dominant_power = table.powers[0] * k_lin / (k_lin + 1.0)
        dominant_gains = math.sqrt(dominant_power) * np.exp(
            1j * (2.0 * np.pi * dominant_phases)
        )
        ray_azimuths = np.hstack([cluster_azimuths[:, :1], ray_azimuths])
        gains = np.hstack([dominant_gains[:, None], gains])
        ray_taps = np.concatenate([cluster_taps[:1], ray_taps])

    rows = _steering_powers(
        np.sin(np.radians(ray_azimuths.T)), scenario.num_antennas, gains.T
    )  # (M, rays, S)
    # reduceat adds a tap's rays one after another whatever S is, so a
    # source's row does not depend on the others; a plain sum would switch
    # to pairwise order when S is 1.
    taps, first_rays = np.unique(ray_taps, return_index=True)
    channels = np.zeros(
        (n_sources, num_taps, scenario.num_antennas), dtype=np.complex128
    )
    channels[:, taps] = np.add.reduceat(rows, first_rays, axis=1).transpose(
        2, 1, 0
    )
    return channels


def draw_channel(
    scenario: GeometryScenario,
    table: ClusterTable,
    source: int | str,
    num_taps: int,
    tap_duration_ns: float,
    rng,
) -> np.ndarray:
    """Draw the ``(num_taps, M)`` tap matrix of one channel of ``source``:
    ``draw_channels`` of the one source with the one generator ``rng``.

    Parameters
    ----------
    rng : int, SeedSequence, or numpy.random.Generator
        Seed material for reproducible draws.
    """
    return draw_channels(
        scenario, table, [source], num_taps, tap_duration_ns, [rng]
    )[0]


def draw_azimuths(count: int, rng) -> list[float]:
    """Draw ``count`` azimuths uniformly on ``[0, 360)`` degrees.

    The stream's first ``count`` values are skipped: they once held the
    actors' ranges, which no channel draw reads, so skipping them keeps
    every seed's azimuths as they were.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    gen = np.random.default_rng(rng)
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
