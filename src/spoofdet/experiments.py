"""Monte Carlo experiment engine: paired trials, streams, ROC curves, files.

Each trial draws one deployment (an azimuth and a channel per actor), then
produces the decision statistics of all three detectors under both
hypotheses with common random numbers: the attack-present arm reuses every
random draw of the attack-absent arm and differs only by the attacker's
deterministic contribution.  All randomness is derived from ``(master
seed, trial index, stream id)`` so results are reproducible and independent
of scheduling.

The per-trial observation builders use exact distributional shortcuts
instead of materialising the full ``(L, M, N)`` receive tensor:

* Fingerprint batches: the probe response of the clean tap-domain estimate
  is computed directly, and the estimate noise enters as one complex
  Gaussian per sample with variance ``tap-noise variance x ||probe||^2`` —
  exactly the law of projecting white estimate noise onto the probe.
* Energy-detector sketches: a random isotropic probe of the received
  vector gives ``|u^H y|^2 = ||y||^2 x Exp(1)``, and ``||clean + noise||^2``
  is one noncentral component plus a Gamma bulk.
* Subspace windows: the clean subcarrier-by-antenna receive matrix is one
  product of a pilot-tap basis (the FFT of each row of the pilot array
  times the spectrum of each delay tap) with the users' stacked taps, and
  white receive noise is added to it, one row per subcarrier.

These shortcuts are derived from the full transmit/receive chain in
``link.py``.  ``tests/test_experiments.py::TestShortcutsMatchLinkChain``
checks the noise-free sensing batches and subspace snapshots of both arms
against that chain, and ``TestNoiseShortcutMoments`` checks the moments of
the tap noise, the energy sketch and the snapshot noise against the laws
above.

Each input is built once and only when needed: the cluster table and the
``(N, K * T)`` pilot-tap basis once per process, keyed on the config
fields they depend on, and the rest as ``TrialSimulator`` sets out.

Trials and streams take one path, ``_extract_schedule``: the
``(subframe, attacked)`` pairs of one deployment go to
``extractor.extract_all`` as a generator of sensing batches, so each batch
is built only after the descent before it has started, and a descent whose
first iterate is zero ends the schedule there.  A paired trial scores each
arm by the ``detector.similarity`` of its subframe-2 test to the subframe-1
reference, and only a trial whose three extractions succeed builds its
baseline inputs; a stream's fingerprints are folded by
``detector.run_stream`` at the threshold its entry point is given.
``DETECTORS`` names each detector's statistic, ``trials.csv`` columns and
ROC orientation.

``run_scenario`` runs one cell and writes its files; ``run_sweep`` runs
one cell per combination of the ``ScenarioConfig`` values it is given.
With ``cfg.workers > 1`` each entry point runs on one process pool per call.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .baselines import ed_statistic, sd_statistic
from .channel import (
    TAP_DURATION_NS,
    GeometryScenario,
    beamspace,
    complex_normal,
    draw_azimuths,
    draw_channels,
    vectorize_taps,
)
from .detector import DEFAULT_THRESHOLD, StreamResult, run_stream, similarity
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    ShapeError,
    SpoofdetError,
)
from .extractor import (
    SensingBatch,
    draw_gaussian_probes,
    extract_all,
)
from .scenario import (
    RUN_FIELDS,
    VICTIM,
    ScenarioConfig,
    cluster_table_for,
    pilot_pool,
)


class Detector(NamedTuple):
    """One detector: its name, the ``ArmObservables`` field holding its
    statistic, the stem of its two ``trials.csv`` columns, and its alarm
    orientation (+1 alarms on large statistics, -1 on small ones)."""

    name: str
    field: str
    column: str
    orientation: float


# The similarity detector alarms when its statistic drops.
DETECTORS = (
    Detector("sparsity", "similarity", "similarity", -1.0),
    Detector("energy", "energy", "energy", 1.0),
    Detector("subspace", "subspace_dimension", "subspace", 1.0),
)
DETECTOR_NAMES = tuple(detector.name for detector in DETECTORS)


def _detector(name: str) -> Detector:
    """The ``DETECTORS`` row called ``name``."""
    for row in DETECTORS:
        if row.name == name:
            return row
    raise ConfigurationError(
        f"unknown detector {name!r}; expected one of {DETECTOR_NAMES}"
    )


# Seed-stream identifiers.  Every random draw in a trial comes from
# SeedSequence(master, spawn_key=(trial, stream)), so changing one trial
# index changes only that trial's draws.
_STREAM_GEOMETRY = 0
_STREAM_ATTACKER_CHANNEL = 1
_STREAM_USER_CHANNEL = 100      # + user index
_STREAM_PROBES = 1000           # + subframe index
_STREAM_TAP_NOISE = 2000        # + subframe index
_STREAM_SKETCH = 3000           # + subframe index
_STREAM_SNAPSHOT_NOISE = 4000   # + subframe index


def trial_rng(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """Independent, reproducible generator for one purpose within one trial."""
    sequence = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(trial_index, stream)
    )
    return np.random.default_rng(sequence)


@dataclass(frozen=True)
class ArmObservables:
    """Decision statistics of one hypothesis arm of one trial."""

    similarity: float
    energy: float
    subspace_dimension: int


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one paired trial, or its failure."""

    trial_index: int
    quiet: ArmObservables | None
    attacked: ArmObservables | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class RocCurve:
    """Threshold-swept operating points of one detector, with the AUC and
    its paired DeLong standard error (NaN with fewer than two trials, or
    when every trial's placements sum to the same value)."""

    detector: str
    points: tuple  # (p_fa, p_d, threshold) triples, p_fa ascending
    auc: float
    n_attack: int
    n_normal: int
    auc_se: float

    @property
    def auc_ci95(self) -> tuple:
        """Normal-approximation 95% interval of the AUC, cut to [0, 1];
        ``(nan, nan)`` when the standard error is NaN."""
        if math.isnan(self.auc_se):
            return math.nan, math.nan
        half = _Z95 * self.auc_se
        return max(0.0, self.auc - half), min(1.0, self.auc + half)


# The 97.5% quantile of the standard normal distribution.
_Z95 = 1.959963984540054


# The inputs every trial of a run shares are cached per process on the
# config fields they depend on.  Filled on first use, so importing this
# module stays cheap; each pool worker process fills its own.


# The cluster table a path names (the built-in default for None).
_cluster_table = cache(cluster_table_for)


@cache
def _pilot_tap_basis(n: int, num_users: int, num_taps: int) -> np.ndarray:
    """Read-only ``(N, K * T)`` map from the users' stacked taps to the
    clean receive spectrum of the pilots of :func:`scenario.pilot_pool`.

    Column ``k * T + t`` is ``P_k[n] * exp(-2 pi i n t / N) / sqrt(N)``:
    user ``k``'s pilot spectrum times the spectrum of a unit tap at delay
    ``t``.  So ``basis @ channels.reshape(K * T, M)`` is the ``(N, M)``
    unitary-FFT receive of every pilot through its channel, the
    frequency-domain image of the circular convolutions.
    """
    pilots = np.fft.fft(pilot_pool(n, num_users), axis=1)  # (K, N)
    delays = np.fft.fft(np.eye(n, num_taps), axis=0)  # (N, T)
    basis = (pilots.T[:, :, None] * delays[:, None, :]).reshape(n, -1)
    basis /= np.sqrt(n)
    basis.setflags(write=False)
    return basis


class _SubframeDraws:
    """The random draws of one subframe, shared by both hypothesis arms.

    Each draw is made from its own seed stream on first use and then kept,
    so the quiet and the attacked arm see the same probes and noise (common
    random numbers) without drawing them twice.  The arrays are read-only.
    """

    def __init__(self, cfg: ScenarioConfig, trial_index: int, subframe: int):
        self.cfg = cfg
        self.trial_index = trial_index
        self.subframe = subframe

    def _rng(self, stream: int) -> np.random.Generator:
        return trial_rng(
            self.cfg.master_seed, self.trial_index, stream + self.subframe
        )

    @cached_property
    def probes(self) -> np.ndarray:
        cfg = self.cfg
        probes = draw_gaussian_probes(
            cfg.n_samples, cfg.fingerprint_dimension, self._rng(_STREAM_PROBES)
        )
        probes.setflags(write=False)
        return probes

    @cached_property
    def tap_noise(self) -> np.ndarray:
        """Estimate noise projected onto each probe, one complex per sample."""
        cfg = self.cfg
        pair = self._rng(_STREAM_TAP_NOISE).normal(size=(cfg.n_samples, 2))
        probe_norms = np.linalg.norm(self.probes, axis=1)
        noise_scale = np.sqrt(cfg.receive_noise_variance / 2.0) * probe_norms
        noise = noise_scale * (pair[:, 0] + 1j * pair[:, 1])
        noise.setflags(write=False)
        return noise

    @cached_property
    def energy_sketch(self) -> tuple:
        """The energy sketch's draws, one of each per sample: the
        noncentral component's normal pair, the Gamma bulk and the Exp(1)
        gain of the isotropic probe."""
        cfg = self.cfg
        n_samples = cfg.n_samples
        dimension = cfg.num_antennas * cfg.sequence_length
        rng = self._rng(_STREAM_SKETCH)
        draws = (
            rng.normal(size=(n_samples, 2)),
            rng.gamma(shape=dimension - 1, scale=1.0, size=n_samples),
            rng.exponential(size=n_samples),
        )
        for values in draws:
            values.setflags(write=False)
        return draws

    @cached_property
    def snapshot_noise(self) -> np.ndarray:
        """White receive noise of the snapshot rows, one per subcarrier."""
        cfg = self.cfg
        noise = complex_normal(
            (cfg.sequence_length, cfg.num_antennas),
            np.sqrt(cfg.receive_noise_variance / 2.0),
            self._rng(_STREAM_SNAPSHOT_NOISE),
        )
        noise.setflags(write=False)
        return noise


class TrialSimulator:
    """One trial's frozen deployment plus its observation builders.

    Trials and streams build one simulator per deployment in
    ``_extract_schedule``, which extracts the sensing batches they list; a
    trial then reads each arm's statistics through :meth:`arm_observables`.
    Every random quantity is regenerated from named seed streams, so
    calling a builder twice — or for both arms — replays identical draws,
    in any call order, and building an input late or not at all changes no
    other value.

    What is built when (the per-process memo of the cluster table and the
    pilot-tap basis aside):

    * On construction: the geometry (the array and one azimuth per actor),
      the victim's ``(num_taps, M)`` tap matrix, its fingerprint
      coordinates ``psi_victim``, and the check that the victim's channel
      carries energy; this is all the quiet extractions read.
    * On first access: the attacker's channel, ``rho`` (which first checks
      that channel's energy) and ``psi_attacker``, for the attacked
      extraction; ``channels``, the ``(K, T, M)`` array of every user's
      taps whose other users are drawn in one ``draw_channels`` call, and
      the clean energies, for the energy detector; the clean snapshot
      spectra, for the subspace detector: the quiet one is one product of
      the basis with ``channels`` viewed as ``(K * T, M)``, and
      the attacked one adds ``rho`` times the victim's block of the basis
      applied to the attacker's channel.
    * Per subframe, on first use: the probes, the tap noise, the energy
      sketch's draws and the snapshot noise, shared by every arm.  Only
      the latest subframe's draws are kept by the simulator.
    """

    def __init__(self, cfg: ScenarioConfig, trial_index: int):
        self.cfg = cfg
        self.trial_index = trial_index
        self._draws: _SubframeDraws | None = None
        azimuths = draw_azimuths(
            cfg.num_users + 1,
            trial_rng(cfg.master_seed, trial_index, _STREAM_GEOMETRY),
        )
        self.geometry = GeometryScenario(
            num_antennas=cfg.num_antennas,
            user_azimuths_deg=tuple(azimuths[: cfg.num_users]),
            attacker_azimuth_deg=azimuths[cfg.num_users],
        )
        self._victim_channel = self._draw_channels([VICTIM])[0]
        self._victim_energy = self._checked_energy(self._victim_channel)
        # Clean tap-domain fingerprint coordinates (beamspace, tap-major).
        self.psi_victim = vectorize_taps(beamspace(self._victim_channel))

    def _draw_channels(self, sources: list) -> np.ndarray:
        """The ``(len(sources), T, M)`` channels of ``sources``, each from
        its own seed stream."""
        cfg = self.cfg
        streams = [
            _STREAM_ATTACKER_CHANNEL if source == "attacker"
            else _STREAM_USER_CHANNEL + source
            for source in sources
        ]
        return draw_channels(
            self.geometry,
            _cluster_table(cfg.cluster_table),
            sources,
            cfg.num_taps,
            TAP_DURATION_NS,
            [trial_rng(cfg.master_seed, self.trial_index, stream)
             for stream in streams],
        )

    def _checked_energy(self, taps: np.ndarray) -> float:
        energy = float(np.sum(np.abs(taps) ** 2))
        if energy <= 0:
            raise ConfigurationError(
                f"trial {self.trial_index}: drew a zero-energy channel"
            )
        return energy

    @cached_property
    def channels(self) -> np.ndarray:
        """Every user's channel as one read-only ``(K, T, M)`` array, by
        user index: the victim's as drawn on construction, and the other
        users' from one ``draw_channels`` call."""
        others = [k for k in range(self.cfg.num_users) if k != VICTIM]
        channels = np.insert(
            self._draw_channels(others), VICTIM, self._victim_channel, axis=0
        )
        channels.setflags(write=False)
        return channels

    @cached_property
    def attacker_channel(self) -> np.ndarray:
        return self._draw_channels(["attacker"])[0]

    @cached_property
    def _attacker_energy(self) -> float:
        return self._checked_energy(self.attacker_channel)

    @cached_property
    def rho(self) -> float:
        """Amplitude ratio making the attacker's received energy exactly
        ``jsr_linear`` times the victim's."""
        ratio = self.cfg.jsr_linear * self._victim_energy
        return float(np.sqrt(ratio / self._attacker_energy))

    @cached_property
    def psi_attacker(self) -> np.ndarray:
        return self.rho * vectorize_taps(beamspace(self.attacker_channel))

    # Clean received energies for the energy detector's sketches.

    @cached_property
    def clean_energy_quiet(self) -> float:
        return float(np.sum(np.abs(self.channels) ** 2))

    @cached_property
    def clean_energy_attacked(self) -> float:
        cross = 2.0 * self.rho * float(np.real(np.vdot(
            self.attacker_channel, self._victim_channel
        )))
        return (
            self.clean_energy_quiet
            + self.rho**2 * self._attacker_energy
            + cross
        )

    # The clean subcarrier-by-antenna (N, M) receive matrices behind the
    # subspace detector's snapshots.

    @cached_property
    def _basis(self) -> np.ndarray:
        c = self.cfg
        return _pilot_tap_basis(c.sequence_length, c.num_users, c.num_taps)

    @cached_property
    def snapshot_quiet(self) -> np.ndarray:
        return self._basis @ self.channels.reshape(-1, self.cfg.num_antennas)

    @cached_property
    def snapshot_attacked(self) -> np.ndarray:
        width = self.cfg.num_taps
        victim = self._basis[:, VICTIM * width:(VICTIM + 1) * width]
        attack_term = self.rho * (victim @ self.attacker_channel)
        return self.snapshot_quiet + attack_term

    # ------------------------------------------------------------- builders

    def _subframe_draws(self, subframe: int) -> _SubframeDraws:
        """This subframe's shared draws; replaces the previous subframe's."""
        if self._draws is None or self._draws.subframe != subframe:
            self._draws = _SubframeDraws(self.cfg, self.trial_index, subframe)
        return self._draws

    def sensing_batch(self, subframe: int, attacked: bool) -> SensingBatch:
        """Probe-energy samples of one subframe's channel estimates."""
        draws = self._subframe_draws(subframe)
        psi = (self.psi_victim + self.psi_attacker if attacked
               else self.psi_victim)
        # No conjugated copy of the probes: conj(probes @ conj(psi)) equals
        # probes.conj() @ psi to the bit, up to the sign of an exact zero.
        response = draws.probes @ psi.conj()
        np.conjugate(response, out=response)
        response += draws.tap_noise
        samples = np.abs(response) ** 2
        mean = float(samples.mean())
        if mean > 0:
            samples = samples / mean
        return SensingBatch(probes=draws.probes, samples=samples)

    def energy_observation(self, subframe: int, attacked: bool) -> np.ndarray:
        """Isotropic-sketch energy samples of the raw received signal."""
        pair, bulk, sketch = self._subframe_draws(subframe).energy_sketch
        sigma = self.cfg.receive_noise_variance
        amplitude = np.sqrt(
            self.clean_energy_attacked if attacked else self.clean_energy_quiet
        )
        radial = np.sqrt(sigma / 2.0)
        received_energy = (
            (amplitude + radial * pair[:, 0]) ** 2
            + (radial * pair[:, 1]) ** 2
            + sigma * bulk
        )
        return received_energy * sketch

    def snapshot_window(self, subframe: int, attacked: bool) -> np.ndarray:
        """Antenna-space snapshot rows for the subspace detector.

        One row per subcarrier: the clean antenna vector of that
        subcarrier plus white receive noise.
        """
        clean = self.snapshot_attacked if attacked else self.snapshot_quiet
        return clean + self._subframe_draws(subframe).snapshot_noise

    def arm_observables(
        self, similarity: float, subframe: int, attacked: bool
    ) -> ArmObservables:
        """Statistics of one arm at ``subframe``: its fingerprint
        ``similarity`` to the reference, and the energy and subspace
        statistics built here."""
        energy = ed_statistic(self.energy_observation(subframe, attacked))
        window = self.snapshot_window(subframe, attacked)
        dimension = sd_statistic(window)
        return ArmObservables(similarity, energy, dimension)


def _extract_schedule(cfg: ScenarioConfig, index: int, schedule) -> tuple:
    """(simulator, fingerprints) of deployment ``index``: the sensing
    batch of each ``(subframe, attacked)`` pair of ``schedule``, in order,
    through one ``extract_all``, whose first error is raised."""
    simulator = TrialSimulator(cfg, index)
    fingerprints = extract_all(
        (simulator.sensing_batch(*pair) for pair in schedule), cfg.extractor
    )
    return simulator, fingerprints


def run_single_trial(cfg: ScenarioConfig, trial_index: int) -> TrialRecord:
    """Run one paired trial; failures become records, not exceptions.

    The reference comes from subframe 1 and each arm's test from subframe
    2, which is drawn once for both, and each arm scores the similarity of
    its test to the reference.  The extractions run first, as they are the steps that fail; only a
    trial that passes all three builds its energy and subspace statistics,
    whose inputs cannot fail on a config that validates.
    """
    try:
        simulator, (reference, *tests) = _extract_schedule(
            cfg, trial_index, [(1, False), (2, False), (2, True)]
        )
        quiet, attacked = (similarity(reference, test) for test in tests)
        return TrialRecord(
            trial_index,
            simulator.arm_observables(quiet, 2, attacked=False),
            simulator.arm_observables(attacked, 2, attacked=True),
        )
    except SpoofdetError as exc:
        return TrialRecord(
            trial_index,
            None,
            None,
            error=f"trial {trial_index}: {type(exc).__name__}: {exc}",
        )


# The thread-count variables of the BLAS builds numpy may load.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                          "VECLIB_MAXIMUM_THREADS")


@contextmanager
def _index_map(workers: int):
    """Yields ``map_indices(task, count)``, which returns ``[task(i) for i
    in range(count)]``; with ``workers > 1`` every map in the block runs on
    one spawned process pool, four chunks per worker.

    BLAS reads its thread count when numpy loads, which a worker does as it
    starts, importing the caller's main module.  So the workers are spawned
    while the BLAS thread variables read 1, and the caller's values are
    restored once the pool has shut down.
    """
    if workers <= 1:
        yield lambda task, count: [task(i) for i in range(count)]
        return
    # Imported here, so that a serial run and every import of this module
    # skip loading the pool machinery (13-15 ms).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {k: v for k, v in os.environ.items() if k in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield lambda task, count: list(pool.map(
                task, range(count), chunksize=max(1, count // (4 * workers))
            ))
    finally:
        for name in _BLAS_THREAD_VARIABLES:
            os.environ.pop(name, None)
        os.environ.update(saved)


def run_trials(cfg: ScenarioConfig) -> list:
    """All trials of one scenario, ordered by trial index.

    With ``cfg.workers > 1`` trials run in a process pool whose workers run
    BLAS on one thread; results are identical to the serial run because
    every trial is seeded from ``(master seed, trial index)`` alone.  The
    workers import the caller's main module, which must keep its work under
    ``__name__ == "__main__"``.  A serial run keeps BLAS's default thread
    count; ``OPENBLAS_NUM_THREADS=1`` was not consistently faster (L=48 and
    L=192 on 2 vCPU).
    """
    with _index_map(cfg.workers) as map_indices:
        return map_indices(partial(run_single_trial, cfg), cfg.trials)


# ----------------------------------------------------------------- ROC math


def detector_scores(records, detector: str) -> tuple:
    """(attack statistics, no-attack statistics) over completed trials."""
    field = _detector(detector).field  # raises for an unknown name
    completed = [r for r in records if not r.failed]
    attack = [getattr(r.attacked, field) for r in completed]
    normal = [getattr(r.quiet, field) for r in completed]
    return np.asarray(attack, dtype=float), np.asarray(normal, dtype=float)


class _RankTable(NamedTuple):
    """The AUC, DeLong placements and ROC points of one score set."""

    auc: float
    v_attack: np.ndarray
    v_normal: np.ndarray
    points: tuple


def _rank_table(attack_scores, normal_scores, orientation: float) -> _RankTable:
    """Rank one score set once.

    ``np.unique`` groups the pooled scores, times ``orientation``, by
    value, ascending with NaN last (above every number, tied with other
    NaNs), and ``np.bincount`` counts each class per value.  A score
    outscores those below its value and half of those tied with it.
    ``v_attack[i]`` is the share of quiet scores attack score ``i``
    outscores, ``v_normal[j]`` the share of attack scores that outscore
    quiet score ``j``.  The points alarm on scores above each value, from
    the highest down, then reach ``(1, 1)``; a group of zeros reports its
    threshold as ``+0.0``, whichever signed zero the sort put first.
    """
    attack = orientation * np.asarray(attack_scores, dtype=float)
    normal = orientation * np.asarray(normal_scores, dtype=float)
    m, n = attack.size, normal.size
    if m == 0 or n == 0:
        raise InsufficientDataError(
            "ranking needs at least one sample of each class"
        )
    values, group = np.unique(
        np.concatenate([attack, normal]), return_inverse=True
    )
    attack_counts, normal_counts = (
        np.bincount(g, minlength=values.size) for g in (group[:m], group[m:])
    )
    attack_cum, normal_cum = np.cumsum(attack_counts), np.cumsum(normal_counts)
    # Per value, each class's scores below it, ties counting half: exact
    # half-integers, so the pair count is exact and divided once.
    attack_below = attack_cum - 0.5 * attack_counts
    normal_below = normal_cum - 0.5 * normal_counts
    points = zip(((n - normal_cum[::-1]) / n).tolist(),
                 ((m - attack_cum[::-1]) / m).tolist(),
                 (orientation * values[::-1] + 0.0).tolist())
    return _RankTable(
        auc=float(np.dot(attack_counts, normal_below)) / (m * n),
        v_attack=(normal_below / n)[group[:m]],
        v_normal=(1.0 - attack_below / m)[group[m:]],
        points=(*points, (1.0, 1.0, orientation * -math.inf)),
    )


def auc_rank(attack_scores, normal_scores, orientation: float = 1.0) -> float:
    """Probability a random attack trial outscores a random quiet one.

    The Mann-Whitney pair count, ties counting one half, from one rank
    table; it equals the trapezoid area under the operating points of
    :func:`roc_from_outcomes`.  After orientation, NaN statistics rank
    above every number and tie with one another, in the AUC as in the
    points.
    """
    return _rank_table(attack_scores, normal_scores, orientation).auc


def _delong(tables) -> tuple:
    """AUCs and paired DeLong covariance of rank tables taken on the same
    trials, each trial giving one score of each class."""
    if any(t.v_attack.size != t.v_normal.size for t in tables):
        raise ShapeError("a paired covariance needs one score of each "
                         "class per trial")
    aucs = np.array([t.auc for t in tables])
    placements = np.array([t.v_attack + t.v_normal for t in tables])
    n = placements.shape[1]
    if n < 2:
        return aucs, np.full((len(aucs), len(aucs)), np.nan)
    return aucs, np.atleast_2d(np.cov(placements)) / n


def auc_covariance(score_sets) -> tuple:
    """AUCs and their paired DeLong covariance matrix for score sets
    taken on the same trials.

    ``score_sets`` holds ``(attack_scores, normal_scores, orientation)``
    triples whose two classes list the same ``n`` trials in the same
    order.  Returns ``(aucs, covariance)``: the :func:`auc_rank` values,
    and ``covariance = np.cov(v_attack + v_normal) / n`` over the trials'
    placement values (midranks as in Sun & Xu, IEEE Signal Process. Lett.
    2014; NaN ranked as in :func:`auc_rank`).  A trial scores both arms
    on common random numbers, so it is one cluster of one unit of each
    class (Obuchowski, Biometrics 1997), not two independent samples.
    With fewer than two trials the covariance is NaN; classes of unequal
    length raise ``ShapeError``.
    """
    return _delong([_rank_table(*scores) for scores in score_sets])


def roc_from_outcomes(records, detector: str) -> RocCurve:
    """Threshold sweep over one detector's recorded statistics.

    One rank table gives the points, sorted by ``(p_fa, p_d)`` from
    ``(0, 0)`` to ``(1, 1)``, their trapezoid area as the AUC, and its
    paired DeLong standard error (see :func:`auc_covariance`).  A NaN
    statistic ranks above every number, as in :func:`auc_rank`.  When the
    trials' placements do not vary (every trial tied, or the classes
    perfectly separated) the spread over trials gives no interval, so the
    standard error is NaN rather than 0.
    """
    attack, normal = detector_scores(records, detector)
    if attack.size == 0 or normal.size == 0:
        raise InsufficientDataError(
            f"ROC for {detector!r} needs completed trials of both classes"
        )
    table = _rank_table(attack, normal, _detector(detector).orientation)
    variance = _delong([table])[1][0, 0]
    return RocCurve(
        detector=detector,
        points=table.points,
        auc=table.auc,
        n_attack=attack.size,
        n_normal=normal.size,
        auc_se=math.sqrt(variance) if variance > 0 else math.nan,
    )


# ------------------------------------------------------------ multi-subframe


def _stream_outcome(
    cfg: ScenarioConfig, schedule: list, threshold: float, stream: int
):
    """One stream's ``run_stream`` result, or its failure's text."""
    try:
        _, fingerprints = _extract_schedule(cfg, stream, schedule)
        return run_stream(fingerprints, threshold)
    except SpoofdetError as exc:
        return f"stream {stream}: {type(exc).__name__}: {exc}"


def _stream_states(
    cfg: ScenarioConfig,
    n_streams: int,
    n_subframes: int,
    attack_start: int | None,
    threshold: float,
) -> tuple:
    """(``run_stream`` results, failed-stream count) over the streams.

    A threshold outside [0, 1] is rejected before any stream runs.  A
    stream that fails is skipped and counted, as a failed trial is
    recorded, so one bad deployment does not end the run; if every stream
    fails there is nothing to report, and the error names the first
    stream's failure.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(
            f"similarity threshold must lie in [0, 1], got {threshold}"
        )
    schedule = [(s, attack_start is not None and s >= attack_start)
                for s in range(1, n_subframes + 1)]
    with _index_map(cfg.workers) as map_indices:
        outcomes = map_indices(
            partial(_stream_outcome, cfg, schedule, threshold), n_streams
        )
    results = [o for o in outcomes if isinstance(o, StreamResult)]
    if not results:
        raise InsufficientDataError(
            f"every one of the {n_streams} streams failed; first error: "
            + outcomes[0]
        )
    return results, n_streams - len(results)


@dataclass(frozen=True)
class CalibrationResult:
    """No-attack similarity statistics used to choose the alarm threshold."""

    similarities: tuple
    suggested_threshold: float
    quantile: float
    fraction_above_threshold: float  # judged normal: similarity >= threshold
    threshold: float
    failed_streams: int  # streams whose deployment or an extraction failed


def calibrate(
    cfg: ScenarioConfig,
    n_streams: int = 20,
    subframes_per_stream: int = 11,
    quantile: float = 0.02,
    threshold: float = DEFAULT_THRESHOLD,
) -> CalibrationResult:
    """Collect no-attack similarities and suggest an alarm threshold.

    Runs ``n_streams`` independent deployments for ``subframes_per_stream``
    subframes each without any attack, records every sequential similarity
    under ``threshold``, and suggests the requested lower quantile as the
    threshold, which :func:`run_detection_delay` takes.  Streams that fail
    are skipped and counted in ``failed_streams``; ``cfg.workers`` applies
    as in :func:`run_trials`.
    """
    if n_streams < 1 or subframes_per_stream < 2:
        raise ConfigurationError(
            "calibration needs at least one stream of at least two subframes"
        )
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError("quantile must lie strictly inside (0, 1)")
    results, failed = _stream_states(
        cfg, n_streams, subframes_per_stream, None, threshold
    )
    similarities = np.asarray([
        value for result in results for value in result.similarities
    ])
    return CalibrationResult(
        similarities=tuple(float(v) for v in similarities),
        suggested_threshold=float(np.quantile(similarities, quantile)),
        quantile=quantile,
        fraction_above_threshold=float(np.mean(similarities >= threshold)),
        threshold=threshold,
        failed_streams=failed,
    )


@dataclass(frozen=True)
class DelayResult:
    """First-alarm positions of streams attacked from ``attack_start`` on:
    each stream's first alarm from position 2 on, so a false alarm before
    the onset counts in both summaries like a detection after it."""

    first_alarms: tuple  # subframe index or None per completed stream
    attack_start: int
    n_subframes: int
    failed_streams: int  # streams whose deployment or an extraction failed

    @property
    def median_first_alarm(self) -> float:
        filled = [
            float("inf") if alarm is None else float(alarm)
            for alarm in self.first_alarms
        ]
        return float(np.median(filled))

    @property
    def alarm_fraction(self) -> float:
        caught = sum(1 for a in self.first_alarms if a is not None)
        return caught / len(self.first_alarms)


def run_detection_delay(
    cfg: ScenarioConfig,
    attack_start: int = 4,
    n_subframes: int = 6,
    n_streams: int = 200,
    threshold: float = DEFAULT_THRESHOLD,
) -> DelayResult:
    """Measure where the sequential detector, at ``threshold``, first
    alarms on streams attacked from ``attack_start`` on.

    A first alarm is taken from position 2 on, before the onset as well as
    after it (see :class:`DelayResult`).  Streams that fail are skipped and
    counted in ``failed_streams``; the alarm figures cover the completed
    streams.  ``cfg.workers`` applies as in :func:`run_trials`.
    """
    if attack_start < 2:
        raise ConfigurationError(
            "attack must start at subframe 2 or later (subframe 1 seeds "
            "the reference)"
        )
    if n_subframes < attack_start:
        raise ConfigurationError(
            "stream must extend at least to the attack-start subframe"
        )
    if n_streams < 1:
        raise ConfigurationError("need at least one stream")
    results, failed = _stream_states(
        cfg, n_streams, n_subframes, attack_start, threshold
    )
    return DelayResult(
        first_alarms=tuple(result.first_alarm_index for result in results),
        attack_start=attack_start,
        n_subframes=n_subframes,
        failed_streams=failed,
    )


# -------------------------------------------------------------- result files

SCHEMA_VERSION = 2

# A failed record's error reads "trial i: ExceptionName: message"
# (``run_single_trial``); an error in any other form counts as "unparsed".
_ERROR_TYPE = re.compile(r"trial \d+: (\w+): ")


def _failure_type(error: str) -> str:
    match = _ERROR_TYPE.match(error)
    return match.group(1) if match else "unparsed"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def emit_results(
    curves,
    records,
    out_dir,
    cfg: ScenarioConfig,
    wall_time_s: float = 0.0,
) -> dict:
    """Write ROC tables, the per-trial log, and the run summary, which
    counts the failed trials by exception name.

    With no ``curves`` (every trial failed) there are no ROC tables, the
    summary's AUC fields are null, and its ``error`` names the first
    trial's failure.  Returns the summary dictionary.  Output is
    byte-stable across reruns with the same seed except for the wall-time
    field of the summary.
    """
    records = sorted(records, key=lambda r: r.trial_index)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for curve in curves:
        rows = [
            (repr(p_fa), repr(p_d), repr(threshold),
             curve.n_attack, curve.n_normal)
            for p_fa, p_d, threshold in curve.points
        ]
        _write_csv(
            out / f"roc_{curve.detector}.csv",
            ("p_fa", "p_d", "threshold", "n_attack", "n_normal"),
            rows,
        )

    # Per detector, its quiet then its attacked statistic.
    header = ["trial", "error"]
    for row in DETECTORS:
        header += [f"{row.column}_quiet", f"{row.column}_attack"]
    trial_rows = []
    for record in records:
        values = [""] * (len(header) - 2) if record.failed else [
            repr(getattr(arm, row.field))
            for row in DETECTORS
            for arm in (record.quiet, record.attacked)
        ]
        trial_rows.append([record.trial_index, record.error or "", *values])
    _write_csv(out / "trials.csv", header, trial_rows)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "trials": cfg.trials,
        "failed_trials": sum(1 for r in records if r.failed),
        "failures_by_type": dict(sorted(Counter(
            _failure_type(r.error) for r in records if r.failed
        ).items())),
        # Null without curves.  JSON has no NaN: an undefined standard
        # error is written as null.
        "auc": {curve.detector: curve.auc for curve in curves} or None,
        "auc_se": {
            curve.detector: curve.auc_se if math.isfinite(curve.auc_se)
            else None
            for curve in curves
        } or None,
        "auc_ci95": {
            curve.detector: list(curve.auc_ci95)
            if math.isfinite(curve.auc_se) else None
            for curve in curves
        } or None,
        "wall_time_s": wall_time_s,
    }
    if not curves:
        summary["error"] = (
            "every trial failed; nothing to report; first error: "
            + records[0].error
        )
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _run_cells(cells, workers: int) -> list:
    """Run each ``(config, directory)`` cell in turn in one ``_index_map``:
    its trials, ROCs (none if every trial failed) and files; returns the
    cells' summaries."""
    summaries = []
    with _index_map(workers) as map_indices:
        for cfg, out_dir in cells:
            started = time.perf_counter()
            records = map_indices(partial(run_single_trial, cfg), cfg.trials)
            curves = [] if all(record.failed for record in records) else [
                roc_from_outcomes(records, name) for name in DETECTOR_NAMES
            ]
            wall = time.perf_counter() - started
            summaries.append(emit_results(curves, records, out_dir, cfg, wall))
    return summaries


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Full single-cell pipeline: trials, ROC per detector, files in
    ``out_dir``.

    If every trial fails, the per-trial log and the summary are still
    written, and then ``InsufficientDataError`` carries the summary's error.
    """
    [summary] = _run_cells([(cfg, out_dir)], cfg.workers)
    if "error" in summary:
        raise InsufficientDataError(summary["error"])
    return summary


def run_sweep(cfg: ScenarioConfig, axes, out_dir) -> dict:
    """One ``run_scenario`` per cell of a product of config values.

    ``axes`` maps ``ScenarioConfig`` field names (the extractor's
    ``threshold_scale`` and ``tolerance`` among them), in order, to their
    values, and the cells are their product, the last axis varying
    fastest.  A cell's tag, which names its subdirectory of ``out_dir``, is
    ``name=value`` per axis joined by commas, each value as the cell's
    built config holds it (``rb_count=4,jsr_db=-10.0``).  Every cell config is built before any
    cell runs, so an unknown name or one of the ``RUN_FIELDS`` (no cell's
    results depend on them), a value the config rejects, a repeated tag
    (``5`` and ``5.0``) or a tag with a path separator raises
    ``ConfigurationError`` before anything is written.  A cell whose every
    trial fails writes its per-trial log and its summary, with null AUCs
    and the error, and the sweep goes on.  ``sweep.json`` holds the axes
    and, per tag, the failed-trial count, the failures by exception name,
    each detector's AUC and standard error, and the error (null for a cell
    with completed trials), all read from the cell's summary.  All cells
    run in one pool, whose workers start at the first cell's first trials,
    so at ``workers > 1`` the first cell's ``wall_time_s`` includes
    spawning the pool.
    """
    unknown = sorted(set(axes) - ({f.name for f in fields(cfg)} - RUN_FIELDS))
    if unknown:
        raise ConfigurationError(f"not ScenarioConfig fields: {unknown}")
    root = Path(out_dir)
    cells = {}
    for values in itertools.product(*axes.values()):
        cell_cfg = replace(cfg, **dict(zip(axes, values)))
        tag = ",".join(f"{name}={getattr(cell_cfg, name)}" for name in axes)
        if tag in cells or Path(tag).name != tag:
            raise ConfigurationError(f"cell directory {tag!r} is repeated "
                                     "or not a plain name")
        cells[tag] = cell_cfg, root / tag
    built = cells.values()
    summaries = _run_cells(built, cfg.workers)
    keys = ("failed_trials", "failures_by_type", "auc", "auc_se", "error")
    sweep = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.master_seed,
        "trials_per_cell": cfg.trials,
        "axes": {
            name: list(dict.fromkeys(getattr(c, name) for c, _ in built))
            for name in axes
        },
        "cells": {
            tag: {key: summary.get(key) for key in keys}
            for tag, summary in zip(cells, summaries)
        },
    }
    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep.json").write_text(json.dumps(sweep, indent=2) + "\n")
    return sweep
