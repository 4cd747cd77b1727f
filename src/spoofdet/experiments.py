"""Monte Carlo experiment engine: paired trials, ROC curves, result files.

Each trial draws one deployment (geometry and channels), then produces the
decision statistics of all three detectors under both hypotheses with
common random numbers: the attack-present arm reuses every random draw of
the attack-absent arm and differs only by the attacker's deterministic
contribution.  All randomness is derived from ``(master seed, trial index,
stream id)`` so results are reproducible and independent of scheduling.

The per-trial observation builders use exact distributional shortcuts
instead of materialising the full ``(L, M, N)`` receive tensor:

* Fingerprint batches: the probe response of the clean tap-domain estimate
  is computed directly, and the estimate noise enters as one complex
  Gaussian per sample with variance ``tap-noise variance x ||probe||^2`` —
  exactly the law of projecting white estimate noise onto the probe.
* Energy-detector sketches: a random isotropic probe of the received
  vector gives ``|u^H y|^2 = ||y||^2 x Exp(1)``, and ``||clean + noise||^2``
  is one noncentral component plus a Gamma bulk.
* Subspace windows: the clean antenna-by-subcarrier receive matrix is
  assembled per actor from closed-form spectra (pilot spectrum times tap
  spectrum), and white receive noise is added to the snapshot rows.

These shortcuts are derived from the full transmit/receive chain in
``link.py``.  ``tests/test_experiments.py::TestShortcutsMatchLinkChain``
checks the noise-free sensing batches and subspace snapshots of both arms
against that chain, and ``TestNoiseShortcutMoments`` checks the moments of
the tap noise, the energy sketch and the snapshot noise against the laws
above.

Each input is built once and only when needed.  The cluster table and the
FFTs of the users' pilots are kept per process, keyed on the config fields
they depend on.  A ``TrialSimulator`` draws only the victim's channel on
construction; the attacker's channel, the other users' channels, the clean
energies and the clean snapshot spectra are built on first access, and each
subframe's probes (with their conjugate), tap noise and snapshot noise are
drawn once, for both arms.

``run_single_trial`` runs all three extractions before any baseline, as
resumable descents: the reference, the quiet test and the attacked test are
started in that order, each through its first iteration before the next
starts, and a descent whose iterate is then exactly zero ends the trial.  So
a trial whose extraction reaches zero in its first iteration reads one or
two of the K + 1 channels, runs one iteration of each earlier descent and
builds no baseline input.  It still records what running the extractions
one after another records: the exact zero vector is absorbing (the
gradient, threshold and candidate are all exactly zero there, and the
backtracking test ``<=`` accepts the equal-loss candidate); after a
successful start a descent can raise only the zero-vector error, whose
message is fixed; the record names the error, not the extraction that
raised it; and an error in starting a later descent (such as a zero-energy
attacker's ``ConfigurationError``) is raised only after the earlier
descents have finished.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .baselines import ed_statistic, sd_statistic
from .channel import (
    ChannelRealization,
    ClusterTable,
    GeometryScenario,
    beamspace,
    complex_normal,
    default_cluster_table,
    draw_channel,
    load_cluster_table,
    place_actors,
    vectorize_taps,
)
from .detector import run_stream, similarity
from .errors import (
    ConfigurationError,
    ExtractionError,
    InsufficientDataError,
    SpoofdetError,
)
from .extractor import (
    SensingBatch,
    SparsityFingerprint,
    _Descent,
    draw_gaussian_probes,
    extract,
)
from .scenario import ScenarioConfig

DETECTOR_NAMES = ("sparsity", "energy", "subspace")

# Alarm orientation per detector: +1 alarms on large statistics, -1 on
# small ones (the similarity detector alarms when the statistic drops).
_ORIENTATION = {"sparsity": -1.0, "energy": 1.0, "subspace": 1.0}

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

    def statistic(self, detector: str) -> float:
        if detector == "sparsity":
            return self.similarity
        if detector == "energy":
            return self.energy
        if detector == "subspace":
            return float(self.subspace_dimension)
        raise ConfigurationError(
            f"unknown detector {detector!r}; expected one of {DETECTOR_NAMES}"
        )


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
    """Threshold-swept operating points of one detector."""

    detector: str
    points: tuple  # (p_fa, p_d, threshold) triples, p_fa ascending
    auc: float
    n_attack: int
    n_normal: int

    def __post_init__(self) -> None:
        fa = [p[0] for p in self.points]
        pd = [p[1] for p in self.points]
        if any(not 0.0 <= v <= 1.0 for v in fa + pd):
            raise ConfigurationError("operating points must lie in [0, 1]")
        if any(b < a for a, b in zip(fa, fa[1:])):
            raise ConfigurationError("points must be sorted by false-alarm rate")
        if not 0.0 <= self.auc <= 1.0:
            raise ConfigurationError("area under the curve must lie in [0, 1]")


# Per-process memo of the inputs every trial of a run shares.  Filled on
# first use, so importing this module stays cheap; each worker process of
# ``run_trials`` fills its own.
_CLUSTER_TABLES: dict = {}
_PILOT_SPECTRA: dict = {}


def _cluster_table(cfg: ScenarioConfig) -> ClusterTable:
    """The cell's cluster table, parsed once per process per table path."""
    key = cfg.cluster_table
    if key not in _CLUSTER_TABLES:
        _CLUSTER_TABLES[key] = (
            default_cluster_table() if key is None
            else load_cluster_table(key)
        )
    return _CLUSTER_TABLES[key]


def _pilot_spectra(cfg: ScenarioConfig) -> np.ndarray:
    """Read-only ``(K, N)`` FFTs of the users' pilots, once per process."""
    key = (cfg.sequence_length, cfg.shift_size, cfg.num_users)
    if key not in _PILOT_SPECTRA:
        pool = cfg.build_pool()
        spectra = np.stack([
            np.fft.fft(
                np.asarray(pool.sequence_for_user(k), dtype=np.complex128)
            )
            for k in range(cfg.num_users)
        ])
        spectra.setflags(write=False)
        _PILOT_SPECTRA[key] = spectra
    return _PILOT_SPECTRA[key]


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
    def conj_probes(self) -> np.ndarray:
        conj = self.probes.conj()
        conj.setflags(write=False)
        return conj

    @cached_property
    def tap_noise(self) -> np.ndarray:
        """Estimate noise projected onto each probe, one complex per sample."""
        cfg = self.cfg
        pair = self._rng(_STREAM_TAP_NOISE).normal(size=(cfg.n_samples, 2))
        probe_norms = np.linalg.norm(self.probes, axis=1)
        noise_scale = np.sqrt(cfg.tap_noise_variance / 2.0) * probe_norms
        noise = noise_scale * (pair[:, 0] + 1j * pair[:, 1])
        noise.setflags(write=False)
        return noise

    @cached_property
    def snapshot_noise(self) -> np.ndarray | None:
        """White receive noise of the snapshot rows; None when noise-free."""
        cfg = self.cfg
        sigma = cfg.receive_noise_variance
        if sigma <= 0:
            return None
        shape = (
            cfg.subspace_config().samples_per_subframe * cfg.sequence_length,
            cfg.num_antennas,
        )
        noise = complex_normal(
            shape, np.sqrt(sigma / 2.0), self._rng(_STREAM_SNAPSHOT_NOISE)
        )
        noise.setflags(write=False)
        return noise


class TrialSimulator:
    """One trial's frozen deployment plus its observation builders.

    Every random quantity is regenerated from named seed streams, so
    calling a builder twice — or for both arms — replays identical draws,
    in any call order, and building an input late or not at all changes no
    other value.

    What is built when:

    * Per process: the cluster table and the FFTs of the users' pilots
      (shared by every trial with the same table path, ``N``, shift size
      and user count).
    * Per trial, on construction: the geometry, the victim's channel, its
      fingerprint coordinates ``psi_victim``, and the check that the
      victim's channel carries energy.  This is all the reference and the
      quiet test extraction read.
    * Per trial, on first access: the attacker's channel, its amplitude
      ``rho`` (which first checks that the attacker's channel carries
      energy) and ``psi_attacker``, read when the attacked extraction
      starts, so not at all in a trial whose reference or quiet descent
      reaches zero in its first iteration; the other users' channels in
      ``channels`` and the clean energies ``clean_energy_quiet`` and
      ``clean_energy_attacked``, read by the energy detector; and the
      clean snapshot spectra ``snapshot_quiet`` and ``snapshot_attacked``,
      read by the subspace detector.
    * Per subframe, on first use: the probes and their conjugate, the tap
      noise and the snapshot noise, shared by both arms.  Only the latest
      subframe's draws are kept by the simulator; ``run_single_trial``'s
      reference descent holds its subframe-1 batch while subframe 2 is
      drawn, as the three descents run side by side.
    """

    def __init__(self, cfg: ScenarioConfig, trial_index: int):
        self.cfg = cfg
        self.trial_index = trial_index
        self._draws: _SubframeDraws | None = None
        positions = place_actors(
            cfg.inner_radius_m,
            cfg.outer_radius_m,
            cfg.num_users + 1,
            trial_rng(cfg.master_seed, trial_index, _STREAM_GEOMETRY),
        )
        self.geometry = GeometryScenario(
            num_antennas=cfg.num_antennas,
            element_spacing_wavelengths=cfg.element_spacing_wavelengths,
            inner_radius_m=cfg.inner_radius_m,
            outer_radius_m=cfg.outer_radius_m,
            user_positions=tuple(positions[: cfg.num_users]),
            attacker_position=positions[cfg.num_users],
        )
        victim = cfg.victim_index
        self._victim_channel = self._draw_channel(
            victim, _STREAM_USER_CHANNEL + victim
        )
        self._victim_energy = self._checked_energy(self._victim_channel)
        # Clean tap-domain fingerprint coordinates (beamspace, tap-major).
        self.psi_victim = vectorize_taps(beamspace(self._victim_channel.taps))

    def _draw_channel(
        self, source: int | str, stream: int
    ) -> ChannelRealization:
        cfg = self.cfg
        return draw_channel(
            self.geometry,
            _cluster_table(cfg),
            source,
            cfg.num_taps,
            cfg.tap_duration_ns,
            trial_rng(cfg.master_seed, self.trial_index, stream),
        )

    def _checked_energy(self, channel: ChannelRealization) -> float:
        energy = float(np.sum(np.abs(channel.taps) ** 2))
        if energy <= 0:
            raise ConfigurationError(
                f"trial {self.trial_index}: drew a zero-energy channel"
            )
        return energy

    @cached_property
    def channels(self) -> list:
        """Every user's channel, by user index; the victim's is shared."""
        return [
            self._victim_channel if k == self.cfg.victim_index
            else self._draw_channel(k, _STREAM_USER_CHANNEL + k)
            for k in range(self.cfg.num_users)
        ]

    @cached_property
    def attacker_channel(self) -> ChannelRealization:
        return self._draw_channel("attacker", _STREAM_ATTACKER_CHANNEL)

    @cached_property
    def rho(self) -> float:
        """Amplitude ratio making the attacker's received energy exactly
        ``jsr_linear`` times the victim's."""
        attacker_energy = self._checked_energy(self.attacker_channel)
        ratio = self.cfg.jsr_linear * self._victim_energy / attacker_energy
        return float(np.sqrt(ratio))

    @cached_property
    def psi_attacker(self) -> np.ndarray:
        return self.rho * vectorize_taps(beamspace(self.attacker_channel.taps))

    # Clean received energies for the energy detector's sketches.

    @cached_property
    def clean_energy_quiet(self) -> float:
        return self.cfg.victim_power * float(
            sum(np.sum(np.abs(ch.taps) ** 2) for ch in self.channels)
        )

    @cached_property
    def clean_energy_attacked(self) -> float:
        power = self.cfg.victim_power
        attacker_energy = self._checked_energy(self.attacker_channel)
        cross = 2.0 * self.rho * power * float(np.real(np.vdot(
            self.attacker_channel.taps, self._victim_channel.taps
        )))
        return (
            self.clean_energy_quiet
            + self.rho**2 * power * attacker_energy
            + cross
        )

    # The clean antenna-by-subcarrier receive matrices behind the subspace
    # detector's snapshots.

    @cached_property
    def snapshot_quiet(self) -> np.ndarray:
        cfg = self.cfg
        spectra = _pilot_spectra(cfg)
        base = np.zeros(
            (cfg.num_antennas, cfg.sequence_length), dtype=np.complex128
        )
        for k, channel in enumerate(self.channels):
            base += np.sqrt(cfg.victim_power) * self._clean_spectrum(
                spectra[k], channel
            )
        return base

    @cached_property
    def snapshot_attacked(self) -> np.ndarray:
        cfg = self.cfg
        amplitude = self.rho * np.sqrt(cfg.victim_power)
        attack_term = amplitude * self._clean_spectrum(
            _pilot_spectra(cfg)[cfg.victim_index], self.attacker_channel
        )
        return self.snapshot_quiet + attack_term

    @staticmethod
    def _clean_spectrum(
        pilot_spectrum: np.ndarray, channel: ChannelRealization
    ) -> np.ndarray:
        """Unitary-FFT receive of one pilot through one channel, (M, N).

        Column ``n`` is ``pilot_spectrum[n] * tap_spectrum[n, :] / sqrt(N)``
        — the frequency-domain image of the circular convolution.
        """
        n = pilot_spectrum.shape[0]
        padded = np.zeros((n, channel.num_antennas), dtype=np.complex128)
        padded[: channel.num_taps] = channel.taps
        tap_spectrum = np.fft.fft(padded, axis=0)
        return (pilot_spectrum[:, None] * tap_spectrum).T / np.sqrt(n)

    # ------------------------------------------------------------- builders

    def _subframe_draws(self, subframe: int) -> _SubframeDraws:
        """This subframe's shared draws; replaces the previous subframe's."""
        if self._draws is None or self._draws.subframe != subframe:
            self._draws = _SubframeDraws(self.cfg, self.trial_index, subframe)
        return self._draws

    def _clean_fingerprint_vector(self, attacked: bool) -> np.ndarray:
        if attacked:
            return self.psi_victim + self.psi_attacker
        return self.psi_victim

    def sensing_batch(self, subframe: int, attacked: bool) -> SensingBatch:
        """Probe-energy samples of one subframe's channel estimates."""
        draws = self._subframe_draws(subframe)
        psi = self._clean_fingerprint_vector(attacked)
        response = draws.conj_probes @ psi + draws.tap_noise
        samples = np.abs(response) ** 2
        mean = float(samples.mean())
        normalized = False
        if mean > 0:
            samples = samples / mean
            normalized = True
        batch = SensingBatch(
            probes=draws.probes,
            samples=samples,
            subframe_index=subframe,
            normalized=normalized,
        )
        # Hand the batch the shared conjugate; SensingBatch.conj_probes is a
        # cached_property, which keeps its value in the instance dict.
        vars(batch)["conj_probes"] = draws.conj_probes
        return batch

    def extract_fingerprint(
        self, subframe: int, attacked: bool
    ) -> SparsityFingerprint:
        return extract(self.sensing_batch(subframe, attacked), self.cfg.extractor)

    def energy_observation(self, subframe: int, attacked: bool) -> np.ndarray:
        """Isotropic-sketch energy samples of the raw received signal."""
        cfg = self.cfg
        n_samples = cfg.n_samples
        dimension = cfg.num_antennas * cfg.sequence_length
        rng = trial_rng(
            cfg.master_seed, self.trial_index, _STREAM_SKETCH + subframe
        )
        pair = rng.normal(size=(n_samples, 2))
        bulk = rng.gamma(shape=dimension - 1, scale=1.0, size=n_samples)
        sketch = rng.exponential(size=n_samples)
        sigma = cfg.receive_noise_variance
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

        One row per (pilot sample, subcarrier) pair: the clean antenna
        vector of that subcarrier plus white receive noise.
        """
        n_repeats = self.cfg.subspace_config().samples_per_subframe
        clean = (
            self.snapshot_attacked if attacked else self.snapshot_quiet
        ).T  # (N, M)
        rows = np.tile(clean, (n_repeats, 1))
        noise = self._subframe_draws(subframe).snapshot_noise
        if noise is not None:
            rows = rows + noise
        return rows

    def arm_observables(
        self,
        reference: SparsityFingerprint,
        test: SparsityFingerprint,
        attacked: bool,
    ) -> ArmObservables:
        """Statistics of one arm at test subframe 2.

        ``test`` is this arm's fingerprint of subframe 2, scored against
        the fixed ``reference``; the energy and subspace statistics are
        built here.
        """
        c = similarity(reference, test)
        energy = ed_statistic(self.energy_observation(2, attacked))
        dimension = sd_statistic(
            self.snapshot_window(2, attacked), self.cfg.subspace_config()
        )
        return ArmObservables(
            similarity=c, energy=energy, subspace_dimension=dimension
        )


def _trial_fingerprints(simulator: TrialSimulator) -> tuple:
    """The reference, quiet-test and attacked-test fingerprints, or the
    error that running the three extractions one after another, each to
    its end, would raise first.

    The descents are started in that order, and each runs its first
    iteration before the next starts.  A descent whose iterate is then
    exactly zero (``not phi.any()``: a zero norm can come from squares
    that underflow) is run out at once, which raises the zero-vector
    error, and the later descents never start.  If starting a descent,
    building its batch included, raises any exception, the earlier
    descents are finished first and may raise before it.  Otherwise the
    three descents finish in order.
    """
    extractor = simulator.cfg.extractor
    descents = []
    for subframe, attacked in ((1, False), (2, False), (2, True)):
        try:
            descent = _Descent(
                simulator.sensing_batch(subframe, attacked), extractor
            )
        except Exception:
            for earlier in descents:
                earlier.finish()
            raise
        if not descent.iterate.any():
            descent.finish()  # raises the zero-vector error
        descents.append(descent)
    return tuple(descent.finish() for descent in descents)


def run_single_trial(cfg: ScenarioConfig, trial_index: int) -> TrialRecord:
    """Run one paired trial; failures become records, not exceptions.

    The three extractions (the reference from subframe 1, then the quiet
    and the attacked test from subframe 2) run first, as they are the steps
    that fail; only a trial that passes all three builds its energy and
    subspace statistics, whose inputs cannot fail on a config that
    validates.  The extractions are started side by side, and the trial
    stops at the first descent whose first iterate is exactly zero
    (``_trial_fingerprints``).  The record is bit for bit the one of
    running the extractions one after another, because the zero vector is
    absorbing, a started descent can raise only the zero-vector error with
    its fixed message, and the record names the error, not the extraction
    that raised it.  So a failed trial pays for neither the rest of the
    descents nor the baselines.
    """
    try:
        simulator = TrialSimulator(cfg, trial_index)
        reference, test_quiet, test_attacked = _trial_fingerprints(simulator)
        return TrialRecord(
            trial_index,
            simulator.arm_observables(reference, test_quiet, attacked=False),
            simulator.arm_observables(
                reference, test_attacked, attacked=True
            ),
        )
    except SpoofdetError as exc:
        return TrialRecord(
            trial_index,
            None,
            None,
            error=f"trial {trial_index}: {type(exc).__name__}: {exc}",
        )


def _trial_task(payload) -> TrialRecord:
    cfg, index = payload
    return run_single_trial(cfg, index)


def run_trials(cfg: ScenarioConfig) -> list:
    """All trials of one scenario, ordered by trial index.

    With ``cfg.workers > 1`` trials run in a process pool; results are
    identical to the serial run because every trial is seeded from
    ``(master seed, trial index)`` alone.
    """
    indices = range(cfg.trials)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(
                pool.map(
                    _trial_task,
                    [(cfg, i) for i in indices],
                    chunksize=max(1, cfg.trials // (4 * cfg.workers)),
                )
            )
    else:
        records = [run_single_trial(cfg, i) for i in indices]
    return sorted(records, key=lambda r: r.trial_index)


# ----------------------------------------------------------------- ROC math


def detector_scores(records, detector: str) -> tuple:
    """(attack statistics, no-attack statistics) over completed trials."""
    if detector not in DETECTOR_NAMES:
        raise ConfigurationError(
            f"unknown detector {detector!r}; expected one of {DETECTOR_NAMES}"
        )
    attack = [
        r.attacked.statistic(detector) for r in records if not r.failed
    ]
    normal = [r.quiet.statistic(detector) for r in records if not r.failed]
    return np.asarray(attack, dtype=float), np.asarray(normal, dtype=float)


def auc_rank(attack_scores, normal_scores, orientation: float = 1.0) -> float:
    """Probability a random attack trial outscores a random quiet one.

    Midrank (tie-aware) formulation of the Mann-Whitney statistic; equals
    the trapezoid area under the threshold-swept operating curve.  After
    orientation, NaN statistics rank above every number and tie with one
    another.
    """
    attack = orientation * np.asarray(attack_scores, dtype=float)
    normal = orientation * np.asarray(normal_scores, dtype=float)
    if attack.size == 0 or normal.size == 0:
        raise InsufficientDataError(
            "ranking needs at least one sample of each class"
        )
    pooled = np.concatenate([attack, normal])
    # Tied values share the midrank of the positions they occupy in the
    # sorted pool: a group starting at 0-based position ``start`` with
    # ``count`` members gets rank ``start + (count + 1) / 2``.
    _, group, counts = np.unique(
        pooled, return_inverse=True, return_counts=True
    )
    starts = np.cumsum(counts) - counts
    ranks = (starts + 0.5 * (counts + 1))[group]
    rank_sum = float(np.sum(ranks[: attack.size]))
    n_a, n_n = attack.size, normal.size
    return (rank_sum - n_a * (n_a + 1) / 2.0) / (n_a * n_n)


def roc_from_outcomes(records, detector: str) -> RocCurve:
    """Threshold sweep over one detector's recorded statistics."""
    attack, normal = detector_scores(records, detector)
    if attack.size == 0 or normal.size == 0:
        raise InsufficientDataError(
            f"ROC for {detector!r} needs completed trials of both classes"
        )
    orientation = _ORIENTATION[detector]
    attack_s = orientation * attack
    normal_s = orientation * normal
    cuts = np.concatenate(
        [np.unique(np.concatenate([attack_s, normal_s]))[::-1], [-np.inf]]
    )
    points = []
    for cut in cuts:
        p_fa = float(np.mean(normal_s > cut))
        p_d = float(np.mean(attack_s > cut))
        threshold = float(orientation * cut)
        points.append((p_fa, p_d, threshold))
    points.sort(key=lambda p: (p[0], p[1]))
    return RocCurve(
        detector=detector,
        points=tuple(points),
        auc=auc_rank(attack, normal, orientation),
        n_attack=int(attack.size),
        n_normal=int(normal.size),
    )


# ------------------------------------------------------------ multi-subframe


def fingerprint_stream(
    cfg: ScenarioConfig,
    trial_index: int,
    n_subframes: int,
    attack_start: int | None = None,
) -> list:
    """Per-subframe fingerprints of one deployment.

    The attack, if any, is active from subframe ``attack_start`` onward.
    Raises ``ExtractionError`` if any subframe's extraction fails.
    """
    if n_subframes < 1:
        raise ConfigurationError("need at least one subframe")
    simulator = TrialSimulator(cfg, trial_index)
    out = []
    for subframe in range(1, n_subframes + 1):
        attacked = attack_start is not None and subframe >= attack_start
        out.append(simulator.extract_fingerprint(subframe, attacked))
    return out


def _stream_results(
    cfg: ScenarioConfig,
    n_streams: int,
    n_subframes: int,
    attack_start: int | None,
) -> tuple:
    """(sequential-detector results, failed-stream count) over the streams.

    A stream whose extraction fails is skipped and counted, so one bad
    deployment does not end the run; if every stream fails there is
    nothing to report.
    """
    results = []
    failed = 0
    for stream in range(n_streams):
        try:
            fingerprints = fingerprint_stream(
                cfg, stream, n_subframes, attack_start=attack_start
            )
        except ExtractionError:
            failed += 1
            continue
        results.append(
            run_stream(fingerprints, threshold=cfg.similarity_threshold)
        )
    if not results:
        raise InsufficientDataError(
            f"extraction failed in all {n_streams} streams"
        )
    return results, failed


@dataclass(frozen=True)
class CalibrationResult:
    """No-attack similarity statistics used to choose the alarm threshold."""

    similarities: tuple
    suggested_threshold: float
    quantile: float
    fraction_above_threshold: float
    threshold: float
    failed_streams: int  # streams skipped because extraction failed


def calibrate(
    cfg: ScenarioConfig,
    n_streams: int = 20,
    subframes_per_stream: int = 11,
    quantile: float = 0.02,
) -> CalibrationResult:
    """Collect no-attack similarities and suggest an alarm threshold.

    Runs ``n_streams`` independent deployments for ``subframes_per_stream``
    subframes each without any attack, records every sequential similarity,
    and suggests the requested lower quantile as the threshold.  Streams
    whose extraction fails are skipped and counted in ``failed_streams``.
    """
    if n_streams < 1 or subframes_per_stream < 2:
        raise ConfigurationError(
            "calibration needs at least one stream of at least two subframes"
        )
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError("quantile must lie strictly inside (0, 1)")
    results, failed = _stream_results(
        cfg, n_streams, subframes_per_stream, attack_start=None
    )
    similarities = np.asarray([
        outcome.similarity for result in results for outcome in result.outcomes
    ])
    return CalibrationResult(
        similarities=tuple(float(v) for v in similarities),
        suggested_threshold=float(np.quantile(similarities, quantile)),
        quantile=quantile,
        fraction_above_threshold=float(
            np.mean(similarities > cfg.similarity_threshold)
        ),
        threshold=cfg.similarity_threshold,
        failed_streams=failed,
    )


@dataclass(frozen=True)
class DelayResult:
    """First-alarm positions of attack-onset streams."""

    first_alarms: tuple  # subframe index or None per completed stream
    attack_start: int
    n_subframes: int
    failed_streams: int  # streams skipped because extraction failed

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
) -> DelayResult:
    """Measure when the sequential detector first alarms after attack onset.

    Streams whose extraction fails are skipped and counted in
    ``failed_streams``; the alarm figures cover the completed streams.
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
    results, failed = _stream_results(
        cfg, n_streams, n_subframes, attack_start=attack_start
    )
    return DelayResult(
        first_alarms=tuple(result.first_alarm_index for result in results),
        attack_start=attack_start,
        n_subframes=n_subframes,
        failed_streams=failed,
    )


# -------------------------------------------------------------- result files

SCHEMA_VERSION = 1


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
    """Write ROC tables, the per-trial log, and the run summary.

    Returns the summary dictionary.  Output is byte-stable across reruns
    with the same seed except for the wall-time field of the summary.
    """
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

    trial_rows = []
    for record in sorted(records, key=lambda r: r.trial_index):
        if record.failed:
            trial_rows.append(
                (record.trial_index, record.error, "", "", "", "", "", "")
            )
        else:
            trial_rows.append(
                (
                    record.trial_index,
                    "",
                    repr(record.quiet.similarity),
                    repr(record.attacked.similarity),
                    repr(record.quiet.energy),
                    repr(record.attacked.energy),
                    record.quiet.subspace_dimension,
                    record.attacked.subspace_dimension,
                )
            )
    _write_csv(
        out / "trials.csv",
        (
            "trial",
            "error",
            "similarity_quiet",
            "similarity_attack",
            "energy_quiet",
            "energy_attack",
            "subspace_quiet",
            "subspace_attack",
        ),
        trial_rows,
    )

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "trials": cfg.trials,
        "failed_trials": sum(1 for r in records if r.failed),
        "auc": {curve.detector: curve.auc for curve in curves},
        "wall_time_s": wall_time_s,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Full single-cell pipeline: trials, ROC per detector, files."""
    started = time.perf_counter()
    records = run_trials(cfg)
    complete = [r for r in records if not r.failed]
    if not complete:
        raise InsufficientDataError("every trial failed; nothing to report")
    curves = [roc_from_outcomes(records, name) for name in DETECTOR_NAMES]
    wall = time.perf_counter() - started
    destination = cfg.output_dir if out_dir is None else out_dir
    summary = emit_results(curves, records, destination, cfg, wall_time_s=wall)
    return summary


def run_sweep(cfg: ScenarioConfig, snr_values, rb_values, out_dir=None) -> dict:
    """Grid of scenarios over operating points, one subdirectory per cell."""
    root = Path(cfg.output_dir if out_dir is None else out_dir)
    cells = {}
    for snr_db in snr_values:
        for rb_count in rb_values:
            cell_cfg = replace(cfg, snr_db=float(snr_db), rb_count=int(rb_count))
            summary = run_scenario(cell_cfg, root / cell_cfg.cell_tag())
            cells[cell_cfg.cell_tag()] = summary["auc"]
    grid_summary = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.master_seed,
        "trials_per_cell": cfg.trials,
        "cells": cells,
    }
    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep.json").write_text(json.dumps(grid_summary, indent=2) + "\n")
    return grid_summary
