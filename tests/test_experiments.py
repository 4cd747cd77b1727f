"""Tests for the experiment harness: rank AUC, ROC curves, result files,
the closed-form observation builders, and the multi-subframe entry points.

Oracles: direct pair counting for the Mann-Whitney AUC; reruns of a tiny
cell (serial and pooled) for byte-stable result files, and its records
pinned to the bit; the full transmit/receive chain of ``link.py`` for the
noise-free sensing batches and subspace snapshots that ``TrialSimulator``
builds in closed form; the stated laws of the three noise shortcuts, by
their moments; a fresh simulator per call for the builders' results
in any call order; a counting spy on ``draw_channel`` for which
channels a trial draws; the complex-noise expression the snapshot noise
was first written with; whole trials run in the sequential order, each
extraction to its end through the reference copy of the extractor's
descent loop, for the records of the early-stopping schedule; and a spy on
the descents' point evaluations for how far each one ran.
"""

import csv
import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_extract, same_bits
from spoofdet import experiments, extractor
from spoofdet.channel import ChannelRealization, complex_normal, draw_channel
from spoofdet.errors import (
    ConfigurationError,
    ExtractionError,
    InsufficientDataError,
    SpoofdetError,
)
from spoofdet.experiments import (
    DETECTOR_NAMES,
    ArmObservables,
    TrialRecord,
    TrialSimulator,
    auc_rank,
    calibrate,
    detector_scores,
    roc_from_outcomes,
    run_detection_delay,
    run_scenario,
    run_single_trial,
    run_sweep,
    run_trials,
    trial_rng,
)
from spoofdet.extractor import (
    ExtractorConfig,
    SensingBatch,
    SparsityFingerprint,
    _Descent,
    extract,
)
from spoofdet.link import (
    AttackProfile,
    LinkConfig,
    build_subframe_batch,
    ls_estimate,
    to_frequency_domain,
    transmit_receive_td,
)
from spoofdet.scenario import ScenarioConfig


def pair_count_auc(attack, normal, orientation=1.0):
    a = orientation * np.asarray(attack, dtype=float)[:, None]
    n = orientation * np.asarray(normal, dtype=float)[None, :]
    return float(np.mean((a > n) + 0.5 * (a == n)))


def record(index, quiet, attacked):
    """A completed trial whose three statistics all equal one number."""
    return TrialRecord(
        index,
        ArmObservables(quiet, quiet, int(quiet)),
        ArmObservables(attacked, attacked, int(attacked)),
    )


class TestAucRank:
    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    def test_heavy_ties_match_pair_counting(self, orientation):
        gen = np.random.default_rng(3)
        for _ in range(50):
            # Integer subspace dimensions: few distinct values, many ties.
            attack = gen.integers(10, 16, size=gen.integers(1, 60))
            normal = gen.integers(9, 15, size=gen.integers(1, 60))
            assert auc_rank(attack, normal, orientation) == pytest.approx(
                pair_count_auc(attack, normal, orientation), abs=1e-12
            )

    def test_all_tied_is_one_half(self):
        assert auc_rank([4, 4, 4], [4, 4]) == 0.5

    def test_separated_classes(self):
        assert auc_rank([3.0, 4.0], [1.0, 2.0]) == 1.0
        assert auc_rank([3.0, 4.0], [1.0, 2.0], orientation=-1.0) == 0.0

    def test_empty_class_rejected(self):
        with pytest.raises(InsufficientDataError):
            auc_rank([], [1.0])


class TestRocFromOutcomes:
    def test_auc_is_rank_auc_with_detector_orientation(self):
        gen = np.random.default_rng(5)
        records = [
            record(i, float(gen.integers(0, 4)), float(gen.integers(1, 5)))
            for i in range(30)
        ]
        records.append(TrialRecord(30, None, None, error="trial 30: failed"))
        for name, orientation in (
            ("sparsity", -1.0), ("energy", 1.0), ("subspace", 1.0)
        ):
            curve = roc_from_outcomes(records, name)
            attack, normal = detector_scores(records, name)
            assert curve.auc == auc_rank(attack, normal, orientation)
            assert curve.auc == pytest.approx(
                pair_count_auc(attack, normal, orientation), abs=1e-12
            )
            assert curve.n_attack == curve.n_normal == 30

    def test_points_span_the_unit_square(self):
        records = [record(0, 1.0, 2.0), record(1, 2.0, 3.0)]
        points = roc_from_outcomes(records, "energy").points
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)

    def test_no_completed_trials_rejected(self):
        failed = [TrialRecord(0, None, None, error="trial 0: failed")]
        with pytest.raises(InsufficientDataError):
            roc_from_outcomes(failed, "energy")


# Tiny cell: D = 4 taps x 8 antennas, L = 96.  With seed 7 the current
# extractor fails on some trials and completes the rest, so both kinds of
# trials.csv row appear.
TINY = dict(
    num_antennas=8,
    num_users=4,
    sequence_length=31,
    rb_count=8,
    trials=8,
    master_seed=7,
)


# The tiny cell's records pinned to the bit: per completed trial,
# (similarity as a hex float, energy as a hex float, subspace dimension) of
# the quiet and then the attacked arm; per failed trial, its error.  A
# change that alters a record must say why and regenerate these.
ZERO_VECTOR = (
    "ExtractionError: extraction produced an identically zero vector; "
    "the samples carry no usable energy"
)
GOLDEN_TINY = {
    0: (("0x0.0p+0", "0x1.922bad256eb4bp+5", 2),
        ("0x0.0p+0", "0x1.b79758fb5ee88p+5", 2)),
    1: (("0x0.0p+0", "0x1.5d2d445426c7dp+5", 3),
        ("0x0.0p+0", "0x1.a4c51a8bafb40p+5", 3)),
    2: ZERO_VECTOR,
    3: (("0x1.0000000000000p+0", "0x1.2fb327a25c30fp+5", 3),
        ("0x1.0000000000000p+0", "0x1.5da71da14893cp+5", 3)),
    4: (("0x0.0p+0", "0x1.5e52c1a219a13p+5", 2),
        ("0x0.0p+0", "0x1.ce38b2b4bd464p+5", 2)),
    5: ZERO_VECTOR,
    6: (("0x0.0p+0", "0x1.7d58652ef8600p+5", 2),
        ("0x0.0p+0", "0x1.e02b83f65d65dp+5", 2)),
    7: ZERO_VECTOR,
}
GOLDEN_TINY_TRIALS_CSV_SHA256 = (
    "4d799663972f1b1e1fa3d12681b00bbe38026d8b73ef3df7a07d964d4f13e406"
)


def hex_record(record):
    if record.failed:
        return record.error.removeprefix(f"trial {record.trial_index}: ")
    return tuple(
        (arm.similarity.hex(), arm.energy.hex(), arm.subspace_dimension)
        for arm in (record.quiet, record.attacked)
    )


def read_outputs(out_dir):
    files = {
        path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
    }
    summary = json.loads(files.pop("summary.json"))
    return files, summary


class TestRunScenario:
    def test_tiny_cell_files_are_stable(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        runs = {}
        for name, workers in (("first", 1), ("rerun", 1), ("pool", 2)):
            out = tmp_path / name
            returned = run_scenario(
                ScenarioConfig(**TINY, workers=workers), out
            )
            runs[name] = read_outputs(out)
            assert returned == runs[name][1]

        files, summary = runs["first"]
        assert set(files) == {
            "trials.csv", *(f"roc_{name}.csv" for name in DETECTOR_NAMES)
        }
        for name in ("rerun", "pool"):
            assert runs[name][0] == files

        def stable(summary):
            return {k: v for k, v in summary.items() if k != "wall_time_s"}

        # The worker count is left out of the config hash, so a pooled run
        # reports the same summary as a serial one.
        for name in ("rerun", "pool"):
            assert stable(runs[name][1]) == stable(summary)

        assert summary["config_hash"] == cfg.config_hash()
        rows = list(csv.DictReader(files["trials.csv"].decode().splitlines()))
        assert [int(row["trial"]) for row in rows] == list(range(cfg.trials))
        errors = sum(1 for row in rows if row["error"])
        assert summary["failed_trials"] == errors
        for name in DETECTOR_NAMES:
            assert 0.0 <= summary["auc"][name] <= 1.0


    def test_tiny_cell_matches_golden_records(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        records = run_trials(cfg)
        assert {r.trial_index: hex_record(r) for r in records} == GOLDEN_TINY
        run_scenario(cfg, tmp_path)
        digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes())
        assert digest.hexdigest() == GOLDEN_TINY_TRIALS_CSV_SHA256


class TestShortcutsMatchLinkChain:
    """``TrialSimulator`` builds its observations in closed form; with the
    noise switched off they must equal what the full chain produces:
    ``transmit_receive_td`` -> ``to_frequency_domain`` -> ``ls_estimate``
    -> ``build_subframe_batch`` on the same probes."""

    # At 400 dB the estimate noise of the shortcut is ~1e-40 of the
    # signal, far below float resolution, and the chain runs noise-free.
    CFG = ScenarioConfig(
        num_antennas=8, num_users=4, sequence_length=31, snr_db=400.0
    )

    @staticmethod
    def chain_estimate(simulator, attacked):
        cfg = simulator.cfg
        link_cfg = LinkConfig.for_scenario(cfg)
        pool = cfg.build_pool()
        attack = (
            AttackProfile(True, simulator.rho, simulator.attacker_channel)
            if attacked else AttackProfile.inactive()
        )
        y_td = transmit_receive_td(
            pool, simulator.channels, attack, link_cfg, rng=0,
            noise_variance=0.0,
        )
        y_fd = to_frequency_domain(y_td, link_cfg)
        estimate = ls_estimate(
            y_fd, pool.sequence_for_user(cfg.victim_index), link_cfg,
            cfg.num_taps, subframe_index=1,
        )
        return y_fd, estimate

    @pytest.mark.parametrize("trial", [0, 1, 2])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_sensing_batch_and_snapshot(self, trial, attacked):
        simulator = TrialSimulator(self.CFG, trial)
        y_fd, estimate = self.chain_estimate(simulator, attacked)

        shortcut = simulator.sensing_batch(1, attacked)
        chain = build_subframe_batch(estimate, shortcut.probes)
        assert chain.normalized and shortcut.normalized
        np.testing.assert_allclose(
            shortcut.samples, chain.samples, rtol=1e-12, atol=1e-12
        )

        snapshot = (
            simulator.snapshot_attacked if attacked
            else simulator.snapshot_quiet
        )
        np.testing.assert_allclose(snapshot, y_fd[0], rtol=0, atol=1e-12)


    def test_cells_sharing_one_process(self, tmp_path):
        """The per-process table and pilot memo tells cells apart by table
        path, N, shift size and user count."""
        cells = [
            self.CFG,
            replace(self.CFG, sequence_length=37),
            replace(self.CFG, num_users=5),
            replace(self.CFG, shift_size=6),
            self.CFG,
        ]
        for cfg in cells:
            simulator = TrialSimulator(cfg, 0)
            for attacked in (False, True):
                y_fd, _ = self.chain_estimate(simulator, attacked)
                snapshot = (
                    simulator.snapshot_attacked if attacked
                    else simulator.snapshot_quiet
                )
                np.testing.assert_allclose(
                    snapshot, y_fd[0], rtol=0, atol=1e-12
                )

        table = tmp_path / "table.yaml"
        table.write_text(
            "delays_ns: [0.0, 245.0]\n"
            "powers_db: [0.0, -3.0]\n"
            "azimuths_deg: [0.0, 40.0]\n"
            "spreads_deg: [2.0, 2.0]\n"
        )
        custom = replace(self.CFG, cluster_table=str(table))
        taps = TrialSimulator(custom, 0).channels[0].taps
        assert not np.array_equal(
            taps, TrialSimulator(self.CFG, 0).channels[0].taps
        )
        np.testing.assert_array_equal(
            taps, TrialSimulator(custom, 0).channels[0].taps
        )


def observed(simulator, name, *args):
    """A builder's result (called with ``args``) or a lazily built input
    (read when there are no ``args``) in comparable form; a failed
    extraction gives its message."""
    try:
        value = getattr(simulator, name)
        if args:
            value = value(*args)
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"
    if isinstance(value, float):
        return (value,)
    if isinstance(value, ChannelRealization):
        value = [value]
    if isinstance(value, list):
        return tuple(
            item for channel in value
            for item in (channel.taps, channel.source,
                         channel.cluster_azimuths_deg)
        )
    if isinstance(value, SensingBatch):
        return (value.probes, value.conj_probes, value.samples,
                value.subframe_index, value.normalized)
    if isinstance(value, np.ndarray):
        return (value,)
    return (value.values, value.support, value.subframe_index,
            value.diagnostics)


def assert_same(ours, fresh):
    if isinstance(fresh, str):
        assert ours == fresh
        return
    assert len(ours) == len(fresh)
    for a, b in zip(ours, fresh):
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


class TestBuildersInAnyOrder:
    """The builders share per-subframe draws and lazily built channels,
    energies and spectra, so every result must equal what a fresh
    simulator returns for that one call or read, whatever was called or
    read before it on the same simulator."""

    ORDERS = {
        "attacked_first": [
            ("sensing_batch", 2, True), ("sensing_batch", 2, False),
            ("snapshot_window", 2, True), ("snapshot_window", 2, False),
            ("energy_observation", 2, True),
            ("energy_observation", 2, False),
        ],
        "subframes_1_2_1": [
            ("sensing_batch", 1, False), ("snapshot_window", 1, False),
            ("sensing_batch", 2, True), ("snapshot_window", 2, False),
            ("sensing_batch", 1, True), ("snapshot_window", 1, True),
        ],
        "snapshot_before_extract": [
            ("snapshot_window", 2, False),
            ("extract_fingerprint", 2, False),
            ("snapshot_window", 2, True),
            ("extract_fingerprint", 2, True),
        ],
        "snapshot_after_extract": [
            ("extract_fingerprint", 2, True),
            ("snapshot_window", 2, True),
            ("extract_fingerprint", 2, False),
            ("snapshot_window", 2, False),
        ],
        "inputs_before_extract": [
            ("rho",), ("channels",), ("clean_energy_quiet",),
            ("clean_energy_attacked",),
            ("extract_fingerprint", 1, False),
            ("extract_fingerprint", 2, True),
        ],
        "inputs_after_extract": [
            ("extract_fingerprint", 1, False),
            ("extract_fingerprint", 2, True),
            ("clean_energy_attacked",), ("rho",), ("psi_attacker",),
            ("attacker_channel",), ("clean_energy_quiet",), ("channels",),
        ],
    }
    # The tiny cell, and trial 1 of the default cell (whose extractions
    # all complete).
    CELLS = {
        "tiny": (ScenarioConfig(**TINY), 0),
        "default": (ScenarioConfig(), 1),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_equal_to_fresh_simulator(self, cell, order):
        cfg, trial = self.CELLS[cell]
        simulator = TrialSimulator(cfg, trial)
        for step in self.ORDERS[order]:
            assert_same(
                observed(simulator, *step),
                observed(TrialSimulator(cfg, trial), *step),
            )


class TestDrawsOnlyWhatIsRead:
    """A trial draws a channel only when a step reads it: the victim's on
    construction, the attacker's for the attacked extraction, and the
    other users' for the energy and subspace statistics."""

    @pytest.fixture
    def sources(self, monkeypatch):
        """The source of every ``draw_channel`` call the harness makes."""
        seen = []

        def counting(scenario, table, source, *args):
            seen.append(source)
            return draw_channel(scenario, table, source, *args)

        monkeypatch.setattr(experiments, "draw_channel", counting)
        return seen

    def test_reference_failure_draws_the_victim_only(self, sources):
        # With one resource block (L = 12) every tiny-cell extraction fails.
        cfg = ScenarioConfig(**{**TINY, "rb_count": 1, "victim_index": 2})
        record = run_single_trial(cfg, 0)
        assert record.failed and "ExtractionError" in record.error
        assert sources == [2]

    def test_completed_trial_draws_each_channel_once(self, sources):
        cfg = ScenarioConfig()  # trial 1 of the default cell completes
        assert not run_single_trial(cfg, 1).failed
        assert Counter(sources) == Counter(
            [*range(cfg.num_users), "attacker"]
        )

    def test_streams_draw_the_channels_they_extract_from(self, sources):
        cfg = ScenarioConfig(**TINY)
        calibrate(cfg, n_streams=1, subframes_per_stream=3)
        assert sources == [cfg.victim_index]
        sources.clear()
        run_detection_delay(cfg, attack_start=2, n_subframes=3, n_streams=1)
        assert sources == [cfg.victim_index, "attacker"]

    def test_zero_energy_attacker_fails_on_reading_rho(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "draw_channel", silent_attacker_draws([])
        )
        cfg = ScenarioConfig(**TINY)
        message = "trial 0: drew a zero-energy channel"
        simulator = TrialSimulator(cfg, 0)
        with pytest.raises(ConfigurationError, match=message):
            simulator.rho
        # Trial 0 passes its reference and quiet extractions; the attacked
        # one reads rho, and the failure becomes the trial's record.
        record = run_single_trial(cfg, 0)
        assert record.error == f"trial 0: ConfigurationError: {message}"


class TestArmsShareDraws:
    """Common random numbers: both arms of a subframe see the same probes
    and noise and differ only by the attacker term."""

    def test_only_the_attacker_term_differs(self):
        simulator = TrialSimulator(ScenarioConfig(**TINY), 0)
        quiet = simulator.sensing_batch(2, False)
        attacked = simulator.sensing_batch(2, True)
        assert attacked.probes is quiet.probes
        assert attacked.conj_probes is quiet.conj_probes
        np.testing.assert_array_equal(quiet.conj_probes, quiet.probes.conj())

        repeats = simulator.cfg.subspace_config().samples_per_subframe
        attack_term = np.tile(
            (simulator.snapshot_attacked - simulator.snapshot_quiet).T,
            (repeats, 1),
        )
        assert np.max(np.abs(attack_term)) > 0.1
        np.testing.assert_allclose(
            simulator.snapshot_window(2, True)
            - simulator.snapshot_window(2, False),
            attack_term, rtol=0, atol=1e-12,
        )

    def test_arms_agree_without_an_attacker(self):
        # At -400 dB the attacker term is ~1e-20 of the victim's, so the
        # arms can differ only if their probes or noise differ.
        cfg = ScenarioConfig(**TINY, jsr_db=-400.0)
        simulator = TrialSimulator(cfg, 0)
        for subframe in (1, 2):
            for quiet, attacked in (
                (simulator.sensing_batch(subframe, False).samples,
                 simulator.sensing_batch(subframe, True).samples),
                (simulator.energy_observation(subframe, False),
                 simulator.energy_observation(subframe, True)),
            ):
                np.testing.assert_allclose(
                    attacked, quiet, rtol=1e-12, atol=0
                )
            np.testing.assert_allclose(
                simulator.snapshot_window(subframe, True),
                simulator.snapshot_window(subframe, False),
                rtol=0, atol=1e-12,
            )


class TestSnapshotNoiseMatchesOldExpression:
    """The snapshot noise is built in place; its bits are those of
    ``sqrt(sigma / 2) * (x + 1j * y)``, with ``x`` drawn before ``y``."""

    @staticmethod
    def old(shape, sigma, rng):
        return np.sqrt(sigma / 2.0) * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
        )

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (192, 256)])
    def test_complex_normal(self, shape):
        for seed in (0, 7, 201, 2**40 + 3):
            for sigma in (1e-3, 0.31622776601683794, 2.0):
                rng = np.random.default_rng(seed)
                old = self.old(shape, sigma, rng)
                new_rng = np.random.default_rng(seed)
                new = complex_normal(shape, np.sqrt(sigma / 2.0), new_rng)
                assert same_bits(new, old)
                assert new_rng.normal() == rng.normal()

    @pytest.mark.parametrize(
        "cfg", [ScenarioConfig(), ScenarioConfig(**TINY)],
        ids=["default", "tiny"],
    )
    def test_subframe_draws(self, cfg):
        shape = (
            cfg.subspace_config().samples_per_subframe * cfg.sequence_length,
            cfg.num_antennas,
        )
        for trial in (0, 1, 5):
            for subframe in (1, 2):
                rng = trial_rng(
                    cfg.master_seed, trial,
                    experiments._STREAM_SNAPSHOT_NOISE + subframe,
                )
                old = self.old(shape, cfg.receive_noise_variance, rng)
                draws = experiments._SubframeDraws(cfg, trial, subframe)
                assert same_bits(draws.snapshot_noise, old)


EXTRACTIONS = (
    ("reference", 1, False), ("quiet", 2, False), ("attacked", 2, True)
)


def sequential_trial(cfg, index):
    """(record, role of the failing extraction or None) of one trial with
    each extraction run to the end through the reference copy of the
    descent loop before the next one starts: the order whose records
    ``run_single_trial`` must reproduce."""
    fingerprints = []
    role = None
    try:
        simulator = TrialSimulator(cfg, index)
        for role, subframe, attacked in EXTRACTIONS:
            batch = simulator.sensing_batch(subframe, attacked)
            values, support, diagnostics = reference_extract(
                batch, cfg.extractor
            )
            fingerprints.append(
                SparsityFingerprint(values, support, subframe, diagnostics)
            )
        role = None
        reference, quiet, attacked = fingerprints
        record = TrialRecord(
            index,
            simulator.arm_observables(reference, quiet, attacked=False),
            simulator.arm_observables(reference, attacked, attacked=True),
        )
    except SpoofdetError as exc:
        record = TrialRecord(
            index, None, None,
            error=f"trial {index}: {type(exc).__name__}: {exc}",
        )
    return record, role


class TestTrialMatchesReferenceLoop:
    """``run_single_trial`` starts its three descents in turn and stops
    early; its records equal those of the sequential order."""

    @staticmethod
    def assert_records_match(cfg, outcomes):
        assert [hex_record(run_single_trial(cfg, i)) for i in range(4)] == [
            hex_record(record) for record, _ in outcomes
        ]

    def test_records_equal(self):
        cfg = ScenarioConfig(master_seed=7)
        outcomes = [sequential_trial(cfg, i) for i in range(4)]
        assert [role for _, role in outcomes] == [
            "attacked", "reference", "quiet", None
        ]
        self.assert_records_match(cfg, outcomes)

    @pytest.mark.parametrize("max_iterations", [0, 1])
    def test_descents_ending_in_their_first_advance(self, max_iterations):
        cfg = ScenarioConfig(
            master_seed=7,
            extractor=ExtractorConfig(max_iterations=max_iterations),
        )
        # Every descent ends during its first advance, so its fingerprint
        # must survive to finish(); with one iteration, trials 0-2 fail
        # while starting a descent, after the earlier ones have ended.
        outcomes = [sequential_trial(cfg, i) for i in range(4)]
        assert not all(record.failed for record, _ in outcomes)
        self.assert_records_match(cfg, outcomes)


def silent_attacker_draws(sources):
    """A ``draw_channel`` that gives the attacker a zero-energy channel and
    appends every source it draws to ``sources``."""

    def draw(scenario, table, source, *args):
        sources.append(source)
        channel = draw_channel(scenario, table, source, *args)
        if source == "attacker":
            channel = replace(channel, taps=np.zeros_like(channel.taps))
        return channel

    return draw


class TestEarlyStop:
    """A trial stops at the first descent whose first iterate is exactly
    zero, and otherwise raises what the sequential order raises first."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The batch of every point a descent evaluates, in call order."""
        seen = []
        evaluate = extractor._evaluate

        def spy(batch, phi):
            seen.append(batch)
            return evaluate(batch, phi)

        monkeypatch.setattr(extractor, "_evaluate", spy)
        return seen

    def test_attacked_failure_runs_one_iteration_of_the_others(
        self, evaluated
    ):
        cfg = ScenarioConfig(master_seed=7)  # trial 0 fails at the attacked
        assert run_single_trial(cfg, 0).error == f"trial 0: {ZERO_VECTOR}"
        per_batch = {}
        for batch in evaluated:
            per_batch.setdefault(id(batch), []).append(batch)
        runs = list(per_batch.values())
        assert len(runs) == 3

        def first_advance_and_full(batch):
            evaluated.clear()
            _Descent(batch, cfg.extractor)
            first = len(evaluated)
            evaluated.clear()
            try:
                extract(batch, cfg.extractor)
            except ExtractionError:
                pass
            return first, len(evaluated)

        for calls in runs[:2]:
            first, full = first_advance_and_full(calls[0])
            assert len(calls) == first < full
        # The attacked descent is run out from the zero vector: one more
        # iteration, one candidate, accepted at equal loss.
        first, full = first_advance_and_full(runs[2][0])
        assert len(runs[2]) == first + 1 == full

    def test_zero_energy_attacker_after_a_zero_quiet_descent(
        self, monkeypatch
    ):
        sources = []
        monkeypatch.setattr(
            experiments, "draw_channel", silent_attacker_draws(sources)
        )
        cfg = ScenarioConfig(**TINY)
        # Trial 2's quiet descent reaches zero in its first iteration, so
        # the attacked descent never starts and rho is never read.
        assert run_single_trial(cfg, 2).error == f"trial 2: {ZERO_VECTOR}"
        assert "attacker" not in sources

    def test_start_error_waits_for_the_earlier_descents(self, monkeypatch):
        class Unscreened(experiments._Descent):
            """A descent whose first iterate never reads as zero, so the
            early stop cannot end the trial before the next start."""

            def __init__(self, batch, cfg):
                super().__init__(batch, cfg)
                self.iterate = np.ones(1)

        sources = []
        monkeypatch.setattr(experiments, "_Descent", Unscreened)
        monkeypatch.setattr(
            experiments, "draw_channel", silent_attacker_draws(sources)
        )
        cfg = ScenarioConfig(**TINY)
        # The attacked start raises ConfigurationError on reading rho, but
        # the unfinished quiet descent, which ends at zero, raises first.
        assert run_single_trial(cfg, 2).error == f"trial 2: {ZERO_VECTOR}"
        assert "attacker" in sources
        # Trial 0's reference and quiet descents complete, so the start
        # error is the record.
        assert run_single_trial(cfg, 0).error == (
            "trial 0: ConfigurationError: trial 0: drew a zero-energy channel"
        )


class TestNoiseShortcutMoments:
    """The three noise shortcuts have the laws the module docstring states.
    Each mean is checked against its expected value within 5 standard
    errors, over many subframes of one tiny-cell trial."""

    CFG = ScenarioConfig(**TINY)
    SUBFRAMES = range(1, 1001)

    @staticmethod
    def assert_mean(values, expected):
        values = np.concatenate([np.ravel(v) for v in values])
        standard_error = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - expected) < 5.0 * standard_error

    def test_tap_noise_variance_scales_with_probe_norm(self):
        simulator = TrialSimulator(self.CFG, 0)
        ratios = []
        for subframe in self.SUBFRAMES:
            draws = simulator._subframe_draws(subframe)
            norms = np.sum(np.abs(draws.probes) ** 2, axis=1)
            ratios.append(np.abs(draws.tap_noise) ** 2 / norms)
        self.assert_mean(ratios, self.CFG.tap_noise_variance)

    @pytest.mark.parametrize("attacked", [False, True])
    def test_energy_sketch_mean(self, attacked):
        cfg = self.CFG
        simulator = TrialSimulator(cfg, 0)
        clean = (simulator.clean_energy_attacked if attacked
                 else simulator.clean_energy_quiet)
        noise = (cfg.receive_noise_variance * cfg.num_antennas
                 * cfg.sequence_length)
        self.assert_mean(
            [simulator.energy_observation(s, attacked)
             for s in self.SUBFRAMES],
            clean + noise,
        )

    def test_snapshot_noise_variance(self):
        simulator = TrialSimulator(self.CFG, 0)
        repeats = self.CFG.subspace_config().samples_per_subframe
        clean = np.tile(simulator.snapshot_quiet.T, (repeats, 1))
        self.assert_mean(
            [np.abs(simulator.snapshot_window(s, False) - clean) ** 2
             for s in self.SUBFRAMES[:200]],
            self.CFG.receive_noise_variance,
        )


class TestOtherEntryPoints:
    def test_run_sweep_one_cell(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        grid = run_sweep(cfg, [cfg.snr_db], [cfg.rb_count], tmp_path)
        assert json.loads((tmp_path / "sweep.json").read_text()) == grid
        tag = cfg.cell_tag()
        assert grid["cells"] == {
            tag: json.loads((tmp_path / tag / "summary.json").read_text())["auc"]
        }
        assert grid["master_seed"] == cfg.master_seed
        assert grid["trials_per_cell"] == cfg.trials
        direct = run_scenario(cfg, tmp_path / "direct")
        assert grid["cells"][tag] == direct["auc"]
        assert (tmp_path / tag / "trials.csv").read_bytes() == (
            tmp_path / "direct" / "trials.csv"
        ).read_bytes()

    def test_calibrate(self):
        cfg = ScenarioConfig(**TINY)
        result = calibrate(cfg, n_streams=2, subframes_per_stream=3)
        # Each stream decides every subframe after the first.
        values = np.asarray(result.similarities)
        assert values.shape == (2 * 2,)
        assert result.failed_streams == 0
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
        assert result.threshold == cfg.similarity_threshold
        assert result.suggested_threshold == float(
            np.quantile(values, result.quantile)
        )
        assert result.fraction_above_threshold == float(
            np.mean(values > cfg.similarity_threshold)
        )

    def test_run_detection_delay(self):
        cfg = ScenarioConfig(**TINY)
        result = run_detection_delay(
            cfg, attack_start=4, n_subframes=6, n_streams=2
        )
        assert len(result.first_alarms) == 2
        assert result.failed_streams == 0
        for alarm in result.first_alarms:
            assert alarm is None or 2 <= alarm <= 6
        caught = [a for a in result.first_alarms if a is not None]
        assert result.alarm_fraction == len(caught) / 2
        assert result.median_first_alarm == float(np.median(
            [float("inf") if a is None else a for a in result.first_alarms]
        ))

    def test_failed_stream_is_skipped_and_counted(self):
        # On the tiny cell, extraction fails in stream 2 (trial index 2).
        cfg = ScenarioConfig(**TINY)
        result = calibrate(cfg, n_streams=3, subframes_per_stream=3)
        assert result.failed_streams == 1
        assert result.similarities == calibrate(
            cfg, n_streams=2, subframes_per_stream=3
        ).similarities
        delay = run_detection_delay(
            cfg, attack_start=4, n_subframes=6, n_streams=3
        )
        assert delay.failed_streams == 1
        assert delay.first_alarms == run_detection_delay(
            cfg, attack_start=4, n_subframes=6, n_streams=2
        ).first_alarms

    def test_every_stream_failing_is_insufficient_data(self):
        # With one resource block (L = 12) every tiny-cell extraction fails.
        cfg = ScenarioConfig(**{**TINY, "rb_count": 1})
        with pytest.raises(InsufficientDataError):
            calibrate(cfg, n_streams=3, subframes_per_stream=2)
        with pytest.raises(InsufficientDataError):
            run_detection_delay(
                cfg, attack_start=2, n_subframes=2, n_streams=3
            )
