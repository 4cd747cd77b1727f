"""Tests for the experiment harness: rank AUC, ROC curves, result files,
the closed-form observation builders, and the multi-subframe entry points.

Oracles: direct pair counting for the Mann-Whitney AUC; reruns of a tiny
cell (serial and pooled) for byte-stable result files, and its records
pinned to the bit; the full transmit/receive chain of ``link.py`` for the
noise-free sensing batches and subspace snapshots that ``TrialSimulator``
builds in closed form; the stated laws of the three noise shortcuts, by
their moments; and a fresh simulator per call for the builders' results
in any call order.
"""

import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from spoofdet.errors import ExtractionError, InsufficientDataError
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
    run_sweep,
    run_trials,
)
from spoofdet.extractor import SensingBatch, build_subframe_batch
from spoofdet.link import (
    AttackProfile,
    SubframeObservation,
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
        link_cfg = cfg.link_config()
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


def observed(simulator, builder, subframe, attacked):
    """A builder's result in comparable form; a failed extraction gives
    its message."""
    try:
        value = getattr(simulator, builder)(subframe, attacked)
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"
    if isinstance(value, SensingBatch):
        return (value.probes, value.conj_probes, value.samples,
                value.subframe_index, value.normalized)
    if isinstance(value, SubframeObservation):
        return (value.samples, value.subframe_index)
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
    """The builders share per-subframe draws and lazily built spectra, so
    every result must equal what a fresh simulator returns for that one
    call, whatever was called before it on the same simulator."""

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
        for builder, subframe, attacked in self.ORDERS[order]:
            assert_same(
                observed(simulator, builder, subframe, attacked),
                observed(TrialSimulator(cfg, trial), builder, subframe,
                         attacked),
            )


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
            for builder in ("sensing_batch", "energy_observation"):
                quiet = getattr(simulator, builder)(subframe, False)
                attacked = getattr(simulator, builder)(subframe, True)
                np.testing.assert_allclose(
                    attacked.samples, quiet.samples, rtol=1e-12, atol=0
                )
            np.testing.assert_allclose(
                simulator.snapshot_window(subframe, True),
                simulator.snapshot_window(subframe, False),
                rtol=0, atol=1e-12,
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
            [simulator.energy_observation(s, attacked).samples
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
