"""Tests for the experiment harness: rank AUC, ROC curves, result files,
the closed-form observation builders, and the multi-subframe entry points.

Oracles: direct pair counting for the Mann-Whitney AUC; reruns of a tiny
cell (serial and pooled) for byte-stable result files; the full
transmit/receive chain of ``link.py`` for the noise-free sensing batches
and subspace snapshots that ``TrialSimulator`` builds in closed form.
"""

import csv
import json

import numpy as np
import pytest

from spoofdet.errors import InsufficientDataError
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
)
from spoofdet.extractor import build_subframe_batch
from spoofdet.link import (
    AttackProfile,
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
        for alarm in result.first_alarms:
            assert alarm is None or 2 <= alarm <= 6
        caught = [a for a in result.first_alarms if a is not None]
        assert result.alarm_fraction == len(caught) / 2
        assert result.median_first_alarm == float(np.median(
            [float("inf") if a is None else a for a in result.first_alarms]
        ))
