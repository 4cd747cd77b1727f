"""Tests for the experiment harness: rank AUC, ROC curves, result files.

Oracles: direct pair counting for the Mann-Whitney AUC, and reruns of a
tiny cell (serial and pooled) for byte-stable result files.
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
    auc_rank,
    detector_scores,
    roc_from_outcomes,
    run_scenario,
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

        assert stable(runs["rerun"][1]) == stable(summary)
        # The config hash covers every field, the worker count included.
        pooled = stable(runs["pool"][1])
        assert pooled.pop("config_hash") == (
            ScenarioConfig(**TINY, workers=2).config_hash()
        )
        assert pooled == {
            k: v for k, v in stable(summary).items() if k != "config_hash"
        }

        assert summary["config_hash"] == cfg.config_hash()
        rows = list(csv.DictReader(files["trials.csv"].decode().splitlines()))
        assert [int(row["trial"]) for row in rows] == list(range(cfg.trials))
        errors = sum(1 for row in rows if row["error"])
        assert summary["failed_trials"] == errors
        for name in DETECTOR_NAMES:
            assert 0.0 <= summary["auc"][name] <= 1.0
