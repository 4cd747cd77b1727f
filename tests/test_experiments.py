"""Tests for the experiment harness: rank AUC, ROC curves, result files,
the closed-form observation builders, and the multi-subframe entry points.

Oracles: direct pair counting for the Mann-Whitney AUC, and for its
DeLong placements and paired covariance, with a bootstrap over whole
trials and the spread of tiny-cell AUCs over seeds for the standard
errors; reruns of a tiny cell (serial and pooled, with a spy on
``ProcessPoolExecutor`` counting the pools each call starts and the maps
each pool runs) for byte-stable result files and stream results, and its
records and those of twelve paper-cell trials pinned to the bit; the full transmit/receive chain of ``link.py`` for the
noise-free sensing batches and subspace snapshots that ``TrialSimulator``
builds in closed form, and the snapshots written per user with FFTs for
the one-product snapshots; the stated laws of the three noise shortcuts, by
their moments; a fresh simulator per call for the builders' results
in any call order; counting spies on ``draw_channels`` and
``TrialSimulator.sensing_batch`` for which channels and batches a trial
builds, and on ``trial_rng`` for which seed streams it draws from; the
complex-noise expression the snapshot noise was first written
with; whole trials and streams run in the sequential order, each
extraction to its end through the reference copy of the extractor's
descent loop, each arm scored with ``similarity``, for the results of the
start-then-finish schedule; a spy on the descents' point evaluations
for how far each one ran, with a fresh simulator's batches naming the
subframe each descent extracted; a spy on ``_SubframeDraws`` for which
subframes a trial and a stream draw; ``run_scenario`` of each cell's
config for what ``run_sweep`` writes; and, where a test needs a failed
trial or stream, a failure made by construction (a NaN sample, or
all-zero samples, in one sensing batch, or a cluster profile longer than
``PILOT_SHIFT`` taps), not one found by seed.
"""

import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
import os
import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import yaml

from conftest import reference_extract, same_bits
from spoofdet import experiments, extractor
from spoofdet.baselines import ed_statistic, sd_statistic
from spoofdet.channel import complex_normal, draw_channels
from spoofdet.detector import DEFAULT_THRESHOLD, run_stream, similarity
from spoofdet.errors import (
    ConfigurationError,
    ExtractionError,
    InitializationError,
    InsufficientDataError,
    ShapeError,
    SpoofdetError,
)
from spoofdet.experiments import (
    DETECTOR_NAMES,
    ArmObservables,
    TrialRecord,
    TrialSimulator,
    auc_covariance,
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
    extract,
)
from spoofdet.link import (
    build_subframe_batch,
    ls_estimate,
    to_frequency_domain,
    transmit_receive_td,
)
from spoofdet.scenario import PILOT_SHIFT, ScenarioConfig
from spoofdet.zc import cyclic_shift, generate_zc


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


def pair_kernel(attack, normal, orientation):
    """Per (attack, quiet) pair: 1 if the attack trial outscores the quiet
    one, 1/2 on a tie, else 0."""
    a = orientation * np.asarray(attack, dtype=float)[:, None]
    n = orientation * np.asarray(normal, dtype=float)[None, :]
    return (a > n) + 0.5 * (a == n)


def brute_force_delong(score_sets):
    """AUCs and paired DeLong covariance by explicit pair counting and
    sums: trial ``t``'s attack score and its quiet score form one cluster,
    whose value is the sum of their two placements."""
    kernels = [pair_kernel(*scores) for scores in score_sets]
    n = len(kernels[0])
    aucs = [float(k.sum()) / (n * n) for k in kernels]
    clusters = [
        [k[t, :].mean() + k[:, t].mean() for t in range(n)] for k in kernels
    ]
    size = len(kernels)
    covariance = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            covariance[i, j] = sum(
                (clusters[i][t] - 2 * aucs[i]) * (clusters[j][t] - 2 * aucs[j])
                for t in range(n)
            ) / ((n - 1) * n)
    return np.array(aucs), covariance


def two_sample_se(attack, normal, orientation):
    """The two-sample DeLong standard error, which treats the attack and
    the quiet scores as independent samples."""
    kernel = pair_kernel(attack, normal, orientation)
    m, n = kernel.shape
    return math.sqrt(kernel.mean(axis=1).var(ddof=1) / m
                     + kernel.mean(axis=0).var(ddof=1) / n)


def three_score_sets(gen, n):
    """Scores of three detectors on the same n trials, an attacked and a
    quiet score each: a similarity-like score in [0, 1] with exact ties at
    1, a continuous energy, and integer subspace dimensions with many ties.
    As with common random numbers, a per-trial term enters both arms of
    the energy and of the subspace dimension; another shifts the attacked
    similarity and energy."""
    shift = gen.normal(size=n)
    common = gen.normal(size=n)
    level = gen.integers(0, 3, size=n)
    similarity = (
        np.minimum(1.0, gen.uniform(0.5, 1.3, size=n) - 0.2 * shift),
        np.minimum(1.0, gen.uniform(0.7, 1.4, size=n)),
    )
    energy = (gen.normal(0.5, 1.0, size=n) + 0.5 * shift + common,
              gen.normal(0.0, 1.0, size=n) + common)
    subspace = (gen.integers(2, 6, size=n) + level,
                gen.integers(1, 5, size=n) + level)
    return [
        (*similarity, -1.0), (*energy, 1.0), (*subspace, 1.0)
    ]


class TestAucUncertainty:
    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    def test_placements_match_pair_counting(self, orientation):
        gen = np.random.default_rng(11)
        for _ in range(30):
            # Integer scores with many ties, then continuous scores.
            for attack, normal in (
                (gen.integers(10, 16, size=gen.integers(1, 40)),
                 gen.integers(9, 15, size=gen.integers(1, 40))),
                (gen.normal(0.3, 1.0, size=gen.integers(1, 40)),
                 gen.normal(0.0, 1.0, size=gen.integers(1, 40))),
            ):
                table = experiments._rank_table(attack, normal, orientation)
                v_attack, v_normal = table.v_attack, table.v_normal
                kernel = pair_kernel(attack, normal, orientation)
                assert np.allclose(v_attack, kernel.mean(axis=1), atol=1e-12)
                assert np.allclose(v_normal, kernel.mean(axis=0), atol=1e-12)
                auc = auc_rank(attack, normal, orientation)
                for values in (v_attack, v_normal):
                    assert values.mean() == pytest.approx(auc, abs=1e-12)
                # The covariance's AUC is the rank AUC to the last bit, on
                # classes cut to the same number of trials.
                k = min(attack.size, normal.size)
                aucs, _ = auc_covariance([(attack[:k], normal[:k],
                                           orientation)])
                assert aucs[0] == auc_rank(attack[:k], normal[:k],
                                           orientation)

    def test_covariance_matches_brute_force(self):
        gen = np.random.default_rng(12)
        for n in (2, 7, 31):
            sets = three_score_sets(gen, n)
            aucs, covariance = auc_covariance(sets)
            expected_aucs, expected = brute_force_delong(sets)
            assert np.allclose(aucs, expected_aucs, atol=1e-12)
            assert np.allclose(covariance, expected, rtol=1e-9, atol=1e-15)
            # Each score set alone gives its diagonal entry.
            for k, scores in enumerate(sets):
                _, alone = auc_covariance([scores])
                assert alone.shape == (1, 1)
                assert alone[0, 0] == pytest.approx(covariance[k, k])

    def test_standard_errors_match_a_bootstrap(self):
        # Resampling whole trials, both arms together and jointly for the
        # detectors, estimates the same standard errors, also of a paired
        # gap.
        gen = np.random.default_rng(13)
        n = 90
        sets = three_score_sets(gen, n)
        aucs, covariance = auc_covariance(sets)
        draws = []
        for _ in range(500):
            trials = gen.integers(0, n, size=n)
            draws.append([
                auc_rank(attack[trials], normal[trials], orientation)
                for attack, normal, orientation in sets
            ])
        draws = np.array(draws)
        bootstrap_se = draws.std(axis=0, ddof=1)
        delong_se = np.sqrt(np.diag(covariance))
        assert np.all(delong_se > 0)
        assert np.allclose(bootstrap_se / delong_se, 1.0, atol=0.15)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gap_se = math.sqrt(
                covariance[i, i] + covariance[j, j] - 2 * covariance[i, j]
            )
            bootstrap_gap_se = (draws[:, i] - draws[:, j]).std(ddof=1)
            assert bootstrap_gap_se / gap_se == pytest.approx(1.0, abs=0.15)
        # The similarity and energy scores share a per-trial term, so their
        # AUCs covary; the test sees that through the gap.
        assert covariance[0, 1] > 0

    def test_fewer_than_two_of_a_class_has_no_variance(self):
        aucs, covariance = auc_covariance([([1.0], [0.0], 1.0)])
        assert aucs[0] == 1.0
        assert np.isnan(covariance).all()
        with pytest.raises(InsufficientDataError):
            experiments._rank_table([], [1.0], 1.0)

    def test_classes_of_unequal_length_are_rejected(self):
        aligned = ([1.0, 2.0], [0.0, 3.0], 1.0)
        for sets in (
            [([1.0], [0.0, 2.0], 1.0)],
            [aligned, ([1.0, 2.0, 4.0], [0.0, 3.0], -1.0)],
        ):
            with pytest.raises(ShapeError, match="one score of each class"):
                auc_covariance(sets)

    def test_standard_errors_match_the_spread_over_seeds(self):
        # Over k tiny-cell runs, the mean standard error of each AUC
        # matches the SD of the k AUCs within twice that SD's relative
        # sampling error, 1 / sqrt(2 (k - 1)).  The two-sample form, which
        # ignores that both arms of a trial share its draws, lies outside
        # that band for every detector.
        k = 90
        band = 2.0 / math.sqrt(2 * (k - 1))
        seen = {name: ([], [], []) for name in DETECTOR_NAMES}
        for seed in range(k):
            records = run_trials(
                ScenarioConfig(**{**TINY, "master_seed": seed})
            )
            for name, (aucs, ses, two_sample) in seen.items():
                # The estimate itself, which is 0 where every trial's
                # placements sum alike; ``roc_from_outcomes`` reports NaN
                # there.
                scores = detector_scores(records, name)
                orientation = -1.0 if name == "sparsity" else 1.0
                auc, covariance = auc_covariance([(*scores, orientation)])
                aucs.append(auc[0])
                ses.append(math.sqrt(covariance[0, 0]))
                two_sample.append(two_sample_se(*scores, orientation))
        for name, (aucs, ses, two_sample) in seen.items():
            spread = np.std(aucs, ddof=1)
            assert abs(np.mean(ses) / spread - 1.0) <= band, name
            assert np.mean(two_sample) / spread - 1.0 > band, name

    def test_roc_curve_carries_the_standard_error(self):
        gen = np.random.default_rng(14)
        records = [
            record(i, float(gen.integers(0, 4)), float(gen.integers(1, 5)))
            for i in range(30)
        ]
        for name in DETECTOR_NAMES:
            curve = roc_from_outcomes(records, name)
            attack, normal = detector_scores(records, name)
            orientation = -1.0 if name == "sparsity" else 1.0
            _, covariance = brute_force_delong(
                [(attack, normal, orientation)]
            )
            se = math.sqrt(covariance[0, 0])
            assert curve.auc_se == pytest.approx(se, rel=1e-9)
            low, high = curve.auc_ci95
            assert low == pytest.approx(max(0.0, curve.auc - 1.96 * se),
                                        abs=1e-4)
            assert high == pytest.approx(min(1.0, curve.auc + 1.96 * se),
                                         abs=1e-4)


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

    def test_points_close_the_curve_past_a_nan_statistic(self):
        # After orientation a NaN ranks above every number, in the AUC and
        # in the points alike: the curve runs from (0, 0) to (1, 1), both
        # rates rise, and the trapezoid area is the rank AUC.
        gen = np.random.default_rng(15)
        for _ in range(40):
            size = int(gen.integers(2, 30))
            values = gen.integers(0, 4, size=(size, 2)).astype(float)
            values[gen.integers(size), gen.integers(2)] = np.nan
            records = [
                TrialRecord(i, ArmObservables(q, q, q),
                            ArmObservables(a, a, a))
                for i, (q, a) in enumerate(values)
            ]
            for row in experiments.DETECTORS:
                curve = roc_from_outcomes(records, row.name)
                p_fa, p_d = np.array([p[:2] for p in curve.points]).T
                assert np.all((p_fa >= 0) & (p_fa <= 1))
                assert np.all((p_d >= 0) & (p_d <= 1))
                assert all(
                    a[:2] < b[:2]
                    for a, b in zip(curve.points, curve.points[1:])
                )
                assert curve.points[0][:2] == (0.0, 0.0)
                assert curve.points[-1][:2] == (1.0, 1.0)
                area = np.sum(np.diff(p_fa) * (p_d[1:] + p_d[:-1]) / 2)
                attack, normal = detector_scores(records, row.name)
                auc = auc_rank(attack, normal, row.orientation)
                assert curve.auc == auc
                assert area == pytest.approx(auc, abs=1e-12)

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    def test_a_group_of_signed_zeros_reads_plus_zero(self, orientation):
        # Whichever signed zero the sort puts first in the tie group, the
        # written threshold is +0.0.
        for attack, normal in (
            ([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]),
            ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]),
            ([-0.0, 1.0], [-0.0, -1.0]),
            ([0.0, 1.0], [0.0, -1.0]),
        ):
            table = experiments._rank_table(attack, normal, orientation)
            zeros = [t for *_, t in table.points if t == 0]
            assert len(zeros) == 1
            assert math.copysign(1.0, zeros[0]) == 1.0

    def test_points_span_the_unit_square(self):
        records = [record(0, 1.0, 2.0), record(1, 2.0, 3.0)]
        points = roc_from_outcomes(records, "energy").points
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)

    def test_no_completed_trials_rejected(self):
        failed = [TrialRecord(0, None, None, error="trial 0: failed")]
        with pytest.raises(InsufficientDataError):
            roc_from_outcomes(failed, "energy")

    def test_unknown_detector_rejected(self):
        records = [record(0, 1.0, 2.0)]
        for call in (
            lambda: detector_scores([], "residual"),
            lambda: roc_from_outcomes(records, "residual"),
        ):
            with pytest.raises(
                ConfigurationError, match="unknown detector 'residual'"
            ):
                call()


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


# A cluster table whose second cluster, at 1200 ns, maps to tap 5, so it
# spans six taps, beyond the PILOT_SHIFT = 5 a delay window may hold: every
# trial or stream drawing from it fails at its first channel draw with this
# error.
BEYOND_WINDOW = (
    "ClusterTableError: cluster 1 at 1200.0 ns maps to tap 5, so the profile "
    "spans 6 taps, more than the PILOT_SHIFT = 5"
)


@pytest.fixture
def beyond_window(tmp_path_factory):
    """The path of the table above, alone in its own directory."""
    path = tmp_path_factory.mktemp("tables") / "beyond-window.yaml"
    path.write_text(
        "delays_ns: [0.0, 1200.0]\n"
        "powers_db: [0.0, -3.0]\n"
        "azimuths_deg: [0.0, 40.0]\n"
        "spreads_deg: [2.0, 2.0]\n"
    )
    return path


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
    1: (("0x0.0p+0", "0x1.5d2d445426c7dp+5", 2),
        ("0x0.0p+0", "0x1.a4c51a8bafb40p+5", 3)),
    2: ZERO_VECTOR,
    3: (("0x1.0000000000000p+0", "0x1.2fb327a25c30fp+5", 3),
        ("0x1.0000000000000p+0", "0x1.5da71da14893cp+5", 3)),
    4: (("0x0.0p+0", "0x1.5e52c1a219a13p+5", 2),
        ("0x0.0p+0", "0x1.ce38b2b4bd463p+5", 2)),
    5: ZERO_VECTOR,
    6: (("0x0.0p+0", "0x1.7d58652ef8604p+5", 2),
        ("0x0.0p+0", "0x1.e02b83f65d661p+5", 2)),
    7: ZERO_VECTOR,
}
GOLDEN_TINY_TRIALS_CSV_SHA256 = (
    "6f937e5cf9581bd7972006baa6e6aaf42588c259a6bceff32819ac2af48787b0"
)


# Twelve trials of the paper cell (M=64, K=16, N=139, L=192) at seed 7,
# pinned the same way: six of the completed arms score similarities
# strictly between 0 and 1, and the subspace dimensions run from 13 to 16,
# so these records check bits the tiny cell's 0-or-1 similarities cannot.
PAPER_CELL = dict(master_seed=7, trials=12)
GOLDEN_PAPER_CELL = {
    0: ZERO_VECTOR,
    1: ZERO_VECTOR,
    2: ZERO_VECTOR,
    3: (("0x1.0000000000000p+0", "0x1.1573b12da5bcdp+10", 13),
        ("0x1.db40f9e913ca6p-1", "0x1.2673af3ed393bp+10", 14)),
    4: ZERO_VECTOR,
    5: (("0x1.d9a5dbdfba20cp-1", "0x1.2a77284bcffebp+10", 15),
        ("0x0.0p+0", "0x1.36c2032a781d1p+10", 16)),
    6: (("0x1.02e813e93676dp-1", "0x1.2846980756acdp+10", 16),
        ("0x0.0p+0", "0x1.35dea7d6032c7p+10", 16)),
    7: ZERO_VECTOR,
    8: (("0x1.0000000000000p+0", "0x1.22a97656e486bp+10", 15),
        ("0x1.8e189f56bf8cdp-1", "0x1.36c862b10aafdp+10", 15)),
    9: ZERO_VECTOR,
    10: ZERO_VECTOR,
    11: (("0x1.8a4f7cea5fcecp-1", "0x1.0d20ca2b75cd9p+10", 14),
         ("0x1.1774f4379ccdcp-1", "0x1.1da9f35f159e9p+10", 14)),
}


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
        # Every tiny-cell failure is the zero-vector extraction error.
        assert errors > 0
        assert summary["failures_by_type"] == {"ExtractionError": errors}
        for name in DETECTOR_NAMES:
            assert 0.0 <= summary["auc"][name] <= 1.0


    def test_summary_reports_auc_uncertainty(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        summary = run_scenario(cfg, tmp_path)
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        records = run_trials(cfg)
        for name in ("energy", "subspace"):
            curve = roc_from_outcomes(records, name)
            assert summary["auc_se"][name] == curve.auc_se > 0
            assert summary["auc_ci95"][name] == list(curve.auc_ci95)
            low, high = summary["auc_ci95"][name]
            assert 0.0 <= low <= summary["auc"][name] <= high <= 1.0
        # Every completed trial scores the same similarity in both arms, so
        # resampling whole trials leaves that AUC at 1/2: the spread over
        # trials gives no interval, and none is written.
        assert summary["auc"]["sparsity"] == 0.5
        assert summary["auc_se"]["sparsity"] is None
        assert summary["auc_ci95"]["sparsity"] is None

    @pytest.mark.parametrize("records", [
        # One completed trial: no variance across trials exists.
        [record(0, 1.0, 2.0),
         TrialRecord(1, None, None, error="trial 1: failed")],
        # Every trial tied, and the classes perfectly separated: every
        # trial's placements sum alike, so their spread is exactly 0, and
        # an interval of width 0 would claim an AUC known to the point.
        [record(i, float(i), float(i)) for i in range(5)],
        [record(i, float(i), float(i + 10)) for i in range(5)],
    ], ids=["one-trial", "every-trial-tied", "perfectly-separated"])
    def test_undefined_standard_error_is_null(self, records, tmp_path):
        curves = [roc_from_outcomes(records, name) for name in DETECTOR_NAMES]
        summary = experiments.emit_results(
            curves, records, tmp_path, ScenarioConfig(**TINY)
        )
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        for name in DETECTOR_NAMES:
            assert summary["auc_se"][name] is None
            assert summary["auc_ci95"][name] is None
        # No interval is made up for a standard error that does not exist.
        for curve in curves:
            assert math.isnan(curve.auc_se)
            assert all(math.isnan(v) for v in curve.auc_ci95)

    def test_failures_count_by_exception_name(self, tmp_path):
        errors = (
            "trial 1: ExtractionError: zero vector: no support",
            "trial 2: CapacityError: too many users",
            "trial 3: ExtractionError: diverged",
            "trial 4: failed",  # no exception name
            "no colon at all",
        )
        records = [record(0, 1.0, 2.0), record(5, 2.0, 3.0)] + [
            TrialRecord(i, None, None, error=e)
            for i, e in enumerate(errors, start=1)
        ]
        curves = [roc_from_outcomes(records, name) for name in DETECTOR_NAMES]
        summary = experiments.emit_results(
            curves, records, tmp_path, ScenarioConfig(**TINY)
        )
        assert summary["failures_by_type"] == {
            "CapacityError": 1, "ExtractionError": 2, "unparsed": 2,
        }

    def test_tiny_cell_matches_golden_records(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        records = run_trials(cfg)
        assert {r.trial_index: hex_record(r) for r in records} == GOLDEN_TINY
        run_scenario(cfg, tmp_path)
        digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes())
        assert digest.hexdigest() == GOLDEN_TINY_TRIALS_CSV_SHA256

    def test_tiny_cell_read_from_a_scenario_file(self, tmp_path):
        # The YAML input path end to end: the cell written as a flat
        # scenario file and read back writes the files the config does.
        cfg = ScenarioConfig(**TINY)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        run_scenario(cfg, tmp_path / "config")
        run_scenario(ScenarioConfig.from_yaml(path), tmp_path / "file")
        files, summary = read_outputs(tmp_path / "config")
        loaded_files, loaded_summary = read_outputs(tmp_path / "file")
        assert loaded_files == files
        del summary["wall_time_s"], loaded_summary["wall_time_s"]
        assert loaded_summary == summary

    def test_paper_cell_matches_golden_records(self):
        records = run_trials(ScenarioConfig(**PAPER_CELL))
        assert {r.trial_index: hex_record(r) for r in records} == (
            GOLDEN_PAPER_CELL
        )


def blas_thread_variable(index):
    """``_BLAS_THREAD_VARIABLES[index]`` as the process running this sees
    it: a module-level function, so a pool worker can run it."""
    return os.getenv(experiments._BLAS_THREAD_VARIABLES[index])


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Per process pool started, its worker count and the maps it ran."""
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                super().__init__(workers, **kwargs)
                self.record = [workers, 0]
                started.append(self.record)

            def map(self, *args, **kwargs):
                self.record[1] += 1
                return super().map(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        return started

    def test_workers_run_blas_on_one_thread(self, monkeypatch, pools):
        # Set in each worker from its start, whatever the caller has set;
        # the caller's environment is as it was once the pool is gone.
        names = experiments._BLAS_THREAD_VARIABLES
        monkeypatch.setenv(names[0], "4")
        for name in names[1:]:
            monkeypatch.delenv(name, raising=False)
        with experiments._index_map(2, []) as map_indices:
            seen = map_indices(blas_thread_variable, len(names))
        assert seen == ["1"] * len(names)
        assert pools == [[2, 1]]
        assert os.environ[names[0]] == "4"
        assert not any(name in os.environ for name in names[1:])

    def test_streams_run_in_the_pool(self, pools, beyond_window):
        # Two workers give the serial results and the serial every-stream
        # failure, and each call ran its streams on one pool.
        runs = {}
        for workers in (1, 2):
            cfg = ScenarioConfig(**TINY, workers=workers)
            failing = replace(cfg, cluster_table=str(beyond_window))
            texts = []
            for call in (partial(calibrate, failing, 6, 3),
                         partial(run_detection_delay, failing, 2, 3, 6)):
                with pytest.raises(InsufficientDataError) as raised:
                    call()
                texts.append(str(raised.value))
            runs[workers] = (repr(calibrate(cfg, 6, 4)),
                             repr(run_detection_delay(cfg, 3, 4, 6)), texts)
        assert pools == [[2, 1]] * 4
        assert runs[2] == runs[1]
        assert all(text.startswith(
            "every one of the 6 streams failed; first error: stream 0: "
            + BEYOND_WINDOW
        ) for text in runs[1][2])

    def test_cells_run_on_one_pool(self, pools, tmp_path):
        # A four-cell sweep runs its cells' trials on one pool, and a
        # scenario on another, and both write the files of the serial run.
        axes = {"snr_db": [0, 5], "jsr_db": [-5, 0]}
        for workers in (1, 2):
            cfg = ScenarioConfig(**TINY, workers=workers)
            run_sweep(cfg, axes, tmp_path / f"sweep-{workers}")
            run_scenario(cfg, tmp_path / f"sweep-{workers}" / "scenario")
        assert pools == [[2, 4], [2, 1]]
        serial = sorted((tmp_path / "sweep-1").rglob("*.csv"))
        assert len(serial) == 5 * (1 + len(DETECTOR_NAMES))
        for path in serial:
            pooled = tmp_path / "sweep-2" / path.relative_to(
                tmp_path / "sweep-1"
            )
            assert pooled.read_bytes() == path.read_bytes()


class TestBadClusterTable:
    """A cluster table the trials cannot read is a configuration error that
    every trial records; it does not end the run."""

    TEXTS = {
        "missing": None,
        "invalid-yaml": "delays_ns: [0.0\n  : :\n",
        "non-numeric": "delays_ns: [a]\npowers_db: [0]\n"
                       "azimuths_deg: [0]\nspreads_deg: [1]\n",
        # NaN passes every range check; it would reach the extractor as
        # "centered probe covariance is not finite".
        "non-finite": "delays_ns: [0.0, 35.0]\npowers_db: [0.0, -13.5]\n"
                      "azimuths_deg: [0.0, .nan]\nspreads_deg: [1.0, 3.0]\n",
    }

    @staticmethod
    def cell(tmp_path, text):
        path = tmp_path / "table.yaml"
        if text is not None:
            path.write_text(text)
        return ScenarioConfig(**{**TINY, "trials": 2}, cluster_table=str(path))

    @pytest.mark.parametrize("kind", TEXTS)
    def test_every_trial_records_it(self, tmp_path, kind):
        records = run_trials(self.cell(tmp_path, self.TEXTS[kind]))
        assert [r.trial_index for r in records] == [0, 1]
        for record in records:
            assert record.failed
            assert record.error.startswith(
                f"trial {record.trial_index}: ClusterTableError: "
                f"{tmp_path / 'table.yaml'}: "
            )

    def test_run_scenario_says_why(self, tmp_path):
        cfg = self.cell(tmp_path, None)
        with pytest.raises(InsufficientDataError,
                           match="first error: trial 0: ClusterTableError"):
            run_scenario(cfg, tmp_path / "out")

    def test_sequential_entry_points_say_why(self, tmp_path):
        # Each stream fails as a trial does; none ends the run early.
        cfg = self.cell(tmp_path, None)
        why = "every one of the 3 streams failed; first error: stream 0: " \
            "ClusterTableError"
        with pytest.raises(InsufficientDataError, match=why):
            calibrate(cfg, n_streams=3, subframes_per_stream=3)
        with pytest.raises(InsufficientDataError, match=why):
            run_detection_delay(
                cfg, attack_start=2, n_subframes=3, n_streams=3
            )


class TestConfigOwnsItsTable:
    """A config reads its cluster table once, at first use, and its trials
    and its ``config_hash`` both see that one table, whatever later happens
    to the file or to the working directory, in a pool as in one process.
    A fresh config reads the file as it is then."""

    TABLE = ("delays_ns: [0.0, 245.0]\npowers_db: [0.0, -3.0]\n"
             "azimuths_deg: [0.0, 40.0]\nspreads_deg: [2.0, 2.0]\n")

    def rewrite_beyond_window(self, path):
        path.write_text(self.TABLE.replace("245.0", "1200.0"))

    def test_a_rewritten_file_reaches_only_a_fresh_config(self, tmp_path):
        path = tmp_path / "table.yaml"
        path.write_text(self.TABLE)
        cfg = ScenarioConfig(**TINY, cluster_table=str(path))
        records = run_trials(cfg)
        assert not all(record.failed for record in records)
        digest = cfg.config_hash()
        self.rewrite_beyond_window(path)
        assert run_trials(cfg) == records
        assert cfg.config_hash() == digest
        fresh = ScenarioConfig(**TINY, cluster_table=str(path))
        assert all(
            record.error.startswith(
                f"trial {record.trial_index}: {BEYOND_WINDOW}"
            )
            for record in run_trials(fresh)
        )
        assert fresh.config_hash() != digest

    def test_a_relative_path_is_read_where_it_was_first_used(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "table.yaml").write_text(self.TABLE)
        monkeypatch.chdir(tmp_path)
        cfg = ScenarioConfig(**TINY, cluster_table="table.yaml")
        records = run_trials(cfg)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        absolute = ScenarioConfig(
            **TINY, cluster_table=str(tmp_path / "table.yaml")
        )
        assert cfg.config_hash() == absolute.config_hash()
        assert records == run_trials(absolute)

    @pytest.mark.parametrize("read_first", [True, False],
                             ids=["read-in-parent", "read-in-workers"])
    def test_the_pool_draws_the_serial_table(self, tmp_path, read_first):
        path = tmp_path / "table.yaml"
        path.write_text(self.TABLE)
        serial = ScenarioConfig(**TINY, cluster_table=str(path))
        records = run_trials(serial)
        pooled = replace(serial, workers=2)
        if read_first:
            pooled.table
            # Only the table the parent read can reach the workers now.
            self.rewrite_beyond_window(path)
        assert run_trials(pooled) == records
        assert pooled.config_hash() == serial.config_hash()

    def test_a_pooled_run_reads_the_table_in_the_parent(self, tmp_path):
        # Before the pool starts, so every task's copy of the config carries
        # the parent's one read of the table and of the window it fixes.
        path = tmp_path / "table.yaml"
        path.write_text(self.TABLE)
        records = run_trials(ScenarioConfig(**TINY, cluster_table=str(path)))
        pooled = ScenarioConfig(**TINY, cluster_table=str(path), workers=2)
        assert "table" not in vars(pooled)
        assert run_trials(pooled) == records
        assert {"table", "num_taps"} <= vars(pooled).keys()


class TestTheProfileFixesTheWindow:
    """The delay window is the cluster profile's span: a profile of up to
    ``PILOT_SHIFT`` taps runs with no setting, and a longer one fails on
    every trial without ending a sweep."""

    def test_five_taps_run_and_six_fail(self, tmp_path, beyond_window,
                                        monkeypatch):
        # The last cluster at 960 ns maps to tap 4, at 1200 ns to tap 5.
        five = beyond_window.parent / "five-taps.yaml"
        five.write_text(beyond_window.read_text().replace("1200.0", "960.0"))
        monkeypatch.chdir(beyond_window.parent)
        cfg = ScenarioConfig(**TINY)
        grid = run_sweep(
            cfg, {"cluster_table": [five.name, beyond_window.name]}, tmp_path
        )

        fits = replace(cfg, cluster_table=five.name)
        assert fits.num_taps == PILOT_SHIFT
        assert fits.fingerprint_dimension == 5 * cfg.num_antennas
        simulator = TrialSimulator(fits, 0)
        assert simulator.channels.shape == (
            cfg.num_users, 5, cfg.num_antennas
        )
        assert simulator.sensing_batch(1, False).probes.shape == (
            cfg.n_samples, 5 * cfg.num_antennas
        )
        records = run_trials(fits)
        assert not all(record.failed for record in records)
        complete = grid["cells"]["cluster_table=five-taps.yaml"]
        assert complete["error"] is None
        assert complete["failed_trials"] == sum(r.failed for r in records)

        failed = grid["cells"]["cluster_table=beyond-window.yaml"]
        assert failed["failures_by_type"] == {"ClusterTableError": cfg.trials}
        rows = list(csv.DictReader((
            tmp_path / "cluster_table=beyond-window.yaml" / "trials.csv"
        ).read_text().splitlines()))
        assert [row["error"] for row in rows] == [
            f"trial {i}: {BEYOND_WINDOW} over which same-root pilots stay "
            "orthogonal (240.0 ns per tap)"
            for i in range(cfg.trials)
        ]


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
        pool = cfg.build_pool()
        attacker = (
            simulator.rho * simulator.attacker_channel if attacked else None
        )
        y_td = transmit_receive_td(
            pool, simulator.channels, attacker, 0.0, cfg.n_samples, rng=0
        )
        y_fd = to_frequency_domain(y_td)
        estimate = ls_estimate(y_fd, pool[0], cfg.num_taps)
        return y_fd, estimate

    @pytest.mark.parametrize("trial", [0, 1, 2])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_sensing_batch_and_snapshot(self, trial, attacked):
        self.assert_matches_chain(TrialSimulator(self.CFG, trial), attacked)

    @staticmethod
    def window_of(tmp_path, num_taps, second_delay_ns=None):
        """The path of a table whose last cluster, at tap ``num_taps - 1``,
        gives a ``num_taps``-tap window, after a cluster at 0 ns and one at
        ``second_delay_ns`` if given."""
        delays = [0.0, second_delay_ns, 240.0 * (num_taps - 1)]
        if second_delay_ns is None:
            del delays[1]
        table = tmp_path / f"window-{num_taps}.yaml"
        table.write_text(
            f"delays_ns: {delays}\n"
            f"powers_db: {[0.0, -3.0, -6.0][:len(delays)]}\n"
            f"azimuths_deg: {[0.0, 40.0, -25.0][:len(delays)]}\n"
            f"spreads_deg: {[2.0] * len(delays)}\n"
        )
        return str(table)

    @pytest.mark.parametrize("num_taps, second_delay_ns", [
        (3, 400.0), (4, 240.0), (5, 240.0),
    ])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_shift_equal_to_the_delay_spread(
        self, num_taps, second_delay_ns, attacked, tmp_path
    ):
        # Pilots PILOT_SHIFT apart stay orthogonal over every delay window
        # up to the shift, so the shortcuts hold below it and at that
        # boundary too.  The table fixes the window: its last cluster, at
        # 480, 720 or 960 ns, maps to tap 2, 3 or 4, and a cluster before
        # it at 400 ns (tap 2) or 240 ns (tap 1) puts energy inside it.
        cfg = replace(self.CFG, cluster_table=self.window_of(
            tmp_path, num_taps, second_delay_ns
        ))
        assert cfg.num_taps == num_taps
        self.assert_matches_chain(TrialSimulator(cfg, 0), attacked)

    def assert_matches_chain(self, simulator, attacked):
        y_fd, estimate = self.chain_estimate(simulator, attacked)

        shortcut = simulator.sensing_batch(1, attacked)
        chain = build_subframe_batch(estimate, shortcut.probes)
        for batch in (chain, shortcut):
            assert np.mean(batch.samples) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(
            shortcut.samples, chain.samples, rtol=1e-12, atol=1e-12
        )

        snapshot = (
            simulator.snapshot_attacked if attacked
            else simulator.snapshot_quiet
        )
        np.testing.assert_allclose(snapshot, y_fd[0].T, rtol=0, atol=1e-12)


    def test_cells_sharing_one_process(self, tmp_path):
        """The per-process pilot-tap basis memo tells cells apart by N,
        user count and tap count, and each config draws from its table."""
        five_taps = replace(
            self.CFG, cluster_table=self.window_of(tmp_path, PILOT_SHIFT)
        )
        assert five_taps.num_taps == PILOT_SHIFT != self.CFG.num_taps
        cells = [
            self.CFG,
            replace(self.CFG, sequence_length=37),
            replace(self.CFG, num_users=5),
            five_taps,
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
                    snapshot, y_fd[0].T, rtol=0, atol=1e-12
                )

        table = tmp_path / "table.yaml"
        table.write_text(
            "delays_ns: [0.0, 245.0]\n"
            "powers_db: [0.0, -3.0]\n"
            "azimuths_deg: [0.0, 40.0]\n"
            "spreads_deg: [2.0, 2.0]\n"
        )
        custom = replace(self.CFG, cluster_table=str(table))
        taps = TrialSimulator(custom, 0).channels[0]
        default = TrialSimulator(self.CFG, 0).channels[0]
        assert not np.array_equal(taps, default)
        np.testing.assert_array_equal(
            taps, TrialSimulator(custom, 0).channels[0]
        )


def observed(simulator, name, *args):
    """A builder's result (called with ``args``), the extraction of a
    sensing batch (``"extract"``), or a lazily built input (read when there
    are no ``args``) in comparable form; a failed extraction gives its
    message."""
    try:
        if name == "extract":
            batch = simulator.sensing_batch(*args)
            value = extract(batch, simulator.cfg.extractor)
        else:
            value = getattr(simulator, name)
            if args:
                value = value(*args)
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"
    if isinstance(value, float):
        return (value,)
    if isinstance(value, SensingBatch):
        return (value.probes, value.samples)
    if isinstance(value, np.ndarray):
        return (value,)
    return (value.values, value.support, value.diagnostics)


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
        "energy_subframes_1_2_1": [
            ("energy_observation", 1, False), ("sensing_batch", 2, True),
            ("energy_observation", 2, True), ("energy_observation", 1, True),
            ("energy_observation", 2, False),
        ],
        "snapshot_before_extract": [
            ("snapshot_window", 2, False),
            ("extract", 2, False),
            ("snapshot_window", 2, True),
            ("extract", 2, True),
        ],
        "snapshot_after_extract": [
            ("extract", 2, True),
            ("snapshot_window", 2, True),
            ("extract", 2, False),
            ("snapshot_window", 2, False),
        ],
        "inputs_before_extract": [
            ("rho",), ("channels",), ("clean_energy_quiet",),
            ("clean_energy_attacked",),
            ("extract", 1, False),
            ("extract", 2, True),
        ],
        "inputs_after_extract": [
            ("extract", 1, False),
            ("extract", 2, True),
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


def fail_batch(monkeypatch, trial_index, subframe, attacked, zero=False):
    """Make the sensing batch of ``trial_index`` at ``(subframe, attacked)``
    fail by construction, not by seed.  By default its first sample is
    NaN, which ``spectral_init`` rejects with ``InitializationError``
    before the descent evaluates a point.  With ``zero`` every sample is
    0, so the spectral start is the zero vector and the descent raises
    ``ExtractionError`` ("identically zero vector") in its first
    iteration.
    Every other batch is left as the simulator builds it, and calls
    stack."""
    sensing_batch = TrialSimulator.sensing_batch

    def failing(simulator, s, a):
        batch = sensing_batch(simulator, s, a)
        if (simulator.trial_index, s, a) != (trial_index, subframe, attacked):
            return batch
        if zero:
            samples = np.zeros_like(batch.samples)
        else:
            samples = batch.samples.copy()
            samples[0] = np.nan
        return SensingBatch(batch.probes, samples)

    monkeypatch.setattr(TrialSimulator, "sensing_batch", failing)


NOT_FINITE = "InitializationError: centered probe covariance is not finite"


class TestDrawsOnlyWhatIsRead:
    """A trial draws a channel only when a step reads it: the victim's on
    construction, the attacker's for the attacked extraction, and the
    other users' for the energy and subspace statistics."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The sources of each ``draw_channels`` call the harness makes."""
        seen = []

        def counting(scenario, table, sources, *args):
            seen.append(list(sources))
            return draw_channels(scenario, table, sources, *args)

        monkeypatch.setattr(experiments, "draw_channels", counting)
        return seen

    def test_reference_failure_draws_the_victim_only(
        self, calls, monkeypatch
    ):
        fail_batch(monkeypatch, 0, 1, False)
        record = run_single_trial(ScenarioConfig(**TINY), 0)
        assert record.error == f"trial 0: {NOT_FINITE}"
        assert calls == [[0]]

    def test_reference_failure_builds_one_batch(self, monkeypatch):
        # The victim's channel is drawn on construction, so the channel
        # draws cannot see a subframe-2 batch built too early.
        fail_batch(monkeypatch, 0, 1, False)
        built = []
        sensing_batch = TrialSimulator.sensing_batch

        def counting(simulator, subframe, attacked):
            built.append((subframe, attacked))
            return sensing_batch(simulator, subframe, attacked)

        monkeypatch.setattr(TrialSimulator, "sensing_batch", counting)
        cfg = ScenarioConfig(**TINY)
        assert run_single_trial(cfg, 0).error == f"trial 0: {NOT_FINITE}"
        assert built == [(1, False)]
        built.clear()
        with pytest.raises(
            InsufficientDataError, match=f"stream 0: {NOT_FINITE}$"
        ):
            run_detection_delay(
                cfg, attack_start=2, n_subframes=4, n_streams=1
            )
        assert built == [(1, False)]

    def test_completed_trial_draws_each_channel_once(self, calls):
        cfg = ScenarioConfig()  # trial 1 of the default cell completes
        assert not run_single_trial(cfg, 1).failed
        # Each channel once; the other users' in one draw, for the baselines.
        assert calls == [[0], ["attacker"], list(range(1, cfg.num_users))]

    def test_streams_draw_the_channels_they_extract_from(self, calls):
        cfg = ScenarioConfig(**TINY)
        calibrate(cfg, n_streams=1, subframes_per_stream=3)
        assert calls == [[0]]
        calls.clear()
        run_detection_delay(cfg, attack_start=2, n_subframes=3, n_streams=1)
        assert calls == [[0], ["attacker"]]

    def test_zero_energy_attacker_fails_on_reading_rho(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "draw_channels", silent_attacker_draws([])
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

    def test_attacker_energy_is_computed_once(self, monkeypatch):
        energies = []
        checked_energy = TrialSimulator._checked_energy

        def counting(simulator, taps):
            energies.append(taps)
            return checked_energy(simulator, taps)

        monkeypatch.setattr(TrialSimulator, "_checked_energy", counting)
        simulator = TrialSimulator(ScenarioConfig(**TINY), 0)
        simulator.clean_energy_attacked
        simulator.rho
        assert len(energies) == 2
        assert energies[1] is simulator.attacker_channel


class TestArmsShareDraws:
    """Common random numbers: both arms of a subframe see the same probes
    and noise and differ only by the attacker term."""

    def test_only_the_attacker_term_differs(self):
        simulator = TrialSimulator(ScenarioConfig(**TINY), 0)
        quiet = simulator.sensing_batch(2, False)
        attacked = simulator.sensing_batch(2, True)
        assert attacked.probes is quiet.probes
        # Each batch's samples have the bits of the response written with
        # a conjugated copy of the probes, which the simulator does not
        # make.
        tap_noise = experiments._SubframeDraws(simulator.cfg, 0, 2).tap_noise
        for batch, psi in (
            (quiet, simulator.psi_victim),
            (attacked, simulator.psi_victim + simulator.psi_attacker),
        ):
            power = np.abs(batch.probes.conj() @ psi + tap_noise) ** 2
            assert same_bits(batch.samples, power / float(power.mean()))

        attack_term = simulator.snapshot_attacked - simulator.snapshot_quiet
        assert np.max(np.abs(attack_term)) > 0.1
        np.testing.assert_allclose(
            simulator.snapshot_window(2, True)
            - simulator.snapshot_window(2, False),
            attack_term, rtol=0, atol=1e-12,
        )

    def test_a_completed_trial_seeds_each_stream_once(self, monkeypatch):
        # Both arms read one draw per subframe of the probes, the tap
        # noise, the energy sketch and the snapshot noise.
        streams = []

        def counting(master_seed, trial_index, stream):
            streams.append(stream)
            return trial_rng(master_seed, trial_index, stream)

        monkeypatch.setattr(experiments, "trial_rng", counting)
        assert not run_single_trial(ScenarioConfig(), 1).failed
        assert len(streams) == len(set(streams))
        assert experiments._STREAM_SKETCH + 2 in streams

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


class TestSnapshotBasis:
    """The clean snapshots are one product with the per-process pilot-tap
    basis; they must match the receive written per user: the pilot's FFT
    times the FFT of the zero-padded taps, over ``sqrt(N)``, summed."""

    @staticmethod
    def per_user(cfg, users, channels):
        pool = cfg.build_pool()
        n = cfg.sequence_length
        total = np.zeros((n, cfg.num_antennas), dtype=np.complex128)
        for k, taps in zip(users, channels):
            pilot = np.fft.fft(pool[k])
            padded = np.zeros((n, cfg.num_antennas), dtype=np.complex128)
            padded[: taps.shape[0]] = taps
            spectrum = pilot[:, None] * np.fft.fft(padded, axis=0)
            total += spectrum / np.sqrt(n)
        return total

    @pytest.mark.parametrize(
        "cfg", [ScenarioConfig(), ScenarioConfig(**TINY)],
        ids=["default", "tiny"],
    )
    def test_matches_the_per_user_fft(self, cfg):
        for trial in (0, 1, 5):
            simulator = TrialSimulator(cfg, trial)
            quiet = self.per_user(
                cfg, range(cfg.num_users), simulator.channels
            )
            attack = self.per_user(
                cfg, [experiments.VICTIM],
                [simulator.rho * simulator.attacker_channel],
            )
            np.testing.assert_allclose(
                simulator.snapshot_quiet, quiet, rtol=1e-12
            )
            np.testing.assert_allclose(
                simulator.snapshot_attacked, quiet + attack, rtol=1e-12
            )

    @pytest.mark.parametrize(
        "cfg", [ScenarioConfig(), ScenarioConfig(**TINY)],
        ids=["default", "tiny"],
    )
    def test_basis_matches_the_row_by_row_build(self, cfg):
        # The basis as built from each user's cyclic shift in turn.
        n, k_users, t = cfg.sequence_length, cfg.num_users, cfg.num_taps
        root = generate_zc(n, 1)
        rows = np.array(
            [cyclic_shift(root, k * PILOT_SHIFT) for k in range(k_users)],
            dtype=np.complex128,
        )
        pilots = np.fft.fft(rows, axis=1)
        delays = np.fft.fft(np.eye(n, t), axis=0)
        old = (pilots.T[:, :, None] * delays[:, None, :]).reshape(n, -1)
        old /= np.sqrt(n)
        basis = experiments._pilot_tap_basis(n, k_users, t)
        assert same_bits(basis, old)
        assert not basis.flags.writeable


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
        shape = (cfg.sequence_length, cfg.num_antennas)
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
    descent loop before the next one starts, and each arm's test scored
    against the reference with ``similarity``: the order whose records
    ``run_single_trial`` must reproduce."""
    fingerprints = []
    role = None
    try:
        simulator = TrialSimulator(cfg, index)
        for role, subframe, attacked in EXTRACTIONS:
            batch = simulator.sensing_batch(subframe, attacked)
            fingerprints.append(SparsityFingerprint(
                *reference_extract(batch, cfg.extractor)
            ))
        role = None
        reference, *tests = fingerprints
        record = TrialRecord(index, *(
            ArmObservables(
                similarity=similarity(reference, test),
                energy=ed_statistic(simulator.energy_observation(2, attacked)),
                subspace_dimension=sd_statistic(
                    simulator.snapshot_window(2, attacked)
                ),
            )
            for test, attacked in zip(tests, (False, True))
        ))
    except SpoofdetError as exc:
        record = TrialRecord(
            index, None, None,
            error=f"trial {index}: {type(exc).__name__}: {exc}",
        )
    return record, role


class TestTrialMatchesReferenceLoop:
    """``run_single_trial`` starts its three descents before it finishes
    any; its records equal those of the sequential order."""

    CELLS = (
        ScenarioConfig(master_seed=7),
        ScenarioConfig(master_seed=7, rb_count=4),
        ScenarioConfig(**TINY),
    )

    @staticmethod
    def assert_records_match(cfg, outcomes):
        assert [
            hex_record(run_single_trial(cfg, i)) for i in range(len(outcomes))
        ] == [hex_record(record) for record, _ in outcomes]

    def test_records_equal(self):
        roles = Counter()
        for cfg in self.CELLS:
            outcomes = [sequential_trial(cfg, i) for i in range(12)]
            roles.update(role for _, role in outcomes)
            self.assert_records_match(cfg, outcomes)
        # Failures at all three extractions, and completed trials.
        assert set(roles) == {"reference", "quiet", "attacked", None}

    @pytest.mark.parametrize("max_iterations", [0, 1])
    def test_descents_ending_in_their_first_advance(
        self, max_iterations, monkeypatch
    ):
        cfg = ScenarioConfig(master_seed=7)
        monkeypatch.setattr(extractor, "MAX_ITERATIONS", max_iterations)
        # Every descent ends during its start, so its fingerprint must
        # survive to the finishing pass; with one iteration, trials 0-2
        # fail while starting a descent.
        outcomes = [sequential_trial(cfg, i) for i in range(4)]
        assert not all(record.failed for record, _ in outcomes)
        self.assert_records_match(cfg, outcomes)


def sequential_stream(cfg, index, n_subframes, attack_start):
    """(fingerprints or error text, failing subframe or None) of one
    stream, each extraction run to the end through the reference copy of
    the descent loop before the next batch is built.  A deployment that
    fails fails at subframe 0."""
    subframe = 0
    try:
        simulator = TrialSimulator(cfg, index)
        fingerprints = []
        for subframe in range(1, n_subframes + 1):
            attacked = attack_start is not None and subframe >= attack_start
            batch = simulator.sensing_batch(subframe, attacked)
            fingerprints.append(SparsityFingerprint(
                *reference_extract(batch, cfg.extractor)
            ))
    except SpoofdetError as exc:
        return f"stream {index}: {type(exc).__name__}: {exc}", subframe
    return fingerprints, None


class TestStreamsMatchReferenceLoop:
    """``calibrate`` and ``run_detection_delay`` start every descent of a
    stream before they finish any; what they return equals what the
    sequential order gives, and so does the error when every stream
    fails."""

    CELLS = TestTrialMatchesReferenceLoop.CELLS
    N_STREAMS = 8
    N_SUBFRAMES = 6
    ATTACK_START = 4

    def reference(self, cfg, attack_start, threshold=DEFAULT_THRESHOLD):
        """(``run_stream`` results at ``threshold``, errors, failing
        subframes) of the streams."""
        results, errors, failing = [], [], []
        for index in range(self.N_STREAMS):
            out, subframe = sequential_stream(
                cfg, index, self.N_SUBFRAMES, attack_start
            )
            if subframe is None:
                results.append(run_stream(out, threshold))
            else:
                errors.append(out)
                failing.append(subframe)
        return results, errors, failing

    def check(self, results, errors, run):
        """``run()`` returns a result whose failed-stream count matches, or
        raises the error naming the first stream's failure."""
        if not results:
            message = (
                f"every one of the {self.N_STREAMS} streams failed; "
                f"first error: {errors[0]}"
            )
            with pytest.raises(
                InsufficientDataError, match=f"^{re.escape(message)}$"
            ):
                run()
            return None
        result = run()
        assert result.failed_streams == len(errors)
        return result

    def test_results_equal(self):
        failing = Counter()
        completed = 0
        for cfg in self.CELLS:
            results, errors, quiet_failing = self.reference(cfg, None)
            calibration = self.check(results, errors, lambda: calibrate(
                cfg, self.N_STREAMS, self.N_SUBFRAMES
            ))
            if calibration is not None:
                assert calibration.similarities == tuple(
                    value
                    for result in results for value in result.similarities
                )
            completed += len(results)

            results, errors, attacked_failing = self.reference(
                cfg, self.ATTACK_START
            )
            delay = self.check(results, errors, lambda: run_detection_delay(
                cfg, self.ATTACK_START, self.N_SUBFRAMES, self.N_STREAMS
            ))
            if delay is not None:
                assert delay.first_alarms == tuple(
                    result.first_alarm_index for result in results
                )
            completed += len(results)
            failing.update(quiet_failing + attacked_failing)
        # Completed streams, and streams failing at the first subframe, at
        # a later one before the onset, and at or after it.
        assert completed > 0
        assert 1 in failing
        assert any(1 < k < self.ATTACK_START for k in failing)
        assert any(k >= self.ATTACK_START for k in failing)

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_the_threshold_reaches_every_stream(self, threshold):
        # On the tiny cell's streams each of these thresholds gives other
        # similarities than the default; at 0 no stream alarms.
        cfg = ScenarioConfig(**TINY)
        results, errors, _ = self.reference(cfg, None, threshold)
        calibration = self.check(results, errors, lambda: calibrate(
            cfg, self.N_STREAMS, self.N_SUBFRAMES, threshold=threshold
        ))
        assert calibration.threshold == threshold
        assert calibration.similarities == tuple(
            value for result in results for value in result.similarities
        )
        results, errors, _ = self.reference(cfg, self.ATTACK_START, threshold)
        delay = self.check(results, errors, lambda: run_detection_delay(
            cfg, self.ATTACK_START, self.N_SUBFRAMES, self.N_STREAMS,
            threshold=threshold,
        ))
        alarms = tuple(result.first_alarm_index for result in results)
        assert delay.first_alarms == alarms
        if threshold == 0.0:
            assert set(alarms) == {None}


class TestStreamGolden:
    """The stream entry points at the paper cell, seed 11, pinned to the
    bit: the reference-loop test above scores its oracle through
    ``run_stream`` itself, so only a pinned result shows a change to the
    sequential rule."""

    CFG = ScenarioConfig(master_seed=11)

    def test_calibrate(self):
        result = calibrate(self.CFG, 20, 6)
        assert [v.hex() for v in result.similarities] == [
            "0x1.b62db0d256d42p-1", "0x1.d6bcdf62fb52ap-1",
            "0x1.97624f9cf7331p-1", "0x1.dfd4c754161a4p-1",
            "0x1.ee71164d755c9p-1", "0x1.e23ef7d1f5914p-1",
            "0x1.795609f3c1129p-1", "0x1.e68378de22e05p-1",
            "0x1.92ccd13f6c7b1p-1", "0x1.e12d2f1a26f27p-1",
        ]
        assert result.failed_streams == 18

    def test_run_detection_delay(self):
        result = run_detection_delay(self.CFG, 4, 6, 20)
        assert result.first_alarms == (2, 2, 2)
        assert result.failed_streams == 17


def silent_attacker_draws(sources):
    """A ``draw_channels`` that gives the attacker a zero-energy channel and
    appends every source it draws to ``sources``."""

    def draw(scenario, table, drawn, *args):
        sources.extend(drawn)
        channels = draw_channels(scenario, table, drawn, *args)
        channels[[source == "attacker" for source in drawn]] = 0.0
        return channels

    return draw


@pytest.fixture
def evaluated(monkeypatch):
    """The batch of every point a descent evaluates, in call order."""
    seen = []
    evaluate = extractor._evaluate

    def spy(batch, phi):
        seen.append(batch)
        return evaluate(batch, phi)

    monkeypatch.setattr(extractor, "_evaluate", spy)
    return seen


def descents(evaluated):
    """The evaluations of each descent, grouped by batch, in start order."""
    runs = {}
    for batch in evaluated:
        runs.setdefault(id(batch), []).append(batch)
    return list(runs.values())


def schedule_of(runs, simulator, candidates):
    """The ``(subframe, attacked)`` pair of each descent's batch: the one
    candidate whose fresh batch has the same probes and samples."""
    pairs = []
    for calls in runs:
        matches = []
        for pair in candidates:
            fresh = simulator.sensing_batch(*pair)
            if (np.array_equal(calls[0].probes, fresh.probes)
                    and np.array_equal(calls[0].samples, fresh.samples)):
                matches.append(pair)
        assert len(matches) == 1
        pairs.append(matches[0])
    return pairs


def evaluations(evaluated, monkeypatch, batch, max_iterations):
    """Point evaluations of a whole extraction of ``batch``, at the default
    settings the cells use, with this iteration budget."""
    evaluated.clear()
    with monkeypatch.context() as patch:
        patch.setattr(extractor, "MAX_ITERATIONS", max_iterations)
        try:
            extract(batch)
        except ExtractionError:
            pass
    return len(evaluated)


def assert_first_iterations_only(evaluated, monkeypatch, runs):
    """Each descent of ``runs`` evaluated the points of its first iteration
    and no more, fewer than its whole extraction evaluates."""
    budget = extractor.MAX_ITERATIONS
    for calls in runs:
        first = evaluations(evaluated, monkeypatch, calls[0], 1)
        assert len(calls) == first < evaluations(
            evaluated, monkeypatch, calls[0], budget
        )


class TestEarlyStop:
    """A trial stops at the first descent whose iterate is exactly zero,
    or at the first descent whose start raises, having run only the first
    iteration of the descents before it."""

    def test_attacked_failure_runs_one_iteration_of_the_others(
        self, evaluated, monkeypatch
    ):
        cfg = ScenarioConfig(master_seed=7)
        fail_batch(monkeypatch, 0, 2, True)
        assert run_single_trial(cfg, 0).error == f"trial 0: {NOT_FINITE}"
        # The attacked start raises before it evaluates a point.
        runs = descents(evaluated)
        started = [(1, False), (2, False)]
        assert schedule_of(runs, TrialSimulator(cfg, 0), started) == started
        assert_first_iterations_only(evaluated, monkeypatch, runs)

    def test_zero_energy_attacker_after_a_zero_quiet_descent(
        self, evaluated, monkeypatch
    ):
        sources = []
        monkeypatch.setattr(
            experiments, "draw_channels", silent_attacker_draws(sources)
        )
        cfg = ScenarioConfig(**TINY)
        # Trial 2's quiet descent reaches zero in its first iteration, so
        # the attacked descent never starts and rho is never read.
        fail_batch(monkeypatch, 2, 2, False, zero=True)
        assert run_single_trial(cfg, 2).error == f"trial 2: {ZERO_VECTOR}"
        assert "attacker" not in sources
        reference, _ = descents(evaluated)
        assert_first_iterations_only(evaluated, monkeypatch, [reference])
        # Trial 0's reference and quiet descents start, so the attacked
        # start's error is the record.
        evaluated.clear()
        assert run_single_trial(cfg, 0).error == (
            "trial 0: ConfigurationError: trial 0: drew a zero-energy channel"
        )
        runs = descents(evaluated)
        assert len(runs) == 2
        assert_first_iterations_only(evaluated, monkeypatch, runs)


class TestArmStreams:
    """Trials and streams share one path, ``_extract_schedule``: a trial is
    the schedule of its reference and its two arms' tests, each arm scored
    by its test's ``similarity`` to the reference."""

    CFG = ScenarioConfig(master_seed=7)

    def test_trial_is_the_two_arm_stream(self, evaluated, monkeypatch):
        # Failures made by construction: trial 1 at its reference start,
        # trial 2 at its zero quiet descent, trial 4 at its attacked start.
        constructed = {1: (1, False, False), 2: (2, False, True),
                       4: (2, True, False)}
        for index, (subframe, attacked, zero) in constructed.items():
            fail_batch(monkeypatch, index, subframe, attacked, zero)
        failed = set()
        for index in range(10):
            evaluated.clear()
            try:
                simulator, (reference, quiet, attacked) = (
                    experiments._extract_schedule(
                        self.CFG, index, [(1, False), (2, False), (2, True)]
                    )
                )
            except SpoofdetError as exc:
                expected = TrialRecord(
                    index, None, None,
                    error=f"trial {index}: {type(exc).__name__}: {exc}",
                )
            else:
                expected = TrialRecord(
                    index,
                    simulator.arm_observables(
                        similarity(reference, quiet), 2, attacked=False
                    ),
                    simulator.arm_observables(
                        similarity(reference, attacked), 2, attacked=True
                    ),
                )
            work = [len(calls) for calls in descents(evaluated)]
            evaluated.clear()
            assert hex_record(run_single_trial(self.CFG, index)) == (
                hex_record(expected)
            )
            # The same descents, each run as far.
            assert [len(calls) for calls in descents(evaluated)] == work
            if expected.failed:
                failed.add(index)
        assert set(constructed) <= failed and len(failed) < 10


class TestArmStreamsDrawEachSubframeOnce:
    """A completed trial draws subframe 2 once for both arms, and a stream
    draws each of its subframes once."""

    CFG = ScenarioConfig(**TINY)

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The subframe of every ``_SubframeDraws`` built, in order."""
        drawn = []
        init = experiments._SubframeDraws.__init__

        def spy(self, cfg, trial_index, subframe):
            drawn.append(subframe)
            init(self, cfg, trial_index, subframe)

        monkeypatch.setattr(experiments._SubframeDraws, "__init__", spy)
        return drawn

    def test_each_subframe_is_drawn_once(self, drawn):
        # Stream 0 of this cell completes its five extractions.
        result = run_detection_delay(self.CFG, 3, 5, 1)
        assert result.failed_streams == 0
        assert drawn == [1, 2, 3, 4, 5]

    def test_a_trial_draws_subframe_2_once(self, drawn):
        completed = 0
        for index in range(4):
            drawn.clear()
            if not run_single_trial(self.CFG, index).failed:
                completed += 1
                assert drawn == [1, 2]
        assert completed > 0


class TestStreamEarlyStop:
    """A stream stops at the first descent whose start fails, having run
    only the first iteration of the descents before it."""

    @pytest.mark.parametrize("index, failing", [(0, 3), (3, 6)])
    def test_failure_at_subframe_k(
        self, evaluated, monkeypatch, index, failing
    ):
        # Without an attack, stream ``index`` of this cell is made to fail
        # at subframe ``failing``, whose start raises before it evaluates a
        # point.
        cfg = ScenarioConfig(master_seed=7)
        fail_batch(monkeypatch, index, failing, False)
        quiet = [(s, False) for s in range(1, 7)]
        with pytest.raises(InitializationError, match="not finite"):
            experiments._extract_schedule(cfg, index, quiet)
        runs = descents(evaluated)
        fresh = TrialSimulator(cfg, index)
        assert schedule_of(runs, fresh, quiet) == quiet[:failing - 1]
        assert_first_iterations_only(evaluated, monkeypatch, runs)


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
        self.assert_mean(ratios, self.CFG.receive_noise_variance)

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
        clean = simulator.snapshot_quiet
        self.assert_mean(
            [np.abs(simulator.snapshot_window(s, False) - clean) ** 2
             for s in self.SUBFRAMES],
            self.CFG.receive_noise_variance,
        )


class TestOtherEntryPoints:
    def test_run_sweep_one_cell(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        grid = run_sweep(cfg, {"snr_db": [cfg.snr_db]}, tmp_path)
        assert json.loads((tmp_path / "sweep.json").read_text()) == grid
        tag = "snr_db=5.0"
        summary = json.loads((tmp_path / tag / "summary.json").read_text())
        assert grid["cells"] == {tag: {
            "failed_trials": summary["failed_trials"],
            "failures_by_type": summary["failures_by_type"],
            "auc": summary["auc"],
            "auc_se": summary["auc_se"],
            "error": None,
        }}
        assert grid["axes"] == {"snr_db": [5.0]}
        assert grid["master_seed"] == cfg.master_seed
        assert grid["trials_per_cell"] == cfg.trials
        assert grid["schema_version"] == experiments.SCHEMA_VERSION
        direct = run_scenario(cfg, tmp_path / "direct")
        assert grid["cells"][tag]["auc"] == direct["auc"]
        assert grid["cells"][tag]["auc_se"] == direct["auc_se"]
        assert (tmp_path / tag / "trials.csv").read_bytes() == (
            tmp_path / "direct" / "trials.csv"
        ).read_bytes()

    @pytest.mark.parametrize("axes, tags", [
        ({"rb_count": [8, 4]}, ["rb_count=8", "rb_count=4"]),
        ({"jsr_db": [0, -5.0], "rb_count": [8.0, 4]},
         ["jsr_db=0.0,rb_count=8", "jsr_db=0.0,rb_count=4",
          "jsr_db=-5.0,rb_count=8", "jsr_db=-5.0,rb_count=4"]),
        ({"snr_db": [5, 10], "rb_count": [8], "master_seed": [7, 8]},
         ["snr_db=5.0,rb_count=8,master_seed=7",
          "snr_db=5.0,rb_count=8,master_seed=8",
          "snr_db=10.0,rb_count=8,master_seed=7",
          "snr_db=10.0,rb_count=8,master_seed=8"]),
    ], ids=["one-axis", "two-axes", "three-axes"])
    def test_run_sweep_cells_are_the_product_of_the_axes(
        self, tmp_path, axes, tags
    ):
        # The last axis varies fastest; each tag holds the values as the
        # cell's config holds them, and each cell ran that config.
        cfg = ScenarioConfig(**{**TINY, "trials": 4})
        grid = run_sweep(cfg, axes, tmp_path)
        assert json.loads((tmp_path / "sweep.json").read_text()) == grid
        assert list(grid["cells"]) == tags
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            tags + ["sweep.json"]
        )
        assert grid["axes"] == {
            name: [getattr(replace(cfg, **{name: v}), name) for v in values]
            for name, values in axes.items()
        }
        for tag, values in zip(tags, itertools.product(*axes.values())):
            cell_cfg = replace(cfg, **dict(zip(axes, values)))
            summary = json.loads((tmp_path / tag / "summary.json").read_text())
            assert summary["config_hash"] == cell_cfg.config_hash()
            assert grid["cells"][tag] == {
                "failed_trials": summary["failed_trials"],
                "failures_by_type": summary["failures_by_type"],
                "auc": summary["auc"],
                "auc_se": summary["auc_se"],
                "error": None,
            }

    def test_run_sweep_takes_the_extractor_settings_as_axes(self, tmp_path):
        # Each is a plain float field: its tags are plain names, and the
        # sweep's return is plain JSON, as sweep.json holds it.
        cfg = ScenarioConfig(**{**TINY, "trials": 4})
        axes = {"threshold_scale": [15], "tolerance": [1e-3, 0.01]}
        grid = run_sweep(cfg, axes, tmp_path)
        tags = ["threshold_scale=15.0,tolerance=0.001",
                "threshold_scale=15.0,tolerance=0.01"]
        assert list(grid["cells"]) == tags
        assert json.loads(json.dumps(grid)) == grid == json.loads(
            (tmp_path / "sweep.json").read_text()
        )
        assert grid["axes"] == {"threshold_scale": [15.0],
                                "tolerance": [0.001, 0.01]}
        for tag, tolerance in zip(tags, axes["tolerance"]):
            summary = json.loads((tmp_path / tag / "summary.json").read_text())
            assert summary["config_hash"] == replace(
                cfg, tolerance=tolerance
            ).config_hash()

    def test_run_sweep_keeps_going_past_a_cell_where_every_trial_fails(
        self, tmp_path, beyond_window, monkeypatch
    ):
        # Every trial of the beyond-window table's cell fails at its first
        # channel draw.  The sweep runs from the table's directory, so the
        # cell's tag holds a plain file name.
        monkeypatch.chdir(beyond_window.parent)
        cfg = ScenarioConfig(trials=10, master_seed=7)
        grid = run_sweep(
            cfg, {"cluster_table": [None, beyond_window.name]}, tmp_path
        )
        assert json.loads((tmp_path / "sweep.json").read_text()) == grid
        complete = grid["cells"]["cluster_table=None"]
        failed = grid["cells"]["cluster_table=beyond-window.yaml"]
        assert complete["failed_trials"] < cfg.trials
        assert complete["error"] is None
        # Whether a trial of the complete cell fails depends on the seed;
        # any that does fails in extraction.
        by_type = complete["failures_by_type"]
        assert set(by_type) <= {"ExtractionError"}
        assert sum(by_type.values()) == complete["failed_trials"]
        assert set(complete["auc"]) == set(DETECTOR_NAMES)
        # The failed cell writes its per-trial log and its summary, with
        # null AUCs; its sweep entry is read from that summary.
        cell = tmp_path / "cluster_table=beyond-window.yaml"
        assert sorted(p.name for p in cell.iterdir()) == [
            "summary.json", "trials.csv"
        ]
        summary = json.loads((cell / "summary.json").read_text())
        assert summary["auc"] is summary["auc_se"] is None
        assert summary["auc_ci95"] is None
        assert summary["failed_trials"] == cfg.trials
        rows = list(csv.DictReader(
            (cell / "trials.csv").read_text().splitlines()
        ))
        assert [int(row["trial"]) for row in rows] == list(range(cfg.trials))
        assert all(row["error"] for row in rows)
        assert failed == {
            "failed_trials": cfg.trials,
            "failures_by_type": {"ClusterTableError": cfg.trials},
            "auc": None,
            "auc_se": None,
            "error": summary["error"],
        }
        # Run alone, the cell writes the same files and raises that error.
        with pytest.raises(InsufficientDataError) as raised:
            run_scenario(replace(cfg, cluster_table=beyond_window.name),
                         tmp_path / "direct")
        assert str(raised.value) == failed["error"]
        assert failed["error"] == (
            "every trial failed; nothing to report; first error: "
            + rows[0]["error"]
        )
        assert (tmp_path / "direct" / "trials.csv").read_bytes() == (
            cell / "trials.csv"
        ).read_bytes()

    @pytest.mark.parametrize("axes", [
        {"rb_count": [8, 4.5]},
        {"snr_db": [5.0, "5"]},
        {"snr_db": [5, 5.0]},
        {"rb_count": [8], "snr_db": [10.0, 10]},
        {"rb_count": [8, 8.0], "jsr_db": [0.0]},
        {"snr_db": [5.0], "snr": [5.0]},
        {"num_taps": [4]},
        {"cluster_table": ["profiles/clustered.yaml"]},
        {"workers": [1, 2]},
        {"rb_count": [8], "output_dir": ["a", "b"]},
        {"extractor": [ExtractorConfig()]},
        {"tolerance": [1e-3, -1.0]},
        {"shift_size": [5]},
        {"tap_duration_ns": [240.0]},
    ], ids=[
        "fractional-block-count", "quoted-snr", "5-and-5.0",
        "repeat-on-the-last-axis", "repeat-on-the-first-axis",
        "unknown-field", "num-taps", "path-separator",
        "workers", "output-dir", "nested-extractor", "negative-tolerance",
        "shift-size", "tap-duration",
    ])
    def test_run_sweep_rejects_what_the_config_rejects(self, tmp_path, axes):
        # A value the config rejects, two values naming one cell, a name
        # that is no config field (a typo, a deleted field such as
        # ``output_dir``, ``shift_size``, ``tap_duration_ns`` or
        # ``num_taps``, or the ``extractor`` property), a field that
        # changes no cell's results (the whole sweep runs on
        # ``cfg.workers``), or a tag that is not a plain directory name
        # raises before any cell runs, here after a first good cell.
        cfg = ScenarioConfig(**TINY)
        with pytest.raises(ConfigurationError):
            run_sweep(cfg, axes, tmp_path / "sweep")
        assert list(tmp_path.iterdir()) == []

    def test_calibrate(self):
        cfg = ScenarioConfig(**TINY)
        result = calibrate(cfg, n_streams=2, subframes_per_stream=3)
        # Each stream decides every subframe after the first.
        values = np.asarray(result.similarities)
        assert values.shape == (2 * 2,)
        assert result.failed_streams == 0
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
        assert result.threshold == DEFAULT_THRESHOLD
        assert result.suggested_threshold == float(
            np.quantile(values, result.quantile)
        )
        assert result.fraction_above_threshold == float(
            np.mean(values >= DEFAULT_THRESHOLD)
        )

    def test_similarity_at_the_threshold_counts_as_normal(self):
        # Tiny-cell similarities are exactly 0 or 1; at a threshold of 1.0
        # a similarity of 1.0 is judged normal, as detector.run_stream
        # judges it.
        cfg = ScenarioConfig(**TINY)
        result = calibrate(cfg, n_streams=6, subframes_per_stream=4,
                           threshold=1.0)
        results, failed = experiments._stream_states(cfg, 6, 4, None, 1.0)
        values = [value for r in results for value in r.similarities]
        normal = sum(1 for value in values if value >= 1.0)
        assert failed == result.failed_streams
        assert len(values) == len(result.similarities) == 12
        assert normal == 6
        assert result.fraction_above_threshold == normal / len(values)

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

    def test_failed_stream_is_skipped_and_counted(self, monkeypatch):
        # Streams 0 and 1 of the tiny cell complete; once stream 0's
        # reference is made to fail, only stream 1's results are left.
        cfg = ScenarioConfig(**TINY)
        similarities = calibrate(
            cfg, n_streams=2, subframes_per_stream=3
        ).similarities
        first_alarms = run_detection_delay(
            cfg, attack_start=4, n_subframes=6, n_streams=2
        ).first_alarms
        fail_batch(monkeypatch, 0, 1, False)
        result = calibrate(cfg, n_streams=2, subframes_per_stream=3)
        assert result.failed_streams == 1
        assert result.similarities == similarities[2:]
        delay = run_detection_delay(
            cfg, attack_start=4, n_subframes=6, n_streams=2
        )
        assert delay.failed_streams == 1
        assert delay.first_alarms == first_alarms[1:]

    @pytest.mark.parametrize("call, message", [
        (partial(calibrate, n_streams=0), "at least one stream of"),
        (partial(calibrate, n_streams=2, subframes_per_stream=1),
         "at least two subframes"),
        (partial(calibrate, n_streams=2, quantile=0.0), "quantile must lie"),
        (partial(calibrate, n_streams=2, quantile=1.0), "quantile must lie"),
        (partial(run_detection_delay, attack_start=1, n_streams=2),
         "subframe 2 or later"),
        (partial(run_detection_delay, attack_start=4, n_subframes=3,
                 n_streams=2), "extend at least to the attack-start"),
        (partial(run_detection_delay, n_streams=0), "at least one stream"),
        *[(partial(entry_point, n_streams=2, threshold=threshold),
           "threshold must lie in")
          for entry_point in (calibrate, run_detection_delay)
          for threshold in (-0.1, 1.5, math.nan)],
    ], ids=["no-stream", "one-subframe", "quantile-0", "quantile-1",
            "attack-at-1", "onset-past-the-end", "no-delay-stream",
            "calibrate-threshold-below-0", "calibrate-threshold-above-1",
            "calibrate-threshold-nan", "delay-threshold-below-0",
            "delay-threshold-above-1", "delay-threshold-nan"])
    def test_entry_points_reject_bad_arguments(self, call, message):
        # Two tiny-cell streams, so that without its check a case runs
        # quickly to a result or to another error.  Without the threshold
        # check each stream would fail on its own and the run would end in
        # InsufficientDataError, which is no ConfigurationError.
        with pytest.raises(ConfigurationError, match=message):
            call(ScenarioConfig(**TINY))

    def test_every_stream_failing_is_insufficient_data(self, beyond_window):
        # Every stream fails at its first channel draw.
        cfg = ScenarioConfig(**TINY, cluster_table=str(beyond_window))
        first = "first error: stream 0: " + BEYOND_WINDOW
        with pytest.raises(InsufficientDataError, match=first):
            calibrate(cfg, n_streams=3, subframes_per_stream=2)
        with pytest.raises(InsufficientDataError, match=first):
            run_detection_delay(
                cfg, attack_start=2, n_subframes=2, n_streams=3
            )
