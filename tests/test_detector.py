"""Tests for the sequential similarity detector.

Oracles: hand-built fingerprints with known geometry (identical,
orthogonal, phase/scale-rotated), closed-form similarity values for
two-component mixtures, and replay comparisons across thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_batch
from spoofdet.detector import (
    DEFAULT_THRESHOLD,
    StreamResult,
    run_stream,
    similarity,
)
from spoofdet import extractor
from spoofdet.errors import ConfigurationError, DegenerateFingerprintError
from spoofdet.extractor import (
    ExtractorConfig,
    SensingBatch,
    SparsityFingerprint,
    draw_gaussian_probes,
    extract,
)


def make_fp(values):
    values = np.asarray(values, dtype=np.complex128)
    return SparsityFingerprint(
        values=values,
        support=tuple(int(i) for i in np.flatnonzero(values)),
    )


def random_fp(dimension, seed):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=dimension) + 1j * gen.normal(size=dimension)
    return make_fp(values)


class TestSimilarity:
    def test_self_similarity_one(self):
        fp = random_fp(8, 0)
        assert similarity(fp, fp) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_zero(self):
        a = make_fp([1.0, 2.0, 0.0, 0.0])
        b = make_fp([0.0, 0.0, -1.0, 3.0])
        assert similarity(a, b) == 0.0

    def test_phase_and_scale_invariance(self):
        a = random_fp(6, 1)
        b = make_fp(3.0 * np.exp(1j * np.pi / 7) * a.values)
        assert similarity(a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("entry_a, entry_b", [
        (1 + 1j, 1 + 1j), (0.1 + 0.2j, 0.3 - 0.7j), (0.1 + 0.7j, -0.3 + 0.2j),
    ])
    def test_same_single_coordinate_is_exactly_one(self, entry_a, entry_b):
        # Two fingerprints on one and the same coordinate are collinear.
        # The inner product over the norms rounds each of these pairs to
        # 1 minus one or two ulps, which would break a tie at 1.0.
        a = make_fp(np.where(np.arange(6) == 4, entry_a, 0))
        b = make_fp(np.where(np.arange(6) == 4, entry_b, 0))
        assert similarity(a, b) == similarity(b, a) == 1.0
        assert similarity(a, make_fp(np.roll(b.values, 1))) == 0.0

    def test_symmetry_exact(self):
        a = random_fp(10, 2)
        b = random_fp(10, 3)
        assert similarity(a, b) == similarity(b, a)

    def test_zero_norm_rejected(self):
        a = random_fp(4, 4)
        zero = make_fp(np.zeros(4))
        with pytest.raises(DegenerateFingerprintError):
            similarity(a, zero)
        with pytest.raises(DegenerateFingerprintError):
            similarity(zero, a)

    def test_two_component_mixture_closed_form(self):
        # Orthogonal unit blocks: similarity of a to a + rho*b is
        # 1 / sqrt(1 + rho^2).
        a = make_fp([1.0, 0.0, 0.0, 0.0])
        for rho in (0.0, 0.5, 1.0, 2.0):
            mixed = make_fp([1.0, rho, 0.0, 0.0])
            expected = 1.0 / np.sqrt(1.0 + rho**2)
            assert similarity(a, mixed) == pytest.approx(expected, rel=1e-12)

    @given(seed_a=st.integers(0, 5000), seed_b=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_range_and_scale_property(self, seed_a, seed_b):
        a = random_fp(7, seed_a)
        b = random_fp(7, seed_b)
        value = similarity(a, b)
        assert 0.0 <= value <= 1.0
        gen = np.random.default_rng(seed_a + seed_b)
        scale = complex(gen.normal(), gen.normal())
        if abs(scale) > 1e-6:
            scaled = make_fp(scale * b.values)
            assert similarity(a, scaled) == pytest.approx(value, abs=1e-12)


class TestStep:
    """One step of the fold, seen in streams of two and three
    fingerprints."""

    def test_identical_fingerprint_normal(self):
        ref = random_fp(8, 0)
        result = run_stream([ref, random_fp(8, 0)])
        assert result.similarities == pytest.approx((1.0,), abs=1e-12)
        assert result.first_alarm_index is None

    def test_reference_updates_on_normal(self):
        # The third fingerprint is compared with the second, which was
        # judged normal, and not with the first.
        ref = make_fp([1.0, 0.0])
        nxt = make_fp([1.0, 0.3])
        third = make_fp([1.0, 0.6])
        result = run_stream([ref, nxt, third])
        assert result.first_alarm_index is None
        assert result.similarities == (
            similarity(ref, nxt),
            similarity(nxt, third),
        )
        assert similarity(nxt, third) != similarity(ref, third)

    def test_quarantine_freezes_reference_on_alarm(self):
        # After the alarm at position 2 the third fingerprint is still
        # compared with the first.
        ref = make_fp([1.0, 0.0])
        attacked = make_fp([0.0, 1.0])
        back = make_fp([1.0, 0.1])
        result = run_stream([ref, attacked, back], threshold=0.92)
        assert result.similarities == (0.0, similarity(ref, back))
        assert result.first_alarm_index == 2

    def test_degenerate_input_rejected(self):
        stream = [random_fp(4, 1), random_fp(4, 2), make_fp(np.zeros(4))]
        with pytest.raises(DegenerateFingerprintError):
            run_stream(stream)

    def test_boundary_similarity_is_normal(self):
        # Exactly at the threshold counts as normal (alarm iff strictly
        # below), so the fingerprint becomes the reference.
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        result = run_stream([phi, phi_perp, phi_perp], threshold=0.0)
        assert result.similarities == (0.0, 1.0)
        assert result.first_alarm_index is None

    def test_threshold_one_alarms_below_unity(self):
        result = run_stream(
            [make_fp([1.0, 0.0]), make_fp([1.0, 0.1])], threshold=1.0
        )
        assert result.first_alarm_index == 2


class TestRunStream:
    def test_identical_stream_no_alarm(self):
        fp = random_fp(6, 9)
        result = run_stream([fp] * 5)
        assert result.first_alarm_index is None
        assert len(result.similarities) == 4
        for value in result.similarities:
            assert value == pytest.approx(1.0, abs=1e-12)
            assert value >= result.threshold

    def test_orthogonal_third_alarms_at_three(self):
        phi = make_fp([1.0, 0.0, 0.0])
        phi_perp = make_fp([0.0, 1.0, 0.0])
        result = run_stream([phi, phi, phi_perp])
        assert result.first_alarm_index == 3
        assert result.similarities == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_positions_are_one_based(self):
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        assert run_stream([phi, phi_perp]).first_alarm_index == 2
        assert run_stream([phi, phi, phi_perp]).first_alarm_index == 3

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            run_stream([])

    def test_single_fingerprint_no_outcomes(self):
        result = run_stream([random_fp(4, 2)])
        assert result.similarities == ()
        assert result.first_alarm_index is None

    def test_quarantine_reference_trace(self):
        # After an alarm the reference stays put, so a return to the
        # original direction is accepted again.
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        result = run_stream([phi, phi_perp, phi])
        assert result.similarities == (0.0, 1.0)
        assert result.first_alarm_index == 2

    def test_monotone_threshold_replay(self):
        # Up to the stricter run's first alarm both runs decide "normal" at
        # every step, so they compare against the same references: the
        # similarities agree there, and the stricter run alarms first.
        gen = np.random.default_rng(11)
        stream = []
        base = gen.normal(size=6) + 1j * gen.normal(size=6)
        for _ in range(12):
            jitter = 0.35 * (gen.normal(size=6) + 1j * gen.normal(size=6))
            stream.append(make_fp(base + jitter))
        low = run_stream(stream, threshold=0.6)
        high = run_stream(stream, threshold=0.9)
        first = high.first_alarm_index
        assert first is not None
        assert low.first_alarm_index is None or low.first_alarm_index >= first
        # Positions 2..first are the first ``first - 1`` similarities.
        assert low.similarities[:first - 1] == high.similarities[:first - 1]

    def test_global_scaling_changes_no_decision(self):
        gen = np.random.default_rng(13)
        stream = []
        base = gen.normal(size=8) + 1j * gen.normal(size=8)
        for t in range(10):
            jitter = 0.5 * (gen.normal(size=8) + 1j * gen.normal(size=8))
            stream.append(make_fp(base + jitter))
        scales = [
            complex(gen.normal(), gen.normal()) + 2.0 for _ in range(10)
        ]
        scaled = [
            make_fp(scale * fp.values) for scale, fp in zip(scales, stream)
        ]
        plain = run_stream(stream, threshold=0.8)
        rescaled = run_stream(scaled, threshold=0.8)
        assert [v >= 0.8 for v in plain.similarities] == [
            v >= 0.8 for v in rescaled.similarities
        ]
        assert plain.similarities == pytest.approx(
            rescaled.similarities, abs=1e-12
        )


class TestStateValidation:
    """Checks on the input of ``run_stream`` and on its result."""

    def test_threshold_range(self):
        ref = random_fp(4, 0)
        with pytest.raises(ConfigurationError):
            run_stream([ref], threshold=1.1)
        with pytest.raises(ConfigurationError):
            run_stream([ref], threshold=-0.01)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateFingerprintError):
            run_stream([make_fp(np.zeros(3))])
        with pytest.raises(DegenerateFingerprintError):
            run_stream([make_fp(np.zeros(3)), random_fp(3, 0)])

    def test_default_threshold(self):
        result = run_stream([random_fp(4, 0)])
        assert result.threshold == DEFAULT_THRESHOLD == 0.92

    def test_first_alarm_index_property(self):
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        result = run_stream([phi, phi, phi_perp, phi_perp])
        assert result.first_alarm_index == 3
        # An alarm is a similarity strictly below the threshold.
        assert StreamResult((0.5, 0.4, 0.3), 0.4).first_alarm_index == 4
        assert StreamResult((0.5, 0.4), 0.4).first_alarm_index is None


class TestMixtureResponse:
    def test_expected_similarity_decreases_with_attack_strength(
        self, monkeypatch
    ):
        # Fixed legitimate and attacker directions on disjoint supports;
        # the extracted fingerprint of the mixture drifts away from the
        # legitimate reference as the attacker's share grows.  The attacker
        # components are sized to clear the support-screening floor even at
        # the smallest nonzero mixing weight.
        dimension, n_samples = 64, 600
        gen = np.random.default_rng(99)
        legit = np.zeros(dimension, dtype=np.complex128)
        attacker = np.zeros(dimension, dtype=np.complex128)
        for idx, mag in zip((2, 9), (1.0, 0.8)):
            legit[idx] = mag * np.exp(2j * np.pi * gen.uniform())
        for idx, mag in zip((5, 13), (2.8, 2.4)):
            attacker[idx] = mag * np.exp(2j * np.pi * gen.uniform())

        cfg = ExtractorConfig(threshold_scale=0.5)
        monkeypatch.setattr(extractor, "MAX_ITERATIONS", 250)
        rhos = (0.0, 0.5, 1.0, 2.0)
        mean_similarity = []
        for rho in rhos:
            mixture = legit + rho * attacker
            values = []
            for probe_seed in range(3):
                probe_gen = np.random.default_rng(1000 + probe_seed)
                probes = draw_gaussian_probes(n_samples, dimension, probe_gen)
                batch = SensingBatch(
                    probes=probes,
                    samples=np.abs(probes.conj() @ mixture) ** 2,
                )
                reference_batch = SensingBatch(
                    probes=probes,
                    samples=np.abs(probes.conj() @ legit) ** 2,
                )
                fp_mix = extract(batch, cfg)
                fp_ref = extract(reference_batch, cfg)
                values.append(similarity(fp_ref, fp_mix))
            mean_similarity.append(float(np.mean(values)))

        for earlier, later in zip(mean_similarity, mean_similarity[1:]):
            assert later < earlier - 0.02
        # Closed-form targets for orthogonal components:
        # c = ||legit|| / sqrt(||legit||^2 + rho^2 ||attacker||^2).
        legit_e = float(np.linalg.norm(legit) ** 2)
        attack_e = float(np.linalg.norm(attacker) ** 2)
        for rho, measured in zip(rhos, mean_similarity):
            expected = (legit_e / (legit_e + rho**2 * attack_e)) ** 0.5
            assert measured == pytest.approx(expected, abs=0.08)
