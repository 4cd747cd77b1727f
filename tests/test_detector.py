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
    Decision,
    DetectorState,
    run_stream,
    similarity,
    step,
)
from spoofdet.errors import ConfigurationError, DegenerateFingerprintError
from spoofdet.extractor import (
    ExtractorConfig,
    SensingBatch,
    SparsityFingerprint,
    draw_gaussian_probes,
    extract,
)


def make_fp(values, index=0):
    values = np.asarray(values, dtype=np.complex128)
    return SparsityFingerprint(
        values=values,
        support=tuple(int(i) for i in np.flatnonzero(values)),
        subframe_index=index,
    )


def random_fp(dimension, seed, index=0):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=dimension) + 1j * gen.normal(size=dimension)
    return make_fp(values, index)


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
    def test_identical_fingerprint_normal(self):
        ref = random_fp(8, 0, index=1)
        state = DetectorState(reference=ref)
        outcome = step(state, random_fp(8, 0, index=2))
        assert outcome.decision is Decision.NORMAL
        assert outcome.similarity == pytest.approx(1.0, abs=1e-12)
        assert outcome.reference_subframe == 1
        assert state.first_alarm_index is None

    def test_reference_updates_on_normal(self):
        ref = random_fp(8, 0, index=1)
        state = DetectorState(reference=ref)
        nxt = make_fp(1.0001 * ref.values, index=2)
        step(state, nxt)
        assert state.reference is nxt

    def test_quarantine_freezes_reference_on_alarm(self):
        ref = make_fp([1.0, 0.0], index=1)
        state = DetectorState(reference=ref, threshold=0.92)
        attacked = make_fp([0.0, 1.0], index=2)
        outcome = step(state, attacked)
        assert outcome.decision is Decision.ALARM
        assert state.reference is ref
        assert state.first_alarm_index == 2

    def test_degenerate_input_leaves_state_unchanged(self):
        ref = random_fp(4, 1, index=1)
        state = DetectorState(reference=ref)
        step(state, random_fp(4, 2, index=2))
        before_history = list(state.history)
        before_ref = state.reference
        with pytest.raises(DegenerateFingerprintError):
            step(state, make_fp(np.zeros(4), index=3))
        assert state.history == before_history
        assert state.reference is before_ref

    def test_out_of_order_subframe_rejected(self):
        ref = random_fp(4, 1, index=1)
        state = DetectorState(reference=ref)
        step(state, random_fp(4, 2, index=5))
        with pytest.raises(ConfigurationError):
            step(state, random_fp(4, 3, index=5))
        assert len(state.history) == 1

    def test_boundary_similarity_is_normal(self):
        # Exactly at the threshold counts as normal (alarm iff strictly
        # below).
        ref = make_fp([1.0, 0.0], index=1)
        state = DetectorState(reference=ref, threshold=0.0)
        outcome = step(state, make_fp([0.0, 1.0], index=2))
        assert outcome.similarity == 0.0
        assert outcome.decision is Decision.NORMAL

    def test_threshold_one_alarms_below_unity(self):
        ref = make_fp([1.0, 0.0], index=1)
        state = DetectorState(reference=ref, threshold=1.0)
        outcome = step(state, make_fp([1.0, 0.1], index=2))
        assert outcome.decision is Decision.ALARM


class TestRunStream:
    def test_identical_stream_no_alarm(self):
        fp = random_fp(6, 9)
        result = run_stream([fp] * 5)
        assert result.first_alarm_index is None
        assert len(result.outcomes) == 4
        for outcome in result.outcomes:
            assert outcome.similarity == pytest.approx(1.0, abs=1e-12)
            assert outcome.decision is Decision.NORMAL

    def test_orthogonal_third_alarms_at_three(self):
        phi = make_fp([1.0, 0.0, 0.0])
        phi_perp = make_fp([0.0, 1.0, 0.0])
        result = run_stream([phi, phi, phi_perp])
        assert result.first_alarm_index == 3
        assert [o.decision for o in result.outcomes] == [
            Decision.NORMAL,
            Decision.ALARM,
        ]

    def test_positions_are_one_based(self):
        stream = [random_fp(5, 0), random_fp(5, 0), random_fp(5, 0)]
        result = run_stream(stream)
        assert [o.subframe_index for o in result.outcomes] == [2, 3]
        assert [o.reference_subframe for o in result.outcomes] == [1, 2]

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            run_stream([])

    def test_single_fingerprint_no_outcomes(self):
        result = run_stream([random_fp(4, 2)])
        assert result.outcomes == ()
        assert result.first_alarm_index is None

    def test_quarantine_reference_trace(self):
        # After an alarm the reference stays put, so a return to the
        # original direction is accepted again.
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        result = run_stream([phi, phi_perp, phi])
        assert [o.decision for o in result.outcomes] == [
            Decision.ALARM,
            Decision.NORMAL,
        ]
        assert result.outcomes[1].reference_subframe == 1

    def test_monotone_threshold_replay(self):
        # Up to the stricter run's first alarm both runs decide "normal" at
        # every step, so they compare against the same references: the
        # similarities agree there, and the stricter run alarms first.
        gen = np.random.default_rng(11)
        stream = []
        base = gen.normal(size=6) + 1j * gen.normal(size=6)
        for t in range(12):
            jitter = 0.35 * (gen.normal(size=6) + 1j * gen.normal(size=6))
            stream.append(make_fp(base + jitter, index=t))
        low = run_stream(stream, threshold=0.6)
        high = run_stream(stream, threshold=0.9)
        first = high.first_alarm_index
        assert first is not None
        assert low.first_alarm_index is None or low.first_alarm_index >= first
        for lo, hi in zip(low.outcomes, high.outcomes):
            if lo.subframe_index > first:
                break
            assert lo.similarity == hi.similarity

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
        assert [o.decision for o in plain.outcomes] == [
            o.decision for o in rescaled.outcomes
        ]
        for a, b in zip(plain.outcomes, rescaled.outcomes):
            assert a.similarity == pytest.approx(b.similarity, abs=1e-12)


class TestStateValidation:
    def test_threshold_range(self):
        ref = random_fp(4, 0)
        with pytest.raises(ConfigurationError):
            DetectorState(reference=ref, threshold=1.1)
        with pytest.raises(ConfigurationError):
            DetectorState(reference=ref, threshold=-0.01)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateFingerprintError):
            DetectorState(reference=make_fp(np.zeros(3)))

    def test_default_threshold(self):
        state = DetectorState(reference=random_fp(4, 0))
        assert state.threshold == 0.92

    def test_first_alarm_index_property(self):
        phi = make_fp([1.0, 0.0])
        phi_perp = make_fp([0.0, 1.0])
        result = run_stream([phi, phi, phi_perp, phi_perp])
        assert result.state.first_alarm_index == 3


class TestMixtureResponse:
    def test_expected_similarity_decreases_with_attack_strength(self):
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

        cfg = ExtractorConfig(threshold_scale=0.5, max_iterations=250)
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
