"""Tests for the sparse fingerprint extractor.

Oracles: hand arithmetic on one- and two-dimensional reductions, explicit
per-sample loop re-implementations, central finite differences, frozen
closed-form constants, Monte Carlo recovery on noiseless planted
instances with known sparse ground truth, a bit-exact reference copy
of the descent loop built from the public per-point functions, the
expressions the per-point quantities and the probe draws were first
written with, matched to the bit, spies on the point evaluations (of a
descent started at the exact zero vector, and of descents whose accepted
iterations are replayed against the settle rule) and on the spectral
start's linear-algebra calls, and a test-only copy of the spectral start
that solves the full support-by-support covariance with ``eigh``, and the
product with a conjugated copy of the probes for the probe responses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_sparse_support,
    planted_batch,
    reference_extract,
    same_bits,
)
from spoofdet import extractor
from spoofdet.errors import (
    ConfigurationError,
    ExtractionError,
    InitializationError,
    ShapeError,
)
from spoofdet.experiments import TrialSimulator
from spoofdet.extractor import (
    ExtractorConfig,
    SensingBatch,
    SparsityFingerprint,
    draw_gaussian_probes,
    extract,
    gradient,
    hard_threshold,
    loss,
    select_support,
    spectral_init,
    support_statistic,
    support_threshold,
    threshold_value,
)
from spoofdet.link import StackedEstimate, build_subframe_batch
from spoofdet.scenario import ScenarioConfig


def random_batch(dimension, n_samples, seed):
    gen = np.random.default_rng(seed)
    probes = draw_gaussian_probes(n_samples, dimension, gen)
    samples = np.abs(gen.normal(size=n_samples)) + 0.1
    return SensingBatch(probes=probes, samples=samples)


def random_phi(dimension, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    return scale * (
        gen.normal(size=dimension) + 1j * gen.normal(size=dimension)
    )


def cosine(a, b):
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return abs(np.vdot(a, b)) / denom


def full_spectral_init(batch, support):
    """Test-only copy of the spectral start that solves the ``s x s``
    support covariance for every support width."""
    support = tuple(support)
    sub = batch.probes[:, support]
    weights = batch.samples - batch.sample_mean
    z = (sub.T * weights) @ sub.conj() / batch.n_samples
    if not np.all(np.isfinite(z)):
        raise InitializationError("centered probe covariance is not finite")
    scale = float(np.max(np.abs(z)))
    degenerate = scale < 1e-15 * max(1.0, abs(batch.sample_mean))
    if degenerate:
        stat = support_statistic(batch)[list(support)]
        v_sub = np.zeros(len(support), dtype=np.complex128)
        v_sub[int(np.argmax(stat))] = 1.0
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(z)
        v_sub = eigenvectors[:, int(np.argmax(np.abs(eigenvalues)))]
    v = np.zeros(batch.dimension, dtype=np.complex128)
    v[list(support)] = v_sub
    responses = np.abs(batch.probes.conj() @ v) ** 2
    psi = float(np.mean(batch.samples * responses)) - batch.sample_mean
    return v * math.sqrt(abs(psi) / 2.0), degenerate


def direction_energy(batch, phi):
    """``|psi| / 2`` for the direction of ``phi``: the squared norm the
    spectral start gives that direction."""
    v = phi / np.linalg.norm(phi)
    responses = np.abs(batch.probes.conj() @ v) ** 2
    psi = float(np.mean(batch.samples * responses)) - batch.sample_mean
    return abs(psi) / 2


def assert_matches_full_start(batch, support):
    """A start keeps to its support and gives the direction and the energy
    of the full ``s x s`` solve with ``eigh``."""
    phi0, degenerate = spectral_init(batch, support)
    assert not degenerate
    assert set(np.flatnonzero(phi0)) <= set(support)
    lead, _ = full_spectral_init(batch, support)
    assert cosine(phi0, lead) >= 1.0 - 1e-10
    assert np.linalg.norm(phi0) ** 2 == pytest.approx(
        direction_energy(batch, phi0), rel=1e-10
    )
    return phi0, lead


def edge_batch(case):
    """(batch, support) of a start at an edge of the solve."""
    gen = np.random.default_rng(17)
    if case == "singleton":
        return random_batch(9, 6, 41), (4,)
    if case == "narrow-diagonal":
        # Each of the first three probes has one nonzero support
        # coordinate, a different one each, and the other two none: the
        # support covariance itself is exactly diagonal, with s < L.
        probes = draw_gaussian_probes(5, 6, gen)
        probes[:, [0, 2, 4]] = 0.0
        probes[[0, 1, 2], [0, 2, 4]] = [0.7j, 1.2 + 0.4j, -0.9]
        samples = np.array([0.4, 2.5, 0.8, 1.1, 0.6])
        return SensingBatch(probes=probes, samples=samples), (0, 2, 4)
    if case == "diagonal":
        # Each probe has one nonzero support coordinate, a different one
        # each, and the fourth coordinate none: T is exactly diagonal, with
        # a zero entry, and the lead eigenvalue is a diagonal entry to the
        # bit.
        probes = draw_gaussian_probes(3, 6, gen)
        probes[:, [0, 1, 2, 5]] = 0.0
        probes[[0, 1, 2], [0, 1, 2]] = [1.5, 1.0 - 0.5j, 0.8j]
        samples = np.array([2.0, 0.3, 0.9])
        return SensingBatch(probes=probes, samples=samples), (0, 1, 2, 5)
    if case == "rank-deficient":
        # Repeated probe rows: A has repeated columns, so T has rank 5.
        probes = draw_gaussian_probes(8, 16, gen)[[0, 1, 2, 0, 3, 1, 4, 0]]
        samples = np.abs(gen.normal(size=8)) + 0.1
        support = tuple(sorted(gen.choice(16, 11, replace=False).tolist()))
        return SensingBatch(probes=probes, samples=samples), support
    # One coordinate wider than the batch, the narrowest wide support.
    batch = random_batch(12, 7, 31)
    return batch, (0, 2, 3, 5, 8, 10, 11, 4)


@pytest.fixture(scope="module")
def l48_reference_batches():
    """Reference batches of 30 ``rb_count=4`` (L=48) trials, whose screens
    pass more coordinates than there are samples."""
    cfg = ScenarioConfig(rb_count=4)
    return [
        TrialSimulator(cfg, trial).sensing_batch(1, False)
        for trial in range(30)
    ]


def uncapped_screen(batch):
    """Every coordinate whose statistic exceeds the cut: the screen before
    :func:`select_support` keeps at most ``L`` of them."""
    stat = support_statistic(batch)
    gamma = support_threshold(batch.dimension, batch.n_samples)
    return tuple(np.flatnonzero(stat > gamma).tolist())


class TestLoss:
    def test_zero_phi_constant_samples(self):
        gen = np.random.default_rng(0)
        probes = draw_gaussian_probes(8, 5, gen)
        batch = SensingBatch(probes=probes, samples=np.full(8, 3.5))
        assert loss(batch, np.zeros(5, dtype=np.complex128)) == 0.0

    def test_single_sample_hand_zero(self):
        # One sample s=2, response magnitude 1, offset 2-1=1: residual 0.
        batch = SensingBatch(
            probes=np.array([[1.0 + 0j, 0.0]]), samples=np.array([2.0])
        )
        phi = np.array([1.0 + 0j, 0.0])
        assert loss(batch, phi) == 0.0

    def test_single_sample_quartic_value(self):
        # Probe on coordinate 0 only: the loss reduces to |phi_1|^4.
        batch = SensingBatch(
            probes=np.array([[1.0 + 0j, 0.0]]), samples=np.array([2.0])
        )
        phi = np.array([0.0, 0.7 + 0j])
        assert loss(batch, phi) == pytest.approx(0.7**4, rel=1e-12)

    def test_planted_zero_loss(self):
        batch, phi_star = planted_batch(8, 50, [1, 5], [0.9, 1.1], 7)
        assert loss(batch, phi_star) < 1e-20

    def test_explicit_loop_oracle(self):
        batch = random_batch(6, 11, 3)
        phi = random_phi(6, 4)
        mu = float(np.mean(batch.samples))
        total = 0.0
        for l in range(11):
            zeta = np.vdot(batch.probes[l], phi)
            resid = (
                batch.samples[l]
                - abs(zeta) ** 2
                - (mu - float(np.linalg.norm(phi) ** 2))
            )
            total += resid**2
        assert loss(batch, phi) == pytest.approx(total / 11, rel=1e-12)

    @given(theta=st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_global_phase_invariance(self, theta):
        batch = random_batch(5, 9, 11)
        phi = random_phi(5, 12)
        base = loss(batch, phi)
        rotated = loss(batch, np.exp(1j * theta) * phi)
        assert rotated == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_nonnegative(self):
        for seed in range(5):
            batch = random_batch(4, 7, seed)
            assert loss(batch, random_phi(4, seed + 100)) >= 0.0


class TestGradient:
    def test_zero_phi_both_modes(self):
        batch = random_batch(6, 10, 1)
        zero = np.zeros(6, dtype=np.complex128)
        assert np.array_equal(gradient(batch, zero), zero)

    def test_two_dim_hand_reduction_analytic(self):
        # Single probe on coordinate 0: residual is |phi_1|^2, and the
        # exact gradient is [0, 2|phi_1|^2 phi_1].
        batch = SensingBatch(
            probes=np.array([[1.0 + 0j, 0.0]]), samples=np.array([1.3])
        )
        a, b = 0.4 + 0.2j, -0.5 + 0.9j
        phi = np.array([a, b])
        expected = np.array([0.0, 2.0 * abs(b) ** 2 * b])
        assert gradient(batch, phi) == pytest.approx(expected, abs=1e-12)

    def test_finite_difference_oracle(self):
        h = 1e-5
        for seed in range(20):
            batch = random_batch(8, 16, seed)
            phi = random_phi(8, seed + 50)
            grad = gradient(batch, phi)
            fd = np.empty(16)
            exact = np.empty(16)
            for i in range(8):
                step = np.zeros(8, dtype=np.complex128)
                step[i] = h
                fd[i] = (loss(batch, phi + step) - loss(batch, phi - step)) / (
                    2 * h
                )
                step[i] = 1j * h
                fd[8 + i] = (
                    loss(batch, phi + step) - loss(batch, phi - step)
                ) / (2 * h)
                exact[i] = 2.0 * grad[i].real
                exact[8 + i] = 2.0 * grad[i].imag
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            assert rel < 1e-6

    def test_analytic_loop_oracle(self):
        batch = random_batch(5, 9, 21)
        phi = random_phi(5, 22)
        mu = float(np.mean(batch.samples))
        offset = mu - float(np.linalg.norm(phi) ** 2)
        acc = np.zeros(5, dtype=np.complex128)
        for l in range(9):
            h_l = batch.probes[l]
            zeta = np.vdot(h_l, phi)
            resid = batch.samples[l] - abs(zeta) ** 2 - offset
            acc += resid * (phi - h_l * zeta)
        expected = 2.0 * acc / 9
        assert gradient(batch, phi) == pytest.approx(expected, rel=1e-10)


class TestThresholdValue:
    def test_zero_residuals(self):
        batch, phi_star = planted_batch(8, 40, [2, 6], [1.0, 0.8], 17)
        assert threshold_value(batch, phi_star, ExtractorConfig()) < 1e-10

    def test_frozen_kappa_constant(self):
        assert math.log(256 * 100) / 256**2 == pytest.approx(
            1.5489e-4, abs=1e-8
        )

    def test_explicit_loop_oracle_at_paper_scale(self):
        batch = random_batch(256, 100, 5)
        phi = random_phi(256, 6, scale=0.3)
        cfg = ExtractorConfig(threshold_scale=15.0)
        mu = float(np.mean(batch.samples))
        offset = mu - float(np.linalg.norm(phi) ** 2)
        total = 0.0
        for l in range(100):
            zeta = np.vdot(batch.probes[l], phi)
            resid = batch.samples[l] - abs(zeta) ** 2 - offset
            total += resid**2 * abs(zeta) ** 2
        kappa = math.log(256 * 100) / 256**2
        expected = 15.0 * math.sqrt(kappa * total)
        assert threshold_value(batch, phi, cfg) == pytest.approx(
            expected, rel=1e-12
        )

    def test_alpha_linearity(self):
        batch = random_batch(12, 20, 9)
        phi = random_phi(12, 10)
        one = threshold_value(batch, phi, ExtractorConfig(threshold_scale=15))
        two = threshold_value(batch, phi, ExtractorConfig(threshold_scale=30))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_nonnegative(self):
        batch = random_batch(7, 13, 2)
        assert threshold_value(batch, random_phi(7, 3), ExtractorConfig()) >= 0


class TestHardThreshold:
    def test_basic_example(self):
        out = hard_threshold(np.array([3.0, 0.5, -2.0]), 1.0)
        assert np.array_equal(out, np.array([3.0, 0.0, -2.0]))

    def test_zero_threshold_identity(self):
        z = np.array([0.0, -1.5, 2.0 + 1.0j, 1e-30])
        assert np.array_equal(hard_threshold(z, 0.0), z)

    def test_boundary_kept(self):
        assert hard_threshold(np.array([1.5 + 0j]), 1.5)[0] == 1.5 + 0j
        # |3+4j| = 5 exactly in floating point.
        assert hard_threshold(np.array([3.0 + 4.0j]), 5.0)[0] == 3.0 + 4.0j
        assert hard_threshold(np.array([3.0 + 4.0j]), 5.0000001)[0] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            hard_threshold(np.array([1.0]), -0.1)

    @given(
        seed=st.integers(0, 10_000),
        delta=st.floats(0.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_entries_zero_or_unchanged(self, seed, delta):
        z = random_phi(8, seed)
        out = hard_threshold(z, delta)
        for zi, oi in zip(z, out):
            assert oi == 0.0 or oi == zi
            if oi != 0.0:
                assert abs(oi) >= delta


class TestSupportSelection:
    def test_zero_samples_empty(self):
        gen = np.random.default_rng(0)
        probes = draw_gaussian_probes(30, 6, gen)
        batch = SensingBatch(probes=probes, samples=np.zeros(30))
        assert select_support(batch) == ()

    def test_frozen_gamma_constants(self):
        assert support_threshold(256, 100) == pytest.approx(0.1992, abs=2e-4)
        assert support_threshold(32, 5000) == pytest.approx(0.6119, abs=2e-4)

    def test_statistic_loop_oracle(self):
        batch = random_batch(5, 12, 8)
        stat = support_statistic(batch)
        for i in range(5):
            acc = 0.0
            for l in range(12):
                acc += batch.samples[l] * (abs(batch.probes[l, i]) ** 2 - 1.0)
            assert stat[i] == pytest.approx(abs(acc) / 12, rel=1e-12)

    def test_planted_selection_monte_carlo(self):
        match = 0
        subset = 0
        true = (3, 17)
        for seed in range(100):
            batch, _ = planted_batch(
                32, 5000, true, [1.0, 1.0], seed, calibrate=False
            )
            picked = select_support(batch)
            if picked == true:
                match += 1
            if set(picked) <= set(true):
                subset += 1
        assert match >= 95
        assert subset >= 99

    def test_l48_screens_keep_the_top_l_statistics(
        self, l48_reference_batches
    ):
        # Every L=48 screen passes more than 48 coordinates; the support is
        # the 48 of them with the largest statistics, in ascending order.
        for batch in l48_reference_batches:
            stat = support_statistic(batch)
            assert len(uncapped_screen(batch)) > batch.n_samples
            support = select_support(batch)
            assert len(support) == batch.n_samples
            assert list(support) == sorted(set(support))
            assert np.array_equal(
                np.sort(stat[list(support)]), np.sort(stat)[-batch.n_samples:]
            )

    def test_cap_keeps_the_lower_of_tied_coordinates(self):
        # With only the first sample nonzero, coordinate i's statistic is
        # | |h_i(0)|^2 - 1 | / 3: 1, 2, 2, 3, 0 and 2 here.  Five pass the
        # cut of 0.63 and three are kept: 3, then two of the three tied at
        # 2, the lower two.
        gen = np.random.default_rng(4)
        probes = draw_gaussian_probes(3, 6, gen)
        probes[0] = [2.0, math.sqrt(7.0), math.sqrt(7.0), math.sqrt(10.0),
                     1.0, math.sqrt(7.0)]
        batch = SensingBatch(probes=probes, samples=np.array([1.0, 0.0, 0.0]))
        assert uncapped_screen(batch) == (0, 1, 2, 3, 5)
        assert select_support(batch) == (1, 2, 3)

    def test_support_is_a_tuple_of_python_ints(self):
        batch, _ = planted_batch(16, 300, (5, 12), [1.1, 0.9], 78)
        picked = select_support(batch)
        assert isinstance(picked, tuple) and picked
        assert all(type(i) is int for i in picked)


class TestSpectralInit:
    def test_singleton_support(self):
        batch = random_batch(4, 25, 13)
        phi0, degenerate = spectral_init(batch, (2,))
        assert not degenerate
        assert np.array_equal(np.flatnonzero(phi0), [2])
        mu = float(np.mean(batch.samples))
        psi = (
            float(np.mean(batch.samples * np.abs(batch.probes[:, 2]) ** 2))
            - mu
        )
        assert abs(phi0[2]) == pytest.approx(math.sqrt(abs(psi) / 2), rel=1e-12)

    def test_norm_matches_direction_energy(self):
        batch, _ = planted_batch(16, 400, [3, 9], [1.0, 0.7], 5)
        phi0, _ = spectral_init(batch, (3, 9))
        v = phi0 / np.linalg.norm(phi0)
        responses = np.abs(batch.probes.conj() @ v) ** 2
        psi = float(np.mean(batch.samples * responses)) - batch.sample_mean
        assert np.linalg.norm(phi0) ** 2 == pytest.approx(
            abs(psi) / 2, rel=1e-10
        )
        assert set(np.flatnonzero(phi0)) <= {3, 9}

    def test_eigen_direction_oracle(self):
        batch = random_batch(5, 60, 23)
        support = (1, 3)
        phi0, _ = spectral_init(batch, support)
        sub = batch.probes[:, list(support)]
        weights = batch.samples - batch.sample_mean
        z = (sub.T * weights) @ sub.conj() / batch.n_samples
        values, vectors = np.linalg.eigh(z)
        lead = vectors[:, int(np.argmax(np.abs(values)))]
        restricted = phi0[list(support)]
        assert cosine(restricted, lead) == pytest.approx(1.0, abs=1e-8)

    def test_planted_alignment_monte_carlo(self):
        good = 0
        for seed in range(20):
            batch, phi_star = planted_batch(
                32, 5000, (4, 21), [1.0, 1.0], seed + 500
            )
            phi0, _ = spectral_init(batch, (4, 21))
            if cosine(phi0, phi_star) > 0.8:
                good += 1
        assert good >= 18

    @pytest.mark.parametrize(
        "n_samples, dimension, support",
        [(40, 6, (1, 4)), (5, 9, (0, 2, 3, 5, 7, 8))],
        ids=["narrow", "wide"],
    )
    def test_constant_samples_fallback_vector(
        self, n_samples, dimension, support
    ):
        gen = np.random.default_rng(3)
        probes = draw_gaussian_probes(n_samples, dimension, gen)
        batch = SensingBatch(probes=probes, samples=np.full(n_samples, 3.0))
        phi0, degenerate = spectral_init(batch, support)
        assert degenerate
        nonzero = np.flatnonzero(phi0)
        assert len(nonzero) == 1
        stat = support_statistic(batch)
        expected_index = support[int(np.argmax(stat[list(support)]))]
        assert nonzero[0] == expected_index

    def test_empty_support_error(self):
        batch = random_batch(4, 10, 1)
        with pytest.raises(InitializationError):
            spectral_init(batch, ())

    def test_out_of_range_support_error(self):
        batch = random_batch(4, 10, 1)
        with pytest.raises(ConfigurationError):
            spectral_init(batch, (5,))

    @pytest.mark.parametrize(
        "n_samples, dimension, support",
        [(8, 3, (0, 1)), (3, 5, (0, 1, 2, 4))],
        ids=["narrow", "wide"],
    )
    def test_nonfinite_samples_error(self, n_samples, dimension, support):
        gen = np.random.default_rng(9)
        probes = draw_gaussian_probes(n_samples, dimension, gen)
        samples = np.ones(n_samples)
        samples[2] = np.inf
        batch = SensingBatch(probes=probes, samples=samples)
        with np.errstate(invalid="ignore"):
            with pytest.raises(InitializationError):
                spectral_init(batch, support)

    @pytest.mark.parametrize(
        "support",
        [(2, 2), (2.7,), (1, 2.5), (True,), ("2",)],
        ids=["repeated", "float", "mixed", "bool", "string"],
    )
    def test_non_integer_or_repeated_support_error(self, support):
        # A repeated coordinate would split the eigenvector over two
        # columns and keep only the last write; a float would be truncated.
        gen = np.random.default_rng(3)
        probes = draw_gaussian_probes(40, 6, gen)
        batch = SensingBatch(probes=probes, samples=gen.uniform(size=40))
        with pytest.raises(ConfigurationError):
            spectral_init(batch, support)

    def test_numpy_integer_support_accepted(self):
        batch = random_batch(6, 40, 2)
        phi0, _ = spectral_init(batch, np.array([1, 4], dtype=np.uint8))
        assert np.array_equal(phi0, spectral_init(batch, (1, 4))[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_support_matches_full_eigenproblem(self, seed):
        # More support coordinates than samples: the start solves the
        # L x L problem, and must find the s x s problem's lead direction.
        batch, _ = planted_batch(
            64, 20, (3, 17, 40), [1.0, 0.8, 0.6], seed + 300
        )
        width = batch.n_samples + 3 + 7 * seed
        picked = np.random.default_rng(seed).choice(64, width, replace=False)
        assert_matches_full_start(batch, tuple(sorted(picked.tolist())))

    def test_wide_simulator_supports_match_full_eigenproblem(
        self, l48_reference_batches
    ):
        # The uncapped L=48 screens are wider than their batches; a caller
        # that starts on one gets the full s x s problem's lead direction.
        for batch in l48_reference_batches:
            support = uncapped_screen(batch)
            assert len(support) > batch.n_samples
            assert_matches_full_start(batch, support)

    @pytest.mark.parametrize(
        "case",
        ["diagonal", "rank-deficient", "one-wider", "singleton",
         "narrow-diagonal"],
    )
    def test_wide_edge_cases_match_full_eigenproblem(self, case):
        # The first three are wide (s > L), the last two narrow.
        batch, support = edge_batch(case)
        phi0, lead = assert_matches_full_start(batch, support)
        assert np.linalg.norm(phi0) == pytest.approx(
            np.linalg.norm(lead), rel=1e-10
        )

    def test_no_start_runs_a_full_decomposition(self, monkeypatch):
        # Narrow (s < L), as wide as the batch (s == L) and wide (s > L),
        # every start runs eigvalsh and one solve; none forms eigenvectors
        # or factors the probes.
        calls = []
        linalg = {
            name: getattr(np.linalg, name)
            for name in ("eigh", "eigvalsh", "solve", "qr")
        }

        def spy(name):
            def call(*args, **kwargs):
                calls.append(name)
                return linalg[name](*args, **kwargs)
            return call

        for name in linalg:
            monkeypatch.setattr(np.linalg, name, spy(name))
        batch = random_batch(12, 7, 31)
        for support in (
            (0, 2, 3), (0, 2, 3, 5, 8, 10, 11), (0, 2, 3, 5, 8, 10, 11, 4)
        ):
            calls.clear()
            spectral_init(batch, support)
            assert calls == ["eigvalsh", "solve"]

    def test_support_as_wide_as_the_batch_matches_full_eigenproblem(self):
        # s == L solves the s x s covariance itself, as a narrow start does.
        batch = random_batch(12, 7, 31)
        support = (0, 2, 3, 5, 8, 10, 11)
        assert len(support) == batch.n_samples
        assert_matches_full_start(batch, support)

    def test_largest_entry_of_every_start_is_real_and_positive(
        self, l48_reference_batches
    ):
        # The code, not the eigensolver, fixes the start's global phase.
        starts = [
            (batch, select_support(batch))
            for batch in l48_reference_batches[:10]
        ] + [
            (planted_batch(16, 400, [3, 9], [1.0, 0.7], seed)[0], (3, 9, 11))
            for seed in range(10)
        ] + [
            (random_batch(40, 12, seed), tuple(range(0, 40, 3)))
            for seed in range(10)
        ] + [
            edge_batch(case)
            for case in ("diagonal", "rank-deficient", "one-wider",
                         "singleton", "narrow-diagonal")
        ]
        for batch, support in starts:
            phi0, _ = spectral_init(batch, support)
            peak = phi0[int(np.argmax(np.abs(phi0)))]
            assert peak.real > 0
            assert abs(peak.imag) <= 2 * np.finfo(float).eps * peak.real


class TestExtract:
    def test_planted_recovery_monte_carlo(self):
        true = (2, 11, 29)
        good = 0
        for seed in range(10):
            batch, phi_star = planted_batch(
                32, 5000, true, [1.0, 1.0, 1.0], seed + 900
            )
            fp = extract(batch)
            aligned = set(fp.support) == set(true)
            phase = np.exp(-1j * np.angle(np.vdot(fp.values, phi_star)))
            rel = np.linalg.norm(
                fp.values - phase * phi_star
            ) / np.linalg.norm(phi_star)
            if aligned and rel < 0.05:
                good += 1
        assert good >= 9

    def test_zero_iterations_returns_initializer(self, monkeypatch):
        batch, _ = planted_batch(16, 300, (5, 12), [1.1, 0.9], 77)
        monkeypatch.setattr(extractor, "MAX_ITERATIONS", 0)
        fp = extract(batch)
        phi0, _ = spectral_init(batch, select_support(batch))
        assert np.array_equal(fp.values, phi0)
        assert fp.diagnostics.iterations == 0

    def test_monotone_loss_and_support_invariant(self):
        batch, _ = planted_batch(16, 300, (5, 12), [1.1, 0.9], 78)
        fp = extract(batch)
        phi0, _ = spectral_init(batch, select_support(batch))
        assert fp.diagnostics.final_loss <= loss(batch, phi0) + 1e-12
        assert fp.support == tuple(np.flatnonzero(fp.values))
        assert np.linalg.norm(fp.values) > 0
        assert fp.diagnostics.iterations <= extractor.MAX_ITERATIONS

    def test_all_zero_samples_error(self):
        gen = np.random.default_rng(4)
        probes = draw_gaussian_probes(20, 6, gen)
        batch = SensingBatch(probes=probes, samples=np.zeros(20))
        with pytest.raises(ExtractionError):
            extract(batch)

    def test_zero_start_accepts_the_equal_loss_candidate(self, monkeypatch):
        # Unit-modulus probes and equal samples: every screening statistic
        # is 0 and the spectral start is exactly the zero vector.  There
        # the gradient and the threshold are 0, so the only candidate is
        # the iterate itself, at equal loss.  The backtracking test `<=`
        # accepts it and the zero iterate ends the descent: two evaluations
        # in all.  With `<` all MAX_BACKTRACKS + 1 candidates would be
        # rejected and the descent would end backtracks_exhausted after
        # seven.
        gen = np.random.default_rng(9)
        probes = gen.choice(np.array([1, -1, 1j, -1j]), size=(24, 5))
        batch = SensingBatch(probes=probes, samples=np.ones(24))
        phi0, degenerate = spectral_init(batch, (0,))
        assert degenerate and not phi0.any()

        evaluated = []
        evaluate = extractor._evaluate

        def spy(batch, phi):
            point = evaluate(batch, phi)
            evaluated.append((bool(phi.any()), point.loss))
            return point

        monkeypatch.setattr(extractor, "_evaluate", spy)
        monkeypatch.setattr(extractor, "MAX_BACKTRACKS", 5)
        with pytest.raises(ExtractionError, match="identically zero"):
            extract(batch)
        assert evaluated == [(False, 0.0), (False, 0.0)]

    def test_first_zero_iterate_ends_the_descent(self, monkeypatch):
        # At L=48 the reference batch's first iteration lands on the zero
        # vector.  The descent raises there, after that iteration's
        # evaluations, instead of running on from the fixed point.
        batch = TrialSimulator(ScenarioConfig(rb_count=4), 0).sensing_batch(
            1, False
        )
        cfg = ExtractorConfig()
        with pytest.raises(ExtractionError) as expected:
            reference_extract(batch, cfg)

        evaluated = []
        evaluate = extractor._evaluate

        def spy(batch, phi):
            evaluated.append(bool(phi.any()))
            return evaluate(batch, phi)

        monkeypatch.setattr(extractor, "_evaluate", spy)
        counts = []
        for max_iterations in (extractor.MAX_ITERATIONS, 1):
            monkeypatch.setattr(extractor, "MAX_ITERATIONS", max_iterations)
            evaluated.clear()
            with pytest.raises(ExtractionError) as raised:
                extract(batch, cfg)
            assert str(raised.value) == str(expected.value) == (
                "extraction produced an identically zero vector; the "
                "samples carry no usable energy"
            )
            assert evaluated[0] and not evaluated[-1]
            counts.append(len(evaluated))
        assert counts[0] == counts[1]

    def test_wide_start_fails_as_the_full_start_does(
        self, l48_reference_batches, monkeypatch
    ):
        # Every L=48 reference extraction fails, so the bench digests
        # cannot see the start on the capped screen (as wide as the batch);
        # the full s x s start must fail the same way.
        expected = []
        for batch in l48_reference_batches:
            with pytest.raises(ExtractionError) as raised:
                extract(batch)
            expected.append(str(raised.value))
        monkeypatch.setattr(extractor, "spectral_init", full_spectral_init)
        for batch, message in zip(l48_reference_batches, expected):
            with pytest.raises(ExtractionError) as raised:
                extract(batch)
            assert str(raised.value) == message

    def test_constant_samples_degenerate_flag(self):
        gen = np.random.default_rng(5)
        probes = draw_gaussian_probes(50, 6, gen)
        batch = SensingBatch(probes=probes, samples=np.full(50, 5.0))
        fp = extract(batch)
        assert fp.diagnostics.degenerate_init
        assert np.linalg.norm(fp.values) > 0

    def test_nonfinite_samples_error(self):
        gen = np.random.default_rng(6)
        probes = draw_gaussian_probes(10, 4, gen)
        samples = np.ones(10)
        samples[0] = np.nan
        batch = SensingBatch(probes=probes, samples=samples)
        with pytest.raises(ExtractionError):
            extract(batch)

    def test_oracle_equivalence_smoke(self, monkeypatch):
        # At this tiny scale the adaptive threshold must be mild, so the
        # result carries float-precision dust; supports are compared after
        # discarding entries below 1e-3 of the peak magnitude.
        cfg = ExtractorConfig(threshold_scale=0.1)
        monkeypatch.setattr(extractor, "MAX_ITERATIONS", 400)
        agree = 0
        for seed in range(10):
            batch, _ = planted_batch(
                4, 20, (0, 2), [1.3, 0.9], seed + 40, calibrate=True
            )
            fp = extract(batch, cfg)
            mags = np.abs(fp.values)
            significant = set(np.flatnonzero(mags > 1e-3 * mags.max()))
            oracle = brute_force_sparse_support(batch, max_sparsity=2)
            if significant == set(oracle):
                agree += 1
        assert agree >= 8


def spy_on_evaluations(monkeypatch):
    """Record ``(phi, loss)`` of every point evaluation from now on."""
    evaluated = []
    evaluate = extractor._evaluate

    def spy(batch, phi):
        point = evaluate(batch, phi)
        evaluated.append((phi.copy(), point.loss))
        return point

    monkeypatch.setattr(extractor, "_evaluate", spy)
    return evaluated


def accepted_points(evaluated):
    """The start and every accepted candidate of one descent, replayed from
    its point evaluations: backtracking accepts the first candidate whose
    loss is finite and no larger than the current one."""
    current = evaluated[0]
    accepted = [current]
    for point in evaluated[1:]:
        if math.isfinite(point[1]) and point[1] <= current[1]:
            current = point
            accepted.append(point)
    return accepted


def settled_streaks(accepted, tolerance, floor):
    """Per accepted iteration, how many accepted iterations in a row, up to
    and including it, kept the support and lowered the loss by at most
    ``tolerance`` times the loss before them, or reached a loss of at most
    ``floor``."""
    streaks = []
    run = 0
    for (phi, before), (candidate, after) in zip(accepted, accepted[1:]):
        keeps = set(np.flatnonzero(candidate)) == set(np.flatnonzero(phi))
        small_drop = keeps and before - after <= tolerance * before
        run = run + 1 if small_drop or after <= floor else 0
        streaks.append(run)
    return streaks


def loss_floor(batch):
    """The loss at the rounding level of the squared samples."""
    return np.finfo(float).eps * batch.sample_mean**2


@pytest.fixture(scope="module")
def seed7_batches():
    """The three sensing batches of each of the first 10 default-cell
    trials at seed 7."""
    cfg = ScenarioConfig(master_seed=7)
    return [
        TrialSimulator(cfg, trial).sensing_batch(subframe, attacked)
        for trial in range(10)
        for subframe, attacked in ((1, False), (2, False), (2, True))
    ]


class TestSettleRule:
    """A descent stops after five accepted iterations in a row that keep
    the support and lower the loss by at most ``tolerance`` of it, or that
    reach a loss at the rounding level of the squared samples."""

    def test_default_cell_descents_converge_before_the_cap(
        self, seed7_batches
    ):
        cfg = ExtractorConfig()
        completed = []
        for batch in seed7_batches:
            try:
                completed.append(extract(batch, cfg).diagnostics)
            except ExtractionError:
                continue
        assert len(completed) >= 20
        for diagnostics in completed:
            assert diagnostics.converged
            assert not diagnostics.backtracks_exhausted
            assert diagnostics.iterations < extractor.MAX_ITERATIONS

    def test_stops_at_the_fifth_settled_iteration_in_a_row(
        self, seed7_batches, monkeypatch
    ):
        evaluated = spy_on_evaluations(monkeypatch)
        broken_streaks = 0
        # At the looser tolerance, a settled run of trial 5's quiet test
        # batch is interrupted before it reaches five.
        for cfg in (ExtractorConfig(), ExtractorConfig(tolerance=1e-2)):
            for batch in seed7_batches:
                evaluated.clear()
                try:
                    fp = extract(batch, cfg)
                except ExtractionError:
                    continue
                accepted = accepted_points(evaluated)
                streaks = settled_streaks(
                    accepted, cfg.tolerance, loss_floor(batch)
                )
                assert len(streaks) == fp.diagnostics.iterations
                assert streaks[-1] == 5 and 5 not in streaks[:-1]
                assert fp.diagnostics.converged
                assert same_bits(fp.values, accepted[-1][0])
                assert fp.diagnostics.final_loss == accepted[-1][1]
                broken_streaks += sum(
                    1 for a, b in zip(streaks, streaks[1:]) if a > 0 and b == 0
                )
        # Only five settled iterations in a row stop a descent: a run that
        # a changed support or a larger drop interrupts starts again.
        assert broken_streaks > 0

    def test_zero_tolerance_stops_only_where_the_loss_stands_still(
        self, seed7_batches, monkeypatch
    ):
        cfg = ExtractorConfig(tolerance=0.0)
        monkeypatch.setattr(extractor, "MAX_ITERATIONS", 1000)
        evaluated = spy_on_evaluations(monkeypatch)
        converged = 0
        at_floor = 0
        planted = [
            planted_batch(16, 300, (3, 9, 14), [1.2, 1.0, 0.7], seed)[0]
            for seed in range(600, 606)
        ]
        for batch in planted + seed7_batches[:9]:
            evaluated.clear()
            try:
                fp = extract(batch, cfg)
            except ExtractionError:
                continue
            if not fp.diagnostics.converged:
                continue
            converged += 1
            accepted = accepted_points(evaluated)
            floor = loss_floor(batch)
            # The last five accepted iterations kept the support and left
            # the loss exactly where it was, or reached the rounding floor.
            for (phi, before), (candidate, after) in zip(
                accepted[-6:], accepted[-5:]
            ):
                if after <= floor:
                    continue
                assert after == before
                assert np.array_equal(candidate != 0, phi != 0)
            at_floor += accepted[-1][1] <= floor
        assert converged >= 2
        # The noiseless planted batch of seed 602 stops at the floor.
        assert 1 <= at_floor < converged

    def test_noiseless_planted_descent_settles_at_the_rounding_floor(
        self, monkeypatch
    ):
        # The loss of a noiseless planted batch falls by a steady ratio
        # toward 0, so its relative drops stay large; reaching the rounding
        # floor counts as settled instead of running to the cap.
        batch, _ = planted_batch(32, 5000, (2, 11, 29), [1.0] * 3, 900)
        cfg = ExtractorConfig()
        evaluated = spy_on_evaluations(monkeypatch)
        fp = extract(batch, cfg)
        assert fp.diagnostics.converged
        assert fp.diagnostics.iterations < extractor.MAX_ITERATIONS
        accepted = accepted_points(evaluated)
        floor = loss_floor(batch)
        assert settled_streaks(accepted, cfg.tolerance, floor)[-1] == 5
        assert all(loss <= floor for _, loss in accepted[-5:])
        # The relative drops alone would not have stopped it.
        assert settled_streaks(accepted, cfg.tolerance, 0.0)[-1] < 5


def assert_matches_reference(batch, cfg):
    """``extract`` and the reference loop agree bit for bit, or both raise
    ``ExtractionError`` with the same message.  Returns the fingerprint, or
    None when both raised."""
    try:
        values, support, diagnostics = reference_extract(batch, cfg)
    except ExtractionError as exc:
        with pytest.raises(ExtractionError) as raised:
            extract(batch, cfg)
        assert str(raised.value) == str(exc)
        return None
    fp = extract(batch, cfg)
    assert np.array_equal(fp.values, values)
    assert fp.support == support
    assert fp.diagnostics == diagnostics
    return fp


def simulator_outcomes(cfg, trials=3):
    """Match ``extract`` against the reference loop on the three sensing
    batches of each of the first trials of a cell; returns the outcomes."""
    produced = []
    for trial in range(trials):
        simulator = TrialSimulator(cfg, trial)
        for subframe, attacked in ((1, False), (2, False), (2, True)):
            batch = simulator.sensing_batch(subframe, attacked)
            produced.append(assert_matches_reference(batch, cfg.extractor))
    return produced


class TestExtractMatchesReferenceLoop:
    # Each case: a config, and the extractor budgets patched for it.
    @pytest.mark.parametrize(
        "cfg",
        [
            (ExtractorConfig(), {}),
            (ExtractorConfig(threshold_scale=0.1), {"MAX_ITERATIONS": 400}),
            (ExtractorConfig(tolerance=0.0), {"MAX_ITERATIONS": 30}),
            (ExtractorConfig(), {"MAX_BACKTRACKS": 0}),
        ],
    )
    def test_planted_batches(self, cfg, monkeypatch):
        cfg, budgets = cfg
        for name, value in budgets.items():
            monkeypatch.setattr(extractor, name, value)
        for seed in range(6):
            batch, _ = planted_batch(
                16, 300, (3, 9, 14), [1.2, 1.0, 0.7], seed + 600
            )
            assert_matches_reference(batch, cfg)

    def test_collapse_to_zero_raises_alike(self):
        gen = np.random.default_rng(4)
        batch = SensingBatch(
            probes=draw_gaussian_probes(20, 6, gen), samples=np.zeros(20)
        )
        assert not assert_matches_reference(batch, ExtractorConfig())

    def test_nonfinite_initial_loss_raises_alike(self):
        # A NaN probe entry in a column the screen drops leaves the start's
        # covariance finite, so the start succeeds; but the NaN reaches
        # every probe response, and so the loss at the start.  (Inside the
        # screen it makes the covariance non-finite instead, an
        # InitializationError.)
        batch, _ = planted_batch(16, 300, (5, 12), [1.1, 0.9], 77)
        support = select_support(batch)
        outside = min(set(range(batch.dimension)) - set(support))
        probes = batch.probes.copy()
        probes[0, outside] = np.nan
        broken = SensingBatch(probes=probes, samples=batch.samples)
        assert select_support(broken) == support != ()
        with pytest.raises(ExtractionError) as raised:
            extract(broken)
        assert type(raised.value) is ExtractionError
        assert str(raised.value) == "loss is not finite at the initializer"
        assert not assert_matches_reference(broken, ExtractorConfig())

    def test_simulator_batches(self):
        # Both outcomes occur at the default cell, so both paths are pinned.
        produced = simulator_outcomes(ScenarioConfig())
        assert any(produced) and not all(produced)
        # At L=48 every batch collapses to the zero vector.
        assert not any(simulator_outcomes(ScenarioConfig(rb_count=4)))
        # A low threshold keeps wide supports; with no loss tolerance their
        # descents run long, up to the iteration budget.
        wide = simulator_outcomes(ScenarioConfig(
            threshold_scale=2.0, tolerance=0.0
        ))
        assert all(wide)
        assert min(len(fp.support) for fp in wide) >= 5
        assert max(fp.diagnostics.iterations for fp in wide) == (
            extractor.MAX_ITERATIONS
        )

    def test_cached_batch_quantities(self):
        # The sample mean is computed once and kept; the batch keeps no
        # conjugated copy of its probes.
        batch = random_batch(7, 13, 8)
        assert batch.sample_mean == float(np.mean(batch.samples))
        assert set(vars(batch)) == {"probes", "samples", "sample_mean"}


def old_point_expressions(batch, phi, cfg):
    """Loss, gradient, threshold and offset at ``phi``, written as the
    descent first wrote them: the extractor's per-point evaluation must
    give the same bits."""
    offset = float(np.mean(batch.samples)) - float(np.linalg.norm(phi) ** 2)
    zeta = batch.probes.conj() @ phi
    residual = batch.samples - np.abs(zeta) ** 2 - offset
    value = float(np.mean(residual**2))
    grad = (2.0 / batch.n_samples) * (
        (residual.sum()) * phi - batch.probes.T @ (residual * zeta)
    )
    d = batch.dimension
    kappa = math.log(d * batch.n_samples) / d**2
    total = float(np.sum(residual**2 * np.abs(zeta) ** 2))
    delta = cfg.threshold_scale * math.sqrt(kappa * total)
    return value, grad, delta, offset


class TestPointEvaluationMatchesOldExpressions:
    @staticmethod
    def points(batch, seed):
        gen = np.random.default_rng(seed)
        yield np.zeros(batch.dimension, dtype=np.complex128)
        yield spectral_init(batch, select_support(batch) or (0,))[0]
        scale = math.sqrt(batch.sample_mean)
        for size in sorted({1, 3, 12, batch.dimension}):
            size = min(size, batch.dimension)
            phi = np.zeros(batch.dimension, dtype=np.complex128)
            index = gen.choice(batch.dimension, size=size, replace=False)
            phi[index] = scale * (
                gen.normal(size=size) + 1j * gen.normal(size=size)
            ) / math.sqrt(size)
            yield phi

    def assert_old_bits(self, batch, seed):
        cfg = ExtractorConfig()
        for phi in self.points(batch, seed):
            value, grad, delta, offset = old_point_expressions(batch, phi, cfg)
            assert same_bits(loss(batch, phi), value)
            assert same_bits(gradient(batch, phi), grad)
            assert same_bits(threshold_value(batch, phi, cfg), delta)
            assert same_bits(extractor._evaluate(batch, phi).offset, offset)

    def test_random_batches(self):
        for seed in range(20):
            self.assert_old_bits(random_batch(7 + seed, 5 + 3 * seed, seed), seed)

    def test_offset_over_many_norms(self):
        # ``norm**2`` and ``norm * norm`` differ in about 1 of 1400 values,
        # so the offset is checked on many more than that.
        batch = random_batch(3, 2, 4)
        gen = np.random.default_rng(5)
        phis = gen.normal(size=(20_000, 3)) + 1j * gen.normal(size=(20_000, 3))
        for phi in phis:
            offset = batch.sample_mean - float(np.linalg.norm(phi) ** 2)
            assert same_bits(extractor._evaluate(batch, phi).offset, offset)

    @pytest.mark.parametrize("rb_count", [16, 4])
    def test_simulator_batches(self, rb_count):
        cfg = ScenarioConfig(rb_count=rb_count)
        for trial in range(2):
            simulator = TrialSimulator(cfg, trial)
            for subframe, attacked in ((1, False), (2, False), (2, True)):
                batch = simulator.sensing_batch(subframe, attacked)
                self.assert_old_bits(batch, 10 * trial + subframe + attacked)


class TestResponsesMatchTheConjugatedProbes:
    """``probe_responses`` conjugates the vector and the product instead of
    the probes; its bits must be those of ``probes.conj() @ phi``, except
    that an exactly zero part may have the other sign (adding ``0.0`` makes
    every zero ``+0.0`` and changes nothing else).  Such zeros occur at the
    zero vector."""

    @pytest.mark.parametrize("rb_count", [16, 4], ids=["L192", "L48"])
    def test_simulator_batches(self, rb_count):
        cfg = ScenarioConfig(rb_count=rb_count)
        points = TestPointEvaluationMatchesOldExpressions.points
        for trial in range(2):
            simulator = TrialSimulator(cfg, trial)
            for subframe, attacked in ((1, False), (2, False), (2, True)):
                batch = simulator.sensing_batch(subframe, attacked)
                assert batch.n_samples == 12 * rb_count
                for phi in (
                    *points(batch, trial), simulator.psi_victim,
                    simulator.psi_victim + simulator.psi_attacker,
                ):
                    assert same_bits(
                        extractor.probe_responses(batch.probes, phi) + 0.0,
                        batch.probes.conj() @ phi + 0.0,
                    )


class TestProbeDrawsMatchOldExpression:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (192, 256)])
    def test_bits_and_stream_position(self, shape):
        for seed in (0, 7, 201, 2**40 + 3):
            gen = np.random.default_rng(seed)
            old = (
                gen.normal(size=shape) + 1j * gen.normal(size=shape)
            ) / math.sqrt(2.0)
            new_gen = np.random.default_rng(seed)
            assert same_bits(draw_gaussian_probes(*shape, new_gen), old)
            assert new_gen.normal() == gen.normal()


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ExtractorConfig()
        assert (cfg.threshold_scale, cfg.tolerance) == (15.0, 1e-3)
        assert (extractor.MAX_ITERATIONS, extractor.MAX_BACKTRACKS) == (
            200, 20
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold_scale": "15"},
            {"threshold_scale": -1.0},
            {"tolerance": -1e-9},
            {"threshold_scale": 0.0},
            {"tolerance": True},
            {"threshold_scale": float("nan")},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"threshold_scale": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExtractorConfig(**kwargs)


class TestBatchBuilder:
    def test_gaussian_probe_moments(self):
        gen = np.random.default_rng(0)
        probes = draw_gaussian_probes(4000, 16, gen)
        assert probes.shape == (4000, 16)
        assert np.mean(np.abs(probes) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(probes)) < 0.05

    def test_samples_match_manual_projection(self):
        gen = np.random.default_rng(7)
        n_samples, m_ant, taps, bins = 3, 2, 2, 4
        tap = gen.normal(size=(n_samples, taps * m_ant)) + 1j * gen.normal(
            size=(n_samples, taps * m_ant)
        )
        est = StackedEstimate(
            fd=np.zeros((n_samples, m_ant * bins), dtype=np.complex128),
            tap=tap,
            num_antennas=m_ant,
            num_taps=taps,
        )
        probes = draw_gaussian_probes(n_samples, taps * m_ant, gen)
        batch = build_subframe_batch(est, probes)
        expected = np.empty(n_samples)
        for l in range(n_samples):
            x = tap[l].reshape(taps, m_ant)
            beams = np.fft.fft(x, axis=-1, norm="ortho").reshape(-1)
            expected[l] = abs(np.vdot(probes[l], beams)) ** 2
        np.testing.assert_allclose(
            batch.samples, expected / expected.mean(), rtol=1e-12
        )

    def test_normalization_sets_unit_mean(self):
        gen = np.random.default_rng(8)
        n_samples, m_ant, taps = 6, 4, 3
        tap = gen.normal(size=(n_samples, taps * m_ant)) + 1j * gen.normal(
            size=(n_samples, taps * m_ant)
        )
        est = StackedEstimate(
            fd=np.zeros((n_samples, m_ant * 8), dtype=np.complex128),
            tap=tap,
            num_antennas=m_ant,
            num_taps=taps,
        )
        probes = draw_gaussian_probes(n_samples, taps * m_ant, gen)
        batch = build_subframe_batch(est, probes)
        assert float(np.mean(batch.samples)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_estimates_stay_unnormalized(self):
        est = StackedEstimate(
            fd=np.zeros((4, 8), dtype=np.complex128),
            tap=np.zeros((4, 4), dtype=np.complex128),
            num_antennas=2,
            num_taps=2,
        )
        probes = draw_gaussian_probes(4, 4, np.random.default_rng(1))
        batch = build_subframe_batch(est, probes)
        assert np.array_equal(batch.samples, np.zeros(4))

    def test_probe_shape_guard(self):
        est = StackedEstimate(
            fd=np.zeros((4, 8), dtype=np.complex128),
            tap=np.zeros((4, 4), dtype=np.complex128),
            num_antennas=2,
            num_taps=2,
        )
        with pytest.raises(ShapeError):
            build_subframe_batch(
                est, np.zeros((4, 6), dtype=np.complex128)
            )


class TestBatchValidation:
    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            SensingBatch(probes=np.zeros(4), samples=np.zeros(4))
        with pytest.raises(ShapeError):
            SensingBatch(
                probes=np.zeros((4, 3), dtype=np.complex128),
                samples=np.zeros(5),
            )

    def test_offset_and_mean(self):
        batch = SensingBatch(
            probes=np.ones((2, 2), dtype=np.complex128),
            samples=np.array([1.0, 3.0]),
        )
        assert batch.sample_mean == 2.0
        phi = np.array([1.0 + 0j, 0.0])
        assert extractor._evaluate(batch, phi).offset == pytest.approx(1.0)
        assert batch.n_samples == 2
        assert batch.dimension == 2
