"""Shared helpers: planted sensing instances, a brute-force support oracle,
and a reference copy of the extractor's descent loop."""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from spoofdet import extractor
from spoofdet.errors import ExtractionError
from spoofdet.extractor import (
    BASE_STEP,
    ExtractionDiagnostics,
    SensingBatch,
    draw_gaussian_probes,
    gradient,
    hard_threshold,
    loss,
    select_support,
    spectral_init,
    support_statistic,
    threshold_value,
)


def planted_batch(
    dimension: int,
    n_samples: int,
    support,
    magnitudes,
    rng,
    calibrate: bool = True,
):
    """Noiseless planted instance: samples are the squared probe responses
    of a sparse vector with the given support and entry magnitudes (random
    phases).  With ``calibrate`` the probes are rescaled so the empirical
    mean response energy equals the vector's squared norm, making the
    planted vector an exactly-zero-loss point.
    """
    gen = np.random.default_rng(rng)
    phi_star = np.zeros(dimension, dtype=np.complex128)
    for idx, mag in zip(support, magnitudes):
        phi_star[idx] = mag * np.exp(2j * np.pi * gen.uniform())
    probes = draw_gaussian_probes(n_samples, dimension, gen)
    zeta = probes.conj() @ phi_star
    if calibrate:
        mean_sq = float(np.mean(np.abs(zeta) ** 2))
        if mean_sq > 0:
            probes = probes * (np.linalg.norm(phi_star) / math.sqrt(mean_sq))
            zeta = probes.conj() @ phi_star
    samples = np.abs(zeta) ** 2
    return SensingBatch(probes=probes, samples=samples), phi_star


def _restricted_objective(batch: SensingBatch, support, x: np.ndarray):
    """Loss and real-paired gradient restricted to a coordinate subset."""
    size = len(support)
    phi = np.zeros(batch.dimension, dtype=np.complex128)
    phi[list(support)] = x[:size] + 1j * x[size:]
    value = loss(batch, phi)
    grad = gradient(batch, phi)[list(support)]
    return value, np.concatenate([2.0 * grad.real, 2.0 * grad.imag])


def brute_force_sparse_support(
    batch: SensingBatch,
    max_sparsity: int = 2,
    random_starts: int = 3,
    seed: int = 0,
) -> tuple:
    """Exhaustive oracle: enumerate every support of size <= ``max_sparsity``
    and minimize the loss restricted to it (multi-start quasi-Newton);
    return the support achieving the smallest minimum.  Smaller supports win
    ties, because sizes are scanned in increasing order and replacements
    require strict improvement.
    """
    gen = np.random.default_rng(seed)
    stat = support_statistic(batch)
    scale = math.sqrt(max(batch.sample_mean, 1e-12))
    tie_slack = 1e-9 * max(batch.sample_mean, 1.0) ** 2

    best_value = math.inf
    best_support: tuple = ()
    for size in range(1, max_sparsity + 1):
        for support in itertools.combinations(range(batch.dimension), size):
            informed = np.concatenate(
                [np.sqrt(stat[list(support)]), np.zeros(size)]
            )
            starts = [informed] + [
                gen.normal(scale=scale, size=2 * size)
                for _ in range(random_starts)
            ]
            value = math.inf
            for x0 in starts:
                result = minimize(
                    lambda x: _restricted_objective(batch, support, x),
                    x0,
                    jac=True,
                    method="BFGS",
                    options={"maxiter": 80, "gtol": 1e-12},
                )
                value = min(value, float(result.fun))
            if value < best_value - tie_slack:
                best_value = value
                best_support = support
    return tuple(sorted(best_support))


def same_bits(a, b) -> bool:
    """Equal to the bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def reference_extract(batch, cfg):
    """Test-only copy of the descent loop that re-evaluates every point.

    Each iteration calls the public ``gradient`` and ``threshold_value`` at
    the current iterate and ``loss`` at every backtracking candidate, so it
    shares no carried state with :func:`extract`.  It returns the same
    ``(values, support, diagnostics)`` triple, or raises the same error.
    The iteration and backtrack budgets are read from the extractor module
    at each call, as the descent reads them, so a test can patch them.
    """
    support = select_support(batch)
    init_fallback = len(support) == 0
    if init_fallback:
        support = (int(np.argmax(support_statistic(batch))),)
    phi, degenerate_init = spectral_init(batch, support)
    current_loss = loss(batch, phi)
    if not np.isfinite(current_loss):
        raise ExtractionError("loss is not finite at the initializer")
    mean = batch.sample_mean
    base_step = BASE_STEP / mean if mean > 0 else BASE_STEP
    loss_floor = np.finfo(float).eps * mean**2
    iterations = 0
    settled = 0
    converged = False
    backtracks_exhausted = False
    for _ in range(extractor.MAX_ITERATIONS):
        grad = gradient(batch, phi)
        delta = threshold_value(batch, phi, cfg)
        step = base_step
        accepted = False
        for _ in range(extractor.MAX_BACKTRACKS + 1):
            candidate = hard_threshold(phi - step * grad, step * delta)
            candidate_loss = loss(batch, candidate)
            if np.isfinite(candidate_loss) and candidate_loss <= current_loss:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            backtracks_exhausted = True
            break
        iterations += 1
        # Five accepted iterations in a row that keep the support and lower
        # the loss by at most ``tolerance`` of it, or that reach a loss at
        # the rounding level of the squared samples, end the descent.
        keeps_support = np.array_equal(
            np.flatnonzero(candidate), np.flatnonzero(phi)
        )
        loss_drop = current_loss - candidate_loss
        small_drop = loss_drop <= cfg.tolerance * current_loss
        if (keeps_support and small_drop) or candidate_loss <= loss_floor:
            settled += 1
        else:
            settled = 0
        phi, current_loss = candidate, candidate_loss
        if settled == 5:
            converged = True
            break
    if np.linalg.norm(phi) == 0.0:
        raise ExtractionError(
            "extraction produced an identically zero vector; the samples "
            "carry no usable energy"
        )
    diagnostics = ExtractionDiagnostics(
        final_loss=float(current_loss),
        iterations=iterations,
        initial_support=support,
        init_fallback=init_fallback,
        degenerate_init=degenerate_init,
        converged=converged,
        backtracks_exhausted=backtracks_exhausted,
    )
    return phi, tuple(int(i) for i in np.flatnonzero(phi)), diagnostics
