"""Traced replay of paired trials, stage by stage, through the public calls.

``replay_trial`` walks one trial the way ``experiments.run_single_trial``
does: build the ``TrialSimulator``, extract the reference fingerprint from
subframe 1, then score subframe 2 of the quiet and the attacked arm with the
three detectors.  Each call runs inside a span, so the replay yields both the
``TrialRecord`` (which must match the untraced run bit for bit) and the time
spent in every layer.  ``time_setup_parts`` then re-runs, outside the trial
span, the set-up calls ``TrialSimulator`` makes, so their cost can be set
against the simulator's total.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from spoofdet.baselines import ed_statistic, sd_statistic
from spoofdet.channel import default_cluster_table, draw_channel
from spoofdet.detector import similarity
from spoofdet.errors import SpoofdetError
from spoofdet.experiments import (
    ArmObservables,
    TrialRecord,
    TrialSimulator,
    trial_rng,
)
from spoofdet.extractor import extract

# Seed streams TrialSimulator draws the channels from: user k uses
# USER_CHANNEL_STREAM + k, the attacker ATTACKER_CHANNEL_STREAM.
USER_CHANNEL_STREAM = 100
ATTACKER_CHANNEL_STREAM = 1

TRIAL_SPAN = "experiments.run_single_trial"
EXTRACT_ROLES = ("reference", "quiet", "attacked")


class Tracer:
    """Spans kept in memory: name, trial, start, end, parent and attributes.

    A span's parent is the span open when it started; spans of one trial
    share the trial index as their identifier.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial: int, **attrs):
        record = {
            "name": name,
            "trial": trial,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        except SpoofdetError as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def export(self) -> list[dict]:
        """The spans as plain data, for writing out when the run ends."""
        return [
            {k: s.get(k) for k in ("name", "trial", "parent", "start_ns",
                                   "end_ns", "attrs", "error")}
            for s in self.spans
        ]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its child spans cover."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own


def _fingerprint(tracer, sim, index, subframe, attacked, role):
    with tracer.span("experiments.sensing_batch", index):
        batch = sim.sensing_batch(subframe, attacked)
    with tracer.span("extractor.extract", index, role=role) as span:
        fingerprint = extract(batch, sim.cfg.extractor)
    diagnostics = fingerprint.diagnostics
    span["attrs"].update(
        iterations=diagnostics.iterations,
        converged=diagnostics.converged,
        backtracks_exhausted=diagnostics.backtracks_exhausted,
        support_size=len(fingerprint.support),
    )
    return fingerprint


def _arm(tracer, sim, index, reference, attacked) -> ArmObservables:
    role = "attacked" if attacked else "quiet"
    test = _fingerprint(tracer, sim, index, 2, attacked, role)
    with tracer.span("detector.similarity", index):
        value = similarity(reference, test)
    with tracer.span("experiments.energy_observation", index):
        observation = sim.energy_observation(2, attacked)
    with tracer.span("baselines.ed_statistic", index):
        energy = ed_statistic(observation)
    with tracer.span("experiments.snapshot_window", index):
        window = sim.snapshot_window(2, attacked)
    with tracer.span("baselines.sd_statistic", index):
        dimension = sd_statistic(window, sim.cfg.subspace_config())
    return ArmObservables(
        similarity=value, energy=energy, subspace_dimension=dimension
    )


def replay_trial(cfg, index: int, tracer: Tracer):
    """(simulator or None, TrialRecord) of one trial, every call in a span."""
    sim = None
    with tracer.span(TRIAL_SPAN, index):
        try:
            with tracer.span("experiments.TrialSimulator", index):
                sim = TrialSimulator(cfg, index)
            reference = _fingerprint(tracer, sim, index, 1, False, "reference")
            quiet = _arm(tracer, sim, index, reference, attacked=False)
            attacked = _arm(tracer, sim, index, reference, attacked=True)
            record = TrialRecord(index, quiet, attacked)
        except SpoofdetError as exc:
            # Same wording as run_single_trial, so records compare equal.
            record = TrialRecord(
                index,
                None,
                None,
                error=f"trial {index}: {type(exc).__name__}: {exc}",
            )
    return sim, record


def time_setup_parts(cfg, index: int, sim, tracer: Tracer) -> None:
    """Time on their own the set-up calls TrialSimulator makes.

    Uses the simulator's geometry and the packaged cluster table, as every
    workload does; the draws are discarded.
    """
    with tracer.span("channel.default_cluster_table", index):
        table = default_cluster_table()
    with tracer.span("channel.draw_channel", index):
        for k in range(cfg.num_users):
            draw_channel(
                sim.geometry, table, k, cfg.num_taps, cfg.tap_duration_ns,
                trial_rng(cfg.master_seed, index, USER_CHANNEL_STREAM + k),
            )
        draw_channel(
            sim.geometry, table, "attacker", cfg.num_taps,
            cfg.tap_duration_ns,
            trial_rng(cfg.master_seed, index, ATTACKER_CHANNEL_STREAM),
        )
    with tracer.span("zc.build_pool", index):
        cfg.build_pool()


def _p50(values) -> float:
    """Median of a list; 0.0 when it is empty (no such call happened)."""
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _p50(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of a traced replay."""
    self_ns = tracer.self_times_ns()
    by_name: dict[str, list] = {}
    per_trial: dict[tuple, float] = {}
    for span, own in zip(tracer.spans, self_ns):
        ms = (span["end_ns"] - span["start_ns"]) / 1e6
        by_name.setdefault(span["name"], []).append((ms, own / 1e6, span))
        key = (span["name"], span["trial"])
        per_trial[key] = per_trial.get(key, 0.0) + ms

    def ms_list(name):
        return [ms for ms, _, _ in by_name.get(name, [])]

    parts = ("channel.default_cluster_table", "channel.draw_channel",
             "zc.build_pool")
    timed = [t for (n, t) in per_trial if n == "zc.build_pool"]
    parts_sum = [sum(per_trial[(p, t)] for p in parts) for t in timed]
    remainder = [
        per_trial[("experiments.TrialSimulator", t)] - s
        for t, s in zip(timed, parts_sum)
    ]

    extracts = by_name.get("extractor.extract", [])
    done = [s for _, _, s in extracts if "error" not in s]
    done_ms = [ms for ms, _, s in extracts if "error" not in s]
    iterations = [s["attrs"]["iterations"] for s in done]

    metrics = {
        f"{TRIAL_SPAN}.ms_p50": (_p50(ms_list(TRIAL_SPAN)), "ms"),
        f"{TRIAL_SPAN}.self_ms_p50": (
            _p50([own for _, own, _ in by_name.get(TRIAL_SPAN, [])]),
            "ms",
        ),
        "experiments.TrialSimulator.ms_p50": (
            _p50(ms_list("experiments.TrialSimulator")), "ms"),
    }
    for name in parts:
        metrics[f"{name}.ms_p50"] = (_p50(ms_list(name)), "ms")
    metrics["experiments.TrialSimulator.parts_ms_p50"] = (
        _p50(parts_sum), "ms")
    metrics["experiments.TrialSimulator.remainder_ms_p50"] = (
        _p50(remainder), "ms")
    for name in ("experiments.sensing_batch", "extractor.extract"):
        values = ms_list(name)
        metrics[f"{name}.ms_p50"] = (_p50(values), "ms")
        metrics[f"{name}.ms_p90"] = (_p90(values), "ms")
        metrics[f"{name}.calls"] = (len(values), "count")
    metrics.update({
        "extractor.extract.fail_ratio": (
            _ratio(len(extracts) - len(done), len(extracts)), "ratio"),
        "extractor.extract.iterations_p50": (
            _p50(iterations), "count"),
        "extractor.extract.ms_per_iteration": (
            _ratio(sum(done_ms), sum(iterations)), "ms"),
        "extractor.extract.converged_ratio": (
            _ratio(sum(s["attrs"]["converged"] for s in done), len(done)),
            "ratio"),
        "extractor.extract.backtracks_exhausted_ratio": (
            _ratio(sum(s["attrs"]["backtracks_exhausted"] for s in done),
                   len(done)),
            "ratio"),
        "extractor.extract.support_size_p50": (
            _p50([s["attrs"]["support_size"] for s in done]),
            "count"),
    })
    for role in EXTRACT_ROLES:
        metrics[f"extractor.extract.failed_{role}"] = (
            sum(1 for _, _, s in extracts
                if "error" in s and s["attrs"]["role"] == role),
            "count",
        )
    for name in ("experiments.energy_observation", "baselines.ed_statistic",
                 "experiments.snapshot_window", "baselines.sd_statistic",
                 "detector.similarity"):
        metrics[f"{name}.ms_p50"] = (_p50(ms_list(name)), "ms")
    return metrics


def self_ms_by_layer(tracer: Tracer) -> dict:
    """Total self time per span name, in milliseconds."""
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times_ns()):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e6
    return dict(sorted(totals.items()))


def failed_calls(tracer: Tracer) -> dict:
    """Count of failed calls by span name (and extract role)."""
    counts: dict[str, int] = {}
    for span in tracer.spans:
        if "error" in span and span["name"] != TRIAL_SPAN:
            role = span["attrs"].get("role")
            key = span["name"] if role is None else f"{span['name']}:{role}"
            key = f"{key}:{span['error']}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def replay_seconds(tracer: Tracer, trials: int) -> float:
    """Traced wall time of trials 0..trials-1, without the set-up parts."""
    return sum(
        s["end_ns"] - s["start_ns"]
        for s in tracer.spans
        if s["name"] == TRIAL_SPAN and s["trial"] < trials
    ) / 1e9
