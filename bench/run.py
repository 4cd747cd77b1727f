"""spoofdet benchmark: paired-trial throughput on three cells, plus a traced replay.

Run from the repository root::

    python3 bench/run.py --workload roc-default --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 50   # every workload, both passes
    python3 bench/run.py --smoke                       # tiny cell, under a minute

What users wait on is paired trials turned into ROC/AUC figures, so a run is
one closed loop with a single caller: ``experiments.run_trials(cfg)`` on one
cell, then ``detector_scores`` + ``auc_rank`` for each detector -- the calls
``run_scenario`` makes, without its file output.  The seed becomes
``ScenarioConfig.master_seed``; the cell's trial count is fixed by
``--seconds`` times a nominal rate per workload, so a seed and a run length
always give the same trials and the same failures.

``--trace 0`` prints the end-to-end metrics of that untraced run.
``--trace 1`` runs a quarter as many trials untraced and serially, the first
eighth of them again through ``run_trials``' process pool, then replays every
trial stage by stage through the public layer calls (``replay.py``) and
prints the per-layer metrics.  The pool and the replay must both reproduce
each serial record bit for bit.

A trial that ends in ``ExtractionError`` is an outcome of the simulator, not
an error of the benchmark: it counts as attempted in ``trials_per_s`` and in
``fail_ratio``.  The result line's ``failed`` counts trials whose output the
correctness checks rejected.  Extra figures (``fail_ratio``,
``usable_trials_per_s``, failure counts, AUCs, digest, environment) are
printed above the result line and written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Trials per second of a 2-core x86 machine (numpy 2.4.6 / OpenBLAS) on each
# cell.  They only size the cell so that a run lasts about --seconds there;
# they never enter a result.  roc-default-w2 runs the same trials as
# roc-default, so both per-trial digests can be compared.  It is left out of
# BENCHMARK.json: with every worker's OpenBLAS threads contending for the
# cores, the same 24 trials took 8 to 68 s, so no run length gives it a
# steady rate.  Every traced run still times the pool on an eighth of its
# trials (experiments.run_trials.parallel_efficiency).
POOL_WORKERS = 2
WORKLOADS = {
    "roc-default": {"cell": {}, "workers": 1, "rate": 5.5},
    "roc-default-w2": {"cell": {}, "workers": POOL_WORKERS, "rate": 5.5},
    "roc-l48": {"cell": {"rb_count": 4}, "workers": 1, "rate": 40.0},
}
# The smoke cell: same layers, a fraction of the work.
TINY_CELL = {"num_antennas": 8, "num_users": 4, "sequence_length": 31}
MIN_TRIALS = 4
SETUP_REPEATS = 7
SCORE_REPEATS = 25

# Alarm direction per detector, as in experiments.roc_from_outcomes: the
# similarity detector alarms when its statistic drops.
ORIENTATION = {"sparsity": -1.0, "energy": 1.0, "subspace": 1.0}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ERROR_PATTERN = re.compile(r"trial (\d+): (\w+): ")

# Time from a fresh interpreter to the point where the first trial could
# start: import the harness and build the cell's ScenarioConfig.  Prints the
# monotonic clock, which the parent process shares on Linux.
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import spoofdet.experiments
from spoofdet.scenario import ScenarioConfig
ScenarioConfig(**json.loads(sys.argv[2]))
print(time.perf_counter())
"""


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cell_kwargs(workload: str, seed: int, seconds: int, trace: int,
                tiny: bool) -> dict:
    spec = WORKLOADS[workload]
    # The traced run makes three passes over its cell; a quarter of the
    # untraced cell keeps it near --seconds as well.
    share = 0.25 if trace else 1.0
    trials = max(MIN_TRIALS, round(spec["rate"] * seconds * share))
    return {
        **(TINY_CELL if tiny else {}),
        **spec["cell"],
        "master_seed": seed,
        "trials": trials,
        # Worker processes never exceed the cores this process may use.
        "workers": min(spec["workers"], nproc()),
    }


# ------------------------------------------------------------- environment


def git_revision() -> str:
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_hash() -> str:
    """Hash of the package sources, so stored digests never outlive a change."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "spoofdet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(cfg, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_library = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_library,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": nproc(),
        "git_revision": git_revision(),
        "source_hash": source_hash(),
        "config_hash": cfg.config_hash(),
        "seed": seed,
    }


def setup_seconds(kwargs: dict) -> float:
    """Median over fresh interpreters of the time to the first trial."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(kwargs)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout.split()[-1]) - started)
    return statistics.median(samples)


def peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------ correctness


def trial_digest(record) -> str:
    """Hash of one record: exact float bits of every statistic, or its error."""
    if record.failed:
        text = f"{record.trial_index}|{record.error}"
    else:
        text = "|".join(
            [str(record.trial_index)]
            + [f"{arm.similarity.hex()}|{arm.energy.hex()}|"
               f"{arm.subspace_dimension}"
               for arm in (record.quiet, record.attacked)]
        )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def _valid_arm(arm, cfg) -> bool:
    return (
        arm is not None
        and 0.0 <= arm.similarity <= 1.0
        and math.isfinite(arm.energy) and arm.energy > 0.0
        and isinstance(arm.subspace_dimension, int)
        and 0 <= arm.subspace_dimension <= cfg.num_antennas
    )


def check_records(records, cfg) -> dict:
    """{trial index (or None for the whole run): problem}."""
    if [r.trial_index for r in records] != list(range(cfg.trials)):
        return {None: "records are not trials 0..T-1 in order"}
    problems = {}
    for r in records:
        if r.failed:
            match = ERROR_PATTERN.match(r.error)
            ok = (r.quiet is None and r.attacked is None and match is not None
                  and int(match.group(1)) == r.trial_index)
        else:
            ok = _valid_arm(r.quiet, cfg) and _valid_arm(r.attacked, cfg)
        if not ok:
            problems[r.trial_index] = "malformed record"
    return problems


def pairwise_auc(attack, normal, orientation: float) -> float:
    """Mann-Whitney AUC by direct comparison of every pair (ties count 1/2)."""
    import numpy as np

    a = orientation * np.asarray(attack)[:, None]
    n = orientation * np.asarray(normal)[None, :]
    return float(np.mean((a > n) + 0.5 * (a == n)))


def compare(records, reference, what: str) -> dict:
    """Problems where two record lists differ, trial by trial, bit for bit."""
    problems = {}
    ours = {r.trial_index: trial_digest(r) for r in records}
    for r in reference:
        if ours.get(r.trial_index) != trial_digest(r):
            problems[r.trial_index] = f"differs from {what}"
    return problems


def check_digest_store(workload: str, kwargs: dict, digests) -> dict:
    """Compare per-trial digests with earlier runs of the same cell and seed.

    Runs of roc-default and roc-default-w2 with one seed share a cell, so
    every trial they both ran must hash the same.  The store is keyed by the
    package sources, so a change to the program starts a fresh one.
    """
    from spoofdet.scenario import ScenarioConfig

    cell = ScenarioConfig(**{**kwargs, "trials": 1, "workers": 1})
    path = (OUT / "digests" / f"{source_hash()}-{cell.config_hash()}"
            f"-seed{kwargs['master_seed']}.json")
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = {}
    for other, theirs in stored.items():
        for index, digest in enumerate(digests):
            if theirs.get(str(index), digest) != digest:
                problems[index] = f"digest differs from a {other} run"
    stored.setdefault(workload, {}).update(
        {str(i): d for i, d in enumerate(digests)}
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    # Replace atomically, so an interrupted run leaves no half-written store.
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(stored, sort_keys=True))
    os.replace(partial, path)
    return problems


# ---------------------------------------------------------------- passes


def score(records):
    """AUC per detector (None without completed trials) and per-call times."""
    from spoofdet.errors import InsufficientDataError
    from spoofdet.experiments import DETECTOR_NAMES, auc_rank, detector_scores

    aucs, scores, timings = {}, {}, {}
    for name in DETECTOR_NAMES:
        t0 = time.perf_counter()
        attack, normal = detector_scores(records, name)
        t1 = time.perf_counter()
        try:
            aucs[name] = auc_rank(attack, normal, ORIENTATION[name])
        except InsufficientDataError:
            aucs[name] = None
        t2 = time.perf_counter()
        scores[name] = (attack, normal)
        timings[name] = (t1 - t0, t2 - t1)
    return aucs, scores, timings


def check_aucs(aucs, scores) -> dict:
    problems = {}
    for name, auc in aucs.items():
        attack, normal = scores[name]
        if attack.size == 0:
            if auc is not None:
                problems[None] = f"{name}: AUC without completed trials"
        elif abs(auc - pairwise_auc(attack, normal, ORIENTATION[name])) > 1e-12:
            problems[None] = f"{name}: auc_rank disagrees with pair counting"
    return problems


def timed_cell(cfg):
    """Records, AUCs, scores, cell wall time and run_trials' share of it."""
    from spoofdet.experiments import run_trials

    started = time.perf_counter()
    records = run_trials(cfg)
    trials_done = time.perf_counter()
    aucs, scores, _ = score(records)
    finished = time.perf_counter()
    return records, aucs, scores, finished - started, trials_done - started


def untraced_pass(workload, kwargs, cfg):
    from spoofdet.experiments import run_single_trial

    records, aucs, scores, wall, _ = timed_cell(cfg)
    own_peak = peak_rss_mb(resource.RUSAGE_SELF)
    workers_peak = peak_rss_mb(resource.RUSAGE_CHILDREN)
    digests = [trial_digest(r) for r in records]
    problems = check_records(records, cfg)
    problems.update(check_aucs(aucs, scores))
    # Serial re-runs of a few trials: the same record whatever the schedule.
    spot = sorted({0, cfg.trials // 2, cfg.trials - 1})
    problems.update(compare(
        [run_single_trial(cfg, i) for i in spot],
        [records[i] for i in spot],
        "a serial re-run",
    ))
    problems.update(check_digest_store(workload, kwargs, digests))
    setup = setup_seconds(kwargs)

    usable = sum(1 for r in records if not r.failed)
    by_type: dict[str, int] = {}
    for r in records:
        if r.failed:
            match = ERROR_PATTERN.match(r.error)
            kind = match.group(2) if match else "unparsed"
            by_type[kind] = by_type.get(kind, 0) + 1
    metrics = {
        "trials_per_s": (len(records) / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (own_peak, "MB"),
    }
    evidence = {
        "fail_ratio": (1.0 - usable / len(records), "ratio"),
        "trials_failed": (len(records) - usable, "count"),
        "trials_attempted": (len(records), "count"),
        "usable_trials_per_s": (usable / wall, "1/s"),
        "cell_wall_s": (wall, "s"),
    }
    if cfg.workers > 1:
        evidence["workers_peak_rss_mb"] = (workers_peak, "MB")
    extra = {
        "failures_by_type": dict(sorted(by_type.items())),
        "auc": aucs,
        "digest": run_digest(digests),
        "trial_digests": digests,
    }
    return records, problems, metrics, evidence, extra


def traced_pass(workload, kwargs, cfg):
    """Untraced serial cell, the pool on its first trials, traced replay."""
    import replay
    from spoofdet.experiments import run_single_trial, run_trials

    serial_cfg = replace(cfg, workers=1)
    # One trial first, so neither pass pays the process's first-call costs
    # and the overhead ratio compares like with like.
    run_single_trial(serial_cfg, 0)
    records, aucs, scores, _, serial_wall = timed_cell(serial_cfg)
    problems = check_records(records, serial_cfg)
    problems.update(check_aucs(aucs, scores))

    # run_trials' process pool on the first eighth of the trials: it must
    # return the serial records, and its wall time gives the efficiency.
    pool_cfg = replace(cfg, trials=max(MIN_TRIALS, cfg.trials // 8),
                       workers=min(POOL_WORKERS, nproc()))
    started = time.perf_counter()
    pooled = run_trials(pool_cfg)
    pool_wall = time.perf_counter() - started
    problems.update(compare(pooled, records[:pool_cfg.trials],
                            "the process pool's record"))

    tracer = replay.Tracer()
    replayed = []
    for index in range(cfg.trials):
        sim, record = replay.replay_trial(cfg, index, tracer)
        replayed.append(record)
        if sim is not None:
            replay.time_setup_parts(cfg, index, sim, tracer)
    problems.update(compare(replayed, records, "the traced replay"))
    problems.update(check_digest_store(
        workload, kwargs, [trial_digest(r) for r in records]))

    metrics = replay.layer_metrics(tracer)
    runs = [score(records)[2] for _ in range(SCORE_REPEATS)]
    for name in ORIENTATION:
        metrics[f"experiments.detector_scores.{name}.ms"] = (
            1e3 * statistics.median(t[name][0] for t in runs), "ms")
        metrics[f"experiments.auc_rank.{name}.ms"] = (
            1e3 * statistics.median(t[name][1] for t in runs), "ms")
    metrics["experiments.run_trials.parallel_efficiency"] = (
        replay.replay_seconds(tracer, pool_cfg.trials)
        / (pool_cfg.workers * pool_wall),
        "ratio")
    metrics["trace.overhead_ratio"] = (
        replay.replay_seconds(tracer, cfg.trials) / serial_wall, "ratio")
    extra = {
        "pool": {"workers": pool_cfg.workers, "trials": pool_cfg.trials,
                 "wall_s": pool_wall},
        "failed_calls": replay.failed_calls(tracer),
        "auc": aucs,
        "digest": run_digest(trial_digest(r) for r in records),
        "self_ms_by_layer": replay.self_ms_by_layer(tracer),
    }
    return records, problems, metrics, {}, extra, tracer.export()


# ------------------------------------------------------------------ runs


def run_once(args) -> int:
    from spoofdet.scenario import ScenarioConfig

    kwargs = cell_kwargs(args.workload, args.seed, args.seconds, args.trace,
                         args.tiny)
    cfg = ScenarioConfig(**kwargs)
    env = environment(cfg, args.seed)
    spans = None
    if args.trace:
        records, problems, metrics, evidence, extra, spans = traced_pass(
            args.workload, kwargs, cfg)
    else:
        records, problems, metrics, evidence, extra = untraced_pass(
            args.workload, kwargs, cfg)

    tag = (f"{args.workload}{'-tiny' if args.tiny else ''}"
           f"-seed{args.seed}-trace{args.trace}")
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "cell": kwargs,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "evidence": {k: {"value": v, "unit": u}
                     for k, (v, u) in evidence.items()},
        **extra,
        "problems": {str(k): v for k, v in problems.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {args.workload}: {len(records)} trials, "
          f"config_hash {env['config_hash']}, seed {args.seed}, "
          f"git {env['git_revision'][:12]}")
    print(f"# numpy {env['numpy']}, BLAS {env['blas']}, nproc {env['nproc']}, "
          f"thread vars {json.dumps(env['thread_vars'])}")
    for name, (value, unit) in {**metrics, **evidence}.items():
        print(f"{name} = {value:.6g} {unit}")
    auc_text = ", ".join(
        f"{k} {'n/a' if v is None else format(v, '.4f')}"
        for k, v in extra["auc"].items())
    print(f"# auc: {auc_text}; digest {extra['digest']}")
    if "failures_by_type" in extra:
        print(f"# failed trials by type: {json.dumps(extra['failures_by_type'])}")
    if "failed_calls" in extra:
        print(f"# failed calls: {json.dumps(extra['failed_calls'])}")
    for index, problem in sorted(problems.items(), key=lambda kv: str(kv[0])):
        print(f"# PROBLEM trial {index}: {problem}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for k in problems if k is not None),
        "metrics": detail["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced; checks names and units too."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                command.append("--tiny")
            print(f"## {workload} --trace {trace}", flush=True)
            try:
                run = subprocess.run(command, capture_output=True, text=True,
                                     timeout=900)
            except subprocess.TimeoutExpired:
                failures.append(f"{workload} trace {trace}: timed out")
                continue
            sys.stdout.write(run.stdout)
            sys.stderr.write(run.stderr)
            try:
                result = json.loads(run.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{workload} trace {trace}: no result line")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                failures.append(
                    f"{workload} trace {trace}: metrics or units differ "
                    "from BENCHMARK.json")
            if not result["correct"] or run.returncode != 0:
                failures.append(f"{workload} trace {trace}: not correct")
    for failure in failures:
        print(f"FAILED {failure}")
    print("all workloads: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the small smoke cell (M=8, K=4, N=31)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload with and without tracing")
    parser.add_argument("--smoke", action="store_true",
                        help="--all --tiny --seconds 1")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "spoofdet" / "__init__.py").is_file():
        print(f"error: no spoofdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        args.all, args.tiny, args.seconds = True, True, 1
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all or --smoke")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
