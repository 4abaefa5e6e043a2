"""End-to-end broker benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload w0-shards --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer and reports the per-layer
breakdown instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and a ``{"record": ...}`` line with the
seed, the code and machine identity and the registry deltas.  The exit
code is 0 only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Trials per run (set-up plus a share of the timed phase); ``setup_s``
#: is the median of their set-up times.
TRIALS = 5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    _SPEC = json.load(_fp)

#: Metric name -> unit, in BENCHMARK.json order: the one place both lists
#: and their units are kept.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns ``(result, record)``.

    A run is :data:`TRIALS` trials, each a fresh set-up followed by its
    share of the timed phase; the last trial's broker then goes through
    the workload's final gate (and, for churn-recover, the crash).  With
    *trace* the last trial is the traced one and the others give the
    untraced baseline for ``trace.overhead_frac``.  *scale* shrinks the
    populations; the benchmark's tests use it.
    """
    from repro.obs.registry import MetricsRegistry

    from layers import instrument, per_layer_metrics
    from spans import Tracer
    from workloads import MIN_BATCHES, WORKLOADS, GateError, merge_phases

    workload = WORKLOADS[name](seed, scale, seconds)
    tracer = Tracer() if trace else None
    shm_before = common.shm_segments()
    setup_times, prints, problems, phases = [], [], [], []
    extras, flat_run, flat_setup = {}, {}, {}
    rig = None
    workers_mb = 0.0

    def close(rig):
        nonlocal workers_mb
        workers_mb = max(workers_mb, common.children_private_mb())
        workload.close(rig)

    with common.run_directory(ROOT) as rundir:
        try:
            for trial in range(TRIALS):
                traced = tracer is not None and trial == TRIALS - 1
                hook = (lambda r: instrument(tracer, r)) if traced else None
                gc.collect()
                with tracer.segment("setup") if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    rig = workload.setup(
                        os.path.join(rundir, f"trial-{trial}"), MetricsRegistry(), hook
                    )
                    setup_times.append(time.perf_counter() - start)
                if traced:
                    tracer.unwrap_all()
                flat_setup = common.flatten(rig.registry)
                workload.check(rig, f"after set-up {trial + 1}")
                prints.append(workload.fingerprint(rig))
                if prints[-1] != prints[0]:
                    raise GateError("input-determined registry counts differ between set-ups")
                if traced:
                    instrument(tracer, rig)
                gc.collect()
                before = common.flatten(rig.registry)
                with tracer.segment("run") if traced else contextlib.nullcontext():
                    phase = workload.run(rig, seconds / TRIALS, -(-MIN_BATCHES // TRIALS))
                if traced:
                    tracer.unwrap_all()
                flat_run = common.delta(before, common.flatten(rig.registry))
                workload.ledger_check(rig, phase, f"timed phase of trial {trial + 1}")
                phases.append(phase)
                if trial < TRIALS - 1:
                    close(rig)
                    rig = None
            if tracer is not None:
                base, mine = merge_phases(phases[:-1]), phases[-1]
                extras["overhead_frac"] = (mine.wall_s / mine.batches) / (
                    base.wall_s / base.batches
                ) - 1.0
            extras.update(workload.finish(rig, tracer))
        except GateError as exc:
            problems.append(str(exc))
        finally:
            if rig is not None:
                close(rig)
    problems += common.hygiene_problems(shm_before)
    phase = merge_phases(phases) if phases else None

    summary = summarize(workload, phase, setup_times, extras, workers_mb)
    if trace:
        values = (
            per_layer_metrics(tracer.reduce(), phases[-1], flat_run, flat_setup, extras)
            if len(phases) == TRIALS
            else dict.fromkeys(PER_LAYER, 0.0)
        )
        metrics = {
            k: {"value": float(values[k]), "unit": unit} for k, unit in PER_LAYER.items()
        }
    else:
        # A run voided before its timed phase has no figures; it is
        # reported as incorrect, with zeros in their place.
        metrics = {
            k: {"value": summary.get(k, 0.0), "unit": unit}
            for k, unit in END_TO_END.items()
        }
    attempted = phase.attempted if phase is not None else 1
    failed = phase.failed if phase is not None else 0
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": common.git_commit(ROOT),
        "source_sha256": common.source_digest(os.path.join(SRC, "repro")),
        "machine": common.machine_fingerprint(),
        "setup_runs_s": setup_times,
        "input_counts_sha256": hashlib.sha256(repr(prints[:1]).encode()).hexdigest()[:16],
        "summary": summary,
        "registry_delta": {common.series_name(k): v for k, v in sorted(flat_run.items())},
        "problems": problems,
    }
    return result, record


def summarize(workload, phase, setup_times, extras, workers_mb=0.0) -> dict:
    """Every end-to-end number the workload yields, per-workload ones
    included, with sample counts and the percentile rule applied."""
    out = {"setup_s": common.median(setup_times) if setup_times else 0.0}
    out["peak_rss_mb"] = common.peak_rss_mb(workers_mb)
    if phase is None or not phase.batches:
        return out
    ms = [x * 1000.0 for x in phase.batch_lat]
    out.update(
        {
            "publish_eps": phase.events / phase.publish_s,
            "batch_p50_ms": common.percentile(ms, 50),
            "batch_p95_ms": common.percentile(ms, 95),
            "goodput_per_s": workload.goodput(phase),
            "batch_samples": len(ms),
            "batch_tail": common.tail_percentile(ms)[:2],
            "error_rate": common.error_rate(phase.failed, max(phase.attempted, 1)),
            "attempted": phase.attempted,
            "failed": phase.failed,
        }
    )
    if phase.ack_lat:
        ack_ms = [x * 1000.0 for x in phase.ack_lat]
        out.update(
            {
                "notify_eps": phase.acked / phase.wall_s,
                "ack_p50_ms": common.percentile(ack_ms, 50),
                "ack_p99_ms": common.percentile(ack_ms, 99),
                "ack_samples": len(ack_ms),
                "ack_tail": common.tail_percentile(ack_ms)[:2],
            }
        )
    if phase.ops:
        op_ms = [x * 1000.0 for x in phase.op_lat]
        out.update(
            {
                "churn_ops_s": phase.ops / phase.ops_s,
                "churn_op_p50_ms": common.percentile(op_ms, 50),
                "churn_op_samples": len(op_ms),
                "churn_op_tail": common.tail_percentile(op_ms)[:2],
            }
        )
    if "recovery_s" in extras:
        out["recovery_s"] = extras["recovery_s"]
        out["recovery_records"] = extras["recovery_records"]
    return out


def print_table(name: str, result: dict, record: dict) -> None:
    """The readable form of one run."""
    summary = record["summary"]
    print(f"== {name}  seed={record['seed']}  trace={record['trace']}  "
          f"correct={result['correct']}  commit={record['commit'] or 'n/a'}  "
          f"src={record['source_sha256']}")
    if not record["trace"]:
        rows = [
            ("setup_s", "s"), ("publish_eps", "1/s"), ("batch_p50_ms", "ms"),
            ("batch_p95_ms", "ms"), ("goodput_per_s", "1/s"), ("notify_eps", "1/s"),
            ("ack_p50_ms", "ms"), ("ack_p99_ms", "ms"), ("churn_ops_s", "1/s"),
            ("churn_op_p50_ms", "ms"), ("recovery_s", "s"), ("error_rate", "fraction"),
            ("peak_rss_mb", "MiB"),
        ]
        for key, unit in rows:
            if key in summary:
                print(f"  {key:<28} {summary[key]:>14.4f} {unit}")
        for key in ("batch", "ack", "churn_op"):
            if f"{key}_samples" in summary:
                p, value = summary[f"{key}_tail"]
                tail = "n/a" if p is None else f"p{p:g} = {value:.4f} ms"
                print(f"  {key} latency: {summary[key + '_samples']} samples, "
                      f"highest percentile with >=10 beyond: {tail}")
    else:
        for key, metric in result["metrics"].items():
            print(f"  {key:<34} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        common.stop_processes()
    print_table(args.workload, result, record)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
