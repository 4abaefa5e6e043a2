"""Tests of the benchmark itself: statistics, span reduction, failure
accounting, the correctness gate, and a tiny run of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import common  # noqa: E402
import run  # noqa: E402
from spans import END, PARENT, START, SpanTable, Tracer, covered  # noqa: E402
from workloads import GateError, Phase, W0Shards, ZipfFanout  # noqa: E402

TINY = 0.02


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    samples = list(range(1, n + 1))
    p, value, count = common.tail_percentile(samples)
    assert count == n
    assert p == expected
    if p is not None:
        assert value == math.ceil(round(p * n / 100, 9))  # nearest rank on 1..n
        assert common.samples_beyond(n, p) >= common.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(samples, 50) == 3.0
    assert common.percentile(samples, 100) == 5.0
    assert common.percentile(samples, 1) == 1.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_median_even_and_odd():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def span(layer, method, start, end, parent=None, scope="run"):
    record = [layer, method, scope, 0.0, 0.0, parent]
    record[START], record[END] = start, end
    return record


def test_covered_merges_overlaps():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(1, 4), (2, 3)]) == 3


def test_self_time_subtracts_union_of_children():
    spans = [
        span("broker", "publish_batch", 0.0, 10.0),
        # two shard calls running in parallel: they overlap on [2, 3]
        span("shard.0", "match", 1.0, 3.0, parent=0),
        span("shard.1", "match", 2.0, 6.0, parent=0),
        span("procpool", "request", 2.5, 5.5, parent=2),
    ]
    table = SpanTable(spans, {"run": 12.0})
    assert table.self_s("broker") == pytest.approx(10.0 - 5.0)
    assert table.self_s("shard.1") == pytest.approx(4.0 - 3.0)
    assert table.self_s("procpool") == pytest.approx(3.0)
    assert table.children_s("broker") == pytest.approx(5.0)
    assert table.unaccounted_frac() == pytest.approx(2.0 / 12.0)
    assert table.count_under("shard.0", ("match",), "run", "broker") == 1


def test_outer_time_skips_reentrant_calls():
    spans = [
        span("shard.0", "match_batch", 0.0, 4.0),
        span("shard.0", "match_batch_shm", 1.0, 3.0, parent=0),
    ]
    table = SpanTable(spans, {"run": 4.0})
    assert table.outer_s("shard.0") == pytest.approx(4.0)
    assert table.self_s("shard.0") == pytest.approx(4.0)


class _Component:
    def __init__(self, inner=None):
        self.inner = inner

    def outer(self):
        time.sleep(0.002)
        worker = threading.Thread(target=self.inner.leaf)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        return self.inner.leaf()

    def leaf(self):
        time.sleep(0.002)
        return 7


def test_tracer_links_nested_and_thread_spans_and_restores_methods():
    tracer = Tracer()
    leaf = _Component()
    top = _Component(leaf)
    tracer.wrap(top, "outer", "broker")
    tracer.wrap(leaf, "leaf", "matcher")
    tracer.wrap(leaf, "missing_method", "matcher")  # absent: left alone
    assert top.outer() == 7  # not recorded outside a segment
    assert tracer.spans == []
    with tracer.segment("run"):
        assert top.outer() == 7
    assert len(tracer.spans) == 3
    assert tracer.spans[1][PARENT] == 0 and tracer.spans[2][PARENT] == 0
    table = tracer.reduce()
    assert 0 <= table.self_s("broker") < table.outer_s("broker")
    assert table.count("matcher") == 2
    assert 0 <= table.unaccounted_frac() < 1
    tracer.unwrap_all()
    assert "outer" not in vars(top) and "leaf" not in vars(leaf)


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_error_rate():
    assert common.error_rate(0, 10) == 0.0
    assert common.error_rate(3, 12) == 0.25
    assert common.error_rate(0, 0) == 0.0
    with pytest.raises(ValueError):
        common.error_rate(5, 4)


def test_phase_counts_raised_degraded_and_undelivered():
    from repro.system.resilience import PartialResults

    workload = W0Shards(seed=1, scale=TINY)
    batch = workload.pool[0]

    class Broker:
        def __init__(self, outcome):
            self.outcome = outcome

        def publish_batch(self, events):
            if isinstance(self.outcome, Exception):
                raise self.outcome
            return self.outcome

    def rig_for(outcome):
        rig = type("R", (), {})()
        rig.broker, rig.delivery, rig.inbox = Broker(outcome), None, []
        return rig

    phase = Phase()
    workload.publish(rig_for(RuntimeError("down")), batch, phase)
    assert (phase.events, phase.failed_events, phase.batches) == (len(batch), len(batch), 0)

    results = [[] for _ in batch]
    results[0] = PartialResults(["x"], degraded=True, failed_shards=(1,))
    workload.publish(rig_for(results), batch, phase)
    assert phase.failed_events == len(batch) + 1
    assert phase.matches == 1 and phase.received == 0
    workload.settle(rig_for(None), phase)  # the promised delivery never came
    assert phase.failed_notifications == 1
    assert phase.attempted == 2 * len(batch) + 1
    assert phase.failed == len(batch) + 2
    assert common.error_rate(phase.failed, phase.attempted) == pytest.approx(
        (len(batch) + 2) / (2 * len(batch) + 1)
    )


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
def test_gate_rejects_a_wrong_answer(tmp_path):
    from repro.obs.registry import MetricsRegistry

    workload = ZipfFanout(seed=3, scale=TINY)
    rig = workload.setup(str(tmp_path / "rig"), MetricsRegistry(), None)
    try:
        workload.check(rig, "healthy")
        honest = rig.broker.publish_batch

        def lossy(events):
            results = honest(events)
            for ids in results:
                if ids:
                    ids.pop()
                    break
            return results

        rig.broker.publish_batch = lossy
        with pytest.raises(GateError, match="matched wrongly"):
            workload.check(rig, "lossy")
    finally:
        workload.close(rig)


# ----------------------------------------------------------------------
# tiny runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["w0-shards", "zipf-fanout", "churn-recover"])
def test_workload_smoke_untraced(name):
    result, record = run.measure(name, seed=5, seconds=0.4, trace=False, scale=TINY)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[key]
        assert metric["value"] > 0 and math.isfinite(metric["value"])
    assert record["summary"]["error_rate"] == 0.0
    assert record["seed"] == 5 and record["machine"]["nproc"] >= 1
    json.dumps(record)


@pytest.mark.parametrize("name", ["w0-shards", "zipf-fanout", "churn-recover"])
def test_workload_smoke_traced(name):
    result, record = run.measure(name, seed=6, seconds=0.4, trace=True, scale=TINY)
    assert result["correct"], record["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["trace.unaccounted_frac"] < 0.10
    if name == "w0-shards":
        # Today's per-event path: one matcher call per event, no shm bytes.
        assert metrics["broker.matcher_calls_per_batch"] == 100
        assert metrics["shm.bytes_per_event"] == 0
        assert metrics["procpool.ipc_calls"] > 0
    if name == "zipf-fanout":
        assert metrics["delivery.acks"] == metrics["wal.appends.settle"] > 0
        assert metrics["aggregation.frontier"] > 0
    if name == "churn-recover":
        assert metrics["recovery.records"] > 0
        assert metrics["clustering.plan_schemas"] > 0
        assert metrics["wal.fsyncs"] > 0


def test_input_determined_counts_repeat_for_a_seed():
    digests = {
        run.measure("zipf-fanout", seed=8, seconds=0.2, trace=False, scale=TINY)[1][
            "input_counts_sha256"
        ]
        for _ in range(2)
    }
    assert len(digests) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "w0-shards", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stop_processes_waits_for_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    common.stop_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(pid, os.WNOHANG)


def test_churn_goodput_sees_a_cost_limited_to_rare_calls():
    from workloads import ChurnRecover

    def goodput(formula_s):
        # One call in twenty is a formula subscribe; one block has a slow fsync.
        lat = [formula_s if i % 20 == 0 else 0.001 for i in range(1000)]
        lat[130] = 0.5
        return ChurnRecover.goodput(ChurnRecover, Phase(op_lat=lat))

    assert goodput(0.001) == pytest.approx(1000.0)
    assert goodput(0.003) < 0.95 * goodput(0.001)
