"""Measurement helpers: percentiles, registry deltas, run hygiene, provenance."""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Where shared-memory segments of the process executor appear.
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile *p* (0 < p <= 100) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank percentile *p*."""
    return n - _rank(p, n)


def tail_percentile(
    samples: Sequence[float], ladder: Sequence[float] = TAIL_LADDER
) -> Tuple[Optional[float], Optional[float], int]:
    """``(p, value, n)`` for the highest ladder percentile that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it; ``p`` and ``value``
    are None when even the lowest rung lacks them."""
    n = len(samples)
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        return None, None, n
    return best, percentile(samples, best), n


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (0 when nothing was tried)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad failure accounting: {failed} of {attempted}")
    return failed / attempted if attempted else 0.0


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
#: A flattened series key: (family name, ((label, value), ...), part)
#: with part ``value`` for counters and gauges, ``count`` / ``sum`` for
#: histograms.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...], str]


def flatten(registry) -> Dict[SeriesKey, float]:
    """One number per series of *registry*."""
    out: Dict[SeriesKey, float] = {}
    for family in registry.families():
        for values, child in family.children():
            labels = tuple(zip(family.labelnames, (str(v) for v in values)))
            if family.kind == "histogram":
                out[(family.name, labels, "count")] = child.count
                out[(family.name, labels, "sum")] = child.sum
            else:
                out[(family.name, labels, "value")] = child.value
    return out


def delta(before: Dict[SeriesKey, float], after: Dict[SeriesKey, float]) -> Dict[SeriesKey, float]:
    """Per-series change between two :func:`flatten` snapshots (unchanged
    series omitted)."""
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def family_total(
    flat: Dict[SeriesKey, float], name: str, part: str = "value", **labels: str
) -> float:
    """Sum over the series of family *name* whose labels include *labels*."""
    total = 0.0
    for (fam, series_labels, series_part), value in flat.items():
        if fam != name or series_part != part:
            continue
        have = dict(series_labels)
        if all(have.get(k) == v for k, v in labels.items()):
            total += value
    return total


def series_name(key: SeriesKey) -> str:
    """Prometheus-style text for a series key (``name{a="b"}:part``)."""
    name, labels, part = key
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{body}}}" + ("" if part == "value" else f":{part}")


# ----------------------------------------------------------------------
# run hygiene
# ----------------------------------------------------------------------
def shm_segments() -> set:
    """Names of this system's shared-memory segments currently present."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


@contextlib.contextmanager
def run_directory(root: str) -> Iterator[str]:
    """A fresh directory under *root* for one run, removed afterwards."""
    base = os.path.join(root, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no concurrent run still uses it


def hygiene_problems(shm_before: set) -> List[str]:
    """What a finished run left behind: live child processes or new
    shared-memory segments."""
    problems = []
    children = multiprocessing.active_children()  # also reaps finished ones
    if children:
        problems.append(f"{len(children)} child process(es) still alive")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    return problems


def stop_processes() -> None:
    """Stop and wait for every process this run started: worker processes
    a failed path left alive, then the interpreter's shared-memory
    resource tracker, which would otherwise outlive the run until it
    notices its parent is gone."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=2.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe and waits for it to exit


def children_private_mb() -> float:
    """Memory private to this process's live worker processes, in MiB:
    the pages each wrote or allocated since it was forked, not those it
    still shares with this process (read before the workers are reaped)."""
    kib = 0
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError):
            with open(f"/proc/{child.pid}/smaps_rollup", encoding="utf-8") as fp:
                for line in fp:
                    if line.startswith(("Private_Clean:", "Private_Dirty:")):
                        kib += int(line.split()[1])
    return kib / 1024.0


def peak_rss_mb(workers_mb: float = 0.0) -> float:
    """Peak resident memory of this process plus *workers_mb*, the
    private memory of its shard workers (:func:`children_private_mb`)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + workers_mb


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git
    (None outside a git work tree)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest(src: str) -> str:
    """SHA-256 over the package sources (identifies the code measured
    even where there is no git metadata)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fp:
                    digest.update(fp.read())
    return digest.hexdigest()[:16]


def machine_fingerprint() -> Dict[str, object]:
    """CPU model, core count and interpreter / numpy versions."""
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
