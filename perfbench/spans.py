"""In-memory span tracing recorded from outside the program.

The benchmark never edits the system: it replaces public methods of the
objects a broker already holds (``broker.matcher``, each shard, the
delivery manager, the WAL, ...) with timing wrappers set as *instance*
attributes.  Python looks instance attributes up before class methods,
so the components' own internal calls (``self.subscribe`` inside
``subscribe_batch``, ``self._inner.match`` inside the aggregation
layer) go through the wrappers too.  Deleting the attribute restores
the original method.

Spans are kept in a list while a traced segment runs and reduced when
the run ends.  A span's parent is the innermost open span on its
thread; a span opened on a worker thread with nothing open there (the
sharded fan-out pool) takes the main thread's innermost open span as
its parent, which is exact for the benchmark's single client thread.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

# Span record fields (a plain list per span keeps recording cheap).
LAYER, METHOD, SCOPE, START, END, PARENT = range(6)


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans around wrapped methods while a segment is open."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.walls: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.scope: Optional[str] = None
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._local.stack = self._main_stack
        self._installed: List[Tuple[Any, str]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, obj: Any, method: str, layer: str) -> None:
        """Time every call of ``obj.method`` as a span of *layer* (a
        method the object does not have is left alone)."""
        fn = getattr(obj, method, None)
        if fn is None:
            return
        tracer = self
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            record = [layer, method, tracer.scope, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()

        setattr(obj, method, traced)
        self._installed.append((obj, method))

    def unwrap_all(self) -> None:
        """Restore every wrapped method (instance attribute removed)."""
        for obj, method in reversed(self._installed):
            with contextlib.suppress(AttributeError):
                delattr(obj, method)
        self._installed.clear()

    @contextlib.contextmanager
    def segment(self, scope: str) -> Iterator[None]:
        """Record spans (tagged *scope*) for the duration of the block."""
        self.scope = scope
        self.enabled = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls[scope] += time.perf_counter() - start
            self.enabled = False
            self.scope = None

    # -- reduction --------------------------------------------------------
    def reduce(self) -> "SpanTable":
        """Self times for every span (the run has ended)."""
        return SpanTable(self.spans, dict(self.walls))


class SpanTable:
    """Spans reduced to per-``(layer, method, scope)`` totals.

    A span's self time is its duration minus the union of the intervals
    its children cover (children may overlap when the shard fan-out runs
    them on parallel threads).  ``outer`` time counts only spans not
    nested in a span of the same layer, so re-entrant calls are not
    counted twice.
    """

    def __init__(self, spans: List[list], walls: Dict[str, float]) -> None:
        self.walls = walls
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(index)
        #: (layer, method, scope) -> [count, self, outer, in_children]
        self.totals: Dict[Tuple[str, str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0, 0.0]
        )
        #: (layer, method, scope, parent layer) -> count
        self.parent_counts: Dict[Tuple[str, str, str, Optional[str]], int] = defaultdict(int)
        self.root_s = 0.0
        for index, span in enumerate(spans):
            start, end = span[START], span[END]
            in_kids = covered(
                [
                    (max(spans[c][START], start), min(spans[c][END], end))
                    for c in children.get(index, ())
                ]
            )
            parent = span[PARENT]
            parent_layer = None if parent is None else spans[parent][LAYER]
            key = (span[LAYER], span[METHOD], span[SCOPE])
            row = self.totals[key]
            row[0] += 1
            row[1] += end - start - in_kids
            if parent_layer != span[LAYER]:
                row[2] += end - start
            row[3] += in_kids
            self.parent_counts[key + (parent_layer,)] += 1
            if parent is None:
                self.root_s += end - start

    def _rows(self, layer, methods, scopes) -> Iterator[List[float]]:
        for (lay, method, scope), row in self.totals.items():
            if lay != layer:
                continue
            if methods is not None and method not in methods:
                continue
            if scopes is not None and scope not in scopes:
                continue
            yield row

    def count(self, layer: str, methods=None, scopes=None) -> int:
        """Number of selected spans."""
        return int(sum(row[0] for row in self._rows(layer, methods, scopes)))

    def self_s(self, layer: str, methods=None, scopes=None) -> float:
        """Summed self time of the selected spans."""
        return sum(row[1] for row in self._rows(layer, methods, scopes))

    def outer_s(self, layer: str, methods=None, scopes=None) -> float:
        """Summed duration of the selected spans not nested in their own layer."""
        return sum(row[2] for row in self._rows(layer, methods, scopes))

    def children_s(self, layer: str, methods=None, scopes=None) -> float:
        """Time the selected spans spent inside their direct children."""
        return sum(row[3] for row in self._rows(layer, methods, scopes))

    def count_under(self, layer: str, methods, scope: str, parent_layer: str) -> int:
        """Spans of *layer* (these *methods*) whose parent is a *parent_layer* span."""
        return sum(
            self.parent_counts.get((layer, m, scope, parent_layer), 0) for m in methods
        )

    def unaccounted_frac(self) -> float:
        """Share of traced wall time outside every root span — the part
        no layer's self time covers (the client loop itself)."""
        wall = sum(self.walls.values())
        if wall <= 0:
            return 0.0
        return max(0.0, wall - self.root_s) / wall
