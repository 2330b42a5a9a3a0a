"""Spans recorded by the benchmark around its calls into the library.

The benchmark calls the library only through an :class:`Api` namespace.
Untraced, its attributes are the library functions themselves, so the
timed loop pays nothing for the indirection.  Traced, each attribute is a
wrapper that appends one span per call to the :class:`Tracer`.

A span is ``(name, tag, start_ns, end_ns, parent, op_id)``; ``parent``
is the index of the enclosing span in ``Tracer.spans`` (-1 for a root)
and ``op_id`` numbers the operation the span belongs to.  Spans stay in
memory and are written out once, when the run ends.

Only calls made by the benchmark are spans.  Work a layer does inside a
lower layer (``fingertip.plan_primitive`` calling ``linkage``, or
``grasp`` building on numpy) counts toward the calling layer's own self
time until the library records spans of its own.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Public functions the workloads call, by layer (module of morphtip).
LAYER_FUNCTIONS = {
    "linkage": ("operating_range", "forward_facet", "inverse_facet",
                "attainable_tilt_range", "solve_planar_pair"),
    "fingertip": ("plan_primitive", "transition_trajectory"),
    "grasp": ("find_contacts", "closure_classify", "pivot_feasible", "cradle_height"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.parent = -1
        self.op_id = -1

    def wrap(self, name, fn):
        spans = self.spans
        now = time.perf_counter_ns

        def traced(*args):
            start = now()
            try:
                return fn(*args)
            finally:
                spans.append((name, None, start, now(), self.parent, self.op_id))

        return traced

    def begin(self, name: str, tag: str | None, op_id: int) -> int:
        """Open a root span for one operation; returns its index."""
        index = len(self.spans)
        self.spans.append((name, tag, time.perf_counter_ns(), None, -1, op_id))
        self.parent = index
        self.op_id = op_id
        return index

    def end(self, index: int) -> None:
        name, tag, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, tag, start, time.perf_counter_ns(), parent, op_id)
        self.parent = -1

    def write(self, path: Path) -> None:
        """One JSON array per line: name, tag, start_ns, end_ns, parent, op_id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Api:
    """The library functions a workload may call, traced or not."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"morphtip.{layer}")
            for name in names:
                fn = getattr(module, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn))


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one client, one thread), so the
    part of the parent they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, tag, start, end, parent, op_id in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[3] - s[2] - covered[i] for i, s in enumerate(spans)]


def summarize(spans: list[tuple]) -> dict:
    """Durations by span name, by (name, root tag), and layer self time.

    ``layer_self_ns[layer]`` sums the self time of spans whose name starts
    with ``layer.``; ``root_ns`` sums the root spans of each root name.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    by_root_tag = defaultdict(list)
    layer_self = defaultdict(int)
    root_ns = defaultdict(int)
    for i, (name, tag, start, end, parent, op_id) in enumerate(spans):
        dur = end - start
        by_name[name].append(dur)
        if parent < 0:
            root_ns[name] += dur
        else:
            by_root_tag[(name, spans[parent][1])].append(dur)
            layer_self[name.split(".", 1)[0]] += own[i]
    return {"by_name": by_name, "by_root_tag": by_root_tag,
            "layer_self_ns": layer_self, "root_ns": root_ns}


def p50_us(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e3
