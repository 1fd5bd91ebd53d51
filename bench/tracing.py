"""Span recorder for the traced run, and the per-layer metrics derived from spans.

``Tracer.install`` replaces each public function in ``PATCHES`` with a span
recorder, in the namespace where its caller looks it up (``cli`` looks up
``parse_sample_csv`` in its own module, ``evaluate_model`` looks up
``pop_exact`` in ``engine``, a library user looks names up on the package).
No file of the program changes.  Each span records its id, name, start, end,
parent, thread id and call id; spans stay in memory until the run ends.

A span opened on a thread with no open span of its own (a worker thread of
``compare``) gets the open top-level span as its parent, so that a layer's
self time, its span minus the union of its children's intervals, stays
correct when children overlap.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, what to count from the result)
PATCHES = (
    ("scorepotential.cli", "parse_sample_csv", "sample_csv.parse_sample_csv", "rows"),
    ("scorepotential.cli", "rank_sample", "sample.rank_sample", None),
    ("scorepotential.cli", "evaluate_model", "engine.evaluate_model", None),
    ("scorepotential.cli", "compare_models", "engine.compare_models", None),
    ("scorepotential.cli", "generate_sample", "engine.generate_sample", None),
    ("scorepotential.cli", "records_to_csv_text", "sample_csv.records_to_csv_text", None),
    ("scorepotential.cli", "render_combined_chart", "report.render_combined_chart", "bytes"),
    ("scorepotential.cli", "render_comparison", "report.render_comparison", "bytes"),
    ("scorepotential.cli", "render_pop_vs_beni_figure", "figure.render_pop_vs_beni_figure", None),
    ("scorepotential.engine", "pop_exact", "metrics.pop_exact", None),
    ("scorepotential.engine", "build_gains_chart", "gains.build_gains_chart", None),
    ("scorepotential.engine", "beni_at_cutoff", "metrics.beni_at_cutoff", None),
    ("scorepotential", "rank_sample", "sample.rank_sample", None),
    ("scorepotential", "evaluate_model", "engine.evaluate_model", None),
    ("scorepotential", "render_combined_chart", "report.render_combined_chart", "bytes"),
    ("scorepotential", "evaluation_from_dict", "report.evaluation_from_dict", None),
    ("scorepotential", "evaluation_to_csv", "report.evaluation_to_csv", "bytes"),
    ("scorepotential", "evaluation_from_csv", "report.evaluation_from_csv", None),
    ("scorepotential", "auc_crosscheck", "metrics.auc_crosscheck", "peak_alloc"),
)

BUSY = (
    "sample_csv.parse_sample_csv", "sample_csv.records_to_csv_text",
    "engine.generate_sample", "sample.rank_sample", "metrics.pop_exact",
    "metrics.beni_at_cutoff", "metrics.auc_crosscheck", "gains.build_gains_chart",
    "engine.compare_models", "report.render_comparison",
    "figure.render_pop_vs_beni_figure", "report.render_combined_chart",
    "report.evaluation_from_dict", "report.evaluation_to_csv",
    "report.evaluation_from_csv",
)
SELF = ("engine.evaluate_model", "cli.main")
PER_FILE = ("sample_csv.parse_sample_csv", "sample.rank_sample", "engine.evaluate_model")
COUNTERS = {
    "rows": "sample_csv.parse_sample_csv.rows",
    "bytes": "report.output_bytes",
    "peak_alloc": "metrics.auc_crosscheck.peak_alloc_mb",
}


class Tracer:
    def __init__(self):
        self.call_id = 0
        self.spans = []      # (id, name, start, end, parent, thread id, call id)
        self.counters = []   # (call id, metric name, value)
        self.gc_pauses = []  # (call id, seconds)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._gc_start = 0.0
        self._saved = []

    def _open(self):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        if self._root is None:
            self._root = span_id
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end):
        self._local.stack.pop()
        if self._root == span_id:
            self._root = None
        self.spans.append((span_id, name, start, end, parent, threading.get_ident(),
                           self.call_id))

    def call(self, name, fn, *args):
        """Run fn(*args) as a top-level span; return its result."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count == "peak_alloc":
                tracemalloc.start()
            span_id, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start, perf_counter())
                if count == "peak_alloc":
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters.append((self.call_id, COUNTERS[count], peak / 1e6))
            if count == "rows":
                self.counters.append((self.call_id, COUNTERS[count], len(result)))
            elif count == "bytes":
                self.counters.append((self.call_id, COUNTERS[count], len(result.encode())))
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append((self.call_id, perf_counter() - self._gc_start))

    def install(self):
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "gc_pauses": self.gc_pauses, "missing": self.missing}


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(trace: dict, call_id: int) -> dict:
    """Per-layer metrics of one top-level call from a Tracer dump."""
    spans = [s for s in trace["spans"] if s[6] == call_id]
    out = {f"{name}.busy_s": 0.0 for name in BUSY}
    out.update({f"{name}.self_s": 0.0 for name in SELF})
    out.update({name: 0 for name in COUNTERS.values()})
    out["metrics.beni_at_cutoff.calls"] = 0
    children = defaultdict(list)
    for span_id, name, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    for span_id, name, start, end, parent, _, _ in spans:
        if name in BUSY:
            out[f"{name}.busy_s"] += end - start
        if name in SELF:
            out[f"{name}.self_s"] += end - start - _covered(children[span_id], start, end)
        if name == "metrics.beni_at_cutoff":
            out["metrics.beni_at_cutoff.calls"] += 1
    for cid, name, value in trace["counters"]:
        if cid == call_id:
            out[name] += value
    pauses = [p for cid, p in trace["gc_pauses"] if cid == call_id]
    out["runtime.gc_pause_s"] = sum(pauses)
    out["runtime.gc_collections"] = len(pauses)
    out["cli.compare.span_overlap"] = _span_overlap(spans)
    return out


def _span_overlap(spans) -> float:
    """Summed per-file layer spans over the wall time they cover, for `compare`.

    Above 1, per-file work ran in threads that waited on each other; 0 when the
    call evaluated fewer than two files through the CLI.
    """
    roots = {s[0] for s in spans if s[4] is None and s[1] == "cli.main"}
    files = [s for s in spans if s[4] in roots and s[1] in PER_FILE]
    if sum(s[1] == "sample_csv.parse_sample_csv" for s in files) < 2:
        return 0.0
    window = max(s[3] for s in files) - min(s[2] for s in files)
    return sum(s[3] - s[2] for s in files) / window
