"""In-memory tracer for the benchmark's traced pass.

The tracer wraps the public functions of the carrieralloc modules under the
name each *calling* module binds (``carrieralloc.protocol.ue_step``,
``carrieralloc.oracle.project_carrier_block``, ...), so a call is seen at the
layer boundary it crosses.  Nothing in the package itself changes, and
``restore`` puts every original object back.

Three kinds of wrapper:

* span: one record (id, name, site, start, end, parent, thread) per call, kept
  in a per-thread buffer; self time is computed afterwards as the duration
  minus the part of it that child calls cover;
* aggregate: the hot leaf functions (called up to millions of times a pass)
  only add to a per-thread (count, total time), and credit their time to the
  enclosing span so its self time stays exact;
* count: the utility methods ``marginal`` and ``log_utility`` only bump a
  per-thread counter.

A span opened on a thread with nothing open (a sweep worker) takes as parent
the innermost span open on the thread that started the tracer, which is the
span that submitted the work.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

LAYERS = ("cli", "scenario", "protocol", "subproblem", "utility", "oracle")

# Called up to millions of times per pass; a span each would cost hundreds
# of MB, so these keep only a count and a total time per thread.
AGGREGATED = frozenset(
    {"project_carrier_block", "solve_rate_for_price", "final_rate", "log_utility"}
)

# Utility methods counted without timing (the protocol's inner loop).
COUNTED_METHODS = ("marginal", "log_utility")


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: List[list] = []  # frames: [span id, start, aggregated child time, marginals at start]
        self.spans: List[tuple] = []
        self.agg: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)


class Span:
    __slots__ = ("id", "name", "site", "start", "end", "parent", "thread",
                 "agg_child", "marginals", "self_s")

    def __init__(self, record: tuple, thread: int):
        (self.id, self.name, self.site, self.start, self.end, self.parent,
         self.agg_child, self.marginals) = record
        self.thread = thread
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self._main: _ThreadState = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name: str, site: str, fn):
        tracer, perf, ids, main = self, time.perf_counter, self._ids, self._main

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.stack:
                parent = st.stack[-1][0]
            else:
                parent = main.stack[-1][0] if st is not main and main.stack else None
            frame = [next(ids), perf(), 0.0, st.counts["marginal"]]
            st.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                st.stack.pop()
                st.spans.append((frame[0], name, site, frame[1], end, parent,
                                 frame[2], st.counts["marginal"] - frame[3]))

        return wrapper

    def _aggregate(self, name: str, site: str, fn):
        tracer, perf, key = self, time.perf_counter, (site, name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                entry = st.agg[key]
                entry[0] += 1
                entry[1] += elapsed
                if st.stack:
                    st.stack[-1][2] += elapsed

        return wrapper

    def _counter(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state().counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every public carrieralloc function where each module binds it."""
        sites = {package.__name__: package}
        for layer in LAYERS:
            sites[layer] = importlib.import_module(f"{package.__name__}.{layer}")
        for site, module in sites.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if obj.__name__ in AGGREGATED:
                    wrapped = self._aggregate(name, site, obj)
                else:
                    wrapped = self._span(name, site, obj)
                self._patch(module, attr, wrapped)
        utility = sites["utility"]
        for cls in (utility.SigmoidalUtility, utility.LogarithmicUtility):
            for method in COUNTED_METHODS:
                self._patch(cls, method, self._counter(method, vars(cls)[method]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def spans(self) -> List[Span]:
        """Every recorded span, with self time filled in."""
        out = [Span(rec, st.ident) for st in self._states for rec in st.spans]
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in out:
            if span.parent is not None:
                children[span.parent].append(span)
        for span in out:
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ())
            )
            span.self_s = span.duration - span.agg_child - covered
        return out

    def aggregates(self) -> Dict[tuple, List[float]]:
        """(calling site, function) -> [calls, seconds] over all threads."""
        total: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for key, (count, seconds) in st.agg.items():
                total[key][0] += count
                total[key][1] += seconds
        return total

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for st in self._states:
            for key, value in st.counts.items():
                total[key] += value
        return total

    def write(self, path: Path) -> None:
        """Write the spans, then the aggregated and counted calls, as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["kind", "id", "name", "site", "start", "end", "parent",
                          "thread", "self_s", "count"])
            for s in sorted(self.spans(), key=lambda s: s.start):
                out.writerow(["span", s.id, s.name, s.site, repr(s.start), repr(s.end),
                              s.parent or "", s.thread, repr(s.self_s), 1])
            for (site, name), (count, seconds) in sorted(self.aggregates().items()):
                out.writerow(["aggregate", "", name, site, "", repr(seconds), "", "",
                              "", count])
            for key, count in sorted(self.counts().items()):
                out.writerow(["count", "", f"utility.{key}", "", "", "", "", "", "",
                              count])


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
