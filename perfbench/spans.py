"""Benchmark-owned span wrappers around the layers' public functions.

The traced pass patches a span recorder around each layer boundary from
out here — nothing under ``src/`` changes — and restores the originals when
the pass ends. Spans stay in memory until the run writes them out.

A span is ``name, start, end, parent, request``: ``parent`` is the index of
the span that was open on the same thread when this one started, and
``request`` is the stream position being served (``None`` while loading),
so the spans of one request share an identifier. A layer's *self time* is
its span's duration minus its direct children's.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import repro.analysis
import repro.core.loader
import repro.core.prost
import repro.engine.session
import repro.serve.server
from repro.core.prost import ProstEngine
from repro.core.translator import JoinTreeTranslator
from repro.engine.dataframe import DataFrame
from repro.governor import Governor
from repro.hdfs.filesystem import SimulatedHdfs
from repro.serve.server import QueryServer


class SpanRecorder:
    """Append-only span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        #: Cleared for the untimed tail of a pass, whose direct-engine
        #: queries are checks, not part of the stream being attributed.
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0
        self._gc_started = 0.0

    def set_request(self, request: int | None) -> None:
        """Label the spans this thread opens from now on."""
        self._local.request = request

    @contextmanager
    def span(self, name: str):
        """Record one span around the body."""
        if not self.active:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [
            name, 0.0, 0.0,
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: collector pauses during the traced pass."""
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2_collections += 1

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """``(duration, self time, call count)`` summed per span name."""
        duration: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for record, own in zip(self.spans, self.self_times()):
            duration[record[0]] += record[2] - record[1]
            self_time[record[0]] += own
            calls[record[0]] += 1
        return duration, self_time, calls

    def to_json(self) -> list[dict]:
        """The spans as the trace file stores them."""
        return [
            {"id": index, "name": name, "start": start, "end": end,
             "parent": parent, "request": request}
            for index, (name, start, end, parent, request) in enumerate(self.spans)
        ]


def _function_span(recorder: SpanRecorder, name: str, original):
    @wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    return traced


def _optimize_span(recorder: SpanRecorder, original):
    """``optimize`` memoizes its result on the plan instance; only a call
    that finds no memo rewrites anything, and only that call is a span (so
    ``optimize_calls`` counts plans optimized, not executions)."""

    @wraps(original)
    def traced(plan):
        if "_optimized_memo" in plan.__dict__:
            return original(plan)
        with recorder.span("engine.optimizer.optimize"):
            return original(plan)

    return traced


class _TimedContext:
    """Spans around entering and leaving a context manager, not its body."""

    def __init__(self, inner, recorder: SpanRecorder, name: str):
        self._inner = inner
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        with self._recorder.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        with self._recorder.span(self._name):
            return self._inner.__exit__(*exc_info)


def _admit_span(recorder: SpanRecorder, original):
    @wraps(original)
    def traced(self, *args, **kwargs):
        return _TimedContext(
            original(self, *args, **kwargs), recorder, "governor.admit"
        )

    return traced


#: (owner, attribute, span name): each layer's public entry point, patched
#: where its caller looks it up (a ``from x import f`` binds ``f`` in the
#: importing module, so that module's name is the one to replace).
_FUNCTION_TARGETS = (
    (repro.core.prost, "load_prost_store", "core.loader.load"),
    (repro.core.loader, "collect_statistics", "rdf.collect_statistics"),
    (repro.core.loader, "load_vertical_partitioning", "core.loader.vp_build"),
    (repro.core.loader, "load_property_table", "core.loader.pt_build"),
    (repro.engine.session, "write_table", "columnar.write_table"),
    (SimulatedHdfs, "write", "hdfs.write"),
    (repro.core.prost, "parse_sparql", "sparql.parse"),
    (repro.serve.server, "parse_sparql", "sparql.parse"),
    (JoinTreeTranslator, "translate_bgp", "core.translator.translate"),
    (repro.analysis, "check_query", "analysis.check_query"),
    (DataFrame, "collect_data_with_report", "engine.execute"),
    (ProstEngine, "dataframe", "core.prost.dataframe"),
    (ProstEngine, "sparql", "core.prost.sparql"),
    (ProstEngine, "execute_prepared", "core.prost.execute_prepared"),
    (QueryServer, "sparql", "serve.sparql"),
    (repro.serve.server, "canonicalize", "serve.normalize.canonicalize"),
)


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every layer boundary for the body, then restore the originals."""
    patched = []

    def patch(owner, attribute, replacement):
        patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for owner, attribute, name in _FUNCTION_TARGETS:
            patch(owner, attribute,
                  _function_span(recorder, name, owner.__dict__[attribute]))
        patch(repro.engine.session, "optimize",
              _optimize_span(recorder, repro.engine.session.optimize))
        patch(Governor, "admit", _admit_span(recorder, Governor.__dict__["admit"]))
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
