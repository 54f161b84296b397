"""In-memory span recorder and the layer patches the traced runs install.

The benchmark traces the package from the outside: every patch below wraps a
public function or method of one module (the layer) and records a span
around each call.  Nothing under ``src/`` is edited.  Spans hold
``(name, start, end, parent, run id)``; a span's self time is its duration
minus the time its child spans cover.  Spans stay in memory and are written
out as CSV when the traced process ends.

Tracing is turned off in forked children (the grid's θ-group workers), so
engine work inside those workers is not traced.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List

# One span: [name, start, end, parent index, run id, child time].
NAME, START, END, PARENT, RUN, CHILD = range(6)


class Tracer:
    """Records spans per thread; counters are plain sums."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.enabled = True
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_run(self, run_id: str) -> None:
        """Tag the spans this thread records from now on with ``run_id``."""
        self._local.run_id = run_id

    def in_span(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[index][NAME] == name for index in self._stack())

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1,
                getattr(self._local, "run_id", self.run_id), 0.0]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[END] = time.monotonic()
        self._stack().pop()
        duration = span[END] - span[START]
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += duration
        return duration

    def add_covered(self, name: str, seconds: float) -> None:
        """Book ``seconds`` spent in ``name`` under the current span.

        Used for generators, whose work happens during iteration rather
        than during the call that creates them.
        """
        self.counters[name + "_s"] += seconds
        stack = self._stack()
        if stack:
            self.spans[stack[-1]][CHILD] += seconds

    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[END]:
                totals[span[NAME]] += span[END] - span[START] - span[CHILD]
        return totals

    def durations(self, name: str) -> List[float]:
        return [span[END] - span[START] for span in self.spans
                if span[NAME] == name and span[END]]

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[NAME]] += 1
        return totals

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of top-level spans clipped to ``[start, end]``."""
        intervals = sorted((max(span[START], start), min(span[END], end))
                           for span in self.spans
                           if span[PARENT] < 0 and span[END])
        covered, reach = 0.0, start
        for low, high in intervals:
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        return covered

    def write_csv(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start", "end", "parent", "run_id",
                             "self_s"])
            for span in self.spans:
                writer.writerow([span[NAME], f"{span[START]:.9f}",
                                 f"{span[END]:.9f}", span[PARENT], span[RUN],
                                 f"{span[END] - span[START] - span[CHILD]:.9f}"])


def _wrap(tracer: Tracer, func: Callable, name, counter=None) -> Callable:
    """A traced stand-in for ``func``.

    ``name`` is a span name or a callable ``(args, kwargs) -> name``;
    ``counter``, when given, is called as ``counter(args, kwargs, result)``.
    """

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        index = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(args, kwargs, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, func: Callable, name: str) -> Callable:
    """Traced stand-in for a generator function: times each ``next``."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            yield from func(*args, **kwargs)
            return
        inner = func(*args, **kwargs)
        while True:
            started = time.monotonic()
            try:
                item = next(inner)
            except StopIteration:
                tracer.add_covered(name, time.monotonic() - started)
                return
            tracer.add_covered(name, time.monotonic() - started)
            yield item

    return traced


def patch_method(tracer: Tracer, owner: type, attr: str, name,
                 counter=None) -> None:
    """Trace ``owner.attr`` (plain or class method)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr,
                classmethod(_wrap(tracer, raw.__func__, name, counter)))
    else:
        setattr(owner, attr, _wrap(tracer, raw, name, counter))


def patch_function(tracer: Tracer, module: Any, attr: str, name: str) -> None:
    """Trace ``module.attr`` and every ``from ... import`` binding of it."""
    original = getattr(module, attr)
    traced = _wrap(tracer, original, name)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and \
                getattr(loaded, attr, None) is original:
            setattr(loaded, attr, traced)


def _arg(args, kwargs, position: int, keyword: str, default=()):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else default


def install_engine(tracer: Tracer) -> None:
    """Trace datasets, graph.distance, graph.distance_delta, the session,
    look-ahead, tie-breaking and the scan pool."""
    import repro.api.facade  # noqa: F401 — bind every re-export first
    import repro.core.edge_removal
    import repro.core.edge_removal_insertion  # noqa: F401
    from repro.api.requests import AnonymizationRequest
    from repro.core import lookahead
    from repro.core.anonymizer import TieBreaker
    from repro.core.opacity_session import OpacitySession
    from repro.core.scan_pool import ScanPool
    from repro.graph import distance
    from repro.graph.distance_delta import DistanceSession
    from repro.graph.distance_store import StoreConfig
    from repro.graph.graph import Graph

    # The sample-load phase, for dataset and edge-list sources alike.
    patch_method(tracer, AnonymizationRequest, "resolve_graph",
                 "datasets.load")
    patch_function(tracer, distance, "bounded_distance_matrix", "distance.init")

    def batch_name(args, kwargs):
        removals = _arg(args, kwargs, 1, "removals")
        return "delta.removal_batch" if removals else "delta.insertion_batch"

    def batch_counter(args, kwargs, result):
        tracer.counters["delta.removal_candidates"] += len(
            _arg(args, kwargs, 1, "removals"))
        tracer.counters["delta.insertion_candidates"] += len(
            _arg(args, kwargs, 2, "insertions"))

    patch_method(tracer, DistanceSession, "preview_batch", batch_name,
                 batch_counter)
    patch_method(tracer, DistanceSession, "preview", "delta.preview")
    # The write path: ``apply``, or ``stage`` then ``commit``.
    for attr in ("apply", "stage", "commit"):
        patch_method(tracer, DistanceSession, attr, f"delta.{attr}")

    original_observe = DistanceSession.observe_affected_rows

    @functools.wraps(original_observe)
    def observe(self, rows_total, candidates):
        if tracer.enabled:
            tracer.counters["delta.affected_rows"] += rows_total
            tracer.counters["delta.observed_candidates"] += candidates
        return original_observe(self, rows_total, candidates)

    DistanceSession.observe_affected_rows = observe

    def combos(amount):
        def counter(args, kwargs, result):
            tracer.counters["session.evaluations"] += amount(args, kwargs)
            if tracer.in_span("lookahead.search"):
                tracer.counters["lookahead.combos"] += amount(args, kwargs)
        return counter

    patch_method(tracer, OpacitySession, "evaluate_edits",
                 "session.evaluate_edits",
                 combos(lambda args, kwargs: len(_arg(args, kwargs, 1,
                                                      "candidates"))))
    patch_method(tracer, OpacitySession, "evaluate_edit",
                 "session.evaluate_edit", combos(lambda args, kwargs: 1))
    patch_method(tracer, OpacitySession, "apply_edit", "session.apply")
    patch_method(tracer, OpacitySession, "violating_pair_indices",
                 "core.violating_pairs")
    Graph.edges = _wrap_generator(tracer, Graph.__dict__["edges"],
                                  "core.edge_iteration")
    Graph.non_edges = _wrap_generator(tracer, Graph.__dict__["non_edges"],
                                      "core.non_edge_iteration")
    patch_function(tracer, lookahead, "search_best_combination",
                   "lookahead.search")
    patch_method(tracer, TieBreaker, "offer", "core.tiebreak")
    patch_method(tracer, ScanPool, "scan", "scan_pool.scan")

    def tier_counter(args, kwargs, result):
        tracer.counters[f"store.{result}_resolutions"] += 1

    patch_method(tracer, StoreConfig, "resolve", "store.resolve",
                 tier_counter)


_STORE_WRITES = ("init_db", "create_job", "set_status", "record_checkpoint",
                 "record_response", "record_result")
_STORE_READS = ("get_job", "list_jobs", "find_job", "interrupted_jobs",
                "checkpoints", "latest_checkpoint", "num_checkpoints",
                "responses", "num_responses", "get_result")


def install_service(tracer: Tracer) -> None:
    """Trace the grid/shm layer and the service's HTTP, jobs and store."""
    from repro.api.batch import BatchRunner
    from repro.api.shm import SharedSampleArena
    from repro.service import http, jobs
    from repro.service.store import RunStore

    install_engine(tracer)
    patch_method(tracer, BatchRunner, "run_grid", "api.run_grid")
    patch_method(tracer, SharedSampleArena, "publish", "api.arena_publish")
    for attr in _STORE_WRITES:
        patch_method(tracer, RunStore, attr, "service.store_write")
    for attr in _STORE_READS:
        patch_method(tracer, RunStore, attr, "service.store_read")

    submitted: Dict[str, float] = {}

    def on_submit(args, kwargs, result):
        if not result.get("deduped"):
            submitted[result["job_id"]] = time.monotonic()

    patch_method(tracer, jobs.JobManager, "submit", "service.job_submit",
                 on_submit)
    original_status = RunStore.set_status

    @functools.wraps(original_status)
    def set_status(self, job_id, status, *args, **kwargs):
        if status == "running" and job_id in submitted:
            tracer.samples["service.queue_wait_s"].append(
                time.monotonic() - submitted.pop(job_id))
            tracer.set_run(job_id)
        return original_status(self, job_id, status, *args, **kwargs)

    RunStore.set_status = set_status

    def route(args, kwargs):
        handler = args[0]
        parts = [part for part in handler.path.split("?", 1)[0].split("/")
                 if part]
        if parts[:1] != ["jobs"]:
            return "service.http_other"
        if handler.command == "POST":
            return "service.http_submit"
        if len(parts) == 3 and parts[2] == "result":
            return "service.http_result"
        return "service.http_poll" if len(parts) == 2 else "service.http_other"

    original_make_handler = http.make_handler
    requests = itertools.count()

    def per_request(method):
        traced = _wrap(tracer, method, route)

        @functools.wraps(method)
        def handle(self):
            tracer.set_run(f"http-{next(requests)}")
            return traced(self)
        return handle

    def make_handler(manager, store):
        handler = original_make_handler(manager, store)
        for attr in ("do_GET", "do_POST", "do_DELETE"):
            setattr(handler, attr, per_request(getattr(handler, attr)))
        return handler

    http.make_handler = make_handler


def disable_in_forked_children(tracer: Tracer) -> None:
    def disable() -> None:
        tracer.enabled = False
    os.register_at_fork(after_in_child=disable)


def percentile(values: Iterable[float], share: float) -> float:
    """Inclusive-method percentile (``share`` in (0, 1)); 0 when empty."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0] if ordered else 0.0
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def engine_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of the engine layers from the recorded spans."""
    self_s = tracer.self_times()
    counts = tracer.counts()
    counters = tracer.counters
    evaluations = counters["session.evaluations"]
    rows, candidates = (counters["delta.affected_rows"],
                        counters["delta.observed_candidates"])
    metrics = {
        "datasets.load_s": self_s["datasets.load"],
        "datasets.loads": counts["datasets.load"],
        "distance.init_s": self_s["distance.init"],
        "distance.computes": counts["distance.init"],
        "delta.insertion_batch_s": self_s["delta.insertion_batch"],
        "delta.insertion_candidates": counters["delta.insertion_candidates"],
        "delta.removal_batch_s": self_s["delta.removal_batch"],
        "delta.removal_candidates": counters["delta.removal_candidates"],
        "delta.preview_s": self_s["delta.preview"],
        "delta.previews": counts["delta.preview"],
        "delta.apply_s": (self_s["delta.apply"] + self_s["delta.stage"]
                          + self_s["delta.commit"]),
        "delta.applies": counts["delta.apply"] + counts["delta.commit"],
        "delta.affected_rows": rows,
        "delta.observed_candidates": candidates,
        "delta.affected_rows_per_candidate": rows / candidates if candidates else 0.0,
        "session.batch_count_s": self_s["session.evaluate_edits"],
        "session.combo_count_s": self_s["session.evaluate_edit"],
        "session.apply_s": self_s["session.apply"],
        "session.evaluations": evaluations,
        "core.candidates_s": (self_s["core.violating_pairs"]
                              + counters["core.edge_iteration_s"]
                              + counters["core.non_edge_iteration_s"]),
        "core.tiebreak_s": self_s["core.tiebreak"],
        "core.tiebreak_offers": counts["core.tiebreak"],
        "lookahead.search_self_s": self_s["lookahead.search"],
        "lookahead.combos": counters["lookahead.combos"],
        "scan_pool.scans": counts["scan_pool.scan"],
        "store.dense_resolutions": counters["store.dense_resolutions"],
        "store.tiled_resolutions": counters["store.tiled_resolutions"],
        "trace.spans": len(tracer.spans),
    }
    return metrics
