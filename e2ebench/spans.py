"""A span recorder that times the pipeline's layers from the outside.

:func:`instrument` wraps the public functions of each layer -- planning,
tracing, overlap transformation, lint, cell keying, the file store, window
classification, cohort grouping, the grid walk, the per-cell simulator, the
executor and the runner -- so that every call opens a :class:`Span` (name,
start, end, parent).  Spans stay in memory until the run ends;
:func:`self_times` then turns them into per-layer self times (a span's
duration minus its child spans).  No file under ``src/`` changes: the
wrappers are installed on the module and class attributes the pipeline
looks up at call time, including the names ``runner`` and ``executor``
import directly, and :meth:`SpanRecorder.uninstall` restores the originals.

Besides times the wrappers collect what the layers returned: record, key
and diagnostic counts, cache hits and misses, how many cells ran as cohort
lanes, and per-cell adaptive modes.  The harness uses the same recorder for
its path guards and to learn the error bound each replayed cell claims
(``claims``, keyed by ``(label, platform)``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-cell simulator spans are renamed after the adaptive mode of the
#: result they return (``SimulationResult.metadata["adaptive"]["mode"]``):
#: ``fast-forward`` is the contended per-cell path (cells whose windows are
#: all proven contention-free batch into cohort lanes instead) and
#: ``des-fallback`` the exact DES fallback.
MODE_SPANS = {"contended": "simulator.contended",
              "fallback": "simulator.fallback"}


class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += span.end - span.start - children[index]
    return dict(totals)


def per_cell_replays(counts: Dict[str, int]) -> int:
    """Cells a recorded run replayed through the per-cell simulator."""
    return sum(counts.get(f"simulator.{mode}_cells", 0) for mode in MODE_SPANS)


def adaptive_mode(result: Any) -> str:
    """``contended`` or ``fallback`` for one adaptive result."""
    if result.metadata["adaptive"]["mode"] == "des-fallback":
        return "fallback"
    return "contended"


def trace_records(trace: Any) -> int:
    return sum(len(rank_trace) for rank_trace in trace)


class SpanRecorder:
    """Collects spans and counters while installed (see :func:`instrument`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``(label, platform) -> error_bound`` the cell's own result claims.
        self.claims: Dict[Tuple[str, Any], float] = {}
        #: Distinct classified cells -> proven exact.
        self.classified: Dict[Tuple[int, Any], bool] = {}
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``function`` recording one span per call; ``after`` sees the result.

        ``after(span, args, result)`` may rename the span and add counts.
        """
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Drop what was recorded (the wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        self.classified.clear()

    # -- per-layer callbacks -------------------------------------------------
    def _planned(self, span, args, plan) -> None:
        self.counts["plan.tasks"] += len(plan.tasks)

    def _traced(self, span, args, trace) -> None:
        self.counts["tracing.records"] += trace_records(trace)

    def _overlapped(self, span, args, trace) -> None:
        self.counts["overlap.variants"] += 1

    def _linted(self, span, args, report) -> None:
        self.counts["tracelint.diagnostics"] += len(report.diagnostics)

    def _keyed(self, span, args, keys) -> None:
        self.counts["keys.count"] += len(keys)

    def _got(self, span, args, payload) -> None:
        self.counts["filestore.misses" if payload is None
                    else "filestore.hits"] += 1

    def _put(self, span, args, result) -> None:
        self.counts["filestore.puts"] += 1

    def _classified(self, span, args, plan) -> None:
        trace, platform = args[0], args[1]
        self.classified[(id(trace), platform)] = plan.proven_exact

    def _grouped(self, span, args, units) -> None:
        self.counts["cohorts.units"] += len(units)
        self.counts["cohorts.tasks"] += len(args[0])
        for unit in units:
            members = getattr(unit, "tasks", None)
            if members is None:
                self.counts["cohorts.per_cell_units"] += 1
            else:
                self.counts["cohorts.batched_cells"] += len(members)

    def _walked(self, span, args, results) -> None:
        platforms = args[1]
        labels = args[2] if len(args) > 2 else [None] * len(platforms)
        for platform, label, result in zip(platforms, labels, results):
            if "grid_width" in result.metadata["adaptive"]:
                self.counts["gridreplay.lanes"] += 1
            self._claim(label, platform, result)

    def _simulated(self, span, args, result) -> None:
        mode = adaptive_mode(result)
        span.name = MODE_SPANS[mode]
        self.counts[f"simulator.{mode}_cells"] += 1
        self.counts["simulator.records"] += trace_records(args[1])
        self.counts["simulator.contended_transfers"] += (
            result.metadata["adaptive"]["contended_transfers"])
        self._claim(result.metadata.get("label"), result.platform, result)

    def _executed(self, span, args, results) -> None:
        self.counts["executor.units"] += len(args[1])

    def _claim(self, label, platform, result) -> None:
        self.claims[(label, platform)] = (
            result.metadata["adaptive"]["error_bound"])


def instrument() -> SpanRecorder:
    """A new recorder, installed on every traced layer."""
    from repro.core import executor
    from repro.core.environment import OverlapStudyEnvironment
    from repro.dimemas import gridreplay, replay, windows
    from repro.dimemas.simulator import DimemasSimulator
    from repro.experiments import runner
    from repro.experiments.plan import ExperimentPlan
    from repro.store.filestore import FileResultStore

    r = SpanRecorder()
    r.patch(runner, "run_experiment", "runner")
    r.patch(runner, "plan_experiment", "plan.expand", r._planned)
    r.patch(OverlapStudyEnvironment, "trace", "tracing.trace", r._traced)
    r.patch(OverlapStudyEnvironment, "overlap", "overlap.transform",
            r._overlapped)
    r.patch(runner, "analyze_tasks", "tracelint.analyze", r._linted)
    r.patch(ExperimentPlan, "cell_keys", "keys.cell_keys", r._keyed)
    r.patch(FileResultStore, "get", "filestore.get", r._got)
    r.patch(FileResultStore, "put", "filestore.put", r._put)
    for module in (windows, gridreplay, replay):
        r.patch(module, "classify", "windows.classify", r._classified)
    r.patch(runner, "group_cohorts", "cohorts.group", r._grouped)
    r.patch(executor, "replay_cohort", "gridreplay.replay", r._walked)
    r.patch(DimemasSimulator, "simulate", "simulator", r._simulated)
    r.patch(executor.SweepExecutor, "execute", "executor", r._executed)
    return r


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: SpanRecorder) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one recorded run: ``name -> (value, unit)``."""
    own = self_times(recorder.spans)
    counts = recorder.counts
    seconds = {name: own.get(span, 0.0) for name, span in (
        ("plan.expand_s", "plan.expand"),
        ("tracing.trace_s", "tracing.trace"),
        ("overlap.transform_s", "overlap.transform"),
        ("tracelint.analyze_s", "tracelint.analyze"),
        ("keys.cell_keys_s", "keys.cell_keys"),
        ("filestore.get_s", "filestore.get"),
        ("filestore.put_s", "filestore.put"),
        ("windows.classify_s", "windows.classify"),
        ("cohorts.group_s", "cohorts.group"),
        ("gridreplay.replay_s", "gridreplay.replay"),
        ("simulator.contended_s", MODE_SPANS["contended"]),
        ("simulator.fallback_s", MODE_SPANS["fallback"]),
        ("executor.self_s", "executor"),
        ("runner.assemble_s", "runner"))}
    simulated = sum(own.get(span, 0.0) for span in MODE_SPANS.values())
    proven = sum(recorder.classified.values())
    metrics = {name: (value, "s") for name, value in seconds.items()}
    for name in ("plan.tasks", "tracing.records", "overlap.variants",
                 "tracelint.diagnostics", "keys.count", "filestore.hits",
                 "filestore.misses", "filestore.puts", "cohorts.units",
                 "gridreplay.lanes", "simulator.contended_cells",
                 "simulator.contended_transfers", "simulator.fallback_cells",
                 "executor.units"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["windows.proven_share"] = (
        _share(proven, len(recorder.classified)), "share")
    metrics["cohorts.batched_share"] = (
        _share(counts.get("cohorts.batched_cells", 0),
               counts.get("cohorts.tasks", 0)), "share")
    metrics["gridreplay.lane_cells_per_s"] = (
        _share(counts.get("gridreplay.lanes", 0),
               seconds["gridreplay.replay_s"]), "1/s")
    metrics["simulator.records_per_s"] = (
        _share(counts.get("simulator.records", 0), simulated), "1/s")
    metrics["recorder.spans"] = (len(recorder.spans), "count")
    return metrics
