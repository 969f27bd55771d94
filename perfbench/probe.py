"""Spans and result capture around the public calls of each layer.

The benchmark never edits the program. It replaces, for the length of
a run, the public functions each layer exposes with thin wrappers, and
restores them afterwards. A wrapper always keeps what the benchmark
needs of the call's result to count work and check outputs after the
item, outside the timed region; of a ``profile_run`` that is only the
op counts and a few named arrays, so the run's memory and profile are
freed when the program drops them. Only a traced probe also
reads the clock and records a span: name, layer, start, end and parent.

Spans stay in memory; :func:`layer_times` turns them into per-layer
self time (a span's duration minus the part its child spans cover).
The solver runs inside ``FormADEngine.analyze_loop`` and reports its
own seconds in the returned ``AnalysisStats``; that time is booked as
an ``smt`` child of the span that computed the analysis.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
import repro.experiments.harness as harness
from repro.analysis import ActivityAnalysis
from repro.formad import FormADEngine
from repro.obs.tracer import NullTracer

@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    #: Seconds of an implicit child in another layer (solver time).
    inner: Dict[str, float] = field(default_factory=dict)


@dataclass
class KeptRun:
    """What the checks and counts need of one ``profile_run``."""

    arrays: Dict[str, Any]
    ops: int
    atomics: int


@dataclass
class Capture:
    """Results of the public calls made by one item."""

    parsed: List[Tuple[int, Any]] = field(default_factory=list)
    analyses: List[Any] = field(default_factory=list)
    reverse: List[Any] = field(default_factory=list)
    profiles: List[KeptRun] = field(default_factory=list)
    #: (proc, bindings, extents) of each traced profile_run, so that a
    #: plain run of the same version can be timed after the item.
    profiled_args: List[Tuple[Any, Any, Any]] = field(default_factory=list)
    #: Names of the arrays a KeptRun keeps: the item's outputs plus the
    #: adjoint arrays of every version the item differentiated.
    keep: set = field(default_factory=set)


class _SpanSink(NullTracer):
    """A program tracer that turns ``experiment.variant`` spans into
    benchmark spans; every other event is dropped."""

    def __init__(self, probe: "Probe") -> None:
        self._probe = probe

    def span(self, name: str, **attrs: Any):
        if name == "experiment.variant" and self._probe.traced:
            return self._probe.span(name, "experiments")
        return super().span(name, **attrs)


class Probe:
    """Installs the wrappers; owns the spans and the current capture."""

    def __init__(self) -> None:
        self.traced = False
        self.paused = False
        self.spans: List[Span] = []
        self.capture = Capture()
        self.sink = _SpanSink(self)
        self._stack: List[int] = []
        self._seen: set = set()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, time.perf_counter(),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, layer: str):
        probe = self

        class _Ctx:
            def __enter__(self):
                self.span = probe._open(name, layer)
                return self.span

            def __exit__(self, *exc):
                probe._close(self.span)
                return False

        return _Ctx()

    def take_spans(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans

    def begin_item(self, keep_arrays) -> None:
        self.capture.keep = set(keep_arrays)

    def take_capture(self) -> Capture:
        capture, self.capture = self.capture, Capture()
        self._seen = set()
        return capture

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str,
              keep: Optional[Callable]) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.paused:
                return fn(*args, **kwargs)
            if not probe.traced:
                out = fn(*args, **kwargs)
                if keep is not None:
                    keep(probe, None, out, args, kwargs)
                return out
            span = probe._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._close(span)
            if keep is not None:
                keep(probe, span, out, args, kwargs)
            return out

        return wrapper

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               keep: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, keep))

    def install(self) -> "Probe":
        self._patch(repro, "parse_procedure", "parse_procedure", "ir",
                    _keep_parsed)
        self._patch(repro, "format_procedure", "format_procedure", "ir")
        self._patch(ActivityAnalysis, "__init__", "ActivityAnalysis",
                    "analysis")
        self._patch(repro, "analyze_formad", "analyze_formad", "formad")
        self._patch(FormADEngine, "analyze_loop", "FormADEngine.analyze_loop",
                    "formad", _keep_analysis)
        for owner in (repro, harness):
            self._patch(owner, "differentiate", "differentiate", "ad",
                        _keep_reverse)
        self._patch(repro, "run_procedure", "run_procedure", "runtime")
        self._patch(harness, "profile_run", "profile_run", "runtime",
                    _keep_profile)
        self._patch(harness, "total_time", "total_time", "runtime")
        self._patch(harness, "run_kernel_experiment", "run_kernel_experiment",
                    "experiments")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _keep_parsed(probe, span, out, args, kwargs):
    probe.capture.parsed.append((len(args[0].encode()), out))


def _keep_analysis(probe, span, out, args, kwargs):
    # analyze_loop returns its memoized result on a repeat call: only
    # the first return of an analysis did the solver work.
    if id(out) in probe._seen:
        return
    probe._seen.add(id(out))
    probe.capture.analyses.append(out)
    if span is not None:
        span.inner["smt"] = out.stats.solver_time_seconds


def _keep_reverse(probe, span, out, args, kwargs):
    probe.capture.reverse.append(out)
    probe.capture.keep.update(out.adjoint_of.values())


def profile_counts(profile) -> Dict[str, int]:
    ops, atomics = profile.serial.total_ops, profile.serial.atomics
    for record in profile.parallel_loops:
        for counts in record.per_iteration:
            ops += counts.total_ops
            atomics += counts.atomics
    return {"ops": ops, "atomics": atomics}


def _keep_profile(probe, span, out, args, kwargs):
    keep = probe.capture.keep
    arrays = {name: a.data for name, a in out.memory.arrays.items()
              if name in keep}
    probe.capture.profiles.append(KeptRun(arrays, **profile_counts(
        out.profile)))
    if probe.traced:
        bindings = args[1] if len(args) > 1 else kwargs.get("bindings", ())
        extents = args[2] if len(args) > 2 else kwargs.get("extents", ())
        probe.capture.profiled_args.append((args[0], bindings, extents))


def layer_times(spans: List[Span]):
    """Self seconds per layer, inclusive seconds per span name and per
    layer, and the seconds covered by root spans.

    Inclusive time counts only the outermost span of a name (or layer),
    so a nested call of the same function is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_time: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_time[span.layer] += duration - child_time[i] - sum(
            span.inner.values())
        for layer, seconds in span.inner.items():
            self_time[layer] += seconds
        if not _has_ancestor(spans, span, lambda s: s.name == span.name):
            by_name[span.name] += duration
        if not _has_ancestor(spans, span, lambda s: s.layer == span.layer):
            by_layer[span.layer] += duration
        if span.parent is None:
            covered += duration
    return dict(self_time), dict(by_name), dict(by_layer), covered


def _has_ancestor(spans: List[Span], span: Span, match) -> bool:
    parent = span.parent
    while parent is not None:
        if match(spans[parent]):
            return True
        parent = spans[parent].parent
    return False
