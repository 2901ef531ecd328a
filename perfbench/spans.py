"""In-memory span recorder installed around the program's public functions.

Tracing lives entirely in the benchmark: :func:`install` wraps public
functions and methods of ``repro`` in place (the program itself carries no
tracing code), so a traced run measures the same code an untraced run does,
plus the wrappers' cost.  Every span records its name, start, end, parent
span and the id of the workload operation it belongs to; spans stay in
memory until the run writes them out.

Besides spans, the wrappers pick up what the program already reports on the
results they pass through: a planning result's ``stage_timings`` and
``cache_hit``.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from typing import Dict, List, Optional


class Recorder:
    """Spans plus the planner figures read off results, for one process."""

    def __init__(self):
        self.spans: List[tuple] = []
        #: Cleared when a workload starts checking its outputs, so the
        #: checks' own planning stays out of the per-layer figures.
        self.active = True
        self.op_id = 0
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        #: stage name -> summed seconds over cold plans (session-level misses)
        self.stage_seconds: Dict[str, float] = {}
        self.cold_plans = 0
        #: seconds of each ``PlanSessionPool.plan`` call served from the cache
        self.pool_hit_seconds: List[float] = []

    def begin_op(self) -> int:
        """Start a new workload operation; later spans carry its id."""
        self.op_id += 1
        return self.op_id

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, name: str) -> List[float]:
        return [end - start for (_, _, span_name, start, end, _) in self.spans if span_name == name]

    def record_plan(self, result) -> None:
        """Account one ``PlanSession.rewrite`` result that was planned cold."""
        if result is None or result.cache_hit:
            return
        with self._lock:
            self.cold_plans += 1
            for stage, seconds in result.stage_timings.items():
                self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def layers(self) -> Dict[str, float]:
        """The per-layer figures every traced program process reports."""
        layers = {}
        for span_name, metric in (
            ("data.catalog_build", "data.catalog_build_ms"),
            ("planner.session_build", "planner.session_build_ms"),
            ("catalog.apply_delta", "catalog.delta_apply_ms"),
            ("service.revalidate", "service.revalidate_ms"),
            ("hybrid.build_matrix", "hybrid.ra_build_ms"),
        ):
            durations = self.durations(span_name)
            if durations:
                layers[metric] = sum(durations) / len(durations) * 1e3
        if self.cold_plans:
            for stage in ("encode", "saturate", "extract", "postopt"):
                seconds = self.stage_seconds.get(stage, 0.0)
                layers[f"planner.{stage}_ms"] = seconds / self.cold_plans * 1e3
        if self.pool_hit_seconds:
            layers["service.plan_hit_us"] = statistics.median(self.pool_hit_seconds) * 1e6
        return layers

    def to_json(self) -> List[dict]:
        return [
            {"id": sid, "op": op, "name": name, "start": start, "end": end, "parent": parent}
            for (sid, op, name, start, end, parent) in self.spans
        ]


class _Span:
    __slots__ = ("recorder", "name", "sid", "parent", "start", "end")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        with recorder._lock:
            recorder._next_id += 1
            self.sid = recorder._next_id
        stack = getattr(recorder._local, "stack", None)
        if stack is None:
            stack = recorder._local.stack = []
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = self.end = time.perf_counter()
        recorder = self.recorder
        recorder._local.stack.pop()
        with recorder._lock:
            recorder.spans.append(
                (self.sid, recorder.op_id, self.name, self.start, end, self.parent)
            )
        return False


def _wrap(
    owner, attribute: str, name: str, recorder: Recorder, on_result=None, new_op=False
) -> None:
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        if new_op:
            recorder.begin_op()
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(span, result)
        return result

    setattr(owner, attribute, traced)


def _wrap_async(owner, attribute: str, name: str, recorder: Recorder) -> None:
    original = getattr(owner, attribute)

    @functools.wraps(original)
    async def traced(*args, **kwargs):
        if not recorder.active:
            return await original(*args, **kwargs)
        with recorder.span(name):
            return await original(*args, **kwargs)

    setattr(owner, attribute, traced)


def install(recorder: Optional[Recorder] = None) -> Recorder:
    """Wrap the program's public entry points; returns the recorder.

    Call once per process, before the workload builds anything.  The span
    names are the layer names the per-layer metrics use.
    """
    from repro.api.engine import Engine, WorkspaceHandle
    from repro.benchkit import datasets as benchkit_datasets
    from repro.data import datasets as hybrid_datasets
    from repro.catalog.delta import CatalogDelta
    from repro.hybrid.executor import HybridExecutor
    from repro.planner.session import PlanSession
    from repro.service.pool import PlanSessionPool
    from repro.service.service import AnalyticsService

    recorder = recorder if recorder is not None else Recorder()

    def note_plan(span, result):
        recorder.record_plan(result)

    def note_pool_plan(span, result):
        if result.cache_hit:
            recorder.pool_hit_seconds.append(span.end - span.start)

    _wrap(benchkit_datasets, "benchmark_catalog", "data.catalog_build", recorder)
    _wrap(hybrid_datasets, "twitter_dataset", "data.catalog_build", recorder)
    _wrap(hybrid_datasets, "mimic_dataset", "data.catalog_build", recorder)
    _wrap(PlanSession, "__init__", "planner.session_build", recorder)
    _wrap(PlanSession, "rewrite", "planner.rewrite", recorder, note_plan)
    _wrap(PlanSessionPool, "plan", "service.pool_plan", recorder, note_pool_plan)
    _wrap(PlanSessionPool, "apply_delta", "service.revalidate", recorder)
    _wrap(Engine, "rewrite", "api.rewrite", recorder)
    _wrap(WorkspaceHandle, "rewrite", "api.workspace_rewrite", recorder)
    _wrap(Engine, "apply_delta", "api.apply_delta", recorder)
    _wrap(Engine, "submit_hybrid", "api.submit_hybrid", recorder)
    # The engine's delta path validates and mutates through
    # CatalogDelta.apply (Catalog.apply_delta is the same call for callers
    # holding a bare catalog).
    _wrap(CatalogDelta, "apply", "catalog.apply_delta", recorder)
    _wrap(HybridExecutor, "build_matrix", "hybrid.build_matrix", recorder)
    # In the gateway process one operation is one micro-batch.
    _wrap(AnalyticsService, "submit_many", "service.submit_many", recorder, new_op=True)
    _wrap_async(Engine, "serve", "api.serve", recorder)
    return recorder
