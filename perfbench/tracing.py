"""Spans recorded from outside the program, around the public calls of each layer.

:class:`SpanRecorder` installs wrappers on the functions and methods named in
:data:`TARGETS`.  Each wrapped call becomes one span: name, start, end and the
span that was open on the same thread when it began (its parent).  A call
that re-enters a span name already open on its thread (``ShardedSession.run``
calling ``FastSession.run``, a bucketed fleet calling its buckets) is not
recorded again, so a name's busy time never counts the same interval twice.
Spans opened on worker threads (the sharded kernels) have no parent; their
busy time is summed over threads and can exceed the wall time.

Spans stay in memory and are exported once, at the end of the run, as
``[name, start, end, parent_index]`` rows; :func:`summarise` turns the rows
into per-name busy time, self time (duration minus the direct children) and
call counts.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional, Sequence

#: ``(module, attribute path, span name)`` for every wrapped call.  A name may
#: cover several callables: the object, vectorized and sharded session runs
#: are all ``core.negotiate``, and every module that imported ``repro.api.run``
#: or a serve helper by name gets its own binding wrapped.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.grid.demand", "DemandModel.realise", "grid.realise"),
    ("repro.grid.prediction", "ConsumptionPredictor.observe_many", "grid.observe"),
    ("repro.grid.prediction", "ConsumptionPredictor.predict_columnar", "grid.predict"),
    ("repro.grid.fleet", "HouseholdFleet.demand_profiles", "grid.fleet_demand"),
    ("repro.grid.fleet", "BucketedFleet.demand_profiles", "grid.fleet_demand"),
    (
        "repro.agents.preferences",
        "CustomerPreferenceModel.requirements_for_fleet",
        "agents.requirements",
    ),
    ("repro.agents.population", "CustomerPopulation.from_fleet", "agents.population"),
    ("repro.core.fast_session", "FastSession.build", "agents.pack"),
    ("repro.agents.vectorized", "VectorizedPopulation.from_population", "agents.pack"),
    (
        "repro.agents.vectorized",
        "VectorizedPopulation.highest_acceptable_cutdowns",
        "agents.kernel",
    ),
    (
        "repro.agents.vectorized",
        "VectorizedPopulation.expected_gain_cutdowns",
        "agents.kernel",
    ),
    ("repro.core.planning", "DayAheadPlanner.plan", "core.plan"),
    ("repro.core.session", "NegotiationSession.run", "core.negotiate"),
    ("repro.core.fast_session", "FastSession.run", "core.negotiate"),
    ("repro.core.sharded_session", "ShardedSession.run", "core.negotiate"),
    ("repro.core.system", "LoadBalancingSystem.run", "core.account"),
    ("repro.api", "run", "api.dispatch"),
    ("repro.api.engine", "run", "api.dispatch"),
    ("repro.serve.coalesce", "_engine_run", "api.dispatch"),
    ("repro.serve.schemas", "ScenarioSpec.build_scenario", "serve.build_scenario"),
    ("repro.serve.schemas", "synthetic_population", "serve.population_build"),
    ("repro.serve.batcher", "execute_batch", "serve.execute_batch"),
    ("repro.serve.coalesce", "execute_batch", "serve.execute_batch"),
    ("repro.serve.batcher", "run_solo", "serve.run_solo"),
    ("repro.serve.coalesce", "run_solo", "serve.run_solo"),
    ("repro.serve.schemas", "result_payload", "serve.payload"),
    ("repro.serve.coalesce", "result_payload", "serve.payload"),
    ("repro.serve.repository", "SessionRepository.finish", "serve.persist"),
)

#: Every span name, in report order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class _Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, parent: Optional["_Span"]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


class SpanRecorder:
    """Records spans from wrappers it installs; recording only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self._spans: list[_Span] = []
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span called ``name`` per outermost call."""
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return func(*args, **kwargs)
            stack = recorder._stack()
            if any(open_span.name == name for open_span in stack):
                return func(*args, **kwargs)
            span = _Span(name, stack[-1] if stack else None)
            recorder._spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        """Replace every target with its recording wrapper."""
        for module_name, path, name in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original back, most recent first."""
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    def export(self) -> list[list]:
        """Finished spans as ``[name, start, end, parent]`` rows.

        ``parent`` indexes the returned list, or is ``None`` for a root span.
        """
        kept = [span for span in list(self._spans) if span.end]
        index = {id(span): position for position, span in enumerate(kept)}
        return [
            [span.name, span.start, span.end, index.get(id(span.parent))]
            for span in kept
        ]


def rows_since(rows: Sequence[Sequence], since: float) -> list[list]:
    """The rows starting at or after ``since``, re-indexed.

    A kept span whose parent started earlier becomes a root span.
    """
    kept = [position for position, row in enumerate(rows) if row[1] >= since]
    index = {old: new for new, old in enumerate(kept)}
    return [
        [rows[old][0], rows[old][1], rows[old][2], index.get(rows[old][3])]
        for old in kept
    ]


def summarise(rows: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per span name: ``busy`` seconds, ``self`` seconds and ``calls``.

    A span's self time is its duration minus the durations of its direct
    children; direct children never overlap, because a child runs on its
    parent's thread while the parent waits for it.
    """
    children = defaultdict(float)
    for name, start, end, parent in rows:
        if parent is not None:
            children[parent] += end - start
    summary: dict[str, dict[str, float]] = {}
    for position, (name, start, end, _parent) in enumerate(rows):
        entry = summary.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
        entry["busy"] += end - start
        entry["self"] += end - start - children[position]
        entry["calls"] += 1
    return summary


def span_metrics(rows: Sequence[Sequence]) -> dict[str, tuple[float, str]]:
    """Busy and self seconds for every span name (zero for names never called)."""
    summary = summarise(rows)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        entry = summary.get(name, {"busy": 0.0, "self": 0.0})
        metrics[f"{name}_s"] = (entry["busy"], "s")
        metrics[f"{name}_self_s"] = (entry["self"], "s")
    return metrics


def call_count(rows: Sequence[Sequence], name: str) -> int:
    """How many recorded spans carry ``name``."""
    return sum(1 for row in rows if row[0] == name)
