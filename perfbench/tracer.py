"""Outside-in spans around the public entry points of each repro layer.

The tracer wraps functions and methods at runtime, from the benchmark's own
process; no file of the program is changed.  A span is ``(id, parent,
name, start, end, pid)``; spans live in memory and are written out when the
run ends.  Pool workers forked after :func:`install` inherit the wrappers:
each one appends its spans to ``spans-<pid>.jsonl`` in the trace directory
whenever its outermost span closes, and the parent reads those files back.

A layer's self time is the summed duration of its spans minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span name prefix -> layer (the repo module the span enters).
LAYERS = {
    "traffic": "traffic",
    "topology": "topology",
    "plan": "exec.plan",
    "sched": "exec.scheduler",
    "runner": "simulation.runner",
    "engine": "simulation.engine",
    "core": "core",
    "store": "store",
}

#: Algorithm class -> registry name, for ``core.serve.<name>`` spans.
SERVE_CLASSES = {
    "RBMA": "rbma",
    "BMA": "bma",
    "ObliviousRouting": "oblivious",
    "StaticOfflineBMA": "so-bma",
    "UniformBMatching": "uniform",
    "HybridBMA": "hybrid",
}


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.spans: List[dict] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.root_pid

    def open(self) -> Tuple[int, Optional[int], float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, now()

    def close(self, name: str, token: Tuple[int, Optional[int], float], **attrs) -> None:
        span_id, parent, start = token
        end = now()
        self._stack.pop()
        span = {"id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "pid": os.getpid()}
        span.update(attrs)
        self.spans.append(span)
        if not self._stack and self.in_worker:
            self._spill()

    def _spill(self) -> None:
        """Append a worker's finished spans and counters to its own file."""
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            if self.counters:
                handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        self.spans = []
        self.counters = Counter()

    def collect_workers(self) -> None:
        """Merge every worker's spilled spans and counters into this process."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if "counters" in record:
                    self.counters.update(record["counters"])
                else:
                    self.spans.append(record)
            path.unlink()

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` recording one span per call, with ``attrs(*args)`` attached."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open()
            try:
                return fn(*args, **kwargs)
            finally:
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                tracer.close(name, token, **extra)

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Generator method ``fn`` with one span per produced item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                token = tracer.open()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(name, token)
                    return
                except BaseException:
                    tracer.close(name, token)
                    raise
                tracer.close(name, token)
                yield item

        return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that names ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _n_items(_self, requests, *args, **kwargs) -> dict:
    return {"n": len(requests)}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see ``LAYERS``).

    Must run before any pool forks, so that workers inherit the wrappers.
    """
    from repro.core import base as core_base
    from repro.experiments.specs import ExperimentSpec
    from repro.exec import plan, runtime, scheduler
    from repro.matching import static_solver
    from repro.simulation import engine, parallel, runner
    from repro.store.run_store import RunStore
    from repro.traffic.stream import TraceStream
    import repro.core as core

    def patch_function(module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original))

    def patch_method(cls, attr: str, name, attrs=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, attrs))

    patch_method(ExperimentSpec, "build_trace", "traffic.build")
    patch_method(ExperimentSpec, "build_stream", "traffic.build")
    setattr(TraceStream, "__iter__",
            tracer.wrap_iter("traffic.segment", TraceStream.__dict__["__iter__"]))
    patch_method(ExperimentSpec, "build_topology", "topology.build")
    patch_method(ExperimentSpec, "build_algorithm", "core.build")

    patch_function(plan, "build_execution_plan", "plan.build")
    patch_function(static_solver, "export_solver_rounds", "plan.presolve")

    patch_function(scheduler, "execute_plan", "sched.execute")
    patch_function(runtime, "run_task_specs", "sched.task")
    # Pool workers unpickle ``_worker`` by its name, which the wrapper keeps.
    parallel._worker = tracer.wrap("sched.worker", _counting_solver(tracer, parallel._worker))

    patch_function(runner, "execute_experiment_spec", "runner.execute")
    patch_function(engine, "run_simulation", "engine.run")
    patch_method(engine.StreamingSimulation, "feed", "engine.feed")
    patch_method(engine.StreamingSimulation, "finish", "engine.finish")

    for class_name, algo in SERVE_CLASSES.items():
        cls = getattr(core, class_name)
        patch_method(cls, "serve_batch", f"core.serve.{algo}", _n_items)
    for cls in (core_base.OnlineBMatchingAlgorithm, core.StaticOfflineBMA):
        patch_method(cls, "fit", "core.fit")

    patch_method(RunStore, "put", "store.write")
    patch_method(RunStore, "get", "store.read")


def _counting_solver(tracer: Tracer, fn: Callable) -> Callable:
    """``fn`` that, inside a forked worker, counts solver memo hits/misses."""
    from repro.matching import solver_cache_info

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.in_worker:
            return fn(*args, **kwargs)
        before = solver_cache_info()
        try:
            return fn(*args, **kwargs)
        finally:
            after = solver_cache_info()
            tracer.counters["solver_hits"] += after["hits"] - before["hits"]
            tracer.counters["solver_misses"] += after["misses"] - before["misses"]

    return wrapper


# -- aggregation -------------------------------------------------------


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def self_times(spans: Iterable[dict]) -> Dict[Tuple[int, int], float]:
    """``(pid, id)`` -> span duration minus the time its direct children cover."""
    spans = list(spans)
    own = {(s["pid"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[(s["pid"], s["parent"])] -= s["end"] - s["start"]
    return own


def outermost(spans: List[dict], prefix: str) -> List[dict]:
    """Spans named ``prefix*`` with no ancestor of the same prefix."""
    by_key = {(s["pid"], s["id"]): s for s in spans}

    def nested(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            ancestor = by_key.get((span["pid"], parent))
            if ancestor is None:
                return False
            if ancestor["name"].startswith(prefix):
                return True
            parent = ancestor["parent"]
        return False

    return [s for s in spans if s["name"].startswith(prefix) and not nested(s)]


def busy(spans: List[dict], prefix: str) -> float:
    """Wall time inside ``prefix*`` spans, counting nested ones once."""
    return sum(s["end"] - s["start"] for s in outermost(spans, prefix))


def layer_self(spans: List[dict], layer: str) -> float:
    own = self_times(spans)
    return sum(own[(s["pid"], s["id"])] for s in spans if layer_of(s["name"]) == layer)
