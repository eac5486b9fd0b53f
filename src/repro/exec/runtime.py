"""Task-group execution shared by every scheduler backend.

A :class:`~repro.exec.plan.PlanTask` groups specs that share a workload and
a seed; :func:`run_task_specs` executes such a group in one process:

* a multi-spec group of streaming specs replays **one** shared stream
  through every algorithm in lockstep (:func:`run_shared_stream`, the
  engine behind the sequential ``compare_on_shared_trace``);
* otherwise the shared trace is materialized once — or taken from the
  per-process trace cache — and each spec replays it (bit-identical to the
  streamed path and to fully independent execution, since the trace depends
  only on the traffic spec and the spawned seed).

SO-BMA specs solve their aggregate demand here, in the task that runs them:
the solve is the algorithm's ``fit``, so it is timed in the run's
``total_elapsed_seconds``, and specs of one task sharing a demand reuse
the per-process solver memo.

The serial and queue backends call it once per task group; pool workers
call it once per dispatch unit — one spec, or a task's SO-BMA specs
together (:func:`repro.simulation.parallel._worker`).

Failures follow the :class:`~repro.errors.WorkerExecutionError` contract —
the failing spec's JSON travels in the message — and ``collect`` turns
per-spec failures into :class:`TaskError` records instead of aborting the
rest of the group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import WorkerExecutionError
from ..experiments.observers import SimulationObserver
from ..experiments.specs import ExperimentSpec
from ..simulation.engine import StreamingSimulation, run_simulation
from ..simulation.parallel import _cached_trace, _describe_spec
from ..simulation.results import RunResult
from ..simulation.runner import execute_experiment_spec
from ..traffic.base import Trace
from ..traffic.stream import TraceStream

__all__ = ["TaskError", "run_task_specs", "run_shared_stream"]


@dataclass(frozen=True)
class TaskError:
    """One spec's terminal failure inside a task group (picklable/JSON-safe)."""

    message: str
    error_type: str

    def to_dict(self) -> dict:
        return {"message": self.message, "error_type": self.error_type}


Outcome = Union[RunResult, TaskError]


def _wrap_failure(exc: Exception, spec: ExperimentSpec) -> WorkerExecutionError:
    """The pool-worker error contract: error plus the failing spec's JSON."""
    if isinstance(exc, WorkerExecutionError):
        return exc
    return WorkerExecutionError(
        f"worker failed with {type(exc).__name__}: {exc}; "
        f"failing spec: {_describe_spec(spec)}"
    )


def run_task_specs(
    specs: Sequence[ExperimentSpec],
    observers: Sequence[SimulationObserver] = (),
    collect: bool = False,
    max_attempts: int = 1,
) -> List[Tuple[Outcome, int]]:
    """Execute one task group; returns ``(outcome, attempts)`` per spec in order.

    With ``collect=False`` the first terminal failure raises
    :class:`WorkerExecutionError`; with ``collect=True`` it becomes a
    :class:`TaskError` in that spec's slot and the rest of the group still
    runs.  ``max_attempts`` retries a failing spec (or, for a lockstep
    streamed group, the whole group) before the failure is terminal.
    """
    specs = list(specs)
    observers = tuple(observers)
    max_attempts = max(1, max_attempts)
    if len(specs) > 1 and all(s.traffic.streaming for s in specs):
        attempts = 0
        while True:
            attempts += 1
            try:
                results = run_shared_stream(specs, observers)
                return [(result, attempts) for result in results]
            except Exception as exc:  # noqa: BLE001 - re-raised with spec context
                if attempts < max_attempts:
                    continue
                if not collect:
                    raise _wrap_failure(exc, specs[0]) from exc
                return [
                    (
                        TaskError(
                            message=str(_wrap_failure(exc, spec)),
                            error_type=type(exc).__name__,
                        ),
                        attempts,
                    )
                    for spec in specs
                ]

    outcomes: List[Tuple[Outcome, int]] = []
    shared_trace: Optional[Trace] = None
    for spec in specs:
        attempts = 0
        while True:
            attempts += 1
            try:
                if spec.traffic.streaming and len(specs) == 1:
                    # A solo streamed spec keeps its bounded-memory path; the
                    # plan owns the store, so force a cold execution here.
                    result = execute_experiment_spec(
                        spec, observers=observers, store=False
                    )
                else:
                    if shared_trace is None:
                        shared_trace = _cached_trace(spec)
                    result = execute_experiment_spec(
                        spec, trace=shared_trace, observers=observers
                    )
                outcomes.append((result, attempts))
                break
            except Exception as exc:  # noqa: BLE001 - re-raised with spec context
                if attempts < max_attempts:
                    continue
                failure = _wrap_failure(exc, spec)
                if not collect:
                    raise failure from exc
                outcomes.append(
                    (
                        TaskError(message=str(failure), error_type=type(exc).__name__),
                        attempts,
                    )
                )
                break
    return outcomes


def run_shared_stream(
    seeded: Sequence[ExperimentSpec],
    observers: Sequence[SimulationObserver] = (),
) -> List[RunResult]:
    """Replay one shared workload stream through several algorithms at once.

    The stream is generated exactly once: :meth:`TraceStream.tee` fans the
    segments out with bounded lookahead and the per-algorithm streaming
    drivers are fed in lockstep (one segment each per round), so peak memory
    stays bounded by the chunk size.  Algorithms that need the whole trace
    up front (``requires_full_trace``) share a single materialized copy
    assembled from one extra tee branch.  Results are bit-identical to
    replaying a materialized shared trace.
    """
    observers = tuple(observers)
    stream = seeded[0].build_stream()
    algorithms = []
    configs = []
    for spec in seeded:
        topology = spec.build_topology(stream)
        algorithms.append(spec.build_algorithm(topology))
        configs.append(replace(spec.simulation, seed=spec.seed))
    online = [i for i, a in enumerate(algorithms) if not a.requires_full_trace]
    offline = [i for i, a in enumerate(algorithms) if a.requires_full_trace]
    children = stream.tee(len(online) + (1 if offline else 0))
    drivers = {
        i: StreamingSimulation(
            algorithms[i],
            stream.metadata,
            config=configs[i],
            observers=observers,
            n_requests=stream.n_requests,
            source=children[k],
        )
        for k, i in enumerate(online)
    }
    collected: List[Trace] = []
    iterators = [iter(child) for child in children]
    for segments in zip(*iterators):
        for k, i in enumerate(online):
            drivers[i].feed(segments[k])
        if offline:
            collected.append(segments[-1])
    results: List[Optional[RunResult]] = [None] * len(seeded)
    for i in online:
        results[i] = replace(drivers[i].finish(), spec=seeded[i].to_dict())
    if offline:
        full = TraceStream(collected, stream.metadata).materialize()
        for i in offline:
            result = run_simulation(
                algorithms[i], full, configs[i], observers=observers
            )
            results[i] = replace(result, spec=seeded[i].to_dict())
    return results  # type: ignore[return-value]  # every slot is filled above
