"""Unified execution stack: plan -> scheduler -> results plane.

:func:`run_specs` is the one way to run a list of specs: ``run``,
``run_many`` and ``compare_on_shared_trace`` on the experiment runner,
``run_experiments``, ``run_sweep``, the benchmark harness and the CLI all
go through it.  It resolves the worker count (explicit argument, then
``REPRO_WORKERS``, then 1) and the backend, attaches observers only on the
serial backend, and drives the same three layers:

1. **Planner** (:mod:`repro.exec.plan`): :func:`build_execution_plan`
   canonicalizes specs and spec mappings, serves run-store hits before any
   dispatch, and groups shared-trace comparisons into lockstep task
   groups.  It solves nothing: offline SO-BMA demand is solved in the task
   that runs it, so the solve is timed in that run's elapsed seconds.
2. **Scheduler** (:mod:`repro.exec.scheduler`): :data:`SCHEDULER_BACKENDS`
   maps a backend name (``"serial"``, ``"pool"``, ``"queue"``) to a plan
   executor; :func:`execute_plan` dispatches and reassembles results in
   input order.
3. **Results plane**: computed results flow back through the run store
   (parent-owned writes for serial/pool, worker-owned writes plus a parent
   merge for the queue), each stamped with
   ``extra["scheduler_backend"]``/``extra["attempts"]`` provenance.

Results are bit-identical to sequential execution on every backend: specs
travel as JSON, workers rebuild traces deterministically from spawned
seeds, and provenance stamping never touches the cost series.
"""

from .plan import ExecutionPlan, PlanTask, RunFailure, build_execution_plan
from .queue import WorkQueue, run_worker
from .scheduler import (
    ENV_WORKERS,
    SCHEDULER_BACKENDS,
    execute_plan,
    resolve_backend_name,
    resolve_worker_count,
    run_specs,
)

__all__ = [
    "ExecutionPlan",
    "PlanTask",
    "RunFailure",
    "build_execution_plan",
    "SCHEDULER_BACKENDS",
    "ENV_WORKERS",
    "execute_plan",
    "run_specs",
    "resolve_backend_name",
    "resolve_worker_count",
    "WorkQueue",
    "run_worker",
]
