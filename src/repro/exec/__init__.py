"""Unified execution stack: plan -> scheduler -> results plane.

Every execution entry point (``run_many``, ``compare_on_shared_trace``,
``run_experiments``, ``run_sweep``, ``run_specs_parallel``, the benchmark
harness, and the CLI) funnels through the same three layers:

1. **Planner** (:mod:`repro.exec.plan`): :func:`build_execution_plan`
   canonicalizes legacy/structured specs, serves run-store hits before any
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
)

__all__ = [
    "ExecutionPlan",
    "PlanTask",
    "RunFailure",
    "build_execution_plan",
    "SCHEDULER_BACKENDS",
    "ENV_WORKERS",
    "execute_plan",
    "resolve_backend_name",
    "resolve_worker_count",
    "WorkQueue",
    "run_worker",
]
