"""Process-pool sharding of run specs.

The simulation itself is a sequential replay (exactly as in the paper:
"Each simulation is run sequentially. Hence, no parallelism is used during
the execution of the proposed algorithm"), but every figure panel and
ablation is a grid of independent (algorithm × degree-bound × repetition)
runs — embarrassingly parallel work.  This module is the pool backend's
fan-out (:func:`_execute_batch`), reached through
:func:`repro.exec.run_specs` by every entry point that runs a grid.

Sharding model
--------------
* **Specs travel, objects don't.**  A unit of work is one picklable
  :class:`~repro.experiments.specs.ExperimentSpec` — plain names and numbers.
  Traces, topologies, and algorithms are rebuilt *inside* the worker from
  the spec's spawned seeds, so a sharded run is bit-identical to the same
  specs executed sequentially: trace generation depends only on
  ``(traffic spec, trace seed)`` and algorithm randomness only on the
  spawned algorithm seed.  :func:`_execute_batch` preserves input order
  in its results.
* **Workers start clean.**  The pool uses an explicit spawn-safe
  initializer (:func:`_init_worker`): it imports the registries in the
  child — so the fan-out works identically whether the platform forks or
  spawns, without relying on inherited module state — and it seeds
  nothing, so worker identity can never leak into results.
* **One task body.**  A pool unit runs :func:`_worker`, which is
  :func:`repro.exec.runtime.run_task_specs` on the unit's specs — the same
  function the serial backend calls per task group in-process — so retry,
  failure wrapping and trace reuse behave identically on every backend.
  A unit is one spec, or a task's full-trace (SO-BMA) specs together: they
  solve their shared demand once, in the worker, inside their own runs.
* **Per-process caches stay warm.**  Within one worker, consecutive specs
  that share a workload reuse the generated trace (a small LRU keyed by
  traffic spec and trace seed), and :meth:`TopologySpec.build
  <repro.experiments.specs.TopologySpec.build>` memoises built topologies
  per process.  The default ``chunksize`` hands each worker several
  consecutive specs at a time so those caches actually hit when many small
  specs are submitted (figure panels enumerate all algorithms of one
  repetition consecutively, sharing one trace).
* **The parent owns the run store.**  With a store active, fingerprints
  are looked up in the parent before dispatch (hits never reach the pool)
  and miss results are written back by the parent after they return —
  workers compute and return, they never touch store files, so the
  spawn-safe "specs travel, objects don't" contract is untouched and no
  cross-process write coordination is needed.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..experiments.specs import ExperimentSpec

if TYPE_CHECKING:
    from ..exec.runtime import Outcome

__all__ = ["default_worker_count", "default_chunksize"]

#: Environment default for worker counts, in the family of ``REPRO_RUN_STORE``
#: and ``REPRO_RNG_MODE``: consulted only when no explicit ``n_workers`` is
#: passed (an explicit argument always wins).
ENV_WORKERS = "REPRO_WORKERS"

#: Tokens treated as "unset" so ``REPRO_WORKERS=off`` reads naturally in
#: wrapper scripts (matching the run store's disable convention).
_ENV_FALSEY = {"", "0", "off", "false", "no", "none", "disabled"}


def _env_worker_count() -> Optional[int]:
    """The ``REPRO_WORKERS`` default, or ``None`` when unset/disabled."""
    raw = os.environ.get(ENV_WORKERS)
    if raw is None or raw.strip().lower() in _ENV_FALSEY:
        return None
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {ENV_WORKERS}={raw!r}: not an integer",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if value < 1:
        warnings.warn(
            f"ignoring {ENV_WORKERS}={raw!r}: worker count must be >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value


def default_worker_count() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else CPU count minus one."""
    env = _env_worker_count()
    if env is not None:
        return env
    return max(1, (os.cpu_count() or 2) - 1)


def default_chunksize(n_specs: int, n_workers: int) -> int:
    """Specs handed to a worker at a time when the caller does not pin one.

    Large enough that many small specs amortise task dispatch (and hit the
    per-worker trace/topology caches on consecutive specs), small enough
    that every worker gets several chunks for load balancing.
    """
    return max(1, n_specs // (max(1, n_workers) * 4))


#: Per-process LRU of generated traces, keyed by (workload name, generator
#: params, trace seed).  Figure panels run every algorithm against the same
#: workload, so with chunked dispatch a worker regenerates each trace once
#: instead of once per spec.  Bounded: traces can be millions of requests.
_TRACE_CACHE: "OrderedDict[tuple, Any]" = OrderedDict()
_TRACE_CACHE_MAX = 4

#: Batch-scoped execution context for :func:`_execute_batch`.  Pool workers
#: receive one unit of specs per call (:func:`_worker`), so scheduler policy
#: (collect-vs-raise error handling, retry budget) travels out of band: the
#: scheduler sets it around a batch, and the pool initializer ships a
#: snapshot to every child via ``initargs``.
_DEFAULT_EXEC_CONTEXT: Dict[str, Any] = {
    "collect": False,
    "max_attempts": 1,
}
_EXEC_CONTEXT: Dict[str, Any] = dict(_DEFAULT_EXEC_CONTEXT)


def _set_exec_context(collect: bool = False, max_attempts: int = 1) -> None:
    """Install batch policy for subsequent :func:`_execute_batch` calls."""
    _EXEC_CONTEXT.update(
        collect=bool(collect),
        max_attempts=max(1, int(max_attempts)),
    )


def _reset_exec_context() -> None:
    """Restore the default single-attempt, raise-on-error batch policy."""
    _EXEC_CONTEXT.clear()
    _EXEC_CONTEXT.update(_DEFAULT_EXEC_CONTEXT)


def _init_worker(context: Optional[Mapping[str, Any]] = None) -> None:
    """Spawn-safe pool initializer.

    Imports the domain registries in the child process (a no-op under fork,
    required under spawn) and starts from empty per-process caches.  It
    deliberately seeds nothing: all randomness must flow from the specs'
    spawned seeds so results are independent of which worker ran a spec.
    ``context`` is the parent's :data:`_EXEC_CONTEXT` snapshot.
    """
    from .. import core, topology, traffic  # noqa: F401  (registry population)

    _TRACE_CACHE.clear()
    _reset_exec_context()
    if context:
        _set_exec_context(**context)


def _trace_cache_key(spec) -> Optional[tuple]:
    """The spec's :data:`_TRACE_CACHE` key, or ``None`` when it must not be cached."""
    trace_seed = spec.run_seeds()[0]
    if trace_seed is None:
        # Unseeded specs draw fresh entropy per run; caching would turn
        # independent workloads into copies of one draw.
        return None
    key = (spec.traffic.name, tuple(sorted(spec.traffic.params.items())), trace_seed)
    try:
        hash(key)
    except TypeError:  # unhashable generator params: rebuild every time
        return None
    return key


def _share_trace(spec, trace: Any) -> None:
    """Insert ``trace`` as the spec's cached workload, evicting the oldest."""
    key = _trace_cache_key(spec)
    if key is None:
        return
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)


def _cached_trace(spec) -> Any:
    """The spec's trace, rebuilt deterministically and memoised per process."""
    key = _trace_cache_key(spec)
    trace = None if key is None else _TRACE_CACHE.get(key)
    if trace is None:
        trace = spec.build_trace()
    _share_trace(spec, trace)
    return trace


def _describe_spec(spec) -> str:
    """The spec's JSON (algorithm/topology/seed, ...) for error context."""
    try:
        return json.dumps(spec.to_dict(), sort_keys=True, default=repr)
    except Exception:  # pragma: no cover - description must never mask the real error
        return repr(spec)


def _worker(unit: Sequence[ExperimentSpec]) -> List[Tuple[Outcome, int]]:
    """Execute one unit of specs in a pool worker; ``(outcome, attempts)`` each.

    The body is the serial backend's per-task function,
    :func:`repro.exec.runtime.run_task_specs`, so a spec fails, retries and
    reports the same way on either backend: a terminal failure raises
    :class:`~repro.errors.WorkerExecutionError` carrying the spec's JSON
    (diagnosable from the parent alone) or, under the batch context's
    ``collect`` policy, becomes a :class:`~repro.exec.runtime.TaskError`
    record.
    """
    from ..exec.runtime import run_task_specs

    return run_task_specs(
        unit,
        collect=bool(_EXEC_CONTEXT["collect"]),
        max_attempts=int(_EXEC_CONTEXT["max_attempts"]),
    )


def _check_picklable(specs: Sequence[ExperimentSpec]) -> None:
    """Fail fast, with the offending spec named, before the pool dispatches."""
    for i, spec in enumerate(specs):
        try:
            clone = pickle.loads(pickle.dumps(spec))
        except Exception as exc:
            raise SimulationError(
                f"spec #{i} ({spec!r}) cannot be shipped to a worker process: "
                f"pickling failed with {type(exc).__name__}: {exc}"
            ) from exc
        if clone != spec:
            raise SimulationError(
                f"spec #{i} ({spec!r}) does not round-trip through pickle; "
                "parallel execution would run a different experiment"
            )


def _execute_batch(
    units: Sequence[Sequence[ExperimentSpec]], workers: int, chunksize: Optional[int]
) -> List[List[Tuple[Outcome, int]]]:
    """Run ``units`` in-process or across a pool, preserving input order.

    The pool backend's dispatch seam, with batch policy carried by
    :data:`_EXEC_CONTEXT`.  Returns the ``(outcome, attempts)`` pairs of
    each unit, one per spec.
    """
    if workers == 1 or len(units) == 1:
        return [_worker(unit) for unit in units]
    _check_picklable([spec for unit in units for spec in unit])
    if chunksize is None:
        chunksize = default_chunksize(len(units), workers)
    ctx = mp.get_context("spawn") if os.name == "nt" else mp.get_context()
    with ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(dict(_EXEC_CONTEXT),),
    ) as pool:
        return list(pool.map(_worker, [list(unit) for unit in units], chunksize=chunksize))
