"""Execution planning and scheduler backends: the plan → scheduler → results
plane contract (see :mod:`repro.exec`).

* :func:`build_execution_plan` canonicalizes mixed spec inputs, serves
  run-store hits before dispatch, aliases duplicate fingerprints within a
  plan, and groups shared-workload specs into lockstep tasks; SO-BMA
  demand is solved in the task that runs it, never in the planner.
* :func:`execute_plan` on the ``serial`` backend is the reference: results
  must be bit-identical to direct ``execute_experiment_spec`` runs, every computed
  result carries ``extra["scheduler_backend"]``/``["attempts"]``
  provenance, and ``on_error="collect"`` turns failures into
  :class:`RunFailure` records without discarding completed work.
* ``REPRO_WORKERS`` supplies worker-count defaults (explicit wins).

Pure-logic and serial-backend tests run everywhere; nothing here spawns a
pool or a subprocess (the pool backend runs in-process with one worker) (the subprocess-backed queue tier lives in
``tests/test_exec_queue.py`` under the ``sched`` marker).
"""

from __future__ import annotations

import json
from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError, WorkerExecutionError
from repro.exec import (
    PlanTask,
    RunFailure,
    build_execution_plan,
    execute_plan,
    resolve_backend_name,
    resolve_worker_count,
    run_specs,
)
from repro.exec.scheduler import _pool_units
from repro.experiments import ExperimentSpec
from repro.matching import static_solver
from repro.simulation import parallel as parallel_mod
from repro.simulation.results import RunResult
from repro.simulation.runner import execute_experiment_spec
from repro.store import RunStore, fingerprint_spec

SEED = 2023


def _spec(name="rbma", seed=SEED, **traffic_overrides):
    params = {"n_nodes": 10, "n_requests": 200, **traffic_overrides}
    return ExperimentSpec(
        algorithm={"name": name, "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": params},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _so_bma_spec(seed=SEED, b=3):
    return ExperimentSpec(
        algorithm={"name": "so-bma", "b": b, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 200}},
        simulation={"checkpoints": 4},
        seed=seed,
    )


def _failing_spec():
    """Validates, then explodes inside the engine (positions past the trace)."""
    return ExperimentSpec(
        algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
        traffic={"name": "zipf", "params": {"n_nodes": 10, "n_requests": 40}},
        simulation={"checkpoint_positions": [999]},
        seed=5,
    )


def _assert_series_identical(a, b):
    assert np.array_equal(a.series.requests, b.series.requests)
    assert np.array_equal(a.series.routing_cost, b.series.routing_cost)
    assert np.array_equal(a.series.reconfiguration_cost, b.series.reconfiguration_cost)
    assert np.array_equal(a.series.matched_fraction, b.series.matched_fraction)
    assert a.total_routing_cost == b.total_routing_cost


# --------------------------------------------------------------------------- #
# Plan construction
# --------------------------------------------------------------------------- #


class TestPlanConstruction:
    def test_mixed_inputs_canonicalize_and_group_by_shared_trace(self):
        mapping = _spec("bma").to_dict()
        specs = [_spec("rbma"), mapping, _spec("oblivious", seed=SEED + 1)]
        plan = build_execution_plan(specs, store=False)
        assert all(isinstance(s, ExperimentSpec) for s in plan.specs)
        assert plan.specs[1] == _spec("bma")
        # rbma and the bma mapping share (workload, params, seed); the
        # reseeded oblivious spec gets its own task.
        assert plan.describe() == {
            "specs": 3,
            "pending": 3,
            "cached": 0,
            "aliased": 0,
            "tasks": 2,
        }
        assert plan.tasks[0].indices == (0, 1)
        assert plan.tasks[1].indices == (2,)

    def test_unseeded_specs_never_share_a_task(self):
        specs = [_spec(seed=None), _spec(seed=None)]
        plan = build_execution_plan(specs, store=False)
        assert len(plan.tasks) == 2  # fresh entropy per run: sharing would correlate

    def test_task_payload_round_trips_through_json(self):
        plan = build_execution_plan([_spec("rbma"), _spec("bma")], store=False)
        payload = json.loads(json.dumps(plan.tasks[0].to_payload()))
        rebuilt = PlanTask.from_payload(payload)
        assert rebuilt.task_id == plan.tasks[0].task_id
        assert rebuilt.indices == plan.tasks[0].indices
        assert rebuilt.specs == plan.tasks[0].specs

    def test_on_error_mode_is_validated(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            build_execution_plan([_spec()], store=False, on_error="ignore")


class TestStoreDedupe:
    def test_warm_entries_are_served_before_dispatch(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = _spec("rbma")
        [cold] = run_specs([spec], store=store)
        plan = build_execution_plan([spec, _spec("bma")], store=store)
        assert plan.describe()["cached"] == 1
        assert plan.describe()["pending"] == 1
        [hit, computed] = execute_plan(plan, backend="serial")
        _assert_series_identical(hit, cold)
        assert computed.algorithm == "bma"

    def test_duplicate_fingerprints_execute_once_and_alias(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = _spec("rbma")
        plan = build_execution_plan([spec, spec, _spec("bma")], store=store)
        assert plan.describe()["aliased"] == 1
        assert plan.describe()["pending"] == 2
        results = execute_plan(plan, backend="serial")
        assert len(results) == 3
        _assert_series_identical(results[0], results[1])
        # One store entry per distinct fingerprint, not per input slot.
        assert store.contains(fingerprint_spec(spec))
        assert len(store.list_runs()) == 2


class TestSolveInTask:
    """SO-BMA demand is solved by the task that runs it, never by the planner."""

    def test_planning_solves_nothing(self):
        static_solver.solver_cache_clear()
        build_execution_plan([_so_bma_spec(), _spec("rbma")], store=False)
        assert static_solver.solver_cache_info()["misses"] == 0

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_execution_solves_the_shared_demand_once(self, backend):
        # Two SO-BMA specs of one task aggregate the same demand; the pool
        # keeps them in one unit (one worker runs in-process here), so the
        # memo misses once on either backend.
        specs = [_so_bma_spec(b=3), _spec("rbma"), _so_bma_spec(b=6)]
        plan = build_execution_plan(specs, store=False)
        static_solver.solver_cache_clear()
        results = execute_plan(plan, backend=backend, n_workers=1)
        assert static_solver.solver_cache_info()["misses"] == 1
        assert results[0].extra["scheduler_backend"] == backend
        static_solver.solver_cache_clear()
        _assert_series_identical(results[0], _so_bma_spec(b=3).execute())
        static_solver.solver_cache_clear()
        _assert_series_identical(results[2], _so_bma_spec(b=6).execute())

    def test_a_cold_solve_is_recorded_as_a_miss(self):
        static_solver.solver_cache_clear()
        [result] = execute_plan(
            build_execution_plan([_so_bma_spec()], store=False), backend="serial"
        )
        assert result.extra["solver_cache"] == "miss"

    def test_pool_units_put_a_tasks_so_bma_specs_first_and_together(self):
        specs = [_spec("rbma"), _so_bma_spec(b=3), _spec("bma"), _so_bma_spec(b=6),
                 _spec("oblivious", seed=SEED + 1), _spec("no-such-algorithm")]
        plan = build_execution_plan(specs, store=False)
        units = _pool_units(plan.tasks)
        assert [indices for indices, _specs in units] == [
            (1, 3), (0,), (2,), (5,), (4,)
        ]
        assert [s.algorithm.b for s in units[0][1]] == [3, 6]

    def test_v1_payload_with_a_solver_key_still_parses(self):
        plan = build_execution_plan([_so_bma_spec(), _spec("rbma")], store=False)
        payload = json.loads(json.dumps(plan.tasks[0].to_payload()))
        assert "solver" not in payload
        payload["solver"] = [{"version": 1, "rounds": []}]
        rebuilt = PlanTask.from_payload(payload)
        assert rebuilt == plan.tasks[0]

    def test_serial_plan_builds_the_shared_trace_once(self, monkeypatch):
        # Every spec of a task replays one trace from the per-process cache.
        monkeypatch.setattr(parallel_mod, "_TRACE_CACHE", OrderedDict())
        static_solver.solver_cache_clear()
        builds = []
        real_build = ExperimentSpec.build_trace

        def counting_build(self, *args, **kwargs):
            builds.append(self.algorithm.name)
            return real_build(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentSpec, "build_trace", counting_build)
        plan = build_execution_plan([_so_bma_spec(), _spec("rbma")], store=False)
        results = execute_plan(plan, backend="serial")
        assert all(isinstance(r, RunResult) for r in results)
        assert len(builds) == 1


# --------------------------------------------------------------------------- #
# Serial backend: reference semantics
# --------------------------------------------------------------------------- #


class TestSerialBackend:
    def test_serial_matches_legacy_sequential_execution(self):
        specs = [_spec(name) for name in ("rbma", "bma", "oblivious")]
        results = execute_plan(build_execution_plan(specs, store=False))
        for spec, result in zip(specs, results):
            _assert_series_identical(result, execute_experiment_spec(spec))

    def test_results_carry_scheduler_provenance(self):
        [result] = run_specs([_spec()], n_workers=1)
        assert result.extra["scheduler_backend"] == "serial"
        assert result.extra["attempts"] == 1

    def test_raise_mode_propagates_with_spec_context(self):
        with pytest.raises(WorkerExecutionError) as excinfo:
            run_specs([_spec(), _failing_spec()], n_workers=1)
        message = str(excinfo.value)
        assert "failing spec" in message
        assert '"seed": 5' in message

    def test_collect_mode_keeps_completed_work(self):
        ok = _spec("rbma")
        results = run_specs([ok, _failing_spec(), _spec("bma")],
                            n_workers=1, on_error="collect")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[2], RunResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.index == 1
        assert failure.error_type == "SimulationError"
        assert failure.scheduler_backend == "serial"
        assert failure.spec["seed"] == 5
        assert "checkpoint_positions reach 999" in failure.message
        assert failure.to_dict()["attempts"] == 1

    def test_streaming_specs_take_the_rich_path_and_stay_identical(self):
        bulk = _spec("rbma", n_requests=300)
        streamed = ExperimentSpec(
            algorithm={"name": "rbma", "b": 3, "alpha": 4.0},
            traffic={"name": "zipf",
                     "params": {"n_nodes": 10, "n_requests": 300},
                     "streaming": True, "chunk_size": 64},
            simulation={"checkpoints": 4},
            seed=SEED,
        )
        [a] = execute_plan(build_execution_plan([bulk], store=False))
        [b] = execute_plan(build_execution_plan([streamed], store=False))
        _assert_series_identical(a, b)


# --------------------------------------------------------------------------- #
# Worker-count and backend resolution
# --------------------------------------------------------------------------- #


class TestWorkerResolution:
    def test_explicit_count_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(None) == 7

    def test_falsey_tokens_fall_back(self, monkeypatch):
        for token in ("", "0", "off", "none"):
            monkeypatch.setenv("REPRO_WORKERS", token)
            assert resolve_worker_count(None, fallback=2) == 2

    def test_invalid_environment_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_worker_count(None, fallback=1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_worker_count(None, fallback=1) == 1

    def test_worker_count_must_be_positive(self):
        with pytest.raises(SimulationError, match="n_workers"):
            resolve_worker_count(0)

    def test_backend_defaults_follow_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_backend_name(None, 1) == "serial"
        assert resolve_backend_name(None, None) == "serial"
        assert resolve_backend_name(None, 4) == "pool"
        assert resolve_backend_name("serial", 4) == "serial"

    def test_unknown_backend_suggests_a_name(self):
        with pytest.raises(ConfigurationError, match="serial"):
            resolve_backend_name("serail", 1)
