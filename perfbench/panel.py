"""One cold panel in a fresh interpreter (child process of ``run.py``).

Usage::

    python3 perfbench/panel.py MODE --workload W --seed N --scale F --out FILE

``MODE`` is ``probe`` (import only), ``cold`` (untraced panel), ``traced``
(panel under the span tracer, then a fresh temp store and one warm re-plan)
or ``replay`` (each spec alone, materialized, on the ``reference`` kernel: the
independent cost oracle).  The first thing the process does is read the
clock, so the parent can time interpreter start-up and ``import repro``.
"""

from __future__ import annotations

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, workload_specs  # noqa: E402

REPLAY_WORKERS = 2


def signature(result) -> dict:
    """Everything a run computes, minus wall-clock and provenance stamps."""
    series = result.series
    return {
        "label": f"{result.algorithm} (b: {result.b})",
        "total_routing_cost": result.total_routing_cost,
        "total_reconfiguration_cost": result.total_reconfiguration_cost,
        "matched_fraction": result.matched_fraction,
        "n_requests": result.n_requests,
        "series": {
            "requests": series.requests.tolist(),
            "routing_cost": series.routing_cost.tolist(),
            "reconfiguration_cost": series.reconfiguration_cost.tolist(),
            "matched_fraction": series.matched_fraction.tolist(),
        },
    }


def outcomes(results) -> list:
    """Per-spec signature, or ``{"error": ...}`` for a failed spec."""
    from repro.exec import RunFailure

    out = []
    for result in results:
        if isinstance(result, RunFailure):
            out.append({"error": result.message})
        else:
            out.append(signature(result))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_panel(specs, backend: str, workers: int, store=False):
    from repro.exec import build_execution_plan, execute_plan

    started = tracing.now()
    plan = build_execution_plan(specs, store=store, on_error="collect")
    planned = tracing.now()
    results = execute_plan(plan, backend=backend, n_workers=workers)
    done = tracing.now()
    return results, started, planned, done


def cold(specs, backend: str, workers: int) -> dict:
    results, started, planned, done = run_panel(specs, backend, workers)
    return {
        "panel_s": done - started,
        "plan_s": planned - started,
        "done_at": done,
        "peak_rss_mb": peak_rss_mb(),
        "attempts": [r.extra.get("attempts", 1) for r in results
                     if hasattr(r, "extra")],
        "outcomes": outcomes(results),
    }


def traced(specs, backend: str, workers: int, work_dir: Path) -> dict:
    from repro.matching import solver_cache_info

    spill = work_dir / f"spill-{os.getpid()}"
    spill.mkdir(parents=True)
    recorder = tracing.Tracer(spill)
    tracing.install(recorder)
    before = solver_cache_info()
    results, started, planned, done = run_panel(specs, backend, workers)
    after = solver_cache_info()
    recorder.collect_workers()
    counters = dict(recorder.counters)
    counters["solver_hits"] = counters.get("solver_hits", 0) + after["hits"] - before["hits"]
    counters["solver_misses"] = (counters.get("solver_misses", 0)
                                 + after["misses"] - before["misses"])
    panel_spans = recorder.spans
    recorder.spans = []

    # Store layer: a fresh temp store written by a cold plan, then one warm
    # re-plan served from it.  Separate from the panel spans above.
    store_dir = work_dir / f"store-{os.getpid()}"
    try:
        run_panel(specs, backend, workers, store=str(store_dir))
        from repro.exec import build_execution_plan

        warm = build_execution_plan(specs, store=str(store_dir))
        store_hits = len(warm.cached)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(spill, ignore_errors=True)
    return {
        "panel_s": done - started,
        "plan_s": planned - started,
        "attempts": [r.extra.get("attempts", 1) for r in results
                     if hasattr(r, "extra")],
        "outcomes": outcomes(results),
        "spans": panel_spans,
        "store_spans": recorder.spans,
        "store_hits": store_hits,
        "counters": counters,
        "root_pid": os.getpid(),
    }


def replay_one(raw: dict) -> dict:
    """One spec, materialized, on the per-request ``reference`` kernel."""
    from repro.experiments import ExperimentSpec
    from repro.simulation.runner import execute_experiment_spec

    raw = json.loads(json.dumps(raw))
    raw["traffic"]["streaming"] = False
    raw["simulation"]["matching_backend"] = "reference"
    try:
        spec = ExperimentSpec.from_dict(raw)
        return signature(execute_experiment_spec(spec, store=False))
    except Exception as exc:  # noqa: BLE001 - reported as a failed spec
        return {"error": f"{type(exc).__name__}: {exc}"}


def replay(specs) -> dict:
    """The independent cost oracle: each spec run on its own, outside
    repro's planner and scheduler, on the ``reference`` kernel.  Two
    processes share the specs; this is never timed."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=REPLAY_WORKERS) as pool:
        return {"outcomes": list(pool.map(replay_one, specs))}


def provenance() -> dict:
    from repro.core.rng import resolve_rng_mode
    from repro.matching.numba_bmatching import numba_backend_active

    return {"rng_mode": resolve_rng_mode(None),
            "numba_active": bool(numba_backend_active()),
            "repro_version": getattr(repro, "__version__", None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "cold", "traced", "replay"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = {"started_at": STARTED, "imported_at": IMPORTED}
    if args.mode != "probe":
        from repro.experiments import ExperimentSpec

        raw = workload_specs(args.workload, args.seed, args.scale)
        _figure, backend, workers, _streamed, _scale = WORKLOADS[args.workload]
        if args.mode == "replay":
            record.update(replay(raw))
        else:
            specs = [ExperimentSpec.from_dict(spec) for spec in raw]
            if args.mode == "cold":
                record.update(cold(specs, backend, workers))
            else:
                record.update(traced(specs, backend, workers, args.work_dir))
        record["provenance"] = provenance()
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
