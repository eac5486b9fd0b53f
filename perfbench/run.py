"""The repo benchmark: cold figure panels, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-serial --seed 2023 --seconds 25 --trace 0

Each run spawns fresh interpreters (``perfbench/panel.py``) for ``--seconds``
seconds, one cold panel per process, and reports medians.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced panels and prints the per-layer metrics.
Every run checks every spec's costs before it reports anything: against
``pins.json`` on the pinned seed, and against a serial ``reference``-kernel
replay on any other seed (and always for the pooled workload, bit for bit).
The last line of standard output is one JSON object; the full record,
spans included, goes to ``perfbench/out/``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, workload_specs  # noqa: E402

PANEL = HERE / "panel.py"
OUT_DIR = HERE / "out"
PINS = HERE / "pins.json"

#: Untimed warm-up spawns (byte-compile caches), then timed import probes.
WARMUP_SPAWNS = 1
SETUP_PROBES = 2
#: Fewest panels (of each kind, when tracing) a run makes, however long they take.
MIN_PANELS = 3
MIN_TRACED_PANELS = 2
IMPORTTIME_SPAWNS = 3
#: Wall-clock limit of a whole run; a child still running at it is killed.
RUN_LIMIT_S = 170.0

#: Every environment knob that changes what executes, pinned to its default.
PINNED_ENV = {
    "REPRO_RNG_MODE": "counter",
    "REPRO_SOLVER_CACHE": "16",
    "REPRO_NO_NUMBA": "1",
    "PYTHONHASHSEED": "0",
}

#: Modules whose cumulative ``-X importtime`` cost is reported.
IMPORT_LAYERS = ("numpy", "scipy", "networkx")

END_TO_END = {
    "setup_s": "s",
    "panel_s": "s",
    "cold_s": "s",
    "requests_per_s": "req/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result at all (exit 2, no JSON line)."""


def child_env() -> tuple[Dict[str, str], List[str]]:
    """Environment for every child: ``REPRO_*`` scrubbed, knobs pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    scrubbed = sorted(k for k in os.environ
                      if k.startswith("REPRO_") and os.environ[k] != PINNED_ENV.get(k))
    env.update(PINNED_ENV)
    return env, scrubbed


def remaining(started: float) -> float:
    """Seconds left of the run's wall-clock limit (at least one)."""
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))


class Spawner:
    """Runs ``panel.py`` children and returns their records."""

    def __init__(self, args, env: Dict[str, str], work: Path):
        self.args = args
        self.env = env
        self.work = work
        self.count = 0
        self.started = time.monotonic()

    def run(self, mode: str) -> dict:
        self.count += 1
        out = self.work / f"{mode}-{self.count}.json"
        argv = [sys.executable, str(PANEL), mode,
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--scale", repr(self.args.scale), "--work-dir", str(self.work),
                "--out", str(out)]
        spawned = tracing.now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _stdout, stderr = proc.communicate(timeout=remaining(self.started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} child still running at the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{stderr[-4000:]}")
        record = json.loads(out.read_text())
        out.unlink()
        record["spawned_at"] = spawned
        return record


def import_breakdown(env: Dict[str, str], started: float) -> Dict[str, float]:
    """Seconds ``import repro`` spends importing each heavy third-party package.

    Sums the ``-X importtime`` cumulative time of the package's outermost
    entries: those with no ancestor import from the same package, so each
    import of the package is counted once, with what it pulled in.
    """
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import repro"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=remaining(started))
    if proc.returncode != 0:
        raise BenchError(f"importtime probe failed:\n{proc.stderr[-4000:]}")
    entries = []  # (indent, package, cumulative seconds), in output order
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2]
        indent = len(name) - len(name.lstrip())
        entries.append((indent, name.strip().split(".")[0], int(fields[1]) / 1e6))
    # Output is post-order: an entry's parent is the next entry at a smaller
    # indent.  Walking backwards, ``open_`` holds the current ancestor chain.
    totals = dict.fromkeys(IMPORT_LAYERS, 0.0)
    open_: List[tuple] = []
    for indent, package, cumulative in reversed(entries):
        while open_ and open_[-1][0] >= indent:
            open_.pop()
        if package in totals and all(p != package for _i, p in open_):
            totals[package] += cumulative
        open_.append((indent, package))
    return {f"setup.{name}_s": totals[name] for name in IMPORT_LAYERS}


# -- correctness -------------------------------------------------------

PIN_KEYS = ("total_routing_cost", "total_reconfiguration_cost", "matched_fraction")


def load_pins(path: Path, workload: str, seed: int, scale: float) -> Optional[list]:
    """The pinned per-spec costs for this run, or ``None`` if none apply."""
    if not path.exists():
        return None
    pins = json.loads(path.read_text())
    entry = pins["workloads"].get(workload)
    if pins["seed"] != seed or entry is None or entry["scale"] != scale:
        return None
    return entry["specs"]


def check_outcomes(outcomes: list, pins: Optional[list],
                   replayed: Optional[list]) -> Dict[int, str]:
    """Spec index -> why its outcome fails a check (empty: all pass)."""
    problems: Dict[int, str] = {}
    for i, outcome in enumerate(outcomes):
        if "error" in outcome:
            problems[i] = f"raised: {outcome['error']}"
            continue
        if pins is not None:
            pinned = pins[i]
            got = [outcome[k] for k in PIN_KEYS]
            want = [pinned[k] for k in PIN_KEYS]
            if pinned["label"] != outcome["label"] or got != want:
                problems[i] = f"{outcome['label']}: costs {got} != pinned {want}"
                continue
        if replayed is not None and outcome != replayed[i]:
            problems[i] = (f"{outcome['label']}: differs from the serial "
                           "reference-kernel replay")
    return problems


# -- metrics -----------------------------------------------------------


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def layer_metrics(panel: dict) -> Dict[str, float]:
    """Per-layer numbers from one traced panel (spans from every process)."""
    spans = panel["spans"]
    store_spans = panel["store_spans"]
    root = [s for s in spans if s["pid"] == panel["root_pid"]]
    own = tracing.self_times(root)
    serve = tracing.outermost(spans, "core.serve")
    counters = panel["counters"]
    lookups = counters["solver_hits"] + counters["solver_misses"]
    reads = [s for s in store_spans if s["name"] == "store.read"]

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    metrics = {
        "traffic.build_s": tracing.busy(spans, "traffic."),
        "traffic.builds": count("traffic.build"),
        "topology.build_s": tracing.busy(spans, "topology."),
        "topology.builds": count("topology.build"),
        "plan.build_s": tracing.busy(spans, "plan.build"),
        "plan.presolve_s": tracing.busy(spans, "plan.presolve"),
        "plan.presolve_calls": count("plan.presolve"),
        "matching.solver_hits": counters["solver_hits"],
        "matching.solver_misses": counters["solver_misses"],
        "matching.solver_hit_ratio": counters["solver_hits"] / lookups if lookups else 0.0,
        "sched.execute_s": tracing.busy(spans, "sched.execute"),
        "sched.self_s": tracing.layer_self(spans, "exec.scheduler"),
        "sched.attempts": sum(panel["attempts"]),
        "runner.self_s": tracing.layer_self(spans, "simulation.runner"),
        "engine.run_s": tracing.busy(spans, "engine."),
        "engine.self_s": tracing.layer_self(spans, "simulation.engine"),
        "engine.segments": len(serve),
        "core.fit_s": tracing.busy(spans, "core.fit"),
        "core.build_s": tracing.busy(spans, "core.build"),
        "core.requests": sum(s.get("n", 0) for s in serve),
    }
    for algo in tracing.SERVE_CLASSES.values():
        metrics[f"core.serve_s.{algo}"] = sum(
            s["end"] - s["start"] for s in serve if s["name"] == f"core.serve.{algo}")
    metrics.update({
        "store.write_s": tracing.busy(store_spans, "store.write"),
        "store.writes": sum(1 for s in store_spans if s["name"] == "store.write"),
        "store.read_s": tracing.busy(store_spans, "store.read"),
        "store.reads": len(reads),
        "store.hit_ratio": panel["store_hits"] / len(reads) if reads else 0.0,
        "trace.panel_s": panel["panel_s"],
        "trace.coverage": sum(own.values()) / panel["panel_s"],
    })
    return metrics


PER_LAYER_UNITS = {
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.networkx_s": "s",
    "traffic.build_s": "s", "traffic.builds": "count",
    "topology.build_s": "s", "topology.builds": "count",
    "plan.build_s": "s", "plan.presolve_s": "s", "plan.presolve_calls": "count",
    "matching.solver_hits": "count", "matching.solver_misses": "count",
    "matching.solver_hit_ratio": "fraction",
    "sched.execute_s": "s", "sched.self_s": "s", "sched.attempts": "count",
    "runner.self_s": "s",
    "engine.run_s": "s", "engine.self_s": "s", "engine.segments": "count",
    **{f"core.serve_s.{algo}": "s" for algo in tracing.SERVE_CLASSES.values()},
    "core.fit_s": "s", "core.build_s": "s", "core.requests": "count",
    "store.write_s": "s", "store.writes": "count", "store.read_s": "s",
    "store.reads": "count", "store.hit_ratio": "fraction",
    "trace.panel_s": "s", "trace.overhead_s": "s", "trace.coverage": "fraction",
}


# -- the run -----------------------------------------------------------


def measure(args, spawner: Spawner, env: Dict[str, str]) -> dict:
    for _ in range(WARMUP_SPAWNS):
        spawner.run("probe")
    probes = [spawner.run("probe") for _ in range(SETUP_PROBES)]
    modes = ("cold", "traced") if args.trace else ("cold",)
    minimum = MIN_TRACED_PANELS if args.trace else MIN_PANELS
    panels: Dict[str, List[dict]] = {mode: [] for mode in modes}
    deadline = time.monotonic() + args.seconds
    spawned = 0
    while time.monotonic() < deadline or any(len(p) < minimum for p in panels.values()):
        mode = modes[spawned % len(modes)]
        panels[mode].append(spawner.run(mode))
        spawned += 1
    imports = ([import_breakdown(env, spawner.started) for _ in range(IMPORTTIME_SPAWNS)]
               if args.trace else [])
    return {"probes": probes, "cold": panels["cold"], "traced": panels.get("traced", []),
            "imports": imports}


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}; run from a repo checkout")
    env, scrubbed = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    spawner = Spawner(args, env, work)
    try:
        samples = measure(args, spawner, env)
        panels = samples["cold"] + samples["traced"]
        pins = None if args.write_pins else load_pins(args.pins, args.workload,
                                                      args.seed, args.scale)
        _figure, backend, workers, streamed, _scale = WORKLOADS[args.workload]
        needs_replay = pins is None or backend != "serial"
        replayed = spawner.run("replay")["outcomes"] if needs_replay else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_specs = len(workload_specs(args.workload, args.seed, args.scale))
    problems: List[str] = []
    for k, panel in enumerate(panels):
        for i, why in sorted(check_outcomes(panel["outcomes"], pins, replayed).items()):
            problems.append(f"panel {k} spec #{i} {why}")
    attempted = n_specs * len(panels)
    failed = len(problems)
    if args.write_pins and not problems:
        write_pins(args, replayed)

    cold = samples["cold"]
    setup = [p["imported_at"] - p["spawned_at"] for p in samples["probes"] + panels]
    requests = [sum(o.get("n_requests", 0) for o in p["outcomes"]) for p in cold]
    e2e = {
        "setup_s": median(setup),
        "panel_s": median([p["panel_s"] for p in cold]),
        "cold_s": median([p["done_at"] - p["spawned_at"] for p in cold]),
        "requests_per_s": median([r / p["panel_s"] for r, p in zip(requests, cold)]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in cold]),
    }
    counts = {"setup_s": len(setup), "panel_s": len(cold), "cold_s": len(cold),
              "requests_per_s": len(cold), "peak_rss_mb": len(cold)}
    layers: Dict[str, float] = {}
    if args.trace:
        per_panel = [layer_metrics(p) for p in samples["traced"]]
        imports = samples["imports"]
        layers = {name: median([m[name] for m in per_panel]) for name in per_panel[0]}
        layers.update({name: median([m[name] for m in imports]) for name in imports[0]})
        layers["trace.overhead_s"] = layers["trace.panel_s"] - e2e["panel_s"]

    provenance = dict(panels[0]["provenance"])
    provenance.update({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
        "scrubbed_env": scrubbed,
        "worker_spans": "forked pool workers inherit the wrappers" if backend == "pool"
                        else "single process",
        "backend": backend,
        "workers": workers,
        "streamed": streamed,
    })
    error_rate = failed / attempted
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "check": "pins" if pins is not None else "replay",
        "replayed": replayed is not None,
        "error_rate": error_rate, "problems": problems,
        "metrics": e2e, "samples": counts, "layers": layers,
        "provenance": provenance,
        "panels": [{k: v for k, v in p.items() if k != "outcomes"} for p in panels],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"backend {backend} workers {workers} panels {len(panels)} "
          f"check {record['check']}{'+replay' if replayed is not None and pins else ''} "
          f"rng_mode {provenance['rng_mode']} numba_active {provenance['numba_active']} "
          f"nproc {provenance['nproc']} python {provenance['python']}")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:12.6g} {END_TO_END[name]:<8} (median, n={counts[name]})")
    print(f"  {'error_rate':<22} {error_rate:12.6g} {'fraction':<8} "
          f"({failed} of {attempted} specs)")
    for name, value in layers.items():
        print(f"  {name:<28} {value:12.6g} {PER_LAYER_UNITS[name]}")
    print(f"  record: {out.relative_to(ROOT)}")

    chosen = layers if args.trace else e2e
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0 if not problems else 1


def write_pins(args, replayed: list) -> None:
    """Record the replay's per-spec costs as this workload's pins."""
    path = args.pins
    pins = json.loads(path.read_text()) if path.exists() else {}
    if pins.get("seed") != args.seed:
        pins = {"seed": args.seed, "workloads": {}}
    pins["workloads"][args.workload] = {
        "scale": args.scale,
        "specs": [{"label": o["label"], **{k: o[k] for k in PIN_KEYS}} for o in replayed],
    }
    path.write_text(json.dumps(pins, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float,
                        help="fraction of the paper's request counts (default: the "
                             "workload's own; tests shrink it)")
    parser.add_argument("--pins", type=Path, default=PINS)
    parser.add_argument("--write-pins", action="store_true",
                        help="check against the replay and store its costs as pins")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = WORKLOADS[args.workload][4]
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
