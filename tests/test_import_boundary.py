"""Import boundary: the panel path never loads SciPy or NetworkX.

Every cold panel, CLI call and queue worker pays for ``import repro``; SciPy
and NetworkX used to be two thirds of it.  Only the ``nx`` solver oracle,
:class:`~repro.topology.ExpanderTopology` and ``Topology.graph`` may import
NetworkX, and nothing imports SciPy.  The checks run in fresh interpreters and
look at which modules were loaded, not at the clock, so they cannot flake on
a noisy host.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

HEAVY = ("scipy", "networkx")

_PANEL = textwrap.dedent(
    """
    import sys

    from repro.exec import build_execution_plan, execute_plan

    traffic = {"name": "facebook-database", "params": {"n_nodes": 16, "n_requests": 600}}
    specs = [
        {"algorithm": {"name": name, "b": 2, "alpha": 4.0, "params": params},
         "traffic": traffic, "topology": {"name": "fat-tree"}, "seed": 3}
        for name, params in (("rbma", {}), ("bma", {}), ("oblivious", {}),
                             ("so-bma", {"solver": "blossom"}))
    ]
    specs += [
        {"algorithm": {"name": name, "b": 2, "alpha": 4.0, "params": params},
         "traffic": dict(traffic, streaming=True), "seed": 3}
        for name, params in (("uniform", {}), ("hybrid", {"period": 50, "window": 100}))
    ]
    results = execute_plan(build_execution_plan(specs, store=False), backend="serial")
    assert len(results) == len(specs)
    assert all(r.total_routing_cost > 0 for r in results)
    print(" ".join(sorted({m.split(".")[0] for m in sys.modules})))
    """
)


def _env() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc


def test_fat_tree_panel_loads_neither_scipy_nor_networkx():
    loaded = set(_run("-c", _PANEL).stdout.split())
    assert "repro" in loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_cli_version_loads_neither_scipy_nor_networkx():
    proc = _run("-X", "importtime", "-m", "repro", "--version")
    assert proc.stdout.startswith("repro ")
    # ``-X importtime`` lists every imported module on stderr, one per line:
    # "import time: self [us] | cumulative | <indented module name>".
    imported = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro" in imported
    assert not imported & set(HEAVY), sorted(imported & set(HEAVY))
