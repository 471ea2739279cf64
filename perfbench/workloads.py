"""Benchmark workloads: deterministic tilings of the bundled demo ring.

Nothing is downloaded.  Each workload is built from
``src/ecofence/data/demo_ring.json`` and written as an ordinary scenario
file that the program loads with its own ``load_scenario``.  The tilings
are fixed; the workload seed is passed to the program as its ``--seed``
(a sweep's first seed), so the same seed gives the same inputs and the
same run.

Why each workload exists is recorded in ``BENCHMARK.json``; in short:

* ``ring_dense``: one fence holds every vehicle at every step, so the
  coordinator, the optimizer and the emission model do the work.
* ``grid_sparse``: sixteen disjoint rings, so detection's
  cyclists x vehicles scan and the per-fence membership test do the work.
  Tiles sit 400 m apart; a fence reaches at most 100 m beyond its tile,
  so fences never overlap (overlapping fences are a known defect and get
  their own workload once it is fixed).
* ``demo_sweep``: the 14-vehicle demo over 16 seeds on two processes, so
  per-run fixed costs and the process pool dominate.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("ring_dense", "grid_sparse", "demo_sweep")

# A quarter of the demo's 640 s: short operations give many replays of the
# same work within one run, which the best-of-replays timing needs.  The
# dense fleet is all on the road after 11 s, and the grid's background
# stretch and the restores after it fit.
HORIZON = 160.0
RING_DENSE_VEHICLES = 250
RING_DENSE_SPAWN_GAP = 0.25  # seconds between consecutive copies of the fleet
GRID_SIDE = 4
GRID_PITCH = 400.0  # metres between tile origins
SWEEP_SEEDS = 16
SWEEP_JOBS = 2
# grid_sparse background: rises above the 1.0 g/min limit for a stretch,
# so the all-electric rule runs and vehicles are restored afterwards.
GRID_BACKGROUND = [[0.0, 0.2], [50.0, 1.4], [80.0, 0.3]]


def demo_path(root: Path) -> Path:
    return root / "src" / "ecofence" / "data" / "demo_ring.json"


def load_demo(root: Path) -> dict:
    with open(demo_path(root), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _copy_vehicle(entry: dict, copy: int, prefix: str, spawn_shift: float) -> dict:
    out = dict(entry)
    out["vehicle_id"] = f"{prefix}c{copy:02d}-{entry['vehicle_id']}"
    out["spawn_time"] = entry["spawn_time"] + spawn_shift
    out["route"] = [prefix + edge for edge in entry["route"]]
    return out


def ring_dense(demo: dict) -> dict:
    """The demo fleet tiled to 250 vehicles on the one demo ring."""
    fleet = []
    base = demo["fleet"]
    for i in range(RING_DENSE_VEHICLES):
        copy, entry = divmod(i, len(base))
        fleet.append(_copy_vehicle(base[entry], copy, "", copy * RING_DENSE_SPAWN_GAP))
    scenario = dict(demo)
    scenario["name"] = "bench-ring-dense"
    scenario["horizon"] = HORIZON
    scenario["fleet"] = fleet
    scenario["control"] = dict(demo["control"], tau=1.0)
    return scenario


def _shift_edge(edge: dict, prefix: str, dx: float, dy: float) -> dict:
    out = dict(edge)
    out["edge_id"] = prefix + edge["edge_id"]
    out["points"] = [[x + dx, y + dy] for x, y in edge["points"]]
    return out


def grid_sparse(demo: dict) -> dict:
    """Sixteen copies of the demo ring, 4 x 4 and 400 m apart, one cyclist each."""
    edges, fleet, cyclists = [], [], []
    cyclist = demo["cyclist"]
    for tile in range(GRID_SIDE * GRID_SIDE):
        prefix = f"t{tile:02d}_"
        row, col = divmod(tile, GRID_SIDE)
        dx, dy = col * GRID_PITCH, row * GRID_PITCH
        edges.extend(_shift_edge(e, prefix, dx, dy) for e in demo["network"]["edges"])
        fleet.extend(_copy_vehicle(entry, 0, prefix, 0.0) for entry in demo["fleet"])
        tiled = dict(cyclist)
        tiled["cyclist_id"] = prefix + cyclist["cyclist_id"]
        tiled["route"] = [prefix + edge for edge in cyclist["route"]]
        cyclists.append(tiled)
    control = dict(demo["control"], tau=5.0, actuation_latency=5.0, background=GRID_BACKGROUND)
    return {
        "name": "bench-grid-sparse",
        "horizon": HORIZON,
        "dt": demo["dt"],
        "network": {"edges": edges},
        "fleet": fleet,
        "cyclists": cyclists,
        "control": control,
    }


def scenario_for(workload: str, demo: dict) -> dict:
    """Scenario document of a workload; ``demo_sweep`` uses the demo as is."""
    if workload == "ring_dense":
        return ring_dense(demo)
    if workload == "grid_sparse":
        return grid_sparse(demo)
    if workload == "demo_sweep":
        return demo
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def scenario_bytes(workload: str, demo: dict) -> bytes:
    return (json.dumps(scenario_for(workload, demo), indent=1, sort_keys=True) + "\n").encode()


def write_scenario(workload: str, root: Path, path: Path) -> Path:
    path.write_bytes(scenario_bytes(workload, load_demo(root)))
    return path


def cli_args(workload: str, scenario: Path, seed: int, out: Path, traced: bool = False) -> list[str]:
    """Arguments of ``ecofence.cli.main`` for one operation of the workload.

    A traced ``demo_sweep`` runs on one process so its spans stay in the
    process that records them.
    """
    if workload == "ring_dense":
        return ["compare", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]
    if workload == "grid_sparse":
        return ["run", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out)]
    if workload == "demo_sweep":
        jobs = 1 if traced else SWEEP_JOBS
        seeds = f"{seed}..{seed + SWEEP_SEEDS - 1}"
        return [
            "sweep", "--scenario", str(scenario), "--seeds", seeds,
            "--jobs", str(jobs), "--out", str(out),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
