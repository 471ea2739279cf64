import gc
import importlib.util
import json
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest

from ecofence import load_default_table, load_scenario, run_compare
from ecofence.coordinator import CommandRecord, FenceToss, Powertrain
from ecofence.network import Edge, RoadNetwork, VehicleIndex


ROOT = Path(__file__).resolve().parent.parent


def data_path(name: str) -> Path:
    return Path(str(resources.files("ecofence") / "data" / name))


# demo_ring mixes for mixed_demo_ring: v01 and v06 pure EVs and v03 pure
# ICE, all three in the fence on most ticks, so tosses and restores
# interleave; and the single-vehicle golden run's v01 and v02 pure EVs and
# v03 and v04 pure ICE
FENCE_MIX = {"v01": "pure_ev", "v03": "pure_ice", "v06": "pure_ev"}
SINGLE_VEHICLE_MIX = {"v01": "pure_ev", "v02": "pure_ev", "v03": "pure_ice", "v04": "pure_ice"}


def mixed_demo_ring(path: Path, powertrains: dict[str, str], **control) -> Path:
    """Write demo_ring to ``path`` with the vehicles named in
    ``powertrains`` given those powertrains and ``control`` merged into its
    control block; returns ``path``."""
    demo = json.loads(data_path("demo_ring.json").read_text())
    for entry in demo["fleet"]:
        entry["powertrain"] = powertrains.get(entry["vehicle_id"], entry["powertrain"])
    demo["control"] = dict(demo["control"], **control)
    path.write_text(json.dumps(demo))
    return path


def bench_workloads():
    """The benchmark's scenario generator, ``perfbench/workloads.py``,
    imported from its file (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_scenario(workload: str, path: Path) -> Path:
    """Write a benchmark workload's scenario file to ``path``, as the benchmark does."""
    return bench_workloads().write_scenario(workload, ROOT, path)


class Snapshot(NamedTuple):
    """A vehicle as the coordinator reads it, without the engine's record:
    the attributes of ``VehicleState`` that a coordinator step reads, and
    the position ``index_of`` places it at."""

    vehicle_id: str
    position: tuple[float, float]
    emission_rate: float
    powertrain: Powertrain
    density_weight: float


def index_of(records, cell: float = 100.0) -> VehicleIndex:
    """The kind of proximity index ``engine.run`` keeps, holding
    ``records``: each on a 1 m edge of its own that starts at its
    ``position``.  Any cell size serves, since the index only prunes."""
    edges = {
        vid: Edge(vid, (record.position, (record.position[0] + 1.0, record.position[1])), 30.0)
        for vid, record in records.items()
    }
    index = VehicleIndex(RoadNetwork(edges=edges), cell)
    for vid, record in records.items():
        index.add(vid, record, vid)
    return index


def tosses(commands) -> list[FenceToss]:
    """The fence tosses of a command log, one per decision, in log order."""
    return [entry for entry in commands if type(entry) is FenceToss]


def command_rows(commands) -> list[CommandRecord]:
    """Every row of a command log as its own ``CommandRecord``, in log
    order, for comparing a log with a reference that logs one record per
    row.  A toss's row takes the next of the toss's ``draws`` when its x
    lies strictly between 0 and 1, and None otherwise; every draw must be
    used.  Written apart from ``reporting.write_commands_csv``, so that a
    test of the writer against these rows does not test it against
    itself."""
    rows = []
    for entry in commands:
        if type(entry) is not FenceToss:
            rows.append(entry)
            continue
        drawn = 0
        for i, vehicle_id in enumerate(entry.vehicle_ids):
            x = entry.assignments[i]
            draw = None
            if 0.0 < x < 1.0:
                draw = entry.draws[drawn]
                drawn += 1
            rows.append(
                CommandRecord(
                    entry.sim_time,
                    entry.fence_id,
                    vehicle_id,
                    entry.densities[i],
                    entry.rates[i],
                    x,
                    draw,
                    entry.modes[i],
                    entry.effective_time,
                )
            )
        assert drawn == len(entry.draws), f"{entry.fence_id} at {entry.sim_time}: draws left unused"
    return rows


@pytest.fixture(autouse=True)
def collector_setting_kept():
    """Fail a test that leaves automatic garbage collection switched
    differently from how it found it, after switching it back, so that a
    paused collector cannot leak into later tests."""
    was_on = gc.isenabled()
    yield
    if gc.isenabled() is not was_on:
        gc.enable() if was_on else gc.disable()
        pytest.fail(f"the test left automatic garbage collection {'off' if was_on else 'on'}")


@pytest.fixture(scope="session")
def table():
    return load_default_table()


@pytest.fixture(scope="session")
def demo_ring():
    return load_scenario(data_path("demo_ring.json"))


@pytest.fixture(scope="session")
def demo_slack():
    return load_scenario(data_path("demo_slack.json"))


@pytest.fixture(scope="session")
def demo_lifecycle():
    return load_scenario(data_path("demo_lifecycle.json"))


@pytest.fixture(scope="session")
def ring_dense(tmp_path_factory):
    """The benchmark's ring_dense scenario: the demo fleet tiled to 250 vehicles."""
    return load_scenario(bench_scenario("ring_dense", tmp_path_factory.mktemp("bench") / "ring_dense.json"))


@pytest.fixture(scope="session")
def demo_ring_compare(demo_ring):
    """One shared control-vs-baseline run of the bundled demo (seed 42)."""
    return run_compare(demo_ring, 42)


@pytest.fixture()
def demo_ring_dict():
    return json.loads(data_path("demo_ring.json").read_text())
