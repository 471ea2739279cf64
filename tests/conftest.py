import gc
import importlib.util
import json
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest

from ecofence import load_default_table, load_scenario, run_compare
from ecofence.coordinator import Powertrain
from ecofence.network import Edge, RoadNetwork, VehicleIndex


ROOT = Path(__file__).resolve().parent.parent


def data_path(name: str) -> Path:
    return Path(str(resources.files("ecofence") / "data" / name))


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
