import json
from importlib import resources
from pathlib import Path

import pytest

from ecofence import load_default_table, load_scenario, run_compare
from ecofence.network import SpatialHash


def data_path(name: str) -> Path:
    return Path(str(resources.files("ecofence") / "data" / name))


def grid_of(records, cell: float = 100.0) -> SpatialHash:
    """The proximity index ``engine.run`` builds per step, over ``records``
    at their positions; any cell size serves, since the hash only prunes."""
    return SpatialHash(cell, ((vid, record.position) for vid, record in records.items()))


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
def demo_ring_compare(demo_ring):
    """One shared control-vs-baseline run of the bundled demo (seed 42)."""
    return run_compare(demo_ring, 42)


@pytest.fixture()
def demo_ring_dict():
    return json.loads(data_path("demo_ring.json").read_text())
