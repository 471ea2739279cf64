"""The immutable records, and the live vehicle record as a snapshot.

The records are NamedTuples with fixed field names, in order; most keep
those of the frozen dataclasses they replaced.  The coordinator must
decide the same way whether it reads the engine's live vehicle records
or test-local :class:`Snapshot` copies of them.
"""

import dataclasses

import pytest

from ecofence import coordinator, engine
from ecofence.coordinator import CommandRecord, FenceToss
from ecofence.engine import FenceTraceEntry, VehicleState, World, run, step
from ecofence.network import Edge, RoadNetwork, VehicleIndex
from ecofence.optimizer import ProblemEntry
from tests.conftest import Snapshot

RECORDS = {
    CommandRecord: (
        (
            "sim_time", "fence_id", "vehicle_id", "density", "emission_rate",
            "assignment", "draw", "commanded_mode", "effective_time",
        ),
        (1.0, "f", "v1", 2.0, 0.5, 0.25, 0.75, "electric", 1.0),
    ),
    ProblemEntry: (
        ("vehicle_id", "density", "emission_rate"),
        ("v1", 2.0, 0.5),
    ),
    FenceToss: (
        (
            "sim_time", "fence_id", "effective_time", "vehicle_ids", "densities", "rates",
            "assignments", "draws", "modes",
        ),
        (1.0, "f", 1.0, ("v1", "v2"), (2.0, 1.0), (0.5, 0.25), (0.5, 0.0), (0.75,), ("electric", "electric")),
    ),
    FenceTraceEntry: (
        ("fence_id", "center", "radius", "created_at", "last_detection_at", "member_ids"),
        ("f", (0.0, 1.0), 100.0, 0.0, 1.0, ("v1",)),
    ),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_its_fields_and_is_immutable(record):
    fields, values = RECORDS[record]
    assert record._fields == fields
    instance = record(*values)
    assert tuple(instance) == values
    assert instance == record(**dict(zip(fields, values)))
    with pytest.raises(AttributeError):
        setattr(instance, fields[0], values[0])
    with pytest.raises(AttributeError):
        instance.extra = 1


def test_vehicle_record_mode_defaults_to_polluting(table):
    network = RoadNetwork(edges={"e1": Edge("e1", ((0.0, 0.0), (100.0, 0.0)), 36.0)})
    record = VehicleState(vehicle_id="v1", euro_class=4, table=table, route=("e1",), edge=network.edge("e1"))
    assert record.mode == "polluting"


def recording_controller(controller, steps, as_snapshots):
    """A subclass of ``controller`` that logs every ``step`` result;
    optionally it copies the engine's vehicle records into snapshots first."""

    class Recording(controller):
        def step(self, now, snapshots, background_level, index):
            assert all(isinstance(v, VehicleState) for v in snapshots.values())
            if as_snapshots:
                snapshots = {
                    vid: Snapshot(
                        v.vehicle_id, v.position, v.emission_rate, v.powertrain, v.density_weight
                    )
                    for vid, v in snapshots.items()
                }
            commands = super().step(now, snapshots, background_level, index)
            steps.append(commands)
            return commands

    return Recording


@pytest.mark.parametrize("variant", ["demo_ring", "demo_lifecycle", "single_vehicle"])
def test_coordinator_decides_alike_on_records_and_snapshots(
    variant, demo_ring, demo_lifecycle, monkeypatch
):
    scenario = demo_lifecycle if variant == "demo_lifecycle" else demo_ring
    if variant == "single_vehicle":
        scenario = dataclasses.replace(scenario, single_vehicle=True)
    outcomes = []
    for as_snapshots in (False, True):
        steps = []
        # wrap both controllers, so the one run builds is the one recorded
        for name in ("GeofenceCoordinator", "SingleVehicleController"):
            recording = recording_controller(getattr(coordinator, name), steps, as_snapshots)
            monkeypatch.setattr(engine, name, recording)
        outcomes.append((steps, run(scenario, 42)))
    (record_steps, by_records), (snapshot_steps, by_snapshots) = outcomes
    assert any(record_steps)
    assert record_steps == snapshot_steps
    assert by_records.commands == by_snapshots.commands
    assert by_records == by_snapshots


def test_record_reads_speed_and_density_only_from_the_edge_it_is_on(table):
    # e1 is slow and cycled, e2 fast and uncycled; at 36 km/h a vehicle
    # covers 10 m per 1 s step
    network = RoadNetwork(
        edges={
            "e1": Edge("e1", ((0.0, 0.0), (100.0, 0.0)), 36.0, density_weight=3.0),
            "e2": Edge("e2", ((100.0, 0.0), (200.0, 50.0)), 72.0, density_weight=1.5),
        }
    )
    route = ("e1", "e2")
    world = World(network=network, table=table, index=VehicleIndex(network, 100.0))
    specs = {
        "crosses": dict(edge_offset=95.0),
        "stays": dict(edge_offset=10.0),
        "pinned": dict(edge_offset=95.0, speed_override=20.0),
    }
    for vid, spec in specs.items():
        world.add_vehicle(
            VehicleState(
                vehicle_id=vid, euro_class=4, table=table, route=route, edge=network.edge("e1"), **spec
            )
        )
    assert [(v.speed, v.density_weight) for v in world.vehicles.values()] == [
        (36.0, 3.0), (36.0, 3.0), (20.0, 3.0)
    ]
    step(world, 1.0)
    read = {vid: (v.edge.edge_id, v.speed, v.density_weight) for vid, v in world.vehicles.items()}
    assert read == {
        "crosses": ("e2", 72.0, 1.5),
        "stays": ("e1", 36.0, 3.0),
        "pinned": ("e2", 20.0, 1.5),
    }
    crosses = world.vehicles["crosses"]
    assert crosses.edge_offset == 5.0
    assert crosses.position == network.edge("e2").position_at(5.0)
    assert world.vehicles["stays"].edge_offset == 20.0
    assert world.vehicles["stays"].position == (20.0, 0.0)
    # the next step moves the crossed vehicle at the new edge's speed
    step(world, 1.0)
    assert crosses.edge_offset == 5.0 + 72.0 / 3.6
