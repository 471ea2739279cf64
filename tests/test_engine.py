import dataclasses
import random

import pytest

from ecofence import engine
from ecofence.coordinator import CommandRecord, ControllerConfig, GeofenceCoordinator, Powertrain
from ecofence.engine import (
    CyclistState,
    VehicleState,
    VehicleTraceEntry,
    World,
    _trace_row,
    detect,
    run,
    step,
)
from ecofence.network import Edge, RoadNetwork
from ecofence.scenario import parse_scenario
from tests.conftest import grid_of


def straight_network(length=1000.0, speed=36.0, weight=1.0):
    edge = Edge(
        edge_id="e1",
        points=((0.0, 0.0), (length, 0.0)),
        speed_limit=speed,
        density_weight=weight,
    )
    return RoadNetwork(edges={"e1": edge})


def two_edge_network():
    return RoadNetwork(
        edges={
            "e1": Edge("e1", ((0.0, 0.0), (100.0, 0.0)), 36.0),
            "e2": Edge("e2", ((100.0, 0.0), (200.0, 0.0)), 36.0),
        }
    )


def world_with(network, table, vehicles=(), cyclists=()):
    world = World(network=network, table=table)
    for v in vehicles:
        world.vehicles[v.vehicle_id] = v
    for c in cyclists:
        world.cyclists[c.cyclist_id] = c
    return world


def vehicle(network, table, vid="v1", route=("e1",), **kwargs):
    return VehicleState(
        vehicle_id=vid, euro_class=4, table=table, route=route, edge=network.edge(route[0]), **kwargs
    )


def cyclist_on(network, offset=0.0, speed=15.0):
    edge = network.edge("e1")
    return CyclistState(cyclist_id="c1", route=("e1",), speed=speed, edge=edge, edge_offset=offset)


def test_step_advances_ten_metres(table):
    network = straight_network()
    world = world_with(network, table, [vehicle(network, table)])
    step(world, 1.0)
    assert world.vehicles["v1"].edge_offset == pytest.approx(10.0)
    assert world.now == 1.0


def test_step_crosses_edges(table):
    network = two_edge_network()
    world = world_with(network, table, [vehicle(network, table, route=("e1", "e2"), edge_offset=95.0)])
    step(world, 1.0)
    assert world.vehicles["v1"].edge is network.edge("e2")
    assert world.vehicles["v1"].edge_offset == pytest.approx(5.0)


def test_emission_rate_is_read_on_entering_each_edge(table):
    # three speed limits along one route; a pinned speed keeps one rate
    network = RoadNetwork(
        edges={
            "e1": Edge("e1", ((0.0, 0.0), (30.0, 0.0)), 36.0),
            "e2": Edge("e2", ((30.0, 0.0), (90.0, 0.0)), 72.0),
            "e3": Edge("e3", ((90.0, 0.0), (120.0, 0.0)), 18.0),
        }
    )
    route = ("e1", "e2", "e3")
    free = vehicle(network, table, "free", route=route)
    pinned = vehicle(network, table, "pinned", route=route, speed_override=20.0)
    electric = VehicleState(
        vehicle_id="electric", euro_class=1, table=table, route=route, edge=network.edge("e1"), mode="electric"
    )
    world = world_with(network, table, [free, pinned, electric])
    pinned_rate = pinned.emission_rate
    free_rates = set()
    for _ in range(40):
        for v in world.vehicles.values():
            assert v.emission_rate == table.rate(v.euro_class, v.speed)
        if "free" in world.vehicles:
            free_rates.add(free.emission_rate)
        if "pinned" in world.vehicles:
            assert pinned.emission_rate == pinned_rate
        if not world.vehicles:
            break
        step(world, 1.0)
    assert not world.vehicles
    assert free_rates == {table.rate(4, speed) for speed in (36.0, 72.0, 18.0)}
    assert len(free_rates) == 3
    assert pinned_rate == table.rate(4, 20.0)


def test_step_removes_arrived_vehicle(table):
    network = straight_network(length=5.0)
    world = world_with(network, table, [vehicle(network, table)])
    step(world, 1.0)
    assert world.vehicles == {}


def test_step_rejects_nonpositive_dt(table):
    world = world_with(straight_network(), table)
    with pytest.raises(ValueError):
        step(world, 0.0)
    with pytest.raises(ValueError):
        step(world, -1.0)


def command(vehicle_id, commanded_mode, sim_time, effective_time):
    """A command row that enacts no assignment, as a restore logs it."""
    return CommandRecord(
        sim_time, "c1", vehicle_id, None, None, None, None, commanded_mode, effective_time
    )


def test_step_applies_due_commands_only(table):
    network = straight_network()
    world = world_with(network, table, [vehicle(network, table)])
    world.pending_commands = [command("v1", "electric", sim_time=0.0, effective_time=2.0)]
    step(world, 1.0)
    assert world.vehicles["v1"].mode == "polluting"
    step(world, 1.0)
    assert world.vehicles["v1"].mode == "electric"
    assert world.pending_commands == []


def test_step_guards_powertrains(table):
    network = straight_network()
    ev = vehicle(network, table, "ev", powertrain=Powertrain.PURE_EV, mode="electric")
    ice = vehicle(network, table, "ice", powertrain=Powertrain.PURE_ICE)
    world = world_with(network, table, [ev, ice])
    world.pending_commands = [
        command("ev", "polluting", 0.0, 0.0),
        command("ice", "electric", 0.0, 0.0),
    ]
    step(world, 1.0)
    assert world.vehicles["ev"].mode == "electric"
    assert world.vehicles["ice"].mode == "polluting"


@pytest.mark.parametrize("single_vehicle", [False, True], ids=["fences", "single_vehicle"])
def test_engine_queues_the_rows_the_coordinator_logged(single_vehicle, demo_ring, monkeypatch):
    # a 5 s latency on 1 s steps keeps commands queued for several steps
    controller = dataclasses.replace(demo_ring.controller, actuation_latency=5.0)
    scenario = dataclasses.replace(demo_ring, controller=controller, single_vehicle=single_vehicle)
    returned_rows = []
    queue_lengths = []

    def logging_step(original):
        def step(self, now, snapshots, background_level, grid):
            start = len(self.command_log)
            rows = original(self, now, snapshots, background_level, grid)
            appended = self.command_log[start:]
            assert len(rows) == len(appended)
            assert all(row is logged for row, logged in zip(rows, appended))
            returned_rows.extend(rows)
            return rows

        return step

    for name in ("GeofenceCoordinator", "SingleVehicleController"):
        cls = getattr(engine, name)
        monkeypatch.setattr(cls, "step", logging_step(cls.step))

    original_trace_row = engine._trace_row

    def checked_trace_row(world, coordinator, background_level):
        # called once per step, after the step's commands were queued
        logged = {id(row) for row in coordinator.command_log}
        assert all(id(command) in logged for command in world.pending_commands)
        queue_lengths.append(len(world.pending_commands))
        return original_trace_row(world, coordinator, background_level)

    monkeypatch.setattr(engine, "_trace_row", checked_trace_row)
    result = run(scenario, 42)
    assert len(queue_lengths) == scenario.steps()
    assert max(queue_lengths) > 0
    assert result.commands
    assert list(result.commands) == returned_rows
    assert all(row is logged for row, logged in zip(returned_rows, result.commands))


def test_cyclist_parks_at_route_end(table):
    network = straight_network(length=5.0)
    world = world_with(network, table, cyclists=[cyclist_on(network, speed=36.0)])
    step(world, 1.0)
    assert world.cyclists["c1"].finished
    assert world.cyclists["c1"].position() == (5.0, 0.0)
    step(world, 1.0)  # stays parked
    assert world.cyclists["c1"].edge_offset == 5.0


def test_detect_within_range(table):
    network = straight_network()
    near = vehicle(network, table, "near", edge_offset=45.0)
    far = vehicle(network, table, "far", edge_offset=500.0)
    world = world_with(network, table, [near, far], [cyclist_on(network, offset=50.0)])
    grid = grid_of(world.vehicles)
    assert detect(world, 10.0, grid) == [("c1", "near")]
    assert detect(world, 1.0, grid) == []
    with pytest.raises(ValueError):
        detect(world, 0.0, grid)


def test_detect_orders_by_vehicle_id(table):
    network = straight_network()
    a = vehicle(network, table, "a", edge_offset=48.0)
    b = vehicle(network, table, "b", edge_offset=52.0)
    world = world_with(network, table, [b, a], [cyclist_on(network, offset=50.0)])
    assert detect(world, 10.0, grid_of(world.vehicles)) == [("c1", "a"), ("c1", "b")]


def trace_rates(world, fence_center=None):
    """(total_rate, in_fence_rate) of the trace row for a hand-built world,
    with one fence at ``fence_center`` if given."""
    coordinator = GeofenceCoordinator(ControllerConfig(), random.Random(0), control_enabled=False)
    if fence_center is not None:
        coordinator.on_detection("f", fence_center, world.now)
    coordinator.step(world.now, world.vehicles, 0.0, grid_of(world.vehicles))
    row = _trace_row(world, coordinator, 0.0)
    return row.total_rate, row.in_fence_rate


def test_aggregate_all_electric_is_zero(table):
    network = straight_network()
    v1 = vehicle(network, table, "v1", mode="electric")
    v2 = vehicle(network, table, "v2", mode="electric")
    world = world_with(network, table, [v1, v2])
    assert trace_rates(world, (0.0, 0.0)) == (0.0, 0.0)


def test_aggregate_restricted_to_fence(table):
    network = straight_network()
    inside = vehicle(network, table, "in")
    outside = vehicle(network, table, "out", edge_offset=500.0)
    world = world_with(network, table, [inside, outside])
    total, in_fence = trace_rates(world, (0.0, 0.0))
    single, _ = trace_rates(world_with(network, table, [vehicle(network, table, "only")]))
    assert total == pytest.approx(2 * single)
    assert in_fence == pytest.approx(single)


def test_aggregate_mixed_modes_recompute(table):
    from ecofence.emissions import vehicle_emission_rate

    network = straight_network(speed=30.0)
    polluting = vehicle(network, table, "p", mode="polluting")
    electric = vehicle(network, table, "e", mode="electric")
    world = world_with(network, table, [polluting, electric])
    expected = vehicle_emission_rate(4, table, 30.0)
    total, in_fence = trace_rates(world, (0.0, 0.0))
    assert total == pytest.approx(expected)
    assert in_fence == pytest.approx(expected)


def test_run_zero_vehicles_trace_of_zeros(demo_slack):
    scenario = dataclasses.replace(demo_slack, fleet=(), cyclists=())
    result = run(scenario, 3)
    assert len(result.trace.rows) == scenario.steps()
    assert all(r.total_rate == 0.0 and r.in_fence_rate == 0.0 for r in result.trace.rows)
    assert all(r.n_vehicles == 0 and not r.fences for r in result.trace.rows)
    assert result.commands == ()


def test_run_same_seed_identical_results(demo_slack):
    assert run(demo_slack, 5) == run(demo_slack, 5)


def test_run_trace_times_strictly_increase(demo_slack):
    result = run(demo_slack, 5)
    times = [r.sim_time for r in result.trace.rows]
    assert len(times) == demo_slack.steps()
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_different_seed_same_spawns(demo_ring):
    # explicit euro classes: traffic identical across seeds, tosses differ
    r1 = run(demo_ring, 1)
    r2 = run(demo_ring, 2)
    v1 = [(e.vehicle_id, e.edge_id, e.edge_offset) for e in r1.trace.rows[50].vehicles]
    v2 = [(e.vehicle_id, e.edge_id, e.edge_offset) for e in r2.trace.rows[50].vehicles]
    assert v1 == v2
    assert r1 != r2


def test_run_accounting_conservation(demo_ring, table):
    from ecofence.emissions import vehicle_emission_rate

    result = run(demo_ring, 42)
    for row in result.trace.rows:
        member_union = set()
        for fence in row.fences:
            member_union.update(fence.member_ids)
        out_rate = sum(
            vehicle_emission_rate(e.euro_class, table, e.speed)
            for e in row.vehicles
            if e.mode == "polluting" and e.vehicle_id not in member_union
        )
        assert row.in_fence_rate + out_rate == pytest.approx(row.total_rate, abs=1e-9)


def test_spawned_classes_drawn_when_unspecified(demo_slack):
    fleet = tuple(dataclasses.replace(f, euro_class=None) for f in demo_slack.fleet)
    scenario = dataclasses.replace(demo_slack, fleet=fleet)
    r1 = run(scenario, 9)
    r2 = run(scenario, 9)
    assert r1 == r2
    classes = {e.vehicle_id: e.euro_class for e in r1.trace.rows[5].vehicles}
    assert set(classes.values()) <= {1, 2, 3, 4}


def test_no_electric_vehicle_contributes(demo_ring):
    result = run(demo_ring, 42)
    from ecofence.emissions import vehicle_emission_rate
    from ecofence import load_default_table

    table = load_default_table()
    for row in result.trace.rows[::50]:
        member_union = set()
        for fence in row.fences:
            member_union.update(fence.member_ids)
        recomputed = sum(
            vehicle_emission_rate(e.euro_class, table, e.speed)
            for e in row.vehicles
            if e.mode == "polluting" and e.vehicle_id in member_union
        )
        assert row.in_fence_rate == pytest.approx(recomputed, abs=1e-12)


def tenth_second_ring(demo_ring_dict):
    """demo_ring stepped at dt = 0.1 s for 200 steps, with v02 spawning at 1.0 s."""
    demo_ring_dict.update(dt=0.1, horizon=20.0)
    demo_ring_dict["fleet"][1]["spawn_time"] = 1.0
    return parse_scenario(demo_ring_dict)


def test_step_time_is_the_step_count_times_dt(demo_ring_dict):
    rows = run(tenth_second_ring(demo_ring_dict), 42).trace.rows
    assert len(rows) == 200
    assert rows[9].sim_time == 1.0  # summed, ten steps of 0.1 read 0.9999999999999999
    assert rows[-1].sim_time == 20.0
    assert [row.sim_time for row in rows] == [k * 0.1 for k in range(1, 201)]


def test_spawn_at_one_second_enters_on_the_step_after_one_second(demo_ring_dict):
    rows = run(tenth_second_ring(demo_ring_dict), 42).trace.rows
    first = next(i for i, row in enumerate(rows) if any(e.vehicle_id == "v02" for e in row.vehicles))
    assert first == 10


TRACE_COLUMNS = ("vehicle_ids", "euro_classes", "edge_ids", "edge_offsets", "speeds", "modes")


def test_trace_row_keeps_its_vehicles_as_columns(demo_ring):
    rows = run(demo_ring, 42).trace.rows
    assert any(row.n_vehicles for row in rows)
    for row in rows:
        columns = [getattr(row, name) for name in TRACE_COLUMNS]
        assert [type(column) for column in columns] == [tuple] * len(TRACE_COLUMNS)
        assert [len(column) for column in columns] == [row.n_vehicles] * len(TRACE_COLUMNS)
        assert row.vehicles == tuple(VehicleTraceEntry(*entry) for entry in zip(*columns))
        assert all(type(entry) is VehicleTraceEntry for entry in row.vehicles)
