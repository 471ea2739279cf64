"""Desk-scale traffic microsimulation driving the geofence coordinator.

Vehicles and the cyclist follow fixed routes at constant speed (each edge's
limit unless the scenario pins a speed); vehicles are removed when they
reach the end of their route.  Proximity detection stands in for the
roadside detection hardware: any vehicle within the detection range of a
cyclist raises a detection event.

Each simulation step runs, in order: spawn due vehicles, advance movement
by ``dt`` (which also applies mode commands whose effective time has
arrived), build the step's vehicle view, detect, feed the coordinator,
record one trace row.  The view holds each vehicle's edge, position and
speed, computed once per step; detection, the coordinator's snapshots and
the trace row all read it.  Both proximity questions of a step (which
vehicles are near a cyclist, which are inside a fence) are answered from a
uniform-grid :class:`~ecofence.network.SpatialHash` built once for the
step, so the step's work is linear in vehicles plus cyclists.  Everything
is driven by two purpose-split seeded streams (spawn draws, coin tosses),
so a run is fully determined by (scenario, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from .coordinator import (
    GeofenceCoordinator,
    ModeCommand,
    Powertrain,
    VehicleMode,
    VehicleSnapshot,
    euclidean,
)
from .emissions import CoefficientTable, Pollutant, load_default_table
from .network import Edge, Point, RoadNetwork, SpatialHash
from .scenario import CyclistSpec, FleetEntry, Scenario


class VehicleView:
    """A vehicle's state after the step's movement, computed once per step."""

    __slots__ = ("edge_id", "edge", "position", "speed")

    def __init__(self, edge_id: str, edge: Edge, position: Point, speed: float):
        self.edge_id = edge_id
        self.edge = edge
        self.position = position
        self.speed = speed


@dataclass
class VehicleState:
    vehicle_id: str
    euro_class: int
    route: tuple[str, ...]
    route_index: int = 0
    edge_offset: float = 0.0
    speed_override: float | None = None
    mode: VehicleMode = VehicleMode.POLLUTING
    powertrain: Powertrain = Powertrain.HYBRID
    arrived: bool = False

    def current_edge_id(self) -> str:
        return self.route[min(self.route_index, len(self.route) - 1)]

    def current_speed(self, network: RoadNetwork) -> float:
        if self.speed_override is not None:
            return self.speed_override
        return network.edge(self.current_edge_id()).speed_limit

    def view(self, network: RoadNetwork) -> VehicleView:
        """Edge, position and speed with one edge lookup."""
        edge_id = self.current_edge_id()
        edge = network.edge(edge_id)
        speed = self.speed_override if self.speed_override is not None else edge.speed_limit
        return VehicleView(edge_id, edge, edge.position_at(self.edge_offset), speed)


@dataclass
class CyclistState:
    cyclist_id: str
    route: tuple[str, ...]
    speed: float
    route_index: int = 0
    edge_offset: float = 0.0
    finished: bool = False

    def current_edge_id(self) -> str:
        return self.route[min(self.route_index, len(self.route) - 1)]

    def position(self, network: RoadNetwork) -> Point:
        return network.edge(self.current_edge_id()).position_at(self.edge_offset)


def _advance(route: tuple[str, ...], index: int, offset: float, distance: float, network: RoadNetwork) -> tuple[int, float, bool]:
    """Move ``distance`` metres along a route; returns (index, offset, done)."""
    while distance > 0:
        edge = network.edge(route[index])
        room = edge.length - offset
        if distance < room:
            return index, offset + distance, False
        distance -= room
        if index + 1 >= len(route):
            return index, edge.length, True
        index += 1
        offset = 0.0
    return index, offset, False


@dataclass
class World:
    network: RoadNetwork
    table: CoefficientTable
    vehicles: dict[str, VehicleState] = field(default_factory=dict)
    cyclists: dict[str, CyclistState] = field(default_factory=dict)
    now: float = 0.0
    pending_commands: list[ModeCommand] = field(default_factory=list)


def step(world: World, dt: float) -> World:
    """Advance the world by ``dt`` seconds.

    Moves every vehicle and cyclist along its route, removes vehicles that
    arrived, then applies scheduled mode commands whose effective time is
    due.  Command application respects powertrains: a pure EV never enters
    polluting mode and a pure ICE never goes electric.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    for vehicle in world.vehicles.values():
        metres = vehicle.current_speed(world.network) / 3.6 * dt
        vehicle.route_index, vehicle.edge_offset, vehicle.arrived = _advance(
            vehicle.route, vehicle.route_index, vehicle.edge_offset, metres, world.network
        )
    for cyclist in world.cyclists.values():
        if cyclist.finished:
            continue
        metres = cyclist.speed / 3.6 * dt
        cyclist.route_index, cyclist.edge_offset, cyclist.finished = _advance(
            cyclist.route, cyclist.route_index, cyclist.edge_offset, metres, world.network
        )
    for vid in [vid for vid, v in world.vehicles.items() if v.arrived]:
        del world.vehicles[vid]
    world.now += dt
    remaining: list[ModeCommand] = []
    for command in world.pending_commands:
        if command.effective_time > world.now:
            remaining.append(command)
            continue
        vehicle = world.vehicles.get(command.vehicle_id)
        if vehicle is None:
            continue
        if vehicle.powertrain is Powertrain.PURE_EV and command.mode is VehicleMode.POLLUTING:
            continue
        if vehicle.powertrain is Powertrain.PURE_ICE and command.mode is VehicleMode.ELECTRIC:
            continue
        vehicle.mode = command.mode
    world.pending_commands = remaining
    return world


def vehicle_views(world: World) -> dict[str, VehicleView]:
    """The step's view of every vehicle, keyed by vehicle id."""
    return {vid: vehicle.view(world.network) for vid, vehicle in world.vehicles.items()}


def detect(
    world: World,
    detection_range: float,
    views: Mapping[str, VehicleView] | None = None,
) -> list[tuple[str, str]]:
    """(cyclist_id, vehicle_id) pairs within straight-line detection range.

    Sorted ascending so downstream fence updates are order-deterministic;
    when several vehicles detect the same cyclist in one step, the
    highest-sorting vehicle ends up centring the fence.  Candidates come
    from a spatial hash with cells of the detection range; ``views`` is the
    step's vehicle view, built here when not given.
    """
    if detection_range <= 0:
        raise ValueError("detection_range must be positive")
    if not world.cyclists:
        return []
    if views is None:
        views = vehicle_views(world)
    grid = SpatialHash(detection_range, ((vid, view.position) for vid, view in views.items()))
    events = []
    for cid in sorted(world.cyclists):
        cyclist_pos = world.cyclists[cid].position(world.network)
        near = grid.near(cyclist_pos, detection_range)
        hits = [vid for vid, pos in near.items() if euclidean(cyclist_pos, pos) <= detection_range]
        events.extend((cid, vid) for vid in sorted(hits))
    return events


def aggregate_emission_rate(world: World, fence=None, pollutant: Pollutant = Pollutant.CO) -> float:
    """Aggregate g/min over polluting-mode vehicles, optionally fence members only.

    Electric-mode vehicles contribute nothing.
    """
    total = 0.0
    for vehicle in world.vehicles.values():
        if vehicle.mode is not VehicleMode.POLLUTING:
            continue
        view = vehicle.view(world.network)
        if fence is not None and euclidean(view.position, fence.center) > fence.radius:
            continue
        total += world.table.rate(vehicle.euro_class, pollutant, view.speed)
    return total


# -- trace structures --------------------------------------------------------


@dataclass(frozen=True)
class VehicleTraceEntry:
    vehicle_id: str
    euro_class: int
    edge_id: str
    edge_offset: float
    speed: float
    mode: str


@dataclass(frozen=True)
class FenceTraceEntry:
    fence_id: str
    center: Point
    radius: float
    created_at: float
    last_detection_at: float
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class TraceRow:
    sim_time: float
    budget: float
    in_fence_rate: float
    total_rate: float
    n_vehicles: int
    fences: tuple[FenceTraceEntry, ...]
    vehicles: tuple[VehicleTraceEntry, ...]


@dataclass(frozen=True)
class ScenarioTrace:
    rows: tuple[TraceRow, ...]


@dataclass(frozen=True)
class RunResult:
    scenario_name: str
    seed: int
    trace: ScenarioTrace
    commands: tuple


def _snapshot_vehicles(world: World, views: Mapping[str, VehicleView]) -> dict[str, VehicleSnapshot]:
    snapshots = {}
    for vid, vehicle in world.vehicles.items():
        view = views[vid]
        snapshots[vid] = VehicleSnapshot(
            vehicle_id=vid,
            position=view.position,
            speed=view.speed,
            euro_class=vehicle.euro_class,
            powertrain=vehicle.powertrain,
            density_weight=view.edge.density_weight,
            mode=vehicle.mode,
        )
    return snapshots


def _spawn_due(world: World, fleet: tuple[FleetEntry, ...], cursor: int, rng: random.Random) -> int:
    """Spawn fleet entries whose time has come; euro classes missing from
    the scenario are drawn uniformly from the spawn stream."""
    while cursor < len(fleet) and fleet[cursor].spawn_time <= world.now:
        entry = fleet[cursor]
        euro_class = entry.euro_class
        if euro_class is None:
            euro_class = rng.randint(1, 4)
        mode = VehicleMode.ELECTRIC if entry.powertrain is Powertrain.PURE_EV else VehicleMode.POLLUTING
        world.vehicles[entry.vehicle_id] = VehicleState(
            vehicle_id=entry.vehicle_id,
            euro_class=euro_class,
            route=entry.route,
            speed_override=entry.speed,
            mode=mode,
            powertrain=entry.powertrain,
        )
        cursor += 1
    return cursor


def _spawn_cyclists(world: World, cyclists: tuple[CyclistSpec, ...], cursor: int) -> int:
    while cursor < len(cyclists) and cyclists[cursor].spawn_time <= world.now:
        spec = cyclists[cursor]
        world.cyclists[spec.cyclist_id] = CyclistState(
            cyclist_id=spec.cyclist_id, route=spec.route, speed=spec.speed
        )
        cursor += 1
    return cursor


def _trace_row(
    world: World,
    coordinator: GeofenceCoordinator,
    scenario: Scenario,
    views: Mapping[str, VehicleView],
) -> TraceRow:
    budget = scenario.controller.allowable_limit - scenario.background_at(world.now)
    fences = tuple(
        FenceTraceEntry(
            fence_id=f.fence_id,
            center=f.center,
            radius=f.radius,
            created_at=f.created_at,
            last_detection_at=f.last_detection_at,
            member_ids=f.member_ids,
        )
        for f in coordinator.active_fences()
    )
    member_union: set[str] = set()
    for fence in fences:
        member_union.update(fence.member_ids)
    in_fence = 0.0
    total = 0.0
    entries = []
    for vid, vehicle in world.vehicles.items():
        view = views[vid]
        entries.append(
            VehicleTraceEntry(
                vehicle_id=vid,
                euro_class=vehicle.euro_class,
                edge_id=view.edge_id,
                edge_offset=vehicle.edge_offset,
                speed=view.speed,
                mode=vehicle.mode.value,
            )
        )
        if vehicle.mode is VehicleMode.POLLUTING:
            rate = world.table.rate(vehicle.euro_class, Pollutant.CO, view.speed)
            total += rate
            if vid in member_union:
                in_fence += rate
    return TraceRow(
        sim_time=world.now,
        budget=budget,
        in_fence_rate=in_fence,
        total_rate=total,
        n_vehicles=len(world.vehicles),
        fences=fences,
        vehicles=tuple(entries),
    )


def run(scenario: Scenario, seed: int, table: CoefficientTable | None = None) -> RunResult:
    """Execute a scenario to its horizon; deterministic in (scenario, seed).

    The spawn stream and the coin-toss stream are seeded separately so a
    control run and a baseline run of the same seed see identical traffic.
    Baseline runs (control disabled) still track fence lifecycle for the
    trace but never touch the toss stream.
    """
    if table is None:
        table = load_default_table()
    world = World(network=scenario.network, table=table)
    rng_spawn = random.Random(f"{seed}:spawn")
    rng_toss = random.Random(f"{seed}:toss")
    coordinator = GeofenceCoordinator(
        scenario.controller,
        table,
        rng_toss,
        control_enabled=scenario.control_enabled,
        single_vehicle=scenario.single_vehicle,
    )
    fleet_cursor = 0
    cyclist_cursor = 0
    rows = []
    for _ in range(scenario.steps()):
        fleet_cursor = _spawn_due(world, scenario.fleet, fleet_cursor, rng_spawn)
        cyclist_cursor = _spawn_cyclists(world, scenario.cyclists, cyclist_cursor)
        step(world, scenario.dt)
        views = vehicle_views(world)
        for cyclist_id, vehicle_id in detect(world, scenario.detection_range, views):
            coordinator.on_detection(
                cyclist_id,
                views[vehicle_id].position,
                world.now,
                detecting_vehicle_id=vehicle_id,
            )
        snapshots = _snapshot_vehicles(world, views)
        commands = coordinator.step(world.now, snapshots, scenario.background_at(world.now))
        world.pending_commands.extend(commands)
        rows.append(_trace_row(world, coordinator, scenario, views))
    return RunResult(
        scenario_name=scenario.name,
        seed=seed,
        trace=ScenarioTrace(rows=tuple(rows)),
        commands=tuple(coordinator.command_log),
    )
