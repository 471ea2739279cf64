"""Desk-scale traffic microsimulation driving the geofence coordinator.

Vehicles and the cyclist follow fixed routes at constant speed (each edge's
limit unless the scenario pins a speed); vehicles are removed when they
reach the end of their route.  Proximity detection stands in for the
roadside detection hardware: any vehicle within the detection range of a
cyclist raises a detection event.

Each simulation step runs, in order: spawn due vehicles, advance movement
by ``dt`` (which also applies mode commands whose effective time has
arrived), detect, feed the coordinator, record one trace row.  The
coordinator logs every command in its ``command_log``; its ``step``
returns the log entries it appended (one fence toss per fence that
decided, and one :class:`~ecofence.coordinator.CommandRecord` per
restore or single-vehicle command), and the engine queues
those same entries in ``World.pending_commands`` and applies each one
row by row once it is due.  Vehicles and cyclists
follow their routes with one :class:`RouteCursor` each, which holds the
current edge and looks an edge up only at spawn and when it moves onto
the next one.  A record is built on its first edge, and a vehicle record
is placed there at once.  Each
vehicle is one live record, :class:`VehicleState`, and detection, the
coordinator (which takes the records as its snapshots) and the trace row
all read it.  What is read when:

* per edge change (and at spawn): the edge, and the speed, density
  weight and emission rate that belong to it;
* per step: the offset, and after movement the position, computed from
  the segment constants the edge caches (``Edge.segments``).

Both proximity questions of a step (which vehicles are near a cyclist,
which are inside a fence) are answered from one uniform-grid
:class:`~ecofence.network.SpatialHash` that ``run`` builds on every step,
with cells of the larger of the fence radius and the detection range, and
passes to ``detect`` and the coordinator; a query scans only the cells
under its disc's bounding square, widened by a rounding bound.
So the step's work is linear in vehicles plus cyclists.  Everything is
driven by two purpose-split seeded streams (spawn draws, coin tosses), so
a run is fully determined by (scenario, seed).

The clock is a step count: step ``k`` (from 1) runs at ``k * dt``, which is
never summed, so with ``dt=0.1`` step 10 runs at exactly 1.0.

A :class:`TraceRow` keeps its step's vehicles as six parallel columns,
one exact tuple per :class:`VehicleTraceEntry` field, not as one record
per vehicle; ``TraceRow.vehicles`` builds the records when it is read.
A column holds only strings, ints or floats, so CPython stops tracking
it at the first collection that visits it, and later collections skip
the kept trace.  A column equal to the same column of the previous row
is that row's tuple, so a fleet that stays the same keeps one copy of
its ids, classes, speeds and modes, not one per step; the coordinator
likewise keeps a fence's member tuple while its members stay the same,
and the fence entries of consecutive rows share it.

``run`` pauses CPython's cyclic garbage collector for its step loop and
puts back the caller's setting afterwards, also when the loop raises: the
collector is turned on again only if it was on.  A run makes no reference
cycles (a test checks that ``gc.collect()`` finds nothing after each kind
of run), so a collection inside the loop could free nothing, yet every
one walked the command log the run keeps (NamedTuples stay tracked) and
the trace rows built since the last collection.  The pause is
process-wide; the engine is single-threaded, and ``sweep`` runs in
parallel by processes.

``RunResult.commands`` is the coordinator's
:class:`~ecofence.coordinator.CommandLog` itself, which keeps a fence
toss as one :class:`~ecofence.coordinator.FenceToss` of columns, not one
record per vehicle, and builds the rows when they are read.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .coordinator import (
    CommandLog,
    CommandRecord,
    FenceToss,
    GeofenceCoordinator,
    Powertrain,
    SingleVehicleController,
    commanded_modes,
)
from .emissions import CoefficientTable, load_default_table
from .network import Edge, Point, RoadNetwork, SpatialHash
from .scenario import CyclistSpec, FleetEntry, Scenario

@dataclass(kw_only=True, slots=True)
class RouteCursor:
    """Where a road user is along its fixed route.

    ``edge`` is the :class:`~ecofence.network.Edge` at
    ``route[route_index]``.  The engine looks it up when it creates the
    cursor, and again only when the cursor moves onto the next edge.
    """

    route: tuple[str, ...]
    route_index: int = 0
    edge_offset: float = 0.0
    edge: Edge
    finished: bool = False

    def _enter(self, edge: Edge) -> None:
        """Make ``edge``, just looked up, the current edge."""
        self.edge = edge

    def advance(self, metres: float, network: RoadNetwork) -> None:
        """Move ``metres`` along the route, parking at the end of its last edge.

        Staying on the current edge, the common case, needs no lookup.
        ``finished`` is set once the end of the route is reached.
        """
        edge = self.edge
        offset = self.edge_offset
        while metres > 0:
            room = edge.length - offset
            if metres < room:
                self.edge_offset = offset + metres
                return
            metres -= room
            if self.route_index + 1 >= len(self.route):
                self.edge_offset = edge.length
                self.finished = True
                return
            self.route_index += 1
            edge = network.edge(self.route[self.route_index])
            self._enter(edge)
            offset = 0.0
        self.edge_offset = offset


@dataclass(kw_only=True, slots=True)
class VehicleState(RouteCursor):
    """One vehicle: its route cursor, drivetrain and mode, and where it is.

    ``mode`` is ``"polluting"`` or ``"electric"``, the strings the command
    rows and the trace carry.  ``speed`` (km/h), ``density_weight`` and
    ``emission_rate`` (g/min in polluting mode, ``table.rate`` at that
    class and speed) belong to the current edge: they are read when the
    record is built on its edge and again whenever the cursor moves onto
    the next edge, and at no other time.  ``position`` is
    set from the edge and offset when the record is built, and again by
    ``step`` once per vehicle after movement.  Detection, the coordinator
    and the trace all read the record directly.
    """

    vehicle_id: str
    euro_class: int
    table: CoefficientTable
    speed_override: float | None = None
    mode: str = "polluting"
    powertrain: Powertrain = Powertrain.HYBRID
    position: Point = field(init=False)
    speed: float = field(default=0.0, init=False)
    density_weight: float = field(default=1.0, init=False)
    emission_rate: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._enter(self.edge)
        self.position = self.edge.position_at(self.edge_offset)

    def _enter(self, edge: Edge) -> None:
        self.edge = edge
        self.speed = self.speed_override if self.speed_override is not None else edge.speed_limit
        self.density_weight = edge.density_weight
        self.emission_rate = self.table.rate(self.euro_class, self.speed)


@dataclass(kw_only=True, slots=True)
class CyclistState(RouteCursor):
    cyclist_id: str
    speed: float

    def position(self) -> Point:
        return self.edge.position_at(self.edge_offset)


@dataclass
class World:
    """Everything a step reads and changes.  ``pending_commands`` holds the
    command log entries the coordinator returned that are not yet due, in
    log order."""

    network: RoadNetwork
    table: CoefficientTable
    vehicles: dict[str, VehicleState] = field(default_factory=dict)
    cyclists: dict[str, CyclistState] = field(default_factory=dict)
    tick: int = 0
    now: float = 0.0
    pending_commands: list[CommandRecord | FenceToss] = field(default_factory=list)


def step(world: World, dt: float) -> World:
    """Advance the world by one step of ``dt`` seconds.

    ``world.tick`` counts the steps and ``world.now`` becomes ``tick * dt``.
    Moves every vehicle and cyclist along its route, removes vehicles that
    arrived and places the records of the others, then applies the queued
    command log entries whose effective time is due, in queue order: each
    row of an entry sets its vehicle's mode to the row's mode.  A vehicle
    that stays on its edge, the common case, only adds to its offset: its
    speed, density weight and emission rate were read when it entered the
    edge.  Command application skips a vehicle no longer on the road and
    respects powertrains: a pure EV never enters polluting mode and a pure
    ICE never goes electric.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    network = world.network
    vehicles = world.vehicles
    arrived = []
    for vid, vehicle in vehicles.items():
        edge = vehicle.edge
        metres = vehicle.speed / 3.6 * dt
        offset = vehicle.edge_offset
        # RouteCursor.advance's first test, inline
        if 0.0 < metres < edge.length - offset:
            vehicle.edge_offset = offset + metres
            continue
        vehicle.advance(metres, network)
        if vehicle.finished:
            arrived.append(vid)
    for cyclist in world.cyclists.values():
        if not cyclist.finished:
            cyclist.advance(cyclist.speed / 3.6 * dt, network)
    for vid in arrived:
        del vehicles[vid]
    _snapshot_vehicles(world)
    world.tick += 1
    now = world.now = world.tick * dt
    remaining: list[CommandRecord | FenceToss] = []
    pure_ev, pure_ice = Powertrain.PURE_EV, Powertrain.PURE_ICE
    for entry in world.pending_commands:
        if entry.effective_time > now:
            remaining.append(entry)
            continue
        for vid, mode in commanded_modes(entry):
            vehicle = vehicles.get(vid)
            if vehicle is None:
                continue
            if mode == "polluting" and vehicle.powertrain is pure_ev:
                continue
            if mode == "electric" and vehicle.powertrain is pure_ice:
                continue
            vehicle.mode = mode
    world.pending_commands = remaining
    return world


def _snapshot_vehicles(world: World) -> None:
    """Place every vehicle record at its cursor's edge and offset.

    Only the position is computed here; speed, density weight and
    emission rate change with the edge and were read when the cursor
    entered it.  The placed records are the step's vehicle snapshots:
    detection, the coordinator and the trace row read them until the next
    ``step``.
    """
    for vehicle in world.vehicles.values():
        vehicle.position = vehicle.edge.position_at(vehicle.edge_offset)


def detect(world: World, detection_range: float, grid: SpatialHash) -> list[tuple[str, str]]:
    """(cyclist_id, vehicle_id) pairs within straight-line detection range.

    Sorted ascending so downstream fence updates are order-deterministic;
    when several vehicles detect the same cyclist in one step, the
    highest-sorting vehicle ends up centring the fence.  Candidates come
    from ``grid``, the step's spatial hash of every vehicle at its placed
    position, of any cell size (``run`` passes the one it builds per step).
    """
    if detection_range <= 0:
        raise ValueError("detection_range must be positive")
    hypot = math.hypot
    events = []
    for cid in sorted(world.cyclists):
        cyclist_pos = world.cyclists[cid].position()
        cx, cy = cyclist_pos
        near = grid.near(cyclist_pos, detection_range)
        hits = [vid for vid, (x, y) in near.items() if hypot(cx - x, cy - y) <= detection_range]
        events.extend((cid, vid) for vid in sorted(hits))
    return events


# -- trace structures --------------------------------------------------------


class VehicleTraceEntry(NamedTuple):
    vehicle_id: str
    euro_class: int
    edge_id: str
    edge_offset: float
    speed: float
    mode: str


class FenceTraceEntry(NamedTuple):
    fence_id: str
    center: Point
    radius: float
    created_at: float
    last_detection_at: float
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class TraceRow:
    """One recorded step: the budget, the emission rates, the fences and
    every vehicle present.

    The vehicles are kept as six parallel columns, one exact tuple per
    :class:`VehicleTraceEntry` field and in its field order, with one item
    per vehicle in the order the vehicles spawned.  A vehicle costs the
    row six 8-byte slots, where a record took 96 bytes plus a slot.  A
    column holds only strings, ints or floats, so CPython stops tracking
    it at the first collection that visits it.  Within a run, each column
    but ``edge_offsets`` is the previous row's tuple when it equals it,
    so consecutive rows share what did not change.  ``vehicles`` zips the
    columns into :class:`VehicleTraceEntry` records each time it is read;
    the writers and the summary read the columns directly.
    """

    sim_time: float
    budget: float
    in_fence_rate: float
    total_rate: float
    n_vehicles: int
    fences: tuple[FenceTraceEntry, ...]
    vehicle_ids: tuple[str, ...]
    euro_classes: tuple[int, ...]
    edge_ids: tuple[str, ...]
    edge_offsets: tuple[float, ...]
    speeds: tuple[float, ...]
    modes: tuple[str, ...]

    @property
    def vehicles(self) -> tuple[VehicleTraceEntry, ...]:
        columns = zip(
            self.vehicle_ids, self.euro_classes, self.edge_ids, self.edge_offsets, self.speeds, self.modes
        )
        return tuple(map(VehicleTraceEntry._make, columns))


@dataclass(frozen=True)
class ScenarioTrace:
    rows: tuple[TraceRow, ...]


@dataclass(frozen=True)
class RunResult:
    """A run's trace and its controller's whole command log."""

    trace: ScenarioTrace
    commands: CommandLog


def _spawn_due(world: World, fleet: tuple[FleetEntry, ...], cursor: int, rng: random.Random) -> int:
    """Spawn fleet entries whose time has come; euro classes missing from
    the scenario are drawn uniformly from the spawn stream."""
    while cursor < len(fleet) and fleet[cursor].spawn_time <= world.now:
        entry = fleet[cursor]
        euro_class = entry.euro_class
        if euro_class is None:
            euro_class = rng.randint(1, 4)
        mode = "electric" if entry.powertrain is Powertrain.PURE_EV else "polluting"
        world.vehicles[entry.vehicle_id] = VehicleState(
            vehicle_id=entry.vehicle_id,
            euro_class=euro_class,
            table=world.table,
            route=entry.route,
            edge=world.network.edge(entry.route[0]),
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
            cyclist_id=spec.cyclist_id,
            route=spec.route,
            speed=spec.speed,
            edge=world.network.edge(spec.route[0]),
        )
        cursor += 1
    return cursor


def _kept(column: tuple, earlier: tuple) -> tuple:
    """``earlier`` if it equals ``column``, so that equal columns of
    consecutive rows are one tuple."""
    return earlier if column == earlier else column


def _trace_row(
    world: World,
    coordinator: GeofenceCoordinator,
    background_level: float,
    previous: TraceRow | None = None,
) -> TraceRow:
    """The step's trace row; ``budget`` is the limit the coordinator decided under.

    Each of the ``vehicle_ids``, ``euro_classes``, ``edge_ids``, ``speeds``
    and ``modes`` columns that equals the same column of ``previous`` (the
    run's preceding row) is that row's tuple.  ``edge_offsets`` changes on
    every step that has a vehicle, so it is not compared.
    """
    budget = coordinator.config.allowable_limit - background_level
    fences = tuple(
        FenceTraceEntry(f.fence_id, f.center, f.radius, f.created_at, f.last_detection_at, f.member_ids)
        for f in coordinator.active_fences()
    )
    member_union: set[str] = set()
    for fence in fences:
        member_union.update(fence.member_ids)
    in_fence = 0.0
    total = 0.0
    vehicle_ids, euro_classes, edge_ids, edge_offsets, speeds, modes = [], [], [], [], [], []
    for vid, vehicle in world.vehicles.items():
        mode = vehicle.mode
        if mode == "polluting":
            vehicle_rate = vehicle.emission_rate
            total += vehicle_rate
            if vid in member_union:
                in_fence += vehicle_rate
        vehicle_ids.append(vid)
        euro_classes.append(vehicle.euro_class)
        edge_ids.append(vehicle.route[vehicle.route_index])
        edge_offsets.append(vehicle.edge_offset)
        speeds.append(vehicle.speed)
        modes.append(mode)
    columns = (tuple(vehicle_ids), tuple(euro_classes), tuple(edge_ids), tuple(speeds), tuple(modes))
    if previous is not None:
        earlier = (previous.vehicle_ids, previous.euro_classes, previous.edge_ids, previous.speeds, previous.modes)
        columns = map(_kept, columns, earlier)
    vehicle_ids, euro_classes, edge_ids, speeds, modes = columns
    return TraceRow(
        sim_time=world.now,
        budget=budget,
        in_fence_rate=in_fence,
        total_rate=total,
        n_vehicles=len(world.vehicles),
        fences=fences,
        vehicle_ids=vehicle_ids,
        euro_classes=euro_classes,
        edge_ids=edge_ids,
        edge_offsets=tuple(edge_offsets),
        speeds=speeds,
        modes=modes,
    )


def run(scenario: Scenario, seed: int, table: CoefficientTable | None = None) -> RunResult:
    """Execute a scenario to its horizon; deterministic in (scenario, seed).

    The spawn stream and the coin-toss stream are seeded separately so a
    control run and a baseline run of the same seed see identical traffic.
    Baseline runs (control disabled) still track fence lifecycle for the
    trace but never touch the toss stream, even in single-vehicle mode,
    which otherwise runs a :class:`SingleVehicleController`.

    Automatic garbage collection is paused while the steps run, for the
    whole process (see the module docstring); a caller's setting is put
    back when ``run`` returns or raises.
    """
    if table is None:
        table = load_default_table()
    world = World(network=scenario.network, table=table)
    rng_spawn = random.Random(f"{seed}:spawn")
    rng_toss = random.Random(f"{seed}:toss")
    single = scenario.single_vehicle and scenario.control_enabled
    controller = SingleVehicleController if single else GeofenceCoordinator
    coordinator = controller(scenario.controller, rng_toss, control_enabled=scenario.control_enabled)
    cell = max(scenario.controller.radius, scenario.detection_range)
    fleet_cursor = 0
    cyclist_cursor = 0
    rows = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(scenario.steps()):
            fleet_cursor = _spawn_due(world, scenario.fleet, fleet_cursor, rng_spawn)
            cyclist_cursor = _spawn_cyclists(world, scenario.cyclists, cyclist_cursor)
            step(world, scenario.dt)
            # one hash answers both proximity questions of the step
            grid = SpatialHash(cell, ((vid, vehicle.position) for vid, vehicle in world.vehicles.items()))
            for cyclist_id, vehicle_id in detect(world, scenario.detection_range, grid):
                coordinator.on_detection(
                    cyclist_id,
                    world.vehicles[vehicle_id].position,
                    world.now,
                    detecting_vehicle_id=vehicle_id,
                )
            background_level = scenario.background_at(world.now)
            commands = coordinator.step(world.now, world.vehicles, background_level, grid)
            world.pending_commands.extend(commands)
            rows.append(_trace_row(world, coordinator, background_level, rows[-1] if rows else None))
    finally:
        if collecting:
            gc.enable()
    return RunResult(trace=ScenarioTrace(rows=tuple(rows)), commands=coordinator.command_log)
