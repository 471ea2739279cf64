"""Desk-scale traffic microsimulation driving the geofence coordinator.

Vehicles and the cyclist follow fixed routes at constant speed (each edge's
limit unless the scenario pins a speed); vehicles are removed when they
reach the end of their route.  Proximity detection stands in for the
roadside detection hardware: any vehicle within the detection range of a
cyclist raises a detection event.

Each simulation step runs, in order: spawn due vehicles, advance movement
by ``dt`` and place the vehicles, detect, feed the coordinator, queue the
entries it returns, apply every queued mode command whose effective time
has arrived, record one trace row.  So a command logged at ``t`` with
actuation latency ``L`` is in force from the row of the first step at or
after ``t + L``: with ``L = 0``, from the row of ``t`` itself.  Commands
are applied in that one place, since nothing between movement and it
reads a mode.  The coordinator logs every command in its
``command_log``; its ``step`` returns the log entries it appended (one
fence toss per fence that decided, and one
:class:`~ecofence.coordinator.CommandRecord` per restore or
single-vehicle command), and the engine queues those same entries in
``World.pending_commands`` and applies each one row by row once it is
due.  Vehicles and cyclists
follow their routes with one :class:`RouteCursor` each, which holds the
current edge and looks an edge up only at spawn and when it moves onto
the next one.  A record is built on its first edge, and a vehicle record
is placed there at once.  Each
vehicle is one live record, :class:`VehicleState`, and detection, the
coordinator (which takes the records as its snapshots) and the trace row
all read it.  What is read when:

* per edge change (and at spawn): the edge, and the speed, density
  weight and emission rate that belong to it;
* per step: the offset, and after movement the position.  Inside a
  straight edge it is computed inline from the start point and vector
  the edge keeps (``Edge.line``), with the arithmetic of
  ``Edge.position_at`` to the bit; elsewhere ``position_at`` computes it.

Both proximity questions of a step (which vehicles are near a cyclist,
which are inside a fence) are answered from one
:class:`~ecofence.network.VehicleIndex`, ``World.index``, which ``run``
builds once per run over the network's edges, with cells of at least the
larger of the fence radius and the detection range.  It buckets each
vehicle by the edge its cursor is on, and the engine keeps it current in
the three places a vehicle's edge changes: at spawn
(:meth:`World.add_vehicle`), and in ``step`` when the vehicle enters its
next edge or arrives.  A step that stays on its edge, the common case,
does no index work.  A query takes the vehicles of the edges whose box
meets its disc's bounding square, widened by a rounding bound; ``detect``
and the coordinator keep their exact distance tests.  Everything is
driven by two purpose-split seeded streams (spawn draws, coin tosses), so
a run is fully determined by (scenario, seed).

The clock is a step count: step ``k`` (from 1) runs at ``k * dt``, which is
never summed, so with ``dt=0.1`` step 10 runs at exactly 1.0.

A :class:`TraceRow` keeps its step's vehicles as six parallel columns,
one exact tuple per vehicle field, and no record per vehicle.  A column
holds only strings, ints or floats, so CPython stops tracking it at the
first collection that visits it, and later collections skip the kept
trace.  A column equal to the same column of the previous row is that
row's tuple, so a fleet that stays the same keeps one copy of its ids,
classes, speeds and modes, not one per step; the coordinator likewise
keeps a fence's member tuple while its members stay the same, and the
fence entries of consecutive rows share it.

``run`` pauses CPython's cyclic garbage collector for its step loop and
puts back the caller's setting afterwards, also when the loop raises: the
collector is turned on again only if it was on.  A run makes no reference
cycles (a test checks that ``gc.collect()`` finds nothing after each kind
of run), so a collection inside the loop could free nothing, yet every
one walked the command log the run keeps (NamedTuples stay tracked) and
the trace rows built since the last collection.  The pause is
process-wide; the engine is single-threaded, and ``sweep`` runs in
parallel by processes.

``RunResult.commands`` is a tuple of the coordinator's log entries, the
same objects: one :class:`~ecofence.coordinator.FenceToss` of columns
per fence toss, not one record per vehicle, and one
:class:`~ecofence.coordinator.CommandRecord` per other command.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .coordinator import (
    CommandRecord,
    FenceToss,
    GeofenceCoordinator,
    Powertrain,
    SingleVehicleController,
    commanded_modes,
)
from .emissions import CoefficientTable, load_default_table
from .network import Edge, Point, RoadNetwork, VehicleIndex
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
    log order: on every step ``run`` queues the coordinator's new entries
    and then applies all that are due (see :func:`_apply_due_commands`).

    ``index`` is the :class:`~ecofence.network.VehicleIndex` over
    ``network`` that holds exactly the records in ``vehicles``, each in the
    bucket of its edge: a vehicle goes on the road through
    :meth:`add_vehicle`, and ``step`` moves and removes it."""

    network: RoadNetwork
    table: CoefficientTable
    index: VehicleIndex
    vehicles: dict[str, VehicleState] = field(default_factory=dict)
    cyclists: dict[str, CyclistState] = field(default_factory=dict)
    tick: int = 0
    now: float = 0.0
    pending_commands: list[CommandRecord | FenceToss] = field(default_factory=list)

    def add_vehicle(self, vehicle: VehicleState) -> None:
        """Put ``vehicle`` on the road, in the index bucket of its edge."""
        self.vehicles[vehicle.vehicle_id] = vehicle
        self.index.add(vehicle.vehicle_id, vehicle, vehicle.edge.edge_id)


def step(world: World, dt: float) -> World:
    """Advance the world by one step of ``dt`` seconds.

    ``world.tick`` counts the steps and ``world.now`` becomes ``tick * dt``.
    Moves every vehicle and cyclist along its route, removes vehicles that
    arrived and places the records of the others.  No mode changes here:
    ``run`` applies the due commands later in the tick.  A vehicle that
    stays on its edge, the common case, only adds to its offset: its
    speed, density weight and emission rate were read when it entered the
    edge, and its index bucket is that edge's.  A vehicle that moved onto
    another edge changes bucket; one that arrived leaves the bucket of the
    edge it began the step on, however many edges it crossed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    network = world.network
    vehicles = world.vehicles
    index = world.index
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
            index.remove(vid, edge.edge_id)
            arrived.append(vid)
        elif vehicle.edge is not edge:
            index.move(vid, edge.edge_id, vehicle.edge.edge_id)
    for cyclist in world.cyclists.values():
        if not cyclist.finished:
            cyclist.advance(cyclist.speed / 3.6 * dt, network)
    for vid in arrived:
        del vehicles[vid]
    _snapshot_vehicles(world)
    world.tick += 1
    world.now = world.tick * dt
    return world


def _apply_due_commands(world: World) -> None:
    """Apply the queued command log entries whose effective time is at or
    before ``world.now``, in queue order, and keep the others queued.

    Each row of a due entry sets its vehicle's mode to the row's mode; a
    row for a vehicle no longer on the road is skipped.  The rows need no
    powertrain check: the coordinator commands only hybrids.
    """
    now = world.now
    vehicles = world.vehicles
    remaining: list[CommandRecord | FenceToss] = []
    for entry in world.pending_commands:
        if entry.effective_time > now:
            remaining.append(entry)
            continue
        for vid, mode in commanded_modes(entry):
            vehicle = vehicles.get(vid)
            if vehicle is not None:
                vehicle.mode = mode
    world.pending_commands = remaining


def _snapshot_vehicles(world: World) -> None:
    """Place every vehicle record at its cursor's edge and offset.

    Only the position is computed here; speed, density weight and
    emission rate change with the edge and were read when the cursor
    entered it.  The placed records are the step's vehicle snapshots:
    detection, the coordinator and the trace row read them until the next
    ``step``.  A record inside a straight edge is placed by the edge's
    ``line`` constants inline, with the arithmetic of ``Edge.position_at``;
    every other record by ``position_at`` itself.
    """
    for vehicle in world.vehicles.values():
        edge = vehicle.edge
        offset = vehicle.edge_offset
        line = edge.line
        if line is not None:
            length = edge.length
            if 0.0 < offset < length:
                x0, y0, dx, dy = line
                t = offset / length
                vehicle.position = (x0 + t * dx, y0 + t * dy)
                continue
        vehicle.position = edge.position_at(offset)


def detect(world: World, detection_range: float) -> list[tuple[str, str]]:
    """(cyclist_id, vehicle_id) pairs within straight-line detection range.

    Sorted ascending so downstream fence updates are order-deterministic;
    when several vehicles detect the same cyclist in one step, the
    highest-sorting vehicle ends up centring the fence.  Candidates come
    from ``world.index``, whose records are placed for the step; any cell
    size serves, since the index only prunes.
    """
    if detection_range <= 0:
        raise ValueError("detection_range must be positive")
    hypot = math.hypot
    index = world.index
    events = []
    for cid in sorted(world.cyclists):
        cyclist_pos = world.cyclists[cid].position()
        cx, cy = cyclist_pos
        near = index.near(cyclist_pos, detection_range).items()
        hits = [
            vid
            for vid, vehicle in near
            for x, y in (vehicle.position,)
            if hypot(cx - x, cy - y) <= detection_range
        ]
        events.extend((cid, vid) for vid in sorted(hits))
    return events


# -- trace structures --------------------------------------------------------


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

    The vehicles are kept as six parallel columns, from ``vehicle_ids``
    to ``modes``, each one exact tuple with one item per vehicle in the
    order the vehicles spawned; the columns are the only form of the
    vehicles, and every reader zips the ones it needs.  A vehicle costs
    the row six 8-byte slots, where a record took 96 bytes plus a slot.
    A column holds only strings, ints or floats, so CPython stops
    tracking it at the first collection that visits it.  Within a run,
    each column but ``edge_offsets`` is the previous row's tuple when it
    equals it, so consecutive rows share what did not change.
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


@dataclass(frozen=True)
class ScenarioTrace:
    rows: tuple[TraceRow, ...]


@dataclass(frozen=True)
class RunResult:
    """A run's trace and its controller's whole command log, as the
    log's entries in log order."""

    trace: ScenarioTrace
    commands: tuple[CommandRecord | FenceToss, ...]


def _spawn_due(world: World, fleet: tuple[FleetEntry, ...], cursor: int, rng: random.Random) -> int:
    """Spawn fleet entries whose time has come; euro classes missing from
    the scenario are drawn uniformly from the spawn stream."""
    while cursor < len(fleet) and fleet[cursor].spawn_time <= world.now:
        entry = fleet[cursor]
        euro_class = entry.euro_class
        if euro_class is None:
            euro_class = rng.randint(1, 4)
        mode = "electric" if entry.powertrain is Powertrain.PURE_EV else "polluting"
        world.add_vehicle(
            VehicleState(
                vehicle_id=entry.vehicle_id,
                euro_class=euro_class,
                table=world.table,
                route=entry.route,
                edge=world.network.edge(entry.route[0]),
                speed_override=entry.speed,
                mode=mode,
                powertrain=entry.powertrain,
            )
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
    every step that has a vehicle, so it is not compared.  The in-fence
    rate sums the polluting vehicles in ``coordinator.in_fence_ids``, the
    set of fence members its ``step`` built this tick.
    """
    budget = coordinator.config.allowable_limit - background_level
    fences = tuple(
        FenceTraceEntry(f.fence_id, f.center, f.radius, f.created_at, f.last_detection_at, f.member_ids)
        for f in coordinator.active_fences()
    )
    in_fence_ids = coordinator.in_fence_ids
    in_fence = 0.0
    total = 0.0
    vehicle_ids, euro_classes, edge_ids, edge_offsets, speeds, modes = [], [], [], [], [], []
    for vid, vehicle in world.vehicles.items():
        mode = vehicle.mode
        if mode == "polluting":
            vehicle_rate = vehicle.emission_rate
            total += vehicle_rate
            if vid in in_fence_ids:
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
    Every run keeps the same fence lifecycle, so a control run traces its
    baseline's fences row by row; a single-vehicle scenario under control
    runs a :class:`SingleVehicleController`, which differs only in its
    decision.  A baseline run (control disabled) runs a plain
    :class:`~ecofence.coordinator.GeofenceCoordinator` in either mode,
    which never decides, so it never touches the toss stream and never
    commands.

    Automatic garbage collection is paused while the steps run, for the
    whole process (see the module docstring); a caller's setting is put
    back when ``run`` returns or raises.
    """
    if table is None:
        table = load_default_table()
    cell = max(scenario.controller.radius, scenario.detection_range)
    index = VehicleIndex(scenario.network, cell)
    world = World(network=scenario.network, table=table, index=index)
    rng_spawn = random.Random(f"{seed}:spawn")
    rng_toss = random.Random(f"{seed}:toss")
    single_vehicle = scenario.single_vehicle and scenario.control_enabled
    controller = SingleVehicleController if single_vehicle else GeofenceCoordinator
    coordinator = controller(scenario.controller, rng_toss, control_enabled=scenario.control_enabled)
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
            for cyclist_id, vehicle_id in detect(world, scenario.detection_range):
                coordinator.on_detection(
                    cyclist_id,
                    world.vehicles[vehicle_id].position,
                    world.now,
                    detecting_vehicle_id=vehicle_id,
                )
            background_level = scenario.background_at(world.now)
            commands = coordinator.step(world.now, world.vehicles, background_level, world.index)
            world.pending_commands.extend(commands)
            # the one place commands apply: one logged with no latency is
            # due now, and in force in this row
            _apply_due_commands(world)
            rows.append(_trace_row(world, coordinator, background_level, rows[-1] if rows else None))
    finally:
        if collecting:
            gc.enable()
    return RunResult(trace=ScenarioTrace(rows=tuple(rows)), commands=tuple(coordinator.command_log))
