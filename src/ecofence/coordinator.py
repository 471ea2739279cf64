"""Geofence lifecycle and probabilistic mode commands.

The coordinator is the single decision authority of the system.  It owns
the set of active geofences (created when a vehicle detects a cyclist,
re-centred on every detection, removed after a detection-free timeout),
derives the emission budget from a background pollution reading, solves
the assignment problem for the vehicles inside each fence, and enacts the
result by a weighted coin toss per vehicle: polluting with probability
``x_i``, electric otherwise.

A fence decides every ``tau``, in one step: it builds its problem, solves
it and tosses against that solve in the same tick, so its only decision
state is the time of its next decision.  Single-vehicle mode, in which
only the detecting vehicle switches, is :class:`SingleVehicleController`,
a coordinator that keeps no fence.

Every command is logged in ``command_log``, a :class:`CommandLog` of
entries: a fence toss is kept as one :class:`FenceToss` of columns, and
each other command (a restore or a single-vehicle switch) as one
:class:`CommandRecord` row.  ``step`` returns the entries it appended,
the same objects, and the engine queues and applies them row by row;
:func:`commanded_modes` gives an entry's (vehicle, mode) pairs.

All state mutation happens through a serialized sequence of
``on_detection`` / ``step`` calls made by the simulation loop; the object
holds no threads or global state and can be moved wholesale between
execution contexts.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .network import SpatialHash
from .optimizer import Assignment, GeofenceProblem, ProblemEntry, solve

if TYPE_CHECKING:
    from .engine import VehicleState

Position = tuple[float, float]

# The per-vehicle loops build their NamedTuple records straight from a
# tuple: the generated constructor costs several times the tuple itself.
_record = tuple.__new__


class Powertrain(Enum):
    HYBRID = "hybrid"
    PURE_EV = "pure_ev"
    PURE_ICE = "pure_ice"


@dataclass(frozen=True)
class ControllerConfig:
    """Timing and budget parameters of the decision loop.

    ``tau`` is the interval between a fence's decisions, each a solve
    enacted at once by its coin tosses.  ``allowable_limit`` is the fixed
    aggregate allowance the background reading is referenced against.
    ``actuation_latency`` delays the effect of every command, as a real
    drivetrain would.
    """

    tau: float = 1.0
    expiry_timeout: float = 20.0
    allowable_limit: float = 1.0
    actuation_latency: float = 0.0
    radius: float = 100.0

    def __post_init__(self) -> None:
        # written so that NaN fails every test
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.expiry_timeout > 0 and math.isfinite(self.expiry_timeout)):
            raise ValueError("expiry_timeout must be positive and finite")
        if not (self.actuation_latency >= 0 and math.isfinite(self.actuation_latency)):
            raise ValueError("actuation_latency must be non-negative and finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if not math.isfinite(self.allowable_limit):
            raise ValueError("allowable_limit must be finite")


@dataclass
class Geofence:
    """A circular regulated zone bound to one detected cyclist tag.

    The fence also carries its decision state, ``next_solve``: the time
    of its next decision (a new fence decides at its first step).
    ``member_ids`` is replaced only when the members change, so the trace
    rows of the steps in between share one tuple.
    """

    fence_id: str
    center: Position
    radius: float
    created_at: float
    last_detection_at: float
    member_ids: tuple[str, ...] = ()
    next_solve: float = -math.inf

    def is_active(self, now: float, timeout: float) -> bool:
        return now - self.last_detection_at <= timeout


class CommandRecord(NamedTuple):
    """One issued command: the audit row, and the row the engine applies.

    At ``effective_time`` (``sim_time`` plus the actuation latency) the
    engine sets the vehicle's mode to ``commanded_mode``, ``"polluting"``
    or ``"electric"``.  Assignment fields are None for restore
    commands (a controlled vehicle outside every live fence) and for
    single-vehicle-mode commands.
    """

    sim_time: float
    fence_id: str
    vehicle_id: str
    density: float | None
    emission_rate: float | None
    assignment: float | None
    draw: float | None
    commanded_mode: str
    effective_time: float


class FenceToss(NamedTuple):
    """One fence toss: the rows of its problem's vehicles, as columns.

    Item ``i`` of the six columns is the row of one vehicle, in problem
    (ascending id) order; the time, the fence and the effective time are
    the same for every row.  The columns hold only strings and floats, the
    draws as an ``array('d')`` of 8 bytes each, so neither the problem's
    entries nor its assignment is kept alive.  The toss is one entry of
    the command log and of the engine's queue, which applies its
    ``vehicle_ids`` and ``modes`` row by row.
    """

    sim_time: float
    fence_id: str
    effective_time: float
    vehicle_ids: tuple[str, ...]
    densities: tuple[float, ...]
    rates: tuple[float, ...]
    assignments: tuple[float, ...]
    draws: array
    modes: tuple[str, ...]

    def records(self) -> list[CommandRecord]:
        """The toss's rows, built now."""
        head, tail = (self.sim_time, self.fence_id), (self.effective_time,)
        columns = zip(self.vehicle_ids, self.densities, self.rates, self.assignments, self.draws, self.modes)
        return [_record(CommandRecord, head + row + tail) for row in columns]


def commanded_modes(entry: CommandRecord | FenceToss) -> Iterable[tuple[str, str]]:
    """The (vehicle id, commanded mode) pairs of a log entry, in row order."""
    if type(entry) is FenceToss:
        return zip(entry.vehicle_ids, entry.modes)
    return ((entry.vehicle_id, entry.commanded_mode),)


class CommandLog:
    """Every command of a controller, in log order, read-only.

    ``entries`` holds one :class:`FenceToss` per fence toss and one
    :class:`CommandRecord` per other command.  ``len`` counts rows, and
    iteration yields every row as a :class:`CommandRecord`, building a
    toss's rows when they are read, as ``TraceRow.vehicles`` does.  A log
    compares ``==`` by its rows against another log, a list or a tuple of
    rows.  Only the controller that owns it calls ``append``.
    """

    __slots__ = ("entries", "_rows")

    def __init__(self) -> None:
        self.entries: list[CommandRecord | FenceToss] = []
        self._rows = 0

    def append(self, entry: CommandRecord | FenceToss) -> None:
        self._rows += len(entry.vehicle_ids) if type(entry) is FenceToss else 1
        self.entries.append(entry)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[CommandRecord]:
        for entry in self.entries:
            if type(entry) is FenceToss:
                yield from entry.records()
            else:
                yield entry

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CommandLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"CommandLog({list(self)!r})"


def members(fence: Geofence, positions: dict[str, Position]) -> set[str]:
    """Vehicle ids within the fence radius (boundary inclusive)."""
    cx, cy = fence.center
    radius = fence.radius
    hypot = math.hypot
    return {vid for vid, (x, y) in positions.items() if hypot(x - cx, y - cy) <= radius}


def toss_polluting(x: float, rng: random.Random) -> tuple[bool, float]:
    """Weighted coin toss: polluting iff the uniform draw lands below x.

    Draws are from [0, 1), so x = 1 is always polluting and x = 0 never is.
    """
    u = rng.random()
    return u < x, u


class GeofenceCoordinator:
    """Serialized decision authority over fences, budgets and mode commands.

    The simulation loop feeds it detections and one ``step`` call per time
    step; it returns the log entries it appended, for the engine to queue.
    With ``control_enabled=False`` it still tracks fence lifecycle (so
    baseline runs record comparable fence state) but never solves, never
    draws from the toss stream and never issues commands.
    """

    def __init__(
        self,
        config: ControllerConfig,
        rng: random.Random,
        control_enabled: bool = True,
    ) -> None:
        self.config = config
        self.rng = rng
        self.control_enabled = control_enabled
        self.fences: dict[str, Geofence] = {}
        self.command_log = CommandLog()
        self._controlled: dict[str, str] = {}  # hybrid vehicle -> fence id

    # -- lifecycle ---------------------------------------------------------

    def on_detection(
        self,
        cyclist_id: str,
        position: Position,
        now: float,
        detecting_vehicle_id: str | None = None,
    ) -> Geofence | None:
        """Register a detection: create or re-centre the cyclist's fence.

        The fence centre is the detecting vehicle's location, the only
        cyclist-position proxy the system has.  ``detecting_vehicle_id`` is
        read only by :class:`SingleVehicleController`.
        """
        fence = self.fences.get(cyclist_id)
        if fence is None:
            fence = Geofence(
                fence_id=cyclist_id,
                center=position,
                radius=self.config.radius,
                created_at=now,
                last_detection_at=now,
            )
            self.fences[cyclist_id] = fence
        else:
            fence.center = position
            fence.last_detection_at = now
        return fence

    def expire(self, now: float) -> None:
        """Drop fences whose last detection is stale.

        A fence is retained at exactly the timeout boundary and removed
        strictly after it.  Its members are restored by ``step``, once
        they are outside every live fence.
        """
        for fence_id in list(self.fences):
            if not self.fences[fence_id].is_active(now, self.config.expiry_timeout):
                del self.fences[fence_id]

    def _restore(self, vehicle_id: str, fence_id: str, now: float) -> None:
        del self._controlled[vehicle_id]
        self._command(now, fence_id, vehicle_id, "polluting")

    def _command(self, now: float, fence_id: str, vehicle_id: str, mode: str) -> None:
        """Log a command that enacts no assignment."""
        effective = now + self.config.actuation_latency
        self.command_log.append(
            _record(CommandRecord, (now, fence_id, vehicle_id, None, None, None, None, mode, effective))
        )

    # -- decisions ---------------------------------------------------------

    def build_problem(
        self,
        fence: Geofence,
        snapshots: Mapping[str, VehicleState],
        limit: float,
    ) -> GeofenceProblem:
        """Assemble the assignment problem for one fence under ``limit`` g/min.

        The entries are the fence members the coordinator may command, in
        ascending id order.  Pure-ICE vehicles cannot switch drivetrain and
        are left out.  Each member enters with its record's
        ``emission_rate``; pure EVs enter with a zero rate so the solver
        hands them probability 1 at no budget cost.  A non-finite limit is
        rejected by :class:`GeofenceProblem`.
        """
        pure_ev, pure_ice = Powertrain.PURE_EV, Powertrain.PURE_ICE
        entries = []
        append = entries.append
        for vid in fence.member_ids:
            snap = snapshots[vid]
            powertrain = snap.powertrain
            if powertrain is pure_ice:
                continue
            rate = 0.0 if powertrain is pure_ev else snap.emission_rate
            append(_record(ProblemEntry, (vid, snap.density_weight, rate)))
        return GeofenceProblem(entries=tuple(entries), limit=limit)

    def _toss_fence(
        self,
        fence: Geofence,
        problem: GeofenceProblem,
        assignment: Assignment,
        snapshots: Mapping[str, VehicleState],
        now: float,
    ) -> None:
        """Enact ``assignment``, solved for the fence's ``problem`` this
        tick, by one coin toss per vehicle, logged as one :class:`FenceToss`.

        Each row carries the density and emission rate the assignment was
        solved with.  One uniform draw is consumed per problem entry in
        ascending vehicle-id order.  Pure EVs keep their draw for stream
        stability but are always commanded electric; they have no engine
        to pollute with.
        """
        entries = problem.entries
        if entries:
            effective = now + self.config.actuation_latency
            fence_id = fence.fence_id
            vehicle_ids, densities, rates = zip(*entries)
            if vehicle_ids == fence.member_ids:
                vehicle_ids = fence.member_ids  # the tuple the trace rows keep
            assignments = tuple(map(assignment.values.__getitem__, vehicle_ids))
            draws, modes = [], []
            add_draw, add_mode = draws.append, modes.append
            toss = toss_polluting
            rng = self.rng
            controlled = self._controlled
            pure_ev = Powertrain.PURE_EV
            for vehicle_id, x in zip(vehicle_ids, assignments):
                polluting, draw = toss(x, rng)
                if snapshots[vehicle_id].powertrain is pure_ev:
                    polluting = False
                else:
                    controlled[vehicle_id] = fence_id
                add_draw(draw)
                add_mode("polluting" if polluting else "electric")
            columns = (vehicle_ids, densities, rates, assignments, array("d", draws), tuple(modes))
            self.command_log.append(_record(FenceToss, (now, fence_id, effective, *columns)))

    # -- per-step driver -----------------------------------------------------

    def step(
        self,
        now: float,
        snapshots: Mapping[str, VehicleState],
        background_level: float,
        grid: SpatialHash,
    ) -> list[CommandRecord | FenceToss]:
        """Advance the coordinator one simulation step; return the entries
        it appended to ``command_log``, in log order.

        Order: expire stale fences, recompute memberships (a fence keeps
        its ``member_ids`` tuple when the members are the same), restore
        the controlled vehicles still on the road that are outside every
        live fence (the one restore path, in ascending id order; a restore
        names the fence of the vehicle's last decision), then decide each
        fence in ascending id order.
        A fence whose decision is due (every ``tau``) builds its problem
        under the budget ``allowable_limit - background_level``, solves it
        and tosses against that solve at once, so the commands log the
        rates and densities the assignment was solved for, and the
        expected-rate budget covers exactly the vehicles tossed.

        Membership candidates come from ``grid``, a
        :class:`~ecofence.network.SpatialHash` of every vehicle in
        ``snapshots`` keyed by vehicle id at its ``position``; any cell
        size works, since the hash only prunes and ``members`` keeps the
        exact test.  The engine passes the one hash it builds per step.

        ``snapshots`` maps every vehicle on the road to its live
        :class:`~ecofence.engine.VehicleState` record.  Only
        ``emission_rate``, ``powertrain`` and ``density_weight`` are read,
        besides which ids are in ``snapshots``; the records are never
        mutated and no reference to them is kept once ``step`` returns.
        """
        entries = self.command_log.entries
        logged = len(entries)
        self.expire(now)
        in_any_fence: set[str] = set()
        for fence in self.fences.values():
            inside = tuple(sorted(members(fence, grid.near(fence.center, fence.radius))))
            if inside != fence.member_ids:  # an equal tuple is kept, for the trace rows to share
                fence.member_ids = inside
            in_any_fence.update(inside)
        # only a controlled vehicle outside every fence can need a restore
        controlled = self._controlled
        for vid in sorted(controlled.keys() - in_any_fence):
            if vid not in snapshots:
                del controlled[vid]  # vehicle left the network
                continue
            self._restore(vid, controlled[vid], now)
        if not self.control_enabled:
            return entries[logged:]
        limit = self.config.allowable_limit - background_level
        for fence_id in sorted(self.fences):
            fence = self.fences[fence_id]
            if now >= fence.next_solve:
                problem = self.build_problem(fence, snapshots, limit)
                self._toss_fence(fence, problem, solve(problem), snapshots, now)
                fence.next_solve = now + self.config.tau
        return entries[logged:]

    def active_fences(self) -> list[Geofence]:
        return [self.fences[fid] for fid in sorted(self.fences)]


class SingleVehicleController(GeofenceCoordinator):
    """Single-vehicle mode: each detector goes electric until its latest
    detection expires.  No fence is kept (``fences`` stays empty), nothing
    is solved or tossed, and a command's ``fence_id`` is the cyclist's id."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seen: dict[str, tuple[float, str]] = {}  # vehicle -> (time, cyclist)
        self._electric: set[str] = set()

    def on_detection(
        self, cyclist_id: str, position: Position, now: float, detecting_vehicle_id: str | None = None
    ) -> None:
        """Refresh the detecting vehicle's timer."""
        if detecting_vehicle_id is not None:
            self._seen[detecting_vehicle_id] = (now, cyclist_id)

    def step(
        self,
        now: float,
        snapshots: Mapping[str, VehicleState],
        background_level: float,
        grid: SpatialHash,
    ) -> list[CommandRecord]:
        """Command each detector electric while ``now - last <= expiry_timeout``
        and polluting after; pure EV reverts are skipped.  A pure ICE
        detector is never commanded, so its entry is dropped at once.
        Return the records logged during this call, as
        :meth:`GeofenceCoordinator.step` does.
        ``grid`` goes unread: no fence is kept to query it for."""
        entries = self.command_log.entries
        logged = len(entries)
        for vid in sorted(self._seen):
            last, cyclist_id = self._seen[vid]
            if vid not in snapshots:
                del self._seen[vid]
                self._electric.discard(vid)
                continue
            if snapshots[vid].powertrain is Powertrain.PURE_ICE:
                del self._seen[vid]
                continue
            fresh = now - last <= self.config.expiry_timeout
            if fresh and vid not in self._electric:
                self._electric.add(vid)
                mode = "electric"
            elif not fresh and vid in self._electric:
                self._electric.discard(vid)
                del self._seen[vid]
                if snapshots[vid].powertrain is Powertrain.PURE_EV:
                    continue
                mode = "polluting"
            else:
                continue
            self._command(now, cyclist_id, vid, mode)
        return entries[logged:]
