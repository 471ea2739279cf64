"""Geofence lifecycle and probabilistic mode commands.

The coordinator is the single decision authority of the system.  It owns
the set of active geofences (created when a vehicle detects a cyclist,
re-centred on every detection, removed after a detection-free timeout),
derives the emission budget from a background pollution reading, solves
the assignment problem for the vehicles inside each fence, and enacts the
result by a weighted coin toss per vehicle: polluting with probability
``x_i``, electric otherwise.

Each fence keeps its own decision state: its next solve and toss times
(every ``tau`` and every ``switch_interval``) and the problem it last
solved with the assignment solved for it.  ``step`` has one path per
fence: solve if due, then toss against the stored solve if due.
Single-vehicle mode, in which only the detecting vehicle switches, is
:class:`SingleVehicleController`, a coordinator that keeps no fence.

Every command is logged in ``command_log``, a :class:`CommandLog` that
reads as a sequence of :class:`CommandRecord` rows: a fence toss is kept
as one :class:`FenceToss` of columns, and each other command (a restore,
a forced detector, a single-vehicle switch) as one row.  ``step`` returns
only the rows that change the mode the controller last commanded their
vehicle, and the engine queues those.  That leaves the trace as it would
be with every row queued: effective times never decrease in log order,
so a dropped row would be applied after the row it repeats, to a vehicle
already in its mode, under the same powertrain guards.

All state mutation happens through a serialized sequence of
``on_detection`` / ``step`` calls made by the simulation loop; the object
holds no threads or global state and can be moved wholesale between
execution contexts.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice
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

    ``tau`` is the interval between optimization decisions,
    ``switch_interval`` the interval between coin tosses (defaults to
    ``tau`` so every decision is enacted immediately).  ``allowable_limit``
    is the fixed aggregate allowance the background reading is referenced
    against.  ``actuation_latency`` delays the effect of every command,
    as a real drivetrain would.
    """

    tau: float = 1.0
    expiry_timeout: float = 20.0
    allowable_limit: float = 1.0
    actuation_latency: float = 0.0
    switch_interval: float | None = None
    radius: float = 100.0
    force_detector_electric: bool = False

    def __post_init__(self) -> None:
        # written so that NaN fails every test
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.expiry_timeout > 0 and math.isfinite(self.expiry_timeout)):
            raise ValueError("expiry_timeout must be positive and finite")
        if not (self.actuation_latency >= 0 and math.isfinite(self.actuation_latency)):
            raise ValueError("actuation_latency must be non-negative and finite")
        if self.switch_interval is not None and not (
            self.switch_interval > 0 and math.isfinite(self.switch_interval)
        ):
            raise ValueError("switch_interval must be positive and finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if not math.isfinite(self.allowable_limit):
            raise ValueError("allowable_limit must be finite")

    @property
    def toss_interval(self) -> float:
        return self.switch_interval if self.switch_interval is not None else self.tau


@dataclass
class Geofence:
    """A circular regulated zone bound to one detected cyclist tag.

    The fence also carries its decision state: when it next solves and
    next tosses (a new fence does both at its first step), and the problem
    it last solved with the assignment solved for it.  Every toss enacts
    that assignment on that problem's vehicles, rates and densities.
    ``member_ids`` is replaced only when the members change, so the trace
    rows of the steps in between share one tuple.
    """

    fence_id: str
    center: Position
    radius: float
    created_at: float
    last_detection_at: float
    member_ids: tuple[str, ...] = ()
    last_detector_id: str | None = None
    next_solve: float = -math.inf
    next_toss: float = -math.inf
    problem: GeofenceProblem | None = None
    assignment: Assignment | None = None

    def is_active(self, now: float, timeout: float) -> bool:
        return now - self.last_detection_at <= timeout


class CommandRecord(NamedTuple):
    """One issued command: the audit row, and the row the engine applies.

    At ``effective_time`` (``sim_time`` plus the actuation latency) the
    engine sets the vehicle's mode to ``commanded_mode``, ``"polluting"``
    or ``"electric"``.  Assignment fields are None for restore
    commands (fence expiry or a vehicle leaving the fence) and for
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
    entries nor its assignment is kept alive.
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

    def records(self, start: int = 0, stop: int | None = None) -> list[CommandRecord]:
        """Rows ``start`` to ``stop`` (exclusive), built now."""
        head, tail = (self.sim_time, self.fence_id), (self.effective_time,)
        columns = zip(self.vehicle_ids, self.densities, self.rates, self.assignments, self.draws, self.modes)
        return [_record(CommandRecord, head + row + tail) for row in islice(columns, start, stop)]


class CommandLog(Sequence):
    """Every command row of a controller, in log order, read-only.

    The log keeps one entry per :class:`FenceToss` and per single
    :class:`CommandRecord`, and builds a toss's rows each time they are
    read, as ``TraceRow.vehicles`` does.  It supports ``len``, iteration,
    indexes (negative ones too), slices (a list) and ``==`` against
    another log, a list or a tuple of rows.  Only the controller that
    owns it calls ``append``.
    """

    __slots__ = ("_entries", "_ends")

    def __init__(self) -> None:
        self._entries: list[CommandRecord | FenceToss] = []
        self._ends = array("q")  # rows logged up to and including each entry

    def append(self, entry: CommandRecord | FenceToss) -> None:
        ends = self._ends
        rows = len(entry.vehicle_ids) if type(entry) is FenceToss else 1
        ends.append((ends[-1] if ends else 0) + rows)
        self._entries.append(entry)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _locate(self, index: int) -> tuple[int, int]:
        """(entry, row within it) of the ``index``-th row."""
        at = bisect_right(self._ends, index)
        return at, index - (self._ends[at - 1] if at else 0)

    def _rows_from(self, index: int) -> Iterator[CommandRecord]:
        at, skip = self._locate(index)
        for entry in islice(self._entries, at, None):
            if type(entry) is FenceToss:
                yield from entry.records(skip)
            else:
                yield entry
            skip = 0

    def __iter__(self) -> Iterator[CommandRecord]:
        return self._rows_from(0)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, int):
            at, row = self._locate(picked)
            entry = self._entries[at]
            return entry.records(row, row + 1)[0] if type(entry) is FenceToss else entry
        if not picked or picked.step < 0:
            return [self[i] for i in picked]
        return list(islice(self._rows_from(picked.start), 0, picked.stop - picked.start, picked.step))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CommandLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"CommandLog({list(self)!r})"


def _vehicle_ids(problem: GeofenceProblem) -> list[str]:
    return [entry.vehicle_id for entry in problem.entries]


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
    step; it returns the logged rows that switch a vehicle's commanded
    mode, for the engine to queue.
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
        self._commanded: dict[str, str] = {}  # vehicle -> mode last commanded
        self._switches: list[CommandRecord] = []  # rows the current step returns

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
        cyclist-position proxy the system has.
        """
        fence = self.fences.get(cyclist_id)
        if fence is None:
            fence = Geofence(
                fence_id=cyclist_id,
                center=position,
                radius=self.config.radius,
                created_at=now,
                last_detection_at=now,
                last_detector_id=detecting_vehicle_id,
            )
            self.fences[cyclist_id] = fence
        else:
            fence.center = position
            fence.last_detection_at = now
            fence.last_detector_id = detecting_vehicle_id
        return fence

    def expire(self, now: float) -> None:
        """Drop fences whose last detection is stale and restore their members.

        A fence is retained at exactly the timeout boundary and removed
        strictly after it.
        """
        for fence_id in list(self.fences):
            fence = self.fences[fence_id]
            if not fence.is_active(now, self.config.expiry_timeout):
                del self.fences[fence_id]
                for vid in sorted(v for v, f in self._controlled.items() if f == fence_id):
                    self._restore(vid, fence_id, now)

    def _restore(self, vehicle_id: str, fence_id: str, now: float) -> None:
        del self._controlled[vehicle_id]
        self._command(now, fence_id, vehicle_id, "polluting")

    def _command(self, now: float, fence_id: str, vehicle_id: str, mode: str) -> None:
        """Log a command that enacts no assignment, and return it from the
        step if it switches the vehicle's commanded mode."""
        effective = now + self.config.actuation_latency
        record = _record(CommandRecord, (now, fence_id, vehicle_id, None, None, None, None, mode, effective))
        self.command_log.append(record)
        if self._commanded.get(vehicle_id) != mode:
            self._commanded[vehicle_id] = mode
            self._switches.append(record)

    def _start_step(self, snapshots: Mapping[str, VehicleState]) -> list[CommandRecord]:
        """Begin a step: forget the vehicles that left ``snapshots`` (their
        next command counts as a first one) and return the step's empty
        list of switches."""
        commanded = self._commanded
        if not commanded.keys() <= snapshots.keys():
            for vid in commanded.keys() - snapshots.keys():
                del commanded[vid]
        self._switches = []
        return self._switches

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
        are left out; the optional detector forcing leaves the detecting
        vehicle out as well (it is commanded electric directly).  Each
        member enters with its record's ``emission_rate``; pure EVs enter
        with a zero rate so the solver hands them probability 1 at no
        budget cost.  A non-finite limit is rejected by
        :class:`GeofenceProblem`.
        """
        detector = fence.last_detector_id if self.config.force_detector_electric else None
        pure_ev, pure_ice = Powertrain.PURE_EV, Powertrain.PURE_ICE
        entries = []
        append = entries.append
        for vid in fence.member_ids:
            snap = snapshots[vid]
            powertrain = snap.powertrain
            if powertrain is pure_ice or vid == detector:
                continue
            rate = 0.0 if powertrain is pure_ev else snap.emission_rate
            append(_record(ProblemEntry, (vid, snap.density_weight, rate)))
        return GeofenceProblem(entries=tuple(entries), limit=limit)

    def _toss_fence(self, fence: Geofence, snapshots: Mapping[str, VehicleState], now: float) -> None:
        """Enact the fence's last solved assignment by one coin toss per
        vehicle, logged as one :class:`FenceToss`.

        Each row carries the density and emission rate the assignment was
        solved with.  One uniform draw is consumed per problem entry in
        ascending vehicle-id order.  Pure EVs keep their draw for stream
        stability but are always commanded electric; they have no engine
        to pollute with.  A row that switches its vehicle's commanded mode
        is also built as a :class:`CommandRecord` for the step to return.
        """
        effective = now + self.config.actuation_latency
        forced_detector: str | None = None
        if self.config.force_detector_electric and fence.last_detector_id in fence.member_ids:
            snap = snapshots[fence.last_detector_id]
            if snap.powertrain is not Powertrain.PURE_ICE:
                forced_detector = fence.last_detector_id
        fence_id = fence.fence_id
        entries = fence.problem.entries
        if entries:
            vehicle_ids, densities, rates = zip(*entries)
            if vehicle_ids == fence.member_ids:
                vehicle_ids = fence.member_ids  # the tuple the trace rows keep
            assignments = tuple(map(fence.assignment.values.__getitem__, vehicle_ids))
            draws, modes = [], []
            add_draw, add_mode = draws.append, modes.append
            toss = toss_polluting
            rng = self.rng
            controlled, commanded, switches = self._controlled, self._commanded, self._switches
            pure_ev = Powertrain.PURE_EV
            for vehicle_id, density, rate, x in zip(vehicle_ids, densities, rates, assignments):
                polluting, draw = toss(x, rng)
                if snapshots[vehicle_id].powertrain is pure_ev:
                    polluting = False
                else:
                    controlled[vehicle_id] = fence_id
                mode = "polluting" if polluting else "electric"
                add_draw(draw)
                add_mode(mode)
                if commanded.get(vehicle_id) != mode:
                    commanded[vehicle_id] = mode
                    switches.append(
                        _record(CommandRecord, (now, fence_id, vehicle_id, density, rate, x, draw, mode, effective))
                    )
            columns = (vehicle_ids, densities, rates, assignments, array("d", draws), tuple(modes))
            self.command_log.append(_record(FenceToss, (now, fence_id, effective, *columns)))
        if forced_detector is not None:
            # only a hybrid is restored to polluting, as in the toss loop
            if snapshots[forced_detector].powertrain is Powertrain.HYBRID:
                self._controlled[forced_detector] = fence_id
            self._command(now, fence_id, forced_detector, "electric")

    # -- per-step driver -----------------------------------------------------

    def step(
        self,
        now: float,
        snapshots: Mapping[str, VehicleState],
        background_level: float,
        grid: SpatialHash,
    ) -> list[CommandRecord]:
        """Advance the coordinator one simulation step; return the rows it
        logged that switch a vehicle's commanded mode.

        Order: expire stale fences, recompute memberships (a fence keeps
        its ``member_ids`` tuple when the members are the same), restore
        vehicles that left every fence, then decide each fence in
        ascending id order.
        A fence whose solve is due builds its problem under the budget
        ``allowable_limit - background_level`` and solves it; the problem
        and its assignment are stored on the fence.  A fence whose toss is
        due tosses against the stored problem, so the commands log the
        rates and densities the assignment was solved for.  A toss over a
        different set of controllable vehicles than the stored problem's
        forces a fresh solve first, so the expected-rate budget always
        covers the vehicles actually being tossed.  Every command is
        appended to ``command_log``.  The return value lists, in log order,
        the rows of this call whose mode differs from the mode last
        commanded to their vehicle; a vehicle's first command counts, and
        a vehicle is forgotten once it is missing from ``snapshots``.

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
        switches = self._start_step(snapshots)
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
            return switches
        limit = self.config.allowable_limit - background_level
        for fence_id in sorted(self.fences):
            fence = self.fences[fence_id]
            solve_due = now >= fence.next_solve
            toss_due = now >= fence.next_toss
            if solve_due or toss_due:
                problem = self.build_problem(fence, snapshots, limit)
                # a toss between solves solves again if the vehicles changed
                solve_due = solve_due or _vehicle_ids(problem) != _vehicle_ids(fence.problem)
            if solve_due:
                fence.problem = problem
                fence.assignment = solve(problem)
                fence.next_solve = now + self.config.tau
            if toss_due:
                fence.next_toss = now + self.config.toss_interval
                self._toss_fence(fence, snapshots, now)
        return switches

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
        Return the rows logged during this call that switch a vehicle's
        commanded mode, as :meth:`GeofenceCoordinator.step` does.
        ``grid`` goes unread: no fence is kept to query it for."""
        switches = self._start_step(snapshots)
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
        return switches
