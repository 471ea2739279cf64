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

A command is written once, as a :class:`CommandRecord` appended to
``command_log``; both controllers' ``step`` returns the rows it appended,
and the engine queues and applies those same rows.

All state mutation happens through a serialized sequence of
``on_detection`` / ``step`` calls made by the simulation loop; the object
holds no threads or global state and can be moved wholesale between
execution contexts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .network import SpatialHash
from .optimizer import Assignment, GeofenceProblem, ProblemEntry, solve

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
    against.  ``actuation_latency`` delays the effect of every command;
    the HIL-emulation preset uses it to mimic a real drivetrain.
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

    @classmethod
    def hil_emulation(cls, **overrides) -> "ControllerConfig":
        """Preset mimicking a real vehicle: 5 s decisions, 5 s actuation."""
        params = {"tau": 5.0, "actuation_latency": 5.0}
        params.update(overrides)
        return cls(**params)


@dataclass
class Geofence:
    """A circular regulated zone bound to one detected cyclist tag.

    The fence also carries its decision state: when it next solves and
    next tosses (a new fence does both at its first step), and the problem
    it last solved with the assignment solved for it.  Every toss enacts
    that assignment on that problem's vehicles, rates and densities.
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


class VehicleSnapshot(NamedTuple):
    """What the coordinator is told about one vehicle at a decision instant.

    ``emission_rate`` is the vehicle's rate in polluting mode (g/min) at
    its current speed, and ``density_weight`` the cyclist-density weight of
    the road edge it currently occupies.  The simulation engine passes its
    live vehicle records instead, which carry the same attributes; this
    record is for every other caller.
    """

    vehicle_id: str
    position: Position
    emission_rate: float
    powertrain: Powertrain
    density_weight: float


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


def euclidean(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def members(fence: Geofence, positions: dict[str, Position]) -> set[str]:
    """Vehicle ids within the fence radius (boundary inclusive).

    The distance test is :func:`euclidean` written out, to the same bits.
    """
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
    step; it returns the command rows it logged, for the engine to queue.
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
        self.command_log: list[CommandRecord] = []
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
        """Log a command that enacts no assignment."""
        effective = now + self.config.actuation_latency
        self.command_log.append(
            _record(CommandRecord, (now, fence_id, vehicle_id, None, None, None, None, mode, effective))
        )

    # -- decisions ---------------------------------------------------------

    def _controllable(self, fence: Geofence, snapshots: Mapping[str, VehicleSnapshot]) -> tuple[str, ...]:
        """Ids of the fence members the coordinator may command, ascending.

        Pure-ICE vehicles cannot switch drivetrain and are left alone; the
        optional detector forcing removes the detecting vehicle from the
        problem as well (it is commanded electric directly).
        :meth:`build_problem` applies the same rule in its own loop.
        """
        detector = fence.last_detector_id if self.config.force_detector_electric else None
        pure_ice = Powertrain.PURE_ICE
        return tuple(
            vid
            for vid in fence.member_ids
            if snapshots[vid].powertrain is not pure_ice and vid != detector
        )

    def build_problem(
        self,
        fence: Geofence,
        snapshots: Mapping[str, VehicleSnapshot],
        limit: float,
    ) -> GeofenceProblem:
        """Assemble the assignment problem for one fence under ``limit`` g/min.

        The entries are the members :meth:`_controllable` names, in the
        same order, filtered here in the same pass that builds them.
        Each member enters with its snapshot's ``emission_rate``; pure
        EVs enter with a zero rate so the solver hands them probability 1
        at no budget cost.  A non-finite limit is rejected by
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

    def _toss_fence(self, fence: Geofence, snapshots: Mapping[str, VehicleSnapshot], now: float) -> None:
        """Enact the fence's last solved assignment by logging one coin toss per vehicle.

        Each command row carries the density and emission rate the
        assignment was solved with.  One uniform draw is consumed per
        problem entry in ascending vehicle-id order.  Pure EVs keep their
        draw for stream stability but are always commanded electric; they
        have no engine to pollute with.
        """
        effective = now + self.config.actuation_latency
        forced_detector: str | None = None
        if self.config.force_detector_electric and fence.last_detector_id in fence.member_ids:
            snap = snapshots[fence.last_detector_id]
            if snap.powertrain is not Powertrain.PURE_ICE:
                forced_detector = fence.last_detector_id
        fence_id = fence.fence_id
        values = fence.assignment.values
        toss = toss_polluting
        rng = self.rng
        controlled = self._controlled
        log = self.command_log.append
        pure_ev = Powertrain.PURE_EV
        for entry in fence.problem.entries:
            vehicle_id, density, rate = entry
            x = values[vehicle_id]
            polluting, draw = toss(x, rng)
            if snapshots[vehicle_id].powertrain is pure_ev:
                polluting = False
            else:
                controlled[vehicle_id] = fence_id
            mode = "polluting" if polluting else "electric"
            log(_record(CommandRecord, (now, fence_id, vehicle_id, density, rate, x, draw, mode, effective)))
        if forced_detector is not None:
            controlled[forced_detector] = fence_id
            self._command(now, fence_id, forced_detector, "electric")

    # -- per-step driver -----------------------------------------------------

    def step(
        self,
        now: float,
        snapshots: Mapping[str, VehicleSnapshot],
        background_level: float,
        grid: SpatialHash,
    ) -> list[CommandRecord]:
        """Advance the coordinator one simulation step; return the rows it logged.

        Order: expire stale fences, recompute memberships, restore vehicles
        that left every fence, then decide each fence in ascending id order.
        A fence whose solve is due builds its problem under the budget
        ``allowable_limit - background_level`` and solves it; the problem
        and its assignment are stored on the fence.  A fence whose toss is
        due tosses against the stored problem, so the commands log the
        rates and densities the assignment was solved for.  A toss over a
        different set of controllable vehicles than the stored problem's
        forces a fresh solve first, so the expected-rate budget always
        covers the vehicles actually being tossed.  Every command is
        appended to ``command_log``, and the return value is the list of
        rows appended during this call, in log order.

        Membership candidates come from ``grid``, a
        :class:`~ecofence.network.SpatialHash` of every vehicle in
        ``snapshots`` keyed by vehicle id at its ``position``; any cell
        size works, since the hash only prunes and ``members`` keeps the
        exact test.  The engine passes the one hash it builds per step.

        ``snapshots`` maps every vehicle on the road to a
        :class:`VehicleSnapshot` or any object with its attributes (the
        engine passes its live vehicle records).  Only ``emission_rate``,
        ``powertrain`` and ``density_weight`` are read, besides which ids
        are in ``snapshots``; the objects are never mutated and no
        reference to them is kept once ``step`` returns.
        """
        log = self.command_log
        start = len(log)
        self.expire(now)
        in_any_fence: set[str] = set()
        for fence in self.fences.values():
            fence.member_ids = tuple(sorted(members(fence, grid.near(fence.center, fence.radius))))
            in_any_fence.update(fence.member_ids)
        # only a controlled vehicle outside every fence can need a restore
        controlled = self._controlled
        for vid in sorted(controlled.keys() - in_any_fence):
            if vid not in snapshots:
                del controlled[vid]  # vehicle left the network
                continue
            self._restore(vid, controlled[vid], now)
        if not self.control_enabled:
            return log[start:]
        limit = self.config.allowable_limit - background_level
        for fence_id in sorted(self.fences):
            fence = self.fences[fence_id]
            solve_due = now >= fence.next_solve
            toss_due = now >= fence.next_toss
            if toss_due and not solve_due:
                solved = tuple(e.vehicle_id for e in fence.problem.entries)
                solve_due = solved != self._controllable(fence, snapshots)
            if solve_due:
                fence.problem = self.build_problem(fence, snapshots, limit)
                fence.assignment = solve(fence.problem)
                fence.next_solve = now + self.config.tau
            if toss_due:
                fence.next_toss = now + self.config.toss_interval
                self._toss_fence(fence, snapshots, now)
        return log[start:]

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
        snapshots: Mapping[str, VehicleSnapshot],
        background_level: float,
        grid: SpatialHash,
    ) -> list[CommandRecord]:
        """Command each detector electric while ``now - last <= expiry_timeout``
        and polluting after; pure EV reverts are skipped.  A pure ICE
        detector is never commanded, so its entry is dropped at once.
        Return the rows logged during this call, in log order.
        ``grid`` goes unread: no fence is kept to query it for."""
        log = self.command_log
        start = len(log)
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
        return log[start:]
