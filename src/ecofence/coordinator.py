"""Geofence lifecycle and probabilistic mode commands.

The coordinator is the single decision authority of the system.  It owns
the set of active geofences (created when a vehicle detects a cyclist,
re-centred on every detection, removed after a detection-free timeout),
derives the emission budget from a background pollution reading, solves
the assignment problem for the hybrid vehicles inside each fence, and
enacts the result by a weighted coin per vehicle: polluting with
probability ``x_i``, electric otherwise.  Only an uncertain coin, 0 <
``x_i`` < 1, is tossed with a draw from the toss stream; the greedy fill
leaves at most one per fence, and every other vehicle's outcome is known
(x = 1 is polluting, x = 0 electric).

Only a hybrid can switch drivetrain, so only a hybrid is ever commanded.
A pure EV or pure ICE vehicle inside a fence is still one of its members,
and its rate counts toward the in-fence aggregate, but it enters no
problem, no toss and no command: ``build_problem`` leaves it out, and
single-vehicle mode drops such a detector.

A fence decides every ``tau``, in one step: it builds its problem, solves
it and tosses against that solve in the same tick, so its only decision
state is the time of its next decision.  Every mode keeps the same fence
lifecycle and the same ``step``; a mode differs only in ``_decide``.
Single-vehicle mode, in which only the detecting vehicle switches, is
:class:`SingleVehicleController`, which overrides that decision alone.

Every command is logged in ``command_log``, a plain list of entries: a
fence toss is kept as one :class:`FenceToss` of columns, and each other
command (a restore or a single-vehicle switch) as one
:class:`CommandRecord` row.  No per-row form of a toss is built; its
readers zip the columns.  ``step`` returns the entries it appended, the
same objects, and the engine queues and applies them row by row;
:func:`commanded_modes` gives an entry's (vehicle, mode) pairs.

All state mutation happens through a serialized sequence of
``on_detection`` / ``step`` calls made by the simulation loop; the object
holds no threads or global state and can be moved wholesale between
execution contexts.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from typing import TYPE_CHECKING, NamedTuple

from .network import Point, VehicleIndex
from .optimizer import Assignment, GeofenceProblem, solve

if TYPE_CHECKING:
    from .engine import VehicleState

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
    center: Point
    radius: float
    created_at: float
    last_detection_at: float
    member_ids: tuple[str, ...] = ()
    next_solve: float = -math.inf

    def is_active(self, now: float, timeout: float) -> bool:
        return now - self.last_detection_at <= timeout


class CommandRecord(NamedTuple):
    """One issued command that enacts no assignment, in the columns of
    ``commands.csv``: a restore (a controlled vehicle outside every live
    fence) or a single-vehicle-mode command.

    At ``effective_time`` (``sim_time`` plus the actuation latency) the
    engine sets the vehicle's mode to ``commanded_mode``, ``"polluting"``
    or ``"electric"``.  The coordinator leaves ``density``,
    ``emission_rate``, ``assignment`` and ``draw`` None; the rows of a
    fence toss are kept as one :class:`FenceToss` instead.
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

    Item ``i`` of ``vehicle_ids``, ``densities``, ``rates``,
    ``assignments`` and ``modes`` is the row of one vehicle, in problem
    (ascending id) order; the time, the fence and the effective time are
    the same for every row.  ``draws`` holds only the draws made, one per
    row with 0 < x < 1, in row order: the greedy fill leaves at most one
    such row, so it is mostly empty.  The columns hold only strings and
    floats.  ``vehicle_ids``, ``densities`` and ``rates`` are the
    problem's own columns and ``assignments`` is the assignment's ``x``,
    so neither the :class:`~ecofence.optimizer.GeofenceProblem` nor its
    :class:`~ecofence.optimizer.Assignment` is kept alive.  The toss is one
    entry of the command log and of the engine's queue, which applies its
    ``vehicle_ids`` and ``modes`` row by row.
    """

    sim_time: float
    fence_id: str
    effective_time: float
    vehicle_ids: tuple[str, ...]
    densities: tuple[float, ...]
    rates: tuple[float, ...]
    assignments: tuple[float, ...]
    draws: tuple[float, ...]
    modes: tuple[str, ...]


def commanded_modes(entry: CommandRecord | FenceToss) -> Iterable[tuple[str, str]]:
    """The (vehicle id, commanded mode) pairs of a log entry, in row order."""
    if type(entry) is FenceToss:
        return zip(entry.vehicle_ids, entry.modes)
    return ((entry.vehicle_id, entry.commanded_mode),)


def members(fence: Geofence, candidates: Mapping[str, VehicleState]) -> set[str]:
    """Ids of the ``candidates`` records whose ``position`` lies within the
    fence radius (boundary inclusive)."""
    cx, cy = fence.center
    radius = fence.radius
    hypot = math.hypot
    return {
        vid
        for vid, record in candidates.items()
        for x, y in (record.position,)
        if hypot(x - cx, y - cy) <= radius
    }


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

    ``in_fence_ids`` is the set of vehicles inside some live fence, as the
    last ``step`` found them; the trace row reads it for its in-fence rate.
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
        self.command_log: list[CommandRecord | FenceToss] = []
        self._controlled: dict[str, str] = {}  # hybrid vehicle -> fence id
        self.in_fence_ids: set[str] = set()

    # -- lifecycle ---------------------------------------------------------

    def on_detection(
        self,
        cyclist_id: str,
        position: Point,
        now: float,
        detecting_vehicle_id: str | None = None,
    ) -> Geofence:
        """Register a detection: create or re-centre the cyclist's fence,
        and return it; every mode keeps its fences.

        The fence centre is the detecting vehicle's location, the only
        cyclist-position proxy the system has.  ``detecting_vehicle_id`` is
        read only by :class:`SingleVehicleController`, which refreshes that
        vehicle's timer before the fence is created or re-centred.
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

        The problem's vehicles are the fence's hybrid members, in ascending
        id order: only a hybrid can switch between polluting and electric,
        so a pure EV or pure ICE member is left out of every decision.
        Each hybrid enters with its record's ``density_weight`` and
        ``emission_rate``, read once.  When every member is a hybrid, the
        ids column is ``fence.member_ids`` itself, the tuple the trace rows
        keep.  Nothing is checked here: the densities and rates were
        checked when the scenario loaded, and ``step`` checks that the
        limit is finite.
        """
        hybrid = Powertrain.HYBRID
        member_ids = fence.member_ids
        vehicle_ids, densities, rates = [], [], []
        add_id, add_density, add_rate = vehicle_ids.append, densities.append, rates.append
        for vid in member_ids:
            snap = snapshots[vid]
            if snap.powertrain is hybrid:
                add_id(vid)
                add_density(snap.density_weight)
                add_rate(snap.emission_rate)
        if len(vehicle_ids) == len(member_ids):
            vehicle_ids = member_ids
        return GeofenceProblem(tuple(vehicle_ids), tuple(densities), tuple(rates), limit)

    def _toss_fence(
        self,
        fence: Geofence,
        problem: GeofenceProblem,
        assignment: Assignment,
        now: float,
    ) -> None:
        """Enact ``assignment``, solved for the fence's ``problem`` this
        tick, by one coin per vehicle, logged as one :class:`FenceToss`.

        Each row carries the density and emission rate the assignment was
        solved with.  Only a row with 0 < x < 1 draws, one uniform from
        the toss stream each, in ascending vehicle-id order; a row with
        x = 1 is polluting and one with x = 0 electric, so every outcome
        keeps its Bernoulli(x) distribution.  The modes start all electric
        and only the rows with x > 0 are visited.  Every vehicle tossed is
        a hybrid, now controlled by the fence until ``step`` restores it.
        """
        vehicle_ids = problem.vehicle_ids
        if vehicle_ids:
            effective = now + self.config.actuation_latency
            fence_id = fence.fence_id
            assignments = assignment.x
            n = len(vehicle_ids)
            modes = ["electric"] * n
            draws = []
            for i in compress(range(n), assignments):
                x = assignments[i]
                if x < 1.0:
                    polluting, draw = toss_polluting(x, self.rng)
                    draws.append(draw)
                    if polluting:
                        modes[i] = "polluting"
                else:
                    modes[i] = "polluting"
            self._controlled.update(zip(vehicle_ids, repeat(fence_id)))
            columns = (vehicle_ids, problem.densities, problem.rates, assignments, tuple(draws), tuple(modes))
            self.command_log.append(_record(FenceToss, (now, fence_id, effective, *columns)))

    # -- per-step driver -----------------------------------------------------

    def step(
        self,
        now: float,
        snapshots: Mapping[str, VehicleState],
        background_level: float,
        index: VehicleIndex,
    ) -> list[CommandRecord | FenceToss]:
        """Advance the coordinator one simulation step; return the entries
        it appended to ``command_log``, in log order.

        Order: expire stale fences, recompute memberships, restore
        the controlled vehicles still on the road that are outside every
        live fence (the one restore path, in ascending id order; a restore
        names the fence of the vehicle's last decision), then, under
        control, ``_decide`` under the budget ``allowable_limit -
        background_level``, which must be finite.  Only ``_decide``
        differs between modes.

        A fence keeps its ``member_ids`` tuple while its members stay the
        same, and is given the members newly sorted only when the set
        found differs from it: a length check, then one ``issuperset``,
        which together test equality without sorting.  So a member that
        leaves as another enters, at the same size, is caught, and the
        trace rows of unchanged steps share one tuple.

        Membership candidates come from ``index``, a
        :class:`~ecofence.network.VehicleIndex` that holds exactly the
        records of ``snapshots``, each at its ``position``; any cell size
        works, since the index only prunes and ``members`` keeps the exact
        test.  The engine passes ``World.index``, the one index of the run,
        which it keeps current as vehicles spawn, change edge and arrive.

        ``snapshots`` maps every vehicle on the road to its live
        :class:`~ecofence.engine.VehicleState` record.  Only
        ``emission_rate``, ``powertrain`` and ``density_weight`` are read,
        besides which ids are in ``snapshots``; the records are never
        mutated and no reference to them is kept once ``step`` returns.
        """
        logged = len(self.command_log)
        self.expire(now)
        in_any_fence: set[str] = set()
        for fence in self.fences.values():
            inside = members(fence, index.near(fence.center, fence.radius))
            kept = fence.member_ids
            if len(inside) != len(kept) or not inside.issuperset(kept):
                fence.member_ids = tuple(sorted(inside))
            in_any_fence.update(inside)
        self.in_fence_ids = in_any_fence
        # only a controlled vehicle outside every fence can need a restore
        controlled = self._controlled
        for vid in sorted(controlled.keys() - in_any_fence):
            if vid not in snapshots:
                del controlled[vid]  # vehicle left the network
                continue
            self._restore(vid, controlled[vid], now)
        if self.control_enabled:
            limit = self.config.allowable_limit - background_level
            if not math.isfinite(limit):
                raise ValueError(f"budget must be finite, got {limit!r}")
            self._decide(now, snapshots, limit)
        return self.command_log[logged:]

    def _decide(self, now: float, snapshots: Mapping[str, VehicleState], limit: float) -> None:
        """Decide each fence whose decision is due (every ``tau``), in
        ascending id order: build its problem under ``limit``, solve it and
        toss against that solve at once, so the commands log the rates and
        densities the assignment was solved for, and the expected-rate
        budget covers exactly the vehicles tossed."""
        for fence_id in sorted(self.fences):
            fence = self.fences[fence_id]
            if now >= fence.next_solve:
                problem = self.build_problem(fence, snapshots, limit)
                self._toss_fence(fence, problem, solve(problem), now)
                fence.next_solve = now + self.config.tau

    def active_fences(self) -> list[Geofence]:
        return [self.fences[fid] for fid in sorted(self.fences)]


class SingleVehicleController(GeofenceCoordinator):
    """Single-vehicle mode: each detector goes electric until its latest
    detection expires.  Fences live, expire and are traced as in every
    mode; only the decision differs: nothing is solved or tossed, and a
    command's ``fence_id`` is the cyclist's id."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seen: dict[str, tuple[float, str]] = {}  # vehicle -> (time, cyclist)
        self._electric: set[str] = set()

    def on_detection(
        self, cyclist_id: str, position: Point, now: float, detecting_vehicle_id: str | None = None
    ) -> Geofence:
        """Refresh the detecting vehicle's timer, then create or re-centre
        the cyclist's fence."""
        if detecting_vehicle_id is not None:
            self._seen[detecting_vehicle_id] = (now, cyclist_id)
        return super().on_detection(cyclist_id, position, now, detecting_vehicle_id)

    def _decide(self, now: float, snapshots: Mapping[str, VehicleState], limit: float) -> None:
        """Command each hybrid detector electric while ``now - last <=
        expiry_timeout`` and polluting after.  A pure EV or pure ICE
        detector is never commanded, so its entry is dropped at once.
        ``limit`` goes unread: no budget binds a lone detector."""
        for vid in sorted(self._seen):
            last, cyclist_id = self._seen[vid]
            if vid not in snapshots:
                del self._seen[vid]
                self._electric.discard(vid)
                continue
            if snapshots[vid].powertrain is not Powertrain.HYBRID:
                del self._seen[vid]
                continue
            fresh = now - last <= self.config.expiry_timeout
            if fresh and vid not in self._electric:
                self._electric.add(vid)
                mode = "electric"
            elif not fresh and vid in self._electric:
                self._electric.discard(vid)
                del self._seen[vid]
                mode = "polluting"
            else:
                continue
            self._command(now, cyclist_id, vid, mode)
