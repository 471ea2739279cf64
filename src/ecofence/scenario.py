"""Scenario files: schema, validation and canonical round-tripping.

A scenario is a JSON document describing the road network, the fleet spawn
table, the cyclist route and the control configuration.  Loading collects
*all* schema violations (with field paths) instead of failing on the first
one.  See the README for the documented schema; `Scenario.to_dict` emits
the canonical form, and loading that form back yields an equal scenario.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any

from .coordinator import ControllerConfig, Powertrain
from .emissions import EURO_CLASSES
from .network import Edge, RoadNetwork

BackgroundSeries = tuple[tuple[float, float], ...]

_POWERTRAINS = {p.value: p for p in Powertrain}

# every key a scenario's "control" object may hold; any other is reported
_CONTROL_KEYS = (
    "enabled", "single_vehicle", "radius", "limit", "tau", "expiry_timeout",
    "detection_range", "actuation_latency", "background",
)


# trace.csv joins an entry's fields with "~", its entries with "|" and a
# fence's members with "+", so no vehicle, cyclist or edge id may hold one
_TRACE_SEPARATORS = frozenset("~|+")


def _check_separators(value: str, where: str, problems: list[str]) -> None:
    if not _TRACE_SEPARATORS.isdisjoint(value):
        problems.append(f"{where}: must not contain '~', '|' or '+'")


class ScenarioError(Exception):
    """Scenario or density file failed validation; carries all violations."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class FleetEntry:
    vehicle_id: str
    spawn_time: float
    route: tuple[str, ...]
    euro_class: int | None = None  # None: drawn from the seeded spawn stream
    speed: float | None = None  # None: follow each edge's speed limit
    powertrain: Powertrain = Powertrain.HYBRID


@dataclass(frozen=True)
class CyclistSpec:
    cyclist_id: str
    route: tuple[str, ...]
    speed: float
    spawn_time: float = 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    horizon: float
    dt: float
    network: RoadNetwork
    fleet: tuple[FleetEntry, ...]
    cyclists: tuple[CyclistSpec, ...]
    controller: ControllerConfig
    control_enabled: bool = True
    single_vehicle: bool = False
    detection_range: float = 10.0
    background: BackgroundSeries = ((0.0, 0.0),)

    def background_at(self, t: float) -> float:
        """Piecewise-constant background level at time ``t``: the level of
        the last breakpoint at or before ``t``, or of the first one if
        ``t`` precedes them all.  A bisection, since the loader requires
        strictly increasing breakpoint times."""
        after = bisect_right(self.background, t, key=itemgetter(0))
        return self.background[after - 1 if after else 0][1]

    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form; load(to_dict()) round-trips."""
        edges = [
            {
                "edge_id": e.edge_id,
                "points": [[x, y] for x, y in e.points],
                "speed_limit": e.speed_limit,
                "density_weight": e.density_weight,
            }
            for e in sorted(self.network.edges.values(), key=lambda e: e.edge_id)
        ]
        fleet = [
            {
                "vehicle_id": f.vehicle_id,
                "spawn_time": f.spawn_time,
                "route": list(f.route),
                "euro_class": f.euro_class,
                "speed": f.speed,
                "powertrain": f.powertrain.value,
            }
            for f in self.fleet
        ]
        cyclists = [
            {
                "cyclist_id": c.cyclist_id,
                "spawn_time": c.spawn_time,
                "route": list(c.route),
                "speed": c.speed,
            }
            for c in self.cyclists
        ]
        return {
            "name": self.name,
            "horizon": self.horizon,
            "dt": self.dt,
            "network": {"edges": edges},
            "fleet": fleet,
            "cyclists": cyclists,
            "control": {
                "enabled": self.control_enabled,
                "single_vehicle": self.single_vehicle,
                "radius": self.controller.radius,
                "limit": self.controller.allowable_limit,
                "tau": self.controller.tau,
                "expiry_timeout": self.controller.expiry_timeout,
                "detection_range": self.detection_range,
                "actuation_latency": self.controller.actuation_latency,
                "background": [[t, v] for t, v in self.background],
            },
        }


def _finite(value: Any) -> bool:
    """Whether ``value`` is a number a float holds: not a boolean, NaN or
    infinity, nor a JSON integer beyond the float range (on which
    ``math.isfinite`` and ``float`` raise)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _number(data: dict, key: str, problems: list[str], where: str, default=None):
    value = data.get(key, default)
    if value is None:
        return default
    if not _finite(value):
        problems.append(f"{where}.{key}: must be a finite number, got {value!r}")
        return default
    return float(value)


def _shaped(value: Any, kind: type, problems: list[str], where: str) -> Any:
    """``value`` if it is absent or a ``kind`` (dict or list); otherwise
    None, with the problem noted."""
    if value is None or isinstance(value, kind):
        return value
    problems.append(f"{where}: must be {'an object' if kind is dict else 'a list'}")
    return None


def _parse_background(raw: Any, problems: list[str], where: str) -> BackgroundSeries:
    if raw is None:
        return ((0.0, 0.0),)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if not _finite(raw):
            problems.append(f"{where}: background must be finite")
            return ((0.0, 0.0),)
        return ((0.0, float(raw)),)
    if not isinstance(raw, list) or not raw:
        problems.append(f"{where}: background must be a number or [[time, level], ...]")
        return ((0.0, 0.0),)
    series: list[tuple[float, float]] = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            problems.append(f"{where}[{i}]: breakpoint must be [time, level]")
            return ((0.0, 0.0),)
        if not all(map(_finite, pair)):
            problems.append(f"{where}[{i}]: time and level must be finite")
            return ((0.0, 0.0),)
        series.append((float(pair[0]), float(pair[1])))
    if series[0][0] != 0.0:
        problems.append(f"{where}: first breakpoint must be at time 0")
    for (t0, _), (t1, _) in zip(series, series[1:]):
        if t1 <= t0:
            problems.append(f"{where}: breakpoint times must be strictly increasing")
            break
    return tuple(series)


def _budget_problems(limit: float, background: BackgroundSeries, where: str) -> list[str]:
    """One problem per background level whose budget ``limit - level``
    overflows to infinity: no fence could be solved under it."""
    return [
        f"{where}: limit {limit!r} minus level {level!r} overflows"
        for _, level in background
        if not math.isfinite(limit - level)
    ]


def parse_scenario(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from parsed JSON, collecting every violation."""
    problems: list[str] = []
    name = data.get("name", "unnamed")
    horizon = _number(data, "horizon", problems, "scenario")
    if horizon is None or horizon <= 0:
        problems.append("scenario.horizon: must be a positive number")
        horizon = 1.0
    dt = _number(data, "dt", problems, "scenario", default=1.0)
    if dt <= 0:
        problems.append("scenario.dt: must be a positive number")
        dt = 1.0
    # with both valid (no problem yet): steps() rounds horizon / dt, which
    # fails on an inf ratio (a huge horizon over a tiny dt) and gives 0 iff
    # the ratio is <= 0.5
    if not problems:
        ratio = horizon / dt
        if not math.isfinite(ratio):
            problems.append("scenario.horizon: must cover a finite number of steps of dt")
        elif ratio <= 0.5:
            problems.append("scenario.horizon: must cover at least one step of dt")

    edges: dict[str, Edge] = {}
    raw_network = _shaped(data.get("network"), dict, problems, "network") or {}
    raw_edges = _shaped(raw_network.get("edges"), list, problems, "network.edges") or []
    if not raw_edges:
        problems.append("network.edges: must not be empty")
    for i, raw in enumerate(raw_edges):
        where = f"network.edges[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        eid = raw.get("edge_id")
        if not isinstance(eid, str) or not eid:
            problems.append(f"{where}.edge_id: must be a non-empty string")
            continue
        if eid in edges:
            problems.append(f"{where}.edge_id: duplicate edge {eid!r}")
            continue
        _check_separators(eid, f"{where}.edge_id", problems)
        points_raw = _shaped(raw.get("points"), list, problems, f"{where}.points") or []
        points = []
        ok = True
        for j, pt in enumerate(points_raw):
            if not isinstance(pt, list) or len(pt) != 2 or not all(map(_finite, pt)):
                problems.append(f"{where}.points[{j}]: must be [x, y] of finite numbers")
                ok = False
                break
            points.append((float(pt[0]), float(pt[1])))
        if not ok:
            continue
        speed_limit = _number(raw, "speed_limit", problems, where)
        weight = _number(raw, "density_weight", problems, where, default=1.0)
        try:
            edges[eid] = Edge(
                edge_id=eid,
                points=tuple(points),
                speed_limit=speed_limit if speed_limit is not None else 0.0,
                density_weight=weight,
            )
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    network = RoadNetwork(edges=edges)

    def parse_route(raw: dict, where: str, speed: float | None) -> tuple[str, ...]:
        """The route, its laps repeated only as far as the run can use.

        ``speed`` is the road user's fixed speed in km/h, or None for one
        that follows the speed limits, so it moves at most ``top`` km/h.
        In the run's ``steps() * dt`` seconds it covers at most ``reach``
        metres, which ends within lap ``floor(reach / lap) + 1`` from its
        start; one lap more keeps the route's end out of reach, so the run
        reads the same route as with every lap.  A scenario with a problem
        is rejected, so its routes are not expanded at all.
        """
        route_raw = raw.get("route", [])
        if not isinstance(route_raw, list) or not all(isinstance(e, str) for e in route_raw):
            problems.append(f"{where}.route: must be a list of edge ids")
            return ()
        repeat = raw.get("repeat", 1)
        if not isinstance(repeat, int) or isinstance(repeat, bool) or repeat < 1:
            problems.append(f"{where}.repeat: must be a positive integer")
            repeat = 1
        lap = tuple(route_raw)
        if edges:
            route_issues = network.route_problems(lap, where)
            if not route_issues and repeat > 1:
                # the repeat seam must chain too
                route_issues = network.route_problems(
                    (route_raw[-1], route_raw[0]), where + ".repeat-seam"
                )
            problems.extend(route_issues)
        if problems:
            return lap
        if repeat > 1:
            top = speed if speed is not None else max(edges[eid].speed_limit for eid in lap)
            reach = round(horizon / dt) * dt * top / 3.6
            laps = reach / sum(edges[eid].length for eid in lap)
            if laps < repeat:
                repeat = min(repeat, math.floor(laps) + 2)
        return lap * repeat

    fleet: list[FleetEntry] = []
    seen_vehicles: set[str] = set()
    for i, raw in enumerate(_shaped(data.get("fleet"), list, problems, "fleet") or []):
        where = f"fleet[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        vid = raw.get("vehicle_id")
        if not isinstance(vid, str) or not vid:
            problems.append(f"{where}.vehicle_id: must be a non-empty string")
            vid = f"?fleet{i}"
        elif vid in seen_vehicles:
            problems.append(f"{where}.vehicle_id: duplicate vehicle {vid!r}")
        else:
            _check_separators(vid, f"{where}.vehicle_id", problems)
        seen_vehicles.add(vid)
        spawn_time = _number(raw, "spawn_time", problems, where, default=0.0)
        if spawn_time < 0:
            problems.append(f"{where}.spawn_time: must be >= 0")
            spawn_time = 0.0
        euro_class = raw.get("euro_class")
        # a JSON true or 2.0 compares equal to a class, so test the type first
        if euro_class is not None and (type(euro_class) is not int or euro_class not in EURO_CLASSES):
            problems.append(f"{where}.euro_class: must be 1..4 or null, got {euro_class!r}")
            euro_class = None
        speed = _number(raw, "speed", problems, where)
        if speed is not None and speed <= 0:
            problems.append(f"{where}.speed: must be positive when given")
            speed = None
        pt_raw = raw.get("powertrain", "hybrid")
        # a list or an object cannot be a dict key, so test the type first
        powertrain = _POWERTRAINS.get(pt_raw) if isinstance(pt_raw, str) else None
        if powertrain is None:
            problems.append(
                f"{where}.powertrain: must be one of {sorted(_POWERTRAINS)}, got {pt_raw!r}"
            )
            powertrain = Powertrain.HYBRID
        fleet.append(
            FleetEntry(
                vehicle_id=vid,
                spawn_time=spawn_time,
                route=parse_route(raw, where, speed),
                euro_class=euro_class,
                speed=speed,
                powertrain=powertrain,
            )
        )
    # canonical spawn order: by time, then id
    fleet.sort(key=lambda f: (f.spawn_time, f.vehicle_id))

    cyclists: list[CyclistSpec] = []
    raw_cyclists = _shaped(data.get("cyclists"), list, problems, "cyclists")
    if raw_cyclists is None:
        single = _shaped(data.get("cyclist"), dict, problems, "cyclist")
        raw_cyclists = [single] if single is not None else []
    seen_cyclists: set[str] = set()
    for i, raw in enumerate(raw_cyclists):
        where = f"cyclists[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        cid = raw.get("cyclist_id")
        if not isinstance(cid, str) or not cid:
            problems.append(f"{where}.cyclist_id: must be a non-empty string")
            cid = f"?cyclist{i}"
        elif cid in seen_cyclists:
            problems.append(f"{where}.cyclist_id: duplicate cyclist {cid!r}")
        else:
            _check_separators(cid, f"{where}.cyclist_id", problems)
        seen_cyclists.add(cid)
        speed = _number(raw, "speed", problems, where)
        if speed is None or speed <= 0:
            problems.append(f"{where}.speed: must be a positive number")
            speed = 1.0
        spawn_time = _number(raw, "spawn_time", problems, where, default=0.0)
        if spawn_time < 0:
            problems.append(f"{where}.spawn_time: must be >= 0")
            spawn_time = 0.0
        cyclists.append(
            CyclistSpec(
                cyclist_id=cid, route=parse_route(raw, where, speed), speed=speed, spawn_time=spawn_time
            )
        )
    cyclists.sort(key=lambda c: (c.spawn_time, c.cyclist_id))

    control = _shaped(data.get("control"), dict, problems, "control") or {}
    where = "control"
    problems.extend(f"{where}.{key}: unknown key" for key in control if key not in _CONTROL_KEYS)
    enabled = control.get("enabled", True)
    single_vehicle = control.get("single_vehicle", False)
    for flag_name, flag in (("enabled", enabled), ("single_vehicle", single_vehicle)):
        if not isinstance(flag, bool):
            problems.append(f"{where}.{flag_name}: must be true or false")
    radius = _number(control, "radius", problems, where, default=100.0)
    limit = _number(control, "limit", problems, where, default=1.0)
    tau = _number(control, "tau", problems, where, default=1.0)
    timeout = _number(control, "expiry_timeout", problems, where, default=20.0)
    detection_range = _number(control, "detection_range", problems, where, default=10.0)
    latency = _number(control, "actuation_latency", problems, where, default=0.0)
    background = _parse_background(control.get("background"), problems, f"{where}.background")
    problems.extend(_budget_problems(limit, background, f"{where}.background"))
    if detection_range <= 0:
        problems.append(f"{where}.detection_range: must be positive")
        detection_range = 10.0
    try:
        controller = ControllerConfig(
            tau=tau,
            expiry_timeout=timeout,
            allowable_limit=limit,
            actuation_latency=latency,
            radius=radius,
        )
    except ValueError as exc:
        problems.append(f"{where}: {exc}")

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        name=str(name),
        horizon=horizon,
        dt=dt,
        network=network,
        fleet=tuple(fleet),
        cyclists=tuple(cyclists),
        controller=controller,
        control_enabled=bool(enabled),
        single_vehicle=bool(single_vehicle),
        detection_range=detection_range,
        background=background,
    )


def _json_object(path, what: str) -> dict[str, Any]:
    """The JSON object a UTF-8 file holds; ``what`` names the file in the
    ScenarioError raised when it is a directory.

    ``json.load`` raises a ValueError for a file that is not UTF-8, not
    JSON, or holds an integer of more digits than ``int`` converts (4,300
    by default), and a RecursionError for arrays or objects nested deeper
    than the interpreter's recursion limit; each is reported as not valid
    JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except IsADirectoryError:
        raise ScenarioError([f"{what} {path}: is a directory"]) from None
    except (ValueError, RecursionError) as exc:
        raise ScenarioError([f"{path}: not valid JSON ({exc})"]) from None
    if not isinstance(data, dict):
        raise ScenarioError([f"{path}: top level must be an object"])
    return data


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    return parse_scenario(_json_object(path, "scenario file"))


def _text_lines(path, what: str) -> list[str]:
    """The lines of a UTF-8 text file; ``what`` names the file in the
    ScenarioError raised when it is a directory or not valid UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.readlines()
    except IsADirectoryError:
        raise ScenarioError([f"{what}: is a directory"]) from None
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{what}: not valid UTF-8 ({exc})"]) from None


def load_density_file(path, network: RoadNetwork) -> dict[str, float]:
    """Load per-edge cyclist-density weights (CSV: edge_id,weight).

    Unknown edges and weights below 1.0 are rejected; all violations are
    reported together.
    """
    problems: list[str] = []
    weights: dict[str, float] = {}
    for lineno, raw in enumerate(_text_lines(path, f"density file {path}"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts == ["edge_id", "weight"]:
            continue
        if len(parts) != 2:
            problems.append(f"line {lineno}: expected 'edge_id,weight'")
            continue
        eid, raw_weight = parts
        try:
            weight = float(raw_weight)
        except ValueError:
            problems.append(f"line {lineno}: weight {raw_weight!r} is not a number")
            continue
        if eid not in network.edges:
            problems.append(f"line {lineno}: unknown edge {eid!r}")
            continue
        if not math.isfinite(weight) or weight < 1.0:
            problems.append(f"line {lineno}: weight must be >= 1.0, got {weight}")
            continue
        if eid in weights:
            problems.append(f"line {lineno}: duplicate edge {eid!r}")
            continue
        weights[eid] = weight
    if problems:
        raise ScenarioError(problems)
    return weights


def with_density(scenario: Scenario, weights: dict[str, float]) -> Scenario:
    return replace(scenario, network=scenario.network.with_density_weights(weights))
