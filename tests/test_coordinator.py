import math
import random

import pytest

from ecofence import engine
from ecofence.coordinator import (
    ControllerConfig,
    Geofence,
    GeofenceCoordinator,
    Powertrain,
    SingleVehicleController,
    members,
    toss_polluting,
)
from ecofence.emissions import load_default_table
from ecofence.scenario import load_scenario
from tests.conftest import Snapshot, grid_of
from tests.test_golden import mixed_powertrain_scenario

TABLE = load_default_table()


def snap(vid, pos=(0.0, 0.0), speed=30.0, euro=4, powertrain=Powertrain.HYBRID, density=1.0):
    """A vehicle of class ``euro`` at ``speed`` km/h, rated as the engine rates it."""
    return Snapshot(
        vehicle_id=vid,
        position=pos,
        emission_rate=TABLE.rate(euro, speed),
        powertrain=powertrain,
        density_weight=density,
    )


def make_coordinator(**kwargs):
    config = kwargs.pop("config", ControllerConfig())
    rng = kwargs.pop("rng", random.Random("test:toss"))
    return GeofenceCoordinator(config, rng, **kwargs)


def built_problems(coord):
    """The problems ``coord`` builds from now on, in build order."""
    built = []

    def build_problem(*args):
        built.append(GeofenceCoordinator.build_problem(coord, *args))
        return built[-1]

    coord.build_problem = build_problem
    return built


# -- lifecycle -----------------------------------------------------------------


def test_detection_creates_fence():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 5.0, detecting_vehicle_id="v1")
    assert fence.center == (0.0, 0.0)
    assert fence.created_at == 5.0
    assert fence.last_detection_at == 5.0
    assert fence.radius == 100.0


def test_detection_recenters_existing_fence():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 5.0)
    fence = coord.on_detection("tag-1", (30.0, 0.0), 8.0)
    assert len(coord.fences) == 1
    assert fence.center == (30.0, 0.0)
    assert fence.created_at == 5.0
    assert fence.last_detection_at == 8.0


def test_two_cyclists_two_fences():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 1.0)
    coord.on_detection("tag-2", (500.0, 0.0), 1.0)
    assert sorted(coord.fences) == ["tag-1", "tag-2"]


def test_expiry_boundary_is_inclusive():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 10.0)
    coord.expire(30.0)
    assert "tag-1" in coord.fences
    coord.expire(30.1)
    assert coord.fences == {}
    assert coord.command_log == []  # no member was controlled


def test_expiry_restores_controlled_members():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1"), "v2": snap("v2", pos=(10.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    start = len(coord.command_log)
    assert start == 2  # both commanded at the first tick
    coord.step(21.0, snapshots, 0.0, grid_of(snapshots))
    assert coord.fences == {}
    restored = [(c.vehicle_id, c.commanded_mode, c.assignment) for c in list(coord.command_log)[start:]]
    assert restored == [("v1", "polluting", None), ("v2", "polluting", None)]


def test_vehicle_that_departs_as_its_fence_expires_is_not_restored():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1"), "v2": snap("v2", pos=(10.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    logged = len(coord.command_log)
    # v2 leaves the road in the tick tag-1 expires: there is nothing to restore
    remaining = {"v1": snapshots["v1"]}
    appended = coord.step(21.0, remaining, 0.0, grid_of(remaining))
    assert coord.fences == {}
    assert [(c.vehicle_id, c.fence_id, c.commanded_mode) for c in appended] == [("v1", "tag-1", "polluting")]
    assert list(coord.command_log)[logged:] == appended
    assert coord._controlled == {}


def test_expiry_keeps_a_member_another_fence_holds():
    # tau 100: neither fence decides again before tag-b expires at t=21
    coord = make_coordinator(config=ControllerConfig(tau=100.0))
    coord.on_detection("tag-a", (0.0, 0.0), 0.0)
    coord.on_detection("tag-b", (50.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1", pos=(25.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert coord._controlled == {"v1": "tag-b"}  # tag-b decided last
    coord.on_detection("tag-a", (0.0, 0.0), 21.0)
    assert coord.step(21.0, snapshots, 0.0, grid_of(snapshots)) == []
    assert sorted(coord.fences) == ["tag-a"]
    assert coord._controlled == {"v1": "tag-b"}
    # once it leaves tag-a too, its restore names tag-b, whose command is in force
    moved = {"v1": snap("v1", pos=(500.0, 0.0))}
    restored = coord.step(22.0, moved, 0.0, grid_of(moved))
    assert [(c.vehicle_id, c.fence_id, c.assignment) for c in restored] == [("v1", "tag-b", None)]
    assert coord._controlled == {}


def test_expiry_no_fences_is_noop():
    coord = make_coordinator()
    coord.expire(100.0)
    assert coord.fences == {}
    assert coord.command_log == []


# -- membership ----------------------------------------------------------------


def test_members_boundary_inclusive():
    fence = Geofence("f", (0.0, 0.0), 100.0, 0.0, 0.0)
    positions = {"on_edge": (60.0, 80.0), "outside": (100.1, 0.0), "inside": (1.0, 1.0)}
    assert members(fence, positions) == {"on_edge", "inside"}


def test_members_empty_fleet():
    fence = Geofence("f", (0.0, 0.0), 100.0, 0.0, 0.0)
    assert members(fence, {}) == set()


# -- budget --------------------------------------------------------------------


def test_compute_limit_examples():
    # the budget a fence is solved under is the allowance minus the background
    for level, limit in ((0.0, 1.0), (1.5, -0.5), (0.4, pytest.approx(0.6))):
        coord = make_coordinator(config=ControllerConfig(allowable_limit=1.0))
        problems = built_problems(coord)
        coord.on_detection("tag-1", (0.0, 0.0), 0.0)
        snapshots = {"v1": snap("v1")}
        coord.step(0.0, snapshots, level, grid_of(snapshots))
        assert [problem.limit for problem in problems] == [limit]


@pytest.mark.parametrize("level", [math.inf, math.nan])
def test_non_finite_background_is_rejected(level):
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    with pytest.raises(ValueError):
        coord.step(0.0, snapshots, level, grid_of(snapshots))


# -- decisions -----------------------------------------------------------------


def test_decision_tick_extremes_ignore_draw():
    # x=1 (slack budget) commands polluting on every tick and x=0 (negative
    # budget) commands electric on every tick, whatever the draws say
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"a": snap("a", speed=10.0), "b": snap("b", speed=10.0)}
    for t in range(50):
        coord.on_detection("tag-1", (0.0, 0.0), float(t))
        coord.step(float(t), snapshots, 0.0, grid_of(snapshots))
    rows = [r for r in coord.command_log if r.assignment is not None]
    assert len(rows) == 100
    assert all(r.assignment == 1.0 and r.commanded_mode == "polluting" for r in rows)

    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    for t in range(50):
        coord.on_detection("tag-1", (0.0, 0.0), float(t))
        coord.step(float(t), snapshots, 2.0, grid_of(snapshots))
    rows = [r for r in coord.command_log if r.assignment is not None]
    assert len(rows) == 100
    assert all(r.assignment == 0.0 and r.commanded_mode == "electric" for r in rows)


def test_decision_tick_negative_budget_all_electric():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {f"v{i}": snap(f"v{i}", pos=(float(i), 0.0)) for i in range(4)}
    coord.step(0.0, snapshots, 1.5, grid_of(snapshots))
    commands = list(coord.command_log)
    assert {c.commanded_mode for c in commands} == {"electric"}
    assert len(commands) == 4


def test_decision_tick_expected_spend_within_budget():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {
        f"v{i}": snap(f"v{i}", pos=(float(i), 0.0), euro=1 + i % 4, density=1.0 + i % 3)
        for i in range(10)
    }
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    spend = sum(
        r.assignment * r.emission_rate for r in coord.command_log if r.assignment is not None
    )
    assert spend <= 1.0 + 1e-9


def test_pure_ev_member_always_electric():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"ev": snap("ev", powertrain=Powertrain.PURE_EV), "hv": snap("hv")}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    (ev_row,) = [r for r in coord.command_log if r.vehicle_id == "ev"]
    assert ev_row.commanded_mode == "electric"
    assert ev_row.assignment == 1.0  # zero-rate vehicles enter the problem at x=1
    assert ev_row.emission_rate == 0.0


def test_pure_ice_member_never_commanded():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"ice": snap("ice", powertrain=Powertrain.PURE_ICE), "hv": snap("hv")}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert [r.vehicle_id for r in coord.command_log] == ["hv"]
    assert "ice" in fence.member_ids  # geometrically still a member


def test_members_outside_are_never_commanded():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"in": snap("in"), "far": snap("far", pos=(500.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert [c.vehicle_id for c in coord.command_log] == ["in"]


def test_vehicle_leaving_fence_reverts_next_step():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    moved = {"v1": snap("v1", pos=(300.0, 0.0))}
    coord.step(1.0, moved, 0.0, grid_of(moved))
    logged = list(coord.command_log)[1:]
    assert [(c.vehicle_id, c.commanded_mode, c.assignment) for c in logged] == [("v1", "polluting", None)]


def test_actuation_latency_delays_effect():
    config = ControllerConfig(tau=5.0, actuation_latency=5.0)
    coord = make_coordinator(config=config)
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    commands = coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert commands[0].effective_time == 5.0


def test_recreated_fence_solves_and_tosses_on_its_first_tick():
    config = ControllerConfig(tau=30.0)
    coord = make_coordinator(config=config)
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    coord.step(21.0, snapshots, 0.0, grid_of(snapshots))
    assert coord.fences == {}
    fence = coord.on_detection("tag-1", (0.0, 0.0), 22.0)
    problems = built_problems(coord)
    start = len(coord.command_log)
    coord.step(22.0, snapshots, 1.5, grid_of(snapshots))
    commands = list(coord.command_log)[start:]
    assert [(c.vehicle_id, c.commanded_mode, c.assignment) for c in commands] == [("v1", "electric", 0.0)]
    assert [problem.limit for problem in problems] == [-0.5]
    assert fence.next_solve == 52.0


# -- coin toss ------------------------------------------------------------------


def test_toss_extremes_are_exact():
    rng = random.Random(1)
    assert all(toss_polluting(1.0, rng)[0] for _ in range(1000))
    assert not any(toss_polluting(0.0, rng)[0] for _ in range(1000))


def test_toss_frequency_near_half():
    rng = random.Random("42:toss")
    hits = sum(1 for _ in range(10_000) if toss_polluting(0.5, rng)[0])
    assert 0.48 <= hits / 10_000 <= 0.52


# -- single-vehicle mode ---------------------------------------------------------


def test_single_vehicle_step_cycle():
    coord = SingleVehicleController(ControllerConfig(), random.Random("test:toss"))
    snapshots = {"v1": snap("v1")}
    coord.on_detection("tag-1", (0.0, 0.0), 0.0, detecting_vehicle_id="v1")
    assert coord.fences == {}  # no fences in this mode
    commands = coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert [(c.vehicle_id, c.commanded_mode) for c in commands] == [("v1", "electric")]
    # refreshed detections keep it electric with no re-issued command
    coord.on_detection("tag-1", (0.0, 0.0), 5.0, detecting_vehicle_id="v1")
    assert coord.step(6.0, snapshots, 0.0, grid_of(snapshots)) == []
    assert coord.step(25.0, snapshots, 0.0, grid_of(snapshots)) == []  # 25 - 5 <= 20
    commands = coord.step(25.1, snapshots, 0.0, grid_of(snapshots))
    assert [(c.vehicle_id, c.commanded_mode) for c in commands] == [("v1", "polluting")]


def test_single_vehicle_controller_drops_pure_ice_detectors(tmp_path, monkeypatch):
    # the mixed-powertrain golden run, where v03 and v04 are pure ICE
    scenario = load_scenario(mixed_powertrain_scenario(tmp_path / "mixed.json"))
    detectors, seen_after_step = set(), []

    class Watched(SingleVehicleController):
        def on_detection(self, cyclist_id, position, now, detecting_vehicle_id=None):
            detectors.add(detecting_vehicle_id)
            return super().on_detection(cyclist_id, position, now, detecting_vehicle_id)

        def step(self, now, snapshots, background_level, grid):
            commands = super().step(now, snapshots, background_level, grid)
            seen_after_step.append(set(self._seen))
            return commands

    monkeypatch.setattr(engine, "SingleVehicleController", Watched)
    engine.run(scenario, 42)
    assert len(seen_after_step) == scenario.steps()
    assert "v03" in detectors
    assert all(seen.isdisjoint({"v03", "v04"}) for seen in seen_after_step)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(tau=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(expiry_timeout=-1.0)
    with pytest.raises(ValueError):
        ControllerConfig(actuation_latency=-0.1)
    with pytest.raises(ValueError):
        ControllerConfig(radius=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["tau", "expiry_timeout", "actuation_latency"])
def test_config_rejects_non_finite_timing(field, value):
    # NaN passes every ordering test, and inf passes `> 0`: a fence would
    # be solved and tossed once and never again
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        ControllerConfig(**{field: value})


def test_restores_come_in_vehicle_id_order_and_skip_departed_vehicles():
    coord = make_coordinator()
    coord.on_detection("tag-a", (0.0, 0.0), 0.0)
    coord.on_detection("tag-b", (1000.0, 0.0), 0.0)
    # ids interleave across the two fences, so fence order is not id order
    snapshots = {
        "v1": snap("v1", pos=(1000.0, 0.0)),
        "v2": snap("v2", pos=(0.0, 0.0)),
        "v3": snap("v3", pos=(1001.0, 0.0)),
        "v4": snap("v4", pos=(1.0, 0.0)),
        "v5": snap("v5", pos=(2.0, 0.0)),
        "v6": snap("v6", pos=(1002.0, 0.0)),
    }
    coord.step(0.0, snapshots, 0.0, grid_of(snapshots))
    assert set(coord._controlled) == set(snapshots)
    logged = len(coord.command_log)
    # v3 and v4 leave both fences, v1 and v2 move out of theirs, v5 leaves
    # the network; v6 stays in its fence
    moved = {
        "v1": snap("v1", pos=(500.0, 0.0)),
        "v2": snap("v2", pos=(0.0, 500.0)),
        "v3": snap("v3", pos=(1000.0, 500.0)),
        "v4": snap("v4", pos=(500.0, 500.0)),
        "v6": snap("v6", pos=(1002.0, 0.0)),
    }
    coord.step(1.0, moved, 0.0, grid_of(moved))
    commands = list(coord.command_log)[logged:]
    restores = [c for c in commands if c.vehicle_id != "v6"]
    assert commands[-1].vehicle_id == "v6"  # tossed again in its fence
    assert [(c.vehicle_id, c.commanded_mode) for c in restores] == [
        (vid, "polluting") for vid in ("v1", "v2", "v3", "v4")
    ]
    assert commands[: len(restores)] == restores  # restores precede decisions
    assert [(r.vehicle_id, r.fence_id, r.assignment) for r in restores] == [
        ("v1", "tag-b", None),
        ("v2", "tag-a", None),
        ("v3", "tag-b", None),
        ("v4", "tag-a", None),
    ]
    assert "v5" not in {r.vehicle_id for r in commands}
    assert set(coord._controlled) == {"v6"}


def test_budget_in_expectation_over_many_ticks():
    # long horizon, static membership: every tick's expected spend stays
    # within the budget
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {
        f"v{i}": snap(f"v{i}", pos=(float(i), 0.0), euro=1 + i % 4) for i in range(8)
    }
    for t in range(400):
        coord.on_detection("tag-1", (0.0, 0.0), float(t))
        coord.step(float(t), snapshots, 0.0, grid_of(snapshots))
    spend_by_tick = {}
    for row in coord.command_log:
        if row.assignment is not None:
            spend_by_tick.setdefault(row.sim_time, 0.0)
            spend_by_tick[row.sim_time] += row.assignment * row.emission_rate
    assert len(spend_by_tick) == 400
    assert all(v <= 1.0 + 1e-9 for v in spend_by_tick.values())
