import dataclasses
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
from tests.conftest import SINGLE_VEHICLE_MIX, Snapshot, index_of, mixed_demo_ring, tosses

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
    (toss,) = coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    assert toss.vehicle_ids == ("v1", "v2")  # both commanded at the first tick
    restored = coord.step(21.0, snapshots, 0.0, index_of(snapshots))
    assert coord.fences == {}
    assert [(c.vehicle_id, c.commanded_mode, c.assignment) for c in restored] == [
        ("v1", "polluting", None),
        ("v2", "polluting", None),
    ]


def test_vehicle_that_departs_as_its_fence_expires_is_not_restored():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1"), "v2": snap("v2", pos=(10.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    logged = len(coord.command_log)
    # v2 leaves the road in the tick tag-1 expires: there is nothing to restore
    remaining = {"v1": snapshots["v1"]}
    appended = coord.step(21.0, remaining, 0.0, index_of(remaining))
    assert coord.fences == {}
    assert [(c.vehicle_id, c.fence_id, c.commanded_mode) for c in appended] == [("v1", "tag-1", "polluting")]
    assert coord.command_log[logged:] == appended
    assert coord._controlled == {}


def test_expiry_keeps_a_member_another_fence_holds():
    # tau 100: neither fence decides again before tag-b expires at t=21
    coord = make_coordinator(config=ControllerConfig(tau=100.0))
    coord.on_detection("tag-a", (0.0, 0.0), 0.0)
    coord.on_detection("tag-b", (50.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1", pos=(25.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    assert coord._controlled == {"v1": "tag-b"}  # tag-b decided last
    coord.on_detection("tag-a", (0.0, 0.0), 21.0)
    assert coord.step(21.0, snapshots, 0.0, index_of(snapshots)) == []
    assert sorted(coord.fences) == ["tag-a"]
    assert coord._controlled == {"v1": "tag-b"}
    # once it leaves tag-a too, its restore names tag-b, whose command is in force
    moved = {"v1": snap("v1", pos=(500.0, 0.0))}
    restored = coord.step(22.0, moved, 0.0, index_of(moved))
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
    assert members(fence, {vid: snap(vid, pos=p) for vid, p in positions.items()}) == {"on_edge", "inside"}


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
        coord.step(0.0, snapshots, level, index_of(snapshots))
        assert [problem.limit for problem in problems] == [limit]


@pytest.mark.parametrize("level", [math.inf, math.nan])
def test_non_finite_background_is_rejected(level):
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    with pytest.raises(ValueError):
        coord.step(0.0, snapshots, level, index_of(snapshots))


@pytest.mark.parametrize("name", ["demo_ring", "demo_slack", "demo_lifecycle", "ring_dense"])
def test_every_problem_a_run_builds_meets_the_solvers_assumptions(name, request, monkeypatch):
    # the solvers check nothing; what they assume is made true where the
    # data enters, by the loader and by step's finite-limit check
    built = []

    def build_problem(self, *args, original=GeofenceCoordinator.build_problem):
        built.append(original(self, *args))
        return built[-1]

    monkeypatch.setattr(GeofenceCoordinator, "build_problem", build_problem)
    engine.run(request.getfixturevalue(name), 1)
    assert sum(len(p.entries) for p in built) > 50  # not vacuous
    for p in built:
        ids = [e.vehicle_id for e in p.entries]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert all(math.isfinite(e.density) and e.density >= 1.0 for e in p.entries)
        assert all(math.isfinite(e.emission_rate) and e.emission_rate >= 0.0 for e in p.entries)
        assert math.isfinite(p.limit)


# -- decisions -----------------------------------------------------------------


def test_decision_tick_extremes_ignore_draw():
    # x=1 (slack budget) commands polluting on every tick and x=0 (negative
    # budget) commands electric on every tick, whatever the draws say
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"a": snap("a", speed=10.0), "b": snap("b", speed=10.0)}
    for t in range(50):
        coord.on_detection("tag-1", (0.0, 0.0), float(t))
        coord.step(float(t), snapshots, 0.0, index_of(snapshots))
    decided = tosses(coord.command_log)
    assert [toss.vehicle_ids for toss in decided] == [("a", "b")] * 50
    assert {(toss.assignments, toss.draws, toss.modes) for toss in decided} == {
        ((1.0, 1.0), (), ("polluting", "polluting"))
    }

    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    for t in range(50):
        coord.on_detection("tag-1", (0.0, 0.0), float(t))
        coord.step(float(t), snapshots, 2.0, index_of(snapshots))
    decided = tosses(coord.command_log)
    assert [toss.vehicle_ids for toss in decided] == [("a", "b")] * 50
    assert {(toss.assignments, toss.draws, toss.modes) for toss in decided} == {
        ((0.0, 0.0), (), ("electric", "electric"))
    }


def test_decision_tick_negative_budget_all_electric():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {f"v{i}": snap(f"v{i}", pos=(float(i), 0.0)) for i in range(4)}
    coord.step(0.0, snapshots, 1.5, index_of(snapshots))
    (toss,) = coord.command_log
    assert toss.vehicle_ids == ("v0", "v1", "v2", "v3")
    assert toss.modes == ("electric",) * 4


def test_decision_tick_expected_spend_within_budget():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {
        f"v{i}": snap(f"v{i}", pos=(float(i), 0.0), euro=1 + i % 4, density=1.0 + i % 3)
        for i in range(10)
    }
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    (toss,) = coord.command_log
    assert len(toss.vehicle_ids) == 10
    assert sum(x * e for x, e in zip(toss.assignments, toss.rates)) <= 1.0 + 1e-9


def test_pure_ev_member_never_commanded():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"ev": snap("ev", powertrain=Powertrain.PURE_EV), "hv": snap("hv")}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    (toss,) = coord.command_log
    assert toss.vehicle_ids == ("hv",)
    assert "ev" in fence.member_ids  # geometrically still a member
    assert coord._controlled == {"hv": "tag-1"}  # so it is never restored either


def test_pure_ice_member_never_commanded():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"ice": snap("ice", powertrain=Powertrain.PURE_ICE), "hv": snap("hv")}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    (toss,) = coord.command_log
    assert toss.vehicle_ids == ("hv",)
    assert "ice" in fence.member_ids  # geometrically still a member


def test_build_problem_passes_the_members_on_as_columns():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    fence.member_ids = ("a", "b", "c")
    hybrids = {vid: snap(vid, speed=10.0 * (i + 1), density=1.5 + i) for i, vid in enumerate("abc")}
    problem = coord.build_problem(fence, hybrids, 2.5)
    assert problem.vehicle_ids is fence.member_ids
    assert problem.densities == (1.5, 2.5, 3.5)
    assert problem.rates == tuple(hybrids[vid].emission_rate for vid in "abc")
    assert problem.limit == 2.5
    # a pure EV or pure ICE member is left out of every column
    for powertrain in (Powertrain.PURE_EV, Powertrain.PURE_ICE):
        other = dict(hybrids, b=snap("b", density=2.5, powertrain=powertrain))
        problem = coord.build_problem(fence, other, 2.5)
        assert problem.vehicle_ids == ("a", "c")
        assert problem.densities == (1.5, 3.5)
        assert problem.rates == (hybrids["a"].emission_rate, hybrids["c"].emission_rate)
        assert all(type(column) is tuple for column in (problem.vehicle_ids, problem.densities, problem.rates))


def test_each_toss_logs_its_fences_member_tuple(tmp_path):
    # demo_ring with its two spur vehicles, in about a third of the
    # fences, a pure EV and a pure ICE vehicle
    powertrains = {"v13": "pure_ev", "v14": "pure_ice"}
    result = engine.run(load_scenario(mixed_demo_ring(tmp_path / "mixed.json", powertrains)), 42)
    members_at = {
        (row.sim_time, fence.fence_id): fence.member_ids for row in result.trace.rows for fence in row.fences
    }
    decided = tosses(result.commands)
    shared = 0
    left_out = set()
    for toss in decided:
        member_ids = members_at[toss.sim_time, toss.fence_id]
        if powertrains.keys().isdisjoint(member_ids):
            assert toss.vehicle_ids is member_ids
            shared += 1
        else:
            assert toss.vehicle_ids == tuple(vid for vid in member_ids if vid not in powertrains)
            left_out.update(powertrains.keys() & set(member_ids))
    # both cases occur, and each kind of non-hybrid was left out
    assert 0 < shared < len(decided)
    assert left_out == {"v13", "v14"}


def test_members_outside_are_never_commanded():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"in": snap("in"), "far": snap("far", pos=(500.0, 0.0))}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    (toss,) = coord.command_log
    assert toss.vehicle_ids == ("in",)


def test_members_are_sorted_again_only_when_the_set_changes():
    coord = make_coordinator()
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    far = (500.0, 0.0)
    first = {"b": snap("b"), "d": snap("d"), "a": snap("a", pos=far), "c": snap("c", pos=far)}
    coord.step(0.0, first, 0.0, index_of(first))
    assert fence.member_ids == ("b", "d")
    kept = fence.member_ids
    coord.step(0.5, first, 0.0, index_of(first))
    assert fence.member_ids is kept
    # d leaves as a enters: same size, another set
    swapped = {"a": snap("a"), "b": snap("b"), "c": snap("c", pos=far), "d": snap("d", pos=far)}
    coord.step(1.0, swapped, 0.0, index_of(swapped))
    assert fence.member_ids == ("a", "b")
    assert coord.in_fence_ids == {"a", "b"}
    kept = fence.member_ids
    coord.step(1.5, swapped, 0.0, index_of(swapped))
    assert fence.member_ids is kept


def test_vehicle_leaving_fence_reverts_next_step():
    coord = make_coordinator()
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    moved = {"v1": snap("v1", pos=(300.0, 0.0))}
    coord.step(1.0, moved, 0.0, index_of(moved))
    logged = coord.command_log[1:]
    assert [(c.vehicle_id, c.commanded_mode, c.assignment) for c in logged] == [("v1", "polluting", None)]


def test_actuation_latency_delays_effect():
    config = ControllerConfig(tau=5.0, actuation_latency=5.0)
    coord = make_coordinator(config=config)
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    commands = coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    assert commands[0].effective_time == 5.0


def test_recreated_fence_solves_and_tosses_on_its_first_tick():
    config = ControllerConfig(tau=30.0)
    coord = make_coordinator(config=config)
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    snapshots = {"v1": snap("v1")}
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    coord.step(21.0, snapshots, 0.0, index_of(snapshots))
    assert coord.fences == {}
    fence = coord.on_detection("tag-1", (0.0, 0.0), 22.0)
    problems = built_problems(coord)
    (toss,) = coord.step(22.0, snapshots, 1.5, index_of(snapshots))
    assert (toss.vehicle_ids, toss.modes, toss.assignments) == (("v1",), ("electric",), (0.0,))
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


def toss_stream_after(scenario, seed, monkeypatch):
    """(the toss stream's state after ``engine.run(scenario, seed)``, the
    run's fractional toss rows)."""
    made = []

    class Kept(GeofenceCoordinator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(engine, "GeofenceCoordinator", Kept)
    result = engine.run(scenario, seed)
    (coordinator,) = made
    fractional = sum(1 for toss in tosses(result.commands) for x in toss.assignments if 0.0 < x < 1.0)
    return coordinator.rng.getstate(), fractional


@pytest.mark.parametrize("seed", [1, 42])
def test_a_run_whose_budget_covers_every_member_never_draws(seed, demo_slack, monkeypatch):
    state, fractional = toss_stream_after(demo_slack, seed, monkeypatch)
    assert fractional == 0
    assert state == random.Random(f"{seed}:toss").getstate()


@pytest.mark.parametrize("seed", [1, 42])
def test_a_run_draws_once_per_fractional_row(seed, demo_ring, monkeypatch):
    state, fractional = toss_stream_after(demo_ring, seed, monkeypatch)
    assert fractional >= 100
    fresh = random.Random(f"{seed}:toss")
    for _ in range(fractional):
        fresh.random()
    assert state == fresh.getstate()


# -- single-vehicle mode ---------------------------------------------------------


def test_single_vehicle_step_cycle():
    coord = SingleVehicleController(ControllerConfig(), random.Random("test:toss"))
    snapshots = {"v1": snap("v1")}
    fence = coord.on_detection("tag-1", (0.0, 0.0), 0.0, detecting_vehicle_id="v1")
    assert coord.fences == {"tag-1": fence}  # the fence is kept, as in every mode
    commands = coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    assert [(c.vehicle_id, c.commanded_mode) for c in commands] == [("v1", "electric")]
    assert fence.member_ids == ("v1",) and coord.in_fence_ids == {"v1"}
    # refreshed detections keep it electric with no re-issued command
    coord.on_detection("tag-1", (0.0, 0.0), 5.0, detecting_vehicle_id="v1")
    assert coord.step(6.0, snapshots, 0.0, index_of(snapshots)) == []
    assert coord.step(25.0, snapshots, 0.0, index_of(snapshots)) == []  # 25 - 5 <= 20
    commands = coord.step(25.1, snapshots, 0.0, index_of(snapshots))
    assert [(c.vehicle_id, c.commanded_mode) for c in commands] == [("v1", "polluting")]
    assert coord.fences == {}  # the fence expired with the detection


def test_single_vehicle_controller_drops_non_hybrid_detectors(tmp_path, monkeypatch):
    # the mixed-powertrain golden run, where v01 and v02 are pure EVs and
    # v03 and v04 pure ICE
    path = mixed_demo_ring(tmp_path / "mixed.json", SINGLE_VEHICLE_MIX, single_vehicle=True, actuation_latency=5.0)
    scenario = load_scenario(path)
    detectors, seen_after_step = set(), []

    class Watched(SingleVehicleController):
        def on_detection(self, cyclist_id, position, now, detecting_vehicle_id=None):
            detectors.add(detecting_vehicle_id)
            return super().on_detection(cyclist_id, position, now, detecting_vehicle_id)

        def step(self, now, snapshots, background_level, index):
            commands = super().step(now, snapshots, background_level, index)
            seen_after_step.append(set(self._seen))
            return commands

    monkeypatch.setattr(engine, "SingleVehicleController", Watched)
    engine.run(scenario, 42)
    assert len(seen_after_step) == scenario.steps()
    assert {"v01", "v02", "v03"} <= detectors
    assert all(seen.isdisjoint({"v01", "v02", "v03", "v04"}) for seen in seen_after_step)


def test_only_a_control_run_builds_the_single_vehicle_controller(demo_ring, monkeypatch):
    # a baseline decides nothing, so in single-vehicle mode it runs the
    # plain coordinator and keeps no detector timers
    built = []

    class Watched(SingleVehicleController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(engine, "SingleVehicleController", Watched)
    for control_enabled in (False, True):
        engine.run(dataclasses.replace(demo_ring, single_vehicle=True, control_enabled=control_enabled), 42)
        assert len(built) == control_enabled


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
    coord.step(0.0, snapshots, 0.0, index_of(snapshots))
    assert set(coord._controlled) == set(snapshots)
    # v3 and v4 leave both fences, v1 and v2 move out of theirs, v5 leaves
    # the network; v6 stays in its fence
    moved = {
        "v1": snap("v1", pos=(500.0, 0.0)),
        "v2": snap("v2", pos=(0.0, 500.0)),
        "v3": snap("v3", pos=(1000.0, 500.0)),
        "v4": snap("v4", pos=(500.0, 500.0)),
        "v6": snap("v6", pos=(1002.0, 0.0)),
    }
    # restores precede decisions; v5 is neither restored nor tossed
    *restores, toss = coord.step(1.0, moved, 0.0, index_of(moved))
    assert toss.vehicle_ids == ("v6",)  # tossed again in its fence
    assert [(r.vehicle_id, r.fence_id, r.commanded_mode, r.assignment) for r in restores] == [
        ("v1", "tag-b", "polluting", None),
        ("v2", "tag-a", "polluting", None),
        ("v3", "tag-b", "polluting", None),
        ("v4", "tag-a", "polluting", None),
    ]
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
        coord.step(float(t), snapshots, 0.0, index_of(snapshots))
    spend_by_tick = {
        toss.sim_time: sum(x * e for x, e in zip(toss.assignments, toss.rates)) for toss in tosses(coord.command_log)
    }
    assert len(spend_by_tick) == 400
    assert all(v <= 1.0 + 1e-9 for v in spend_by_tick.values())
