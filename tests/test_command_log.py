"""The command log keeps a fence toss as columns, and ``step`` returns only
the rows that switch a vehicle's commanded mode.

The references here are test-local: a coordinator that logs one
``CommandRecord`` per tossed vehicle in a plain list, and controllers
whose ``step`` returns every row it logged, so that the engine queues and
applies every row.
"""

import dataclasses
import gc
import json
import random
import tracemalloc
from array import array

import pytest

from ecofence import engine
from ecofence.coordinator import (
    CommandLog,
    CommandRecord,
    ControllerConfig,
    FenceToss,
    GeofenceCoordinator,
    Powertrain,
    SingleVehicleController,
    toss_polluting,
)
from ecofence.scenario import load_scenario
from tests.conftest import data_path, grid_of
from tests.test_coordinator import make_coordinator, snap
from tests.test_golden import mixed_powertrain_scenario


class PerRowCoordinator(GeofenceCoordinator):
    """Logs one row per tossed vehicle in a list and returns every row it
    logs, as the coordinator did before a toss was kept as columns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.command_log = []

    def step(self, now, snapshots, background_level, grid):
        start = len(self.command_log)
        super().step(now, snapshots, background_level, grid)
        return self.command_log[start:]

    def _toss_fence(self, fence, snapshots, now):
        effective = now + self.config.actuation_latency
        detector = fence.last_detector_id
        forced = (
            self.config.force_detector_electric
            and detector in fence.member_ids
            and snapshots[detector].powertrain is not Powertrain.PURE_ICE
        )
        for vehicle_id, density, rate in fence.problem.entries:
            x = fence.assignment.values[vehicle_id]
            polluting, draw = toss_polluting(x, self.rng)
            if snapshots[vehicle_id].powertrain is Powertrain.PURE_EV:
                polluting = False
            else:
                self._controlled[vehicle_id] = fence.fence_id
            mode = "polluting" if polluting else "electric"
            self.command_log.append(
                CommandRecord(now, fence.fence_id, vehicle_id, density, rate, x, draw, mode, effective)
            )
        if forced:
            self._controlled[detector] = fence.fence_id
            self._command(now, fence.fence_id, detector, "electric")


def queue_every_row(monkeypatch):
    """Make both controllers' ``step`` return every row it logged."""
    for cls in (GeofenceCoordinator, SingleVehicleController):

        def step(self, now, snapshots, background_level, grid, original=cls.step):
            start = len(self.command_log)
            original(self, now, snapshots, background_level, grid)
            return self.command_log[start:]

        monkeypatch.setattr(cls, "step", step)


def mixed_fence_scenario(tmp_path):
    """demo_ring with pure EVs and pure ICE vehicles in the fence and the
    detector forced electric: tosses, forced rows and restores interleave."""
    demo = json.loads(data_path("demo_ring.json").read_text())
    powertrains = {"v01": "pure_ev", "v03": "pure_ice", "v06": "pure_ev"}
    for entry in demo["fleet"]:
        entry["powertrain"] = powertrains.get(entry["vehicle_id"], entry["powertrain"])
    demo["control"] = dict(demo["control"], force_detector_electric=True)
    path = tmp_path / "mixed_fence.json"
    path.write_text(json.dumps(demo))
    return load_scenario(path)


def test_log_reads_as_the_per_row_reference(tmp_path, monkeypatch):
    scenario = mixed_fence_scenario(tmp_path)
    result = engine.run(scenario, 42)
    log = result.commands
    monkeypatch.setattr(engine, "GeofenceCoordinator", PerRowCoordinator)
    per_row = engine.run(scenario, 42)
    assert per_row.trace == result.trace
    reference = per_row.commands
    assert isinstance(log, CommandLog) and isinstance(reference, list)
    # both kinds of entry are present, interleaved
    assert any(r.assignment is None for r in reference[:100])
    assert any(r.assignment is not None for r in reference[:100])

    assert len(log) == len(reference) > 1000
    assert list(log) == reference
    assert all(type(row) is CommandRecord for row in log)
    for i in (0, 1, 17, len(reference) // 2, len(reference) - 1):
        assert log[i] == reference[i]
    for i in range(1, 300):
        assert log[-i] == reference[-i]
    for bad in (len(reference), -len(reference) - 1):
        with pytest.raises(IndexError):
            log[bad]
    for part in (
        slice(None), slice(5, 40), slice(-30, None), slice(None, -7), slice(3, 900, 7),
        slice(None, None, -1), slice(-2, 10, -3), slice(40, 5), slice(len(reference) + 5, None),
    ):
        assert log[part] == reference[part], part
        assert type(log[part]) is list
    assert log == reference and log == tuple(reference) and log == log
    assert log != reference[:-1]
    changed = reference[:-1] + [reference[-1]._replace(commanded_mode="other")]
    assert log != changed
    assert (log == "not rows") is False
    with pytest.raises(TypeError):
        hash(log)


def test_a_hand_built_log_indexes_across_its_entries():
    def row(vid):
        return CommandRecord(1.0, "f", vid, None, None, None, None, "polluting", 1.0)

    toss = FenceToss(
        2.0, "f", 7.0, ("a", "b", "c"), (1.0, 2.0, 1.0), (0.5, 0.25, 0.0), (1.0, 0.5, 0.0),
        array("d", [0.1, 0.6, 0.9]), ("polluting", "electric", "electric"),
    )
    empty = FenceToss(3.0, "f", 3.0, (), (), (), (), array("d"), ())
    log = CommandLog()
    assert len(log) == 0 and log == [] and log == () and log[:] == []
    with pytest.raises(IndexError):
        log[0]
    for entry in (row("x"), toss, empty, row("y")):
        log.append(entry)
    expected = [
        row("x"),
        CommandRecord(2.0, "f", "a", 1.0, 0.5, 1.0, 0.1, "polluting", 7.0),
        CommandRecord(2.0, "f", "b", 2.0, 0.25, 0.5, 0.6, "electric", 7.0),
        CommandRecord(2.0, "f", "c", 1.0, 0.0, 0.0, 0.9, "electric", 7.0),
        row("y"),
    ]
    assert len(log) == 5 and list(log) == expected
    assert [log[i] for i in range(-5, 5)] == expected + expected
    assert log[2:4] == expected[2:4] and log[::-2] == expected[::-2]


@pytest.mark.parametrize(
    "latency, single_vehicle",
    [(0.0, False), (5.0, False), (None, True)],
    ids=["ring", "ring_latency_5", "mixed_single"],
)
def test_queueing_every_logged_row_gives_the_same_run(latency, single_vehicle, tmp_path, monkeypatch, demo_ring):
    if single_vehicle:
        scenario = load_scenario(mixed_powertrain_scenario(tmp_path / "mixed.json"))
    else:
        controller = dataclasses.replace(demo_ring.controller, actuation_latency=latency)
        scenario = dataclasses.replace(demo_ring, controller=controller)
    queued = []

    def counting_step(world, dt, original=engine.step):
        queued.append(len(world.pending_commands))
        return original(world, dt)

    monkeypatch.setattr(engine, "step", counting_step)
    switches_only = engine.run(scenario, 42)
    switch_queue, queued[:] = sum(queued), []
    queue_every_row(monkeypatch)
    every_row = engine.run(scenario, 42)
    assert every_row.trace == switches_only.trace
    assert every_row.commands == switches_only.commands
    if not single_vehicle:
        assert switch_queue < sum(queued)  # fewer rows waited in the queue


def test_a_vehicle_that_leaves_is_forgotten():
    # a slack budget: v1 is commanded polluting on every toss
    coord = make_coordinator(config=ControllerConfig(allowable_limit=100.0))
    here = {"v1": snap("v1")}
    gone = {"v2": snap("v2", pos=(500.0, 0.0))}
    coord.on_detection("tag-1", (0.0, 0.0), 0.0)
    first = coord.step(0.0, here, 0.0, grid_of(here))
    assert [(c.vehicle_id, c.commanded_mode) for c in first] == [("v1", "polluting")]
    assert coord.step(1.0, here, 0.0, grid_of(here)) == []  # the same mode again
    assert coord.step(2.0, gone, 0.0, grid_of(gone)) == []
    # back on the road, its next command counts as a first one
    back = coord.step(3.0, here, 0.0, grid_of(here))
    assert [(c.vehicle_id, c.commanded_mode) for c in back] == [("v1", "polluting")]
    assert [r.sim_time for r in coord.command_log] == [0.0, 1.0, 3.0]


def test_single_vehicle_controller_returns_only_switches():
    coord = SingleVehicleController(ControllerConfig(), random.Random("test:toss"))
    ev = {"ev": snap("ev", powertrain=Powertrain.PURE_EV)}
    coord.on_detection("tag-1", (0.0, 0.0), 0.0, detecting_vehicle_id="ev")
    assert [c.commanded_mode for c in coord.step(0.0, ev, 0.0, grid_of(ev))] == ["electric"]
    coord.step(25.0, ev, 0.0, grid_of(ev))  # expired: a pure EV's revert is skipped
    coord.on_detection("tag-1", (0.0, 0.0), 30.0, detecting_vehicle_id="ev")
    # logged again, but still the mode it was last commanded
    assert coord.step(30.0, ev, 0.0, grid_of(ev)) == []
    assert [(r.sim_time, r.commanded_mode) for r in coord.command_log] == [(0.0, "electric"), (30.0, "electric")]


def test_ring_dense_log_keeps_at_most_a_third_of_a_row_list(ring_dense):
    tracemalloc.start()
    try:
        result = engine.run(ring_dense, 1)
        trace, log = result.trace, result.commands
        del result
        gc.collect()
        with_log = tracemalloc.get_traced_memory()[0]
        rows = list(log)
        as_list = tracemalloc.get_traced_memory()[0] - with_log
        assert len(rows) == 36_600
        del rows, log
        gc.collect()
        log_bytes = with_log - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trace.rows  # the trace, which shares the fence member tuples, stays alive
    assert 0 < log_bytes <= as_list / 3
