"""The command log keeps a fence toss as columns, and the engine applies
the log's entries as logged.

The references here are test-local: a coordinator that logs one
``CommandRecord`` per tossed vehicle, and controllers whose ``step``
returns every row it logged as its own record, so that the engine queues
and applies one record per row.
"""

import dataclasses
import gc
import json
import tracemalloc
from array import array

import pytest

from ecofence import engine
from ecofence.coordinator import (
    CommandLog,
    CommandRecord,
    FenceToss,
    GeofenceCoordinator,
    Powertrain,
    SingleVehicleController,
    commanded_modes,
    toss_polluting,
)
from ecofence.scenario import load_scenario
from tests.conftest import data_path
from tests.test_golden import mixed_powertrain_scenario


class PerRowCoordinator(GeofenceCoordinator):
    """Logs one record per tossed vehicle, as the coordinator did before a
    toss was kept as columns."""

    def _toss_fence(self, fence, problem, assignment, snapshots, now):
        effective = now + self.config.actuation_latency
        for vehicle_id, density, rate in problem.entries:
            x = assignment.values[vehicle_id]
            polluting, draw = toss_polluting(x, self.rng)
            if snapshots[vehicle_id].powertrain is Powertrain.PURE_EV:
                polluting = False
            else:
                self._controlled[vehicle_id] = fence.fence_id
            mode = "polluting" if polluting else "electric"
            self.command_log.append(
                CommandRecord(now, fence.fence_id, vehicle_id, density, rate, x, draw, mode, effective)
            )


def queue_every_row(monkeypatch):
    """Make both controllers' ``step`` return every row it logged as its
    own record."""
    for cls in (GeofenceCoordinator, SingleVehicleController):

        def step(self, now, snapshots, background_level, grid, original=cls.step):
            start = len(self.command_log)
            original(self, now, snapshots, background_level, grid)
            return list(self.command_log)[start:]

        monkeypatch.setattr(cls, "step", step)


def mixed_fence_scenario(tmp_path):
    """demo_ring with pure EVs and pure ICE vehicles in the fence: tosses
    and restores interleave."""
    demo = json.loads(data_path("demo_ring.json").read_text())
    powertrains = {"v01": "pure_ev", "v03": "pure_ice", "v06": "pure_ev"}
    for entry in demo["fleet"]:
        entry["powertrain"] = powertrains.get(entry["vehicle_id"], entry["powertrain"])
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
    assert isinstance(log, CommandLog)
    assert all(type(entry) is CommandRecord for entry in per_row.commands.entries)
    reference = list(per_row.commands)
    # both kinds of entry are present, interleaved
    assert {type(entry) for entry in log.entries[:20]} == {CommandRecord, FenceToss}

    assert len(log) == len(reference) > 1000
    assert len(log.entries) < len(reference)
    assert list(log) == reference
    assert all(type(row) is CommandRecord for row in log)
    assert log == reference and log == tuple(reference) and log == log and log == per_row.commands
    assert log != reference[:-1]
    changed = reference[:-1] + [reference[-1]._replace(commanded_mode="other")]
    assert log != changed
    assert (log == "not rows") is False
    with pytest.raises(TypeError):
        hash(log)


def test_a_hand_built_log_reads_across_its_entries():
    def row(vid):
        return CommandRecord(1.0, "f", vid, None, None, None, None, "polluting", 1.0)

    toss = FenceToss(
        2.0, "f", 7.0, ("a", "b", "c"), (1.0, 2.0, 1.0), (0.5, 0.25, 0.0), (1.0, 0.5, 0.0),
        array("d", [0.1, 0.6, 0.9]), ("polluting", "electric", "electric"),
    )
    empty = FenceToss(3.0, "f", 3.0, (), (), (), (), array("d"), ())
    log = CommandLog()
    assert len(log) == 0 and log == [] and log == () and list(log) == []
    entries = [row("x"), toss, empty, row("y")]
    for entry in entries:
        log.append(entry)
    expected = [
        row("x"),
        CommandRecord(2.0, "f", "a", 1.0, 0.5, 1.0, 0.1, "polluting", 7.0),
        CommandRecord(2.0, "f", "b", 2.0, 0.25, 0.5, 0.6, "electric", 7.0),
        CommandRecord(2.0, "f", "c", 1.0, 0.0, 0.0, 0.9, "electric", 7.0),
        row("y"),
    ]
    assert len(log) == 5 and list(log) == expected and log == expected
    assert all(kept is entry for kept, entry in zip(log.entries, entries)) and len(log.entries) == 4
    # an entry's (vehicle, mode) pairs are its rows', in row order
    pairs = [pair for entry in log.entries for pair in commanded_modes(entry)]
    assert pairs == [(r.vehicle_id, r.commanded_mode) for r in expected]


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
    as_logged = engine.run(scenario, 42)
    entry_queue, queued[:] = sum(queued), []
    queue_every_row(monkeypatch)
    every_row = engine.run(scenario, 42)
    assert every_row.trace == as_logged.trace
    assert every_row.commands == as_logged.commands
    if not single_vehicle:
        assert entry_queue < sum(queued)  # fewer entries waited than rows


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
