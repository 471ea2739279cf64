"""The command log keeps a fence toss as columns, the engine applies the
log's entries as logged, and the writer writes a toss's rows from its
columns.

The references here are test-local: a coordinator that logs one
``CommandRecord`` per tossed vehicle, and controllers whose ``step``
returns every row it logged as its own record, so that the engine queues
and applies one record per row.  ``tests.conftest.command_rows`` expands
a log into such records.
"""

import csv
import dataclasses
import gc
import tracemalloc

import pytest

from ecofence import engine
from ecofence.coordinator import (
    CommandRecord,
    FenceToss,
    GeofenceCoordinator,
    SingleVehicleController,
    commanded_modes,
    toss_polluting,
)
from ecofence.reporting import COMMANDS_HEADER, write_commands_csv
from ecofence.scenario import load_scenario
from tests.conftest import FENCE_MIX, SINGLE_VEHICLE_MIX, command_rows, mixed_demo_ring


class PerRowCoordinator(GeofenceCoordinator):
    """Logs one record per tossed vehicle, as the coordinator did before a
    toss was kept as columns; only a row with 0 < x < 1 draws."""

    def _toss_fence(self, fence, problem, assignment, now):
        effective = now + self.config.actuation_latency
        for vehicle_id, density, rate, x in zip(problem.vehicle_ids, problem.densities, problem.rates, assignment.x):
            if 0.0 < x < 1.0:
                polluting, draw = toss_polluting(x, self.rng)
            else:
                polluting, draw = x == 1.0, None
            self._controlled[vehicle_id] = fence.fence_id
            mode = "polluting" if polluting else "electric"
            self.command_log.append(
                CommandRecord(now, fence.fence_id, vehicle_id, density, rate, x, draw, mode, effective)
            )


def queue_every_row(monkeypatch):
    """Make both controllers' ``step`` return every row it logged as its
    own record; a ``step`` is patched only where a class defines it."""
    for cls in (GeofenceCoordinator, SingleVehicleController):
        if "step" not in vars(cls):
            continue

        def step(self, now, snapshots, background_level, index, original=cls.step):
            return command_rows(original(self, now, snapshots, background_level, index))

        monkeypatch.setattr(cls, "step", step)


def toss_and_per_row_runs(tmp_path, monkeypatch):
    """The mixed-fence demo at seed 42, run as it is and with
    :class:`PerRowCoordinator`."""
    scenario = load_scenario(mixed_demo_ring(tmp_path / "mixed_fence.json", FENCE_MIX))
    result = engine.run(scenario, 42)
    monkeypatch.setattr(engine, "GeofenceCoordinator", PerRowCoordinator)
    return result, engine.run(scenario, 42)


def test_log_reads_as_the_per_row_reference(tmp_path, monkeypatch):
    result, per_row = toss_and_per_row_runs(tmp_path, monkeypatch)
    assert per_row.trace == result.trace
    log = result.commands
    assert type(log) is tuple and type(per_row.commands) is tuple
    assert all(type(entry) is CommandRecord for entry in per_row.commands)
    # both kinds of entry are present, interleaved
    assert {type(entry) for entry in log[:20]} == {CommandRecord, FenceToss}
    rows = command_rows(log)
    assert len(rows) == len(per_row.commands) > 1000
    assert len(log) < len(rows)
    assert rows == list(per_row.commands)


def test_the_toss_log_writes_the_per_row_references_file(tmp_path, monkeypatch):
    result, per_row = toss_and_per_row_runs(tmp_path, monkeypatch)
    write_commands_csv(result.commands, tmp_path / "tosses.csv")
    write_commands_csv(per_row.commands, tmp_path / "rows.csv")
    written = (tmp_path / "tosses.csv").read_bytes()
    assert written.count(b"\n") == len(per_row.commands) + 1
    assert written == (tmp_path / "rows.csv").read_bytes()


def test_a_hand_built_log_reads_across_its_entries(tmp_path):
    def row(vid):
        return CommandRecord(1.0, "f", vid, None, None, None, None, "polluting", 1.0)

    # only the row with 0 < x < 1 drew
    toss = FenceToss(
        2.0, "f", 7.0, ("a", "b", "c"), (1.0, 2.0, 1.0), (0.5, 0.25, 0.0), (1.0, 0.5, 0.0),
        (0.6,), ("polluting", "electric", "electric"),
    )
    empty = FenceToss(3.0, "f", 3.0, (), (), (), (), (), ())
    entries = [row("x"), toss, empty, row("y")]
    expected = [
        row("x"),
        CommandRecord(2.0, "f", "a", 1.0, 0.5, 1.0, None, "polluting", 7.0),
        CommandRecord(2.0, "f", "b", 2.0, 0.25, 0.5, 0.6, "electric", 7.0),
        CommandRecord(2.0, "f", "c", 1.0, 0.0, 0.0, None, "electric", 7.0),
        row("y"),
    ]
    assert command_rows(entries) == expected
    # an entry's (vehicle, mode) pairs are its rows', in row order
    pairs = [pair for entry in entries for pair in commanded_modes(entry)]
    assert pairs == [(r.vehicle_id, r.commanded_mode) for r in expected]
    # the writer gives one row per command and none for the empty toss
    write_commands_csv(entries, tmp_path / "commands.csv")
    with open(tmp_path / "commands.csv", encoding="utf-8", newline="") as handle:
        header, *written = csv.reader(handle)
    assert header == list(COMMANDS_HEADER)
    assert written == [
        ["1.0", "f", "x", "", "", "", "", "polluting", "1.0"],
        ["2.0", "f", "a", "1.0", "0.5", "1.0", "", "polluting", "7.0"],
        ["2.0", "f", "b", "2.0", "0.25", "0.5", "0.6", "electric", "7.0"],
        ["2.0", "f", "c", "1.0", "0.0", "0.0", "", "electric", "7.0"],
        ["1.0", "f", "y", "", "", "", "", "polluting", "1.0"],
    ]
    write_commands_csv([], tmp_path / "none.csv")
    assert (tmp_path / "none.csv").read_bytes() == ",".join(COMMANDS_HEADER).encode() + b"\r\n"


@pytest.mark.parametrize(
    "latency, single_vehicle",
    [(0.0, False), (5.0, False), (None, True)],
    ids=["ring", "ring_latency_5", "mixed_single"],
)
def test_queueing_every_logged_row_gives_the_same_run(latency, single_vehicle, tmp_path, monkeypatch, demo_ring):
    if single_vehicle:
        path = mixed_demo_ring(tmp_path / "mixed.json", SINGLE_VEHICLE_MIX, single_vehicle=True, actuation_latency=5.0)
        scenario = load_scenario(path)
    else:
        controller = dataclasses.replace(demo_ring.controller, actuation_latency=latency)
        scenario = dataclasses.replace(demo_ring, controller=controller)
    queued = []

    def count_queued():
        """Count what each controller step returns, which ``run`` queues,
        patching ``step`` only where a class defines it."""
        for cls in (GeofenceCoordinator, SingleVehicleController):
            if "step" not in vars(cls):
                continue

            def step(self, *args, original=cls.step):
                entries = original(self, *args)
                queued.append(len(entries))
                return entries

            monkeypatch.setattr(cls, "step", step)

    count_queued()
    as_logged = engine.run(scenario, 42)
    entry_queue, queued[:] = sum(queued), []
    monkeypatch.undo()
    queue_every_row(monkeypatch)
    count_queued()
    every_row = engine.run(scenario, 42)
    assert every_row.trace == as_logged.trace
    assert every_row.commands == as_logged.commands
    if not single_vehicle:
        assert 0 < entry_queue < sum(queued)  # fewer entries were queued than rows


def test_ring_dense_log_keeps_at_most_a_third_of_a_row_list(ring_dense):
    tracemalloc.start()
    try:
        result = engine.run(ring_dense, 1)
        trace, log = result.trace, result.commands
        del result
        gc.collect()
        with_log = tracemalloc.get_traced_memory()[0]
        rows = command_rows(log)
        as_list = tracemalloc.get_traced_memory()[0] - with_log
        assert len(rows) == 36_600
        del rows, log
        gc.collect()
        log_bytes = with_log - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trace.rows  # the trace, which shares the fence member tuples, stays alive
    assert 0 < log_bytes <= as_list / 3
