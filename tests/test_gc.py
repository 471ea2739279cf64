"""``engine.run`` pauses automatic garbage collection for its step loop.

The pause is safe because a run makes no reference cycles.  These tests
check that on every kind of run, check that the caller's setting comes
back, and check that no collection starts inside the loop.  They call
the library, not ``cli.main``: each CLI call leaves a fixed number of
cyclic objects from argparse's parser, which would hide the engine's own
count.  The last two check that a kept trace holds no per-vehicle records
and that the collector stops tracking its columns.
"""

import contextlib
import gc

import pytest

from ecofence import engine, load_scenario, run, run_compare
from ecofence.coordinator import GeofenceCoordinator
from tests.conftest import SINGLE_VEHICLE_MIX, data_path, mixed_demo_ring
from tests.test_engine import TRACE_COLUMNS
from tests.test_golden import two_tile_scenario


@contextlib.contextmanager
def collector(on: bool):
    """Automatic garbage collection on or off for the block, then as before."""
    was_on = gc.isenabled()
    gc.enable() if on else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_on else gc.disable()


def bundled(name):
    return lambda doc, tmp_path: load_scenario(data_path(f"{name}.json"))


@pytest.mark.parametrize(
    "build, simulate",
    [
        # run_compare makes the baseline run and the control run
        pytest.param(bundled("demo_ring"), run_compare, id="demo_ring_compare"),
        pytest.param(bundled("demo_lifecycle"), run, id="demo_lifecycle"),
        pytest.param(
            lambda doc, tmp_path: load_scenario(
                mixed_demo_ring(tmp_path / "mixed.json", SINGLE_VEHICLE_MIX, single_vehicle=True, actuation_latency=5.0)
            ),
            run,
            id="single_vehicle_mixed_powertrains",
        ),
        pytest.param(
            lambda doc, tmp_path: load_scenario(two_tile_scenario(tmp_path / "two_tile.json")),
            run,
            id="two_tile_latency",
        ),
    ],
)
def test_a_run_leaves_no_cyclic_garbage(build, simulate, demo_ring_dict, tmp_path):
    scenario = build(demo_ring_dict, tmp_path)
    with collector(on=False):
        gc.collect()
        # the result is dropped, so a cycle in what it holds is garbage too
        simulate(scenario, 42)
        assert gc.collect() == 0


@pytest.mark.parametrize("on", [True, False])
def test_run_puts_back_the_callers_collector_setting(on, demo_ring, table, monkeypatch):
    with collector(on):
        run(demo_ring, 42, table)
        assert gc.isenabled() is on

        in_loop = []
        step = GeofenceCoordinator.step

        def failing_step(self, *args):
            in_loop.append(gc.isenabled())
            if len(in_loop) == 3:
                raise RuntimeError("coordinator failed mid-run")
            return step(self, *args)

        monkeypatch.setattr(GeofenceCoordinator, "step", failing_step)
        with pytest.raises(RuntimeError, match="mid-run"):
            run(demo_ring, 42, table)
        assert in_loop == [False, False, False]
        assert gc.isenabled() is on


def test_no_collection_starts_inside_the_step_loop(demo_ring, table, monkeypatch):
    rows_built = [0]
    trace_row = engine._trace_row

    def counted(*args):
        row = trace_row(*args)
        rows_built[0] += 1
        return row

    # a collection may start once the last row is built: building the
    # RunResult after the loop is the first allocation with the collector on
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(rows_built[0])

    monkeypatch.setattr(engine, "_trace_row", counted)
    with collector(on=True):
        gc.collect()
        gc.callbacks.append(hook)
        try:
            run(demo_ring, 42, table)
        finally:
            gc.callbacks.remove(hook)
    assert rows_built[0] == demo_ring.steps()
    assert [n for n in starts if n < demo_ring.steps()] == []


def test_a_kept_trace_holds_no_vehicle_records(demo_ring, table):
    # a trace row copies each vehicle's fields into its columns, so the
    # run's vehicle records are freed when it returns
    def vehicle_records():
        return sum(1 for obj in gc.get_objects() if type(obj) is engine.VehicleState)

    with collector(on=False):
        before = vehicle_records()
        result = run(demo_ring, 42, table)
        assert result.trace.rows[-1].n_vehicles
        assert vehicle_records() == before


def test_the_collector_stops_tracking_the_trace_columns(demo_ring, table):
    with collector(on=False):
        rows = run(demo_ring, 42, table).trace.rows
        gc.collect()
        columns = [getattr(row, name) for row in rows for name in TRACE_COLUMNS]
        assert any(columns)
        assert [column for column in columns if gc.is_tracked(column)] == []
