"""Tests of the benchmark itself: generator, output checks and tracer."""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_time_by_name, self_times  # noqa: E402

from ecofence import cli, engine, reporting  # noqa: E402
from ecofence.optimizer import BUDGET_TOL  # noqa: E402
from ecofence.scenario import load_scenario  # noqa: E402


@pytest.mark.parametrize("workload", ["ring_dense", "grid_sparse"])
def test_generator_gives_the_same_bytes_again(workload, tmp_path):
    first = workloads.write_scenario(workload, ROOT, tmp_path / "a.json").read_bytes()
    second = workloads.write_scenario(workload, ROOT, tmp_path / "b.json").read_bytes()
    assert first == second
    assert workloads.cli_args(workload, Path("s.json"), 7, Path("o")) == workloads.cli_args(
        workload, Path("s.json"), 7, Path("o")
    )


def test_generated_workloads_have_the_documented_shape(tmp_path):
    dense = load_scenario(workloads.write_scenario("ring_dense", ROOT, tmp_path / "dense.json"))
    assert len(dense.fleet) == 250 and len(dense.cyclists) == 1
    assert dense.controller.tau == 1.0 and dense.steps() == 160
    grid = load_scenario(workloads.write_scenario("grid_sparse", ROOT, tmp_path / "grid.json"))
    assert len(grid.fleet) == 224 and len(grid.cyclists) == 16
    assert grid.controller.tau == 5.0 and grid.controller.actuation_latency == 5.0
    assert max(level for _, level in grid.background) > grid.controller.allowable_limit


def test_grid_tiles_are_far_enough_apart_that_fences_never_overlap(tmp_path):
    grid = load_scenario(workloads.write_scenario("grid_sparse", ROOT, tmp_path / "grid.json"))
    points: dict[str, list] = {}
    for edge in grid.network.edges.values():
        points.setdefault(edge.edge_id.split("_")[0], []).extend(edge.points)
    boxes = [
        (min(x for x, _ in pts), min(y for _, y in pts), max(x for x, _ in pts), max(y for _, y in pts))
        for pts in points.values()
    ]
    assert len(boxes) == 16
    # A fence is centred on its own tile and reaches `radius` beyond it.
    reach = grid.controller.radius
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            gap = max(b[0] - a[2], a[0] - b[2], b[1] - a[3], a[1] - b[3])
            assert gap > 2 * reach


def _decision(sim_time, fence, vehicle, x, e):
    return {
        "sim_time": sim_time,
        "fence_id": fence,
        "vehicle_id": vehicle,
        "assignment": repr(x),
        "emission_rate": repr(e),
    }


def test_checker_accepts_a_decision_within_budget():
    rows = [_decision("1.0", "f", "a", 1.0, 0.4), _decision("1.0", "f", "b", 0.5, 1.2)]
    assert checks.decision_violations(rows, {"1.0": 1.0}, BUDGET_TOL) == (1, [])


def test_checker_rejects_a_doctored_over_budget_decision():
    rows = [_decision("1.0", "f", "a", 1.0, 0.4), _decision("1.0", "f", "b", 0.6, 1.2)]
    decisions, problems = checks.decision_violations(rows, {"1.0": 1.0}, BUDGET_TOL)
    assert decisions == 1 and len(problems) == 1 and "over budget" in problems[0]


def test_checker_rejects_an_assignment_outside_the_unit_interval():
    rows = [_decision("2.0", "f", "a", 1.5, 0.0)]
    _, problems = checks.decision_violations(rows, {"2.0": 1.0}, BUDGET_TOL)
    assert any("outside [0, 1]" in p for p in problems)


def test_checker_holds_a_negative_budget_at_zero_spend():
    rows = [_decision("3.0", "f", "a", 0.0, 2.0), _decision("3.0", "f", "b", 0.1, 0.5)]
    _, problems = checks.decision_violations(rows, {"3.0": -0.4}, BUDGET_TOL)
    assert len(problems) == 1


def _run_demo(out: Path) -> dict:
    scenario = workloads.demo_path(ROOT)
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "3", "--out", str(out)]) == 0
    return {"exit_code": 0, "runs": []}


def test_check_operation_passes_a_real_run_and_rejects_doctored_outputs(tmp_path):
    out = tmp_path / "out"
    child = _run_demo(out)
    steps = load_scenario(workloads.demo_path(ROOT)).steps()
    digests, decisions, problems = checks.check_operation("run", out, child, steps, BUDGET_TOL, None)
    assert problems == [] and decisions > 0 and set(digests) == {"trace.csv", "commands.csv", "summary.json"}

    # the same outputs against a recorded digest that differs
    wrong = dict(digests, **{"trace.csv": "0" * 64})
    _, _, problems = checks.check_operation("run", out, child, steps, BUDGET_TOL, wrong)
    assert problems == ["trace.csv differs from the first run with this seed"]

    # doctor one decision so that its expected spend exceeds the budget
    path = out / "commands.csv"
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    victim = next(r for r in rows if r["assignment"] and float(r["emission_rate"]) > 0)
    victim["emission_rate"] = repr(float(victim["emission_rate"]) * 1e6)
    victim["assignment"] = "1.0"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _, _, problems = checks.check_operation("run", out, child, steps, BUDGET_TOL, None)
    assert len(problems) == 1 and "over budget" in problems[0]


def test_check_operation_rejects_a_failed_command_and_a_chatty_baseline(tmp_path):
    assert checks.check_operation("run", tmp_path, {"exit_code": 2}, 10, BUDGET_TOL, None)[2]
    out = tmp_path / "out"
    child = _run_demo(out)
    child["runs"] = [{"seed": 3, "control": False, "rows": 640, "commands": 4}]
    _, _, problems = checks.check_operation("run", out, child, 640, BUDGET_TOL, None)
    assert problems == ["baseline run with seed 3 issued 4 commands"]


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        Span("cli", 0.0, 10.0, -1, 0),
        Span("run", 1.0, 9.0, 0, 1),
        Span("step", 2.0, 4.0, 1, 1),
        Span("step", 3.5, 5.0, 1, 1),  # overlaps its sibling: covered once
        Span("rate", 2.5, 3.0, 2, 1),
        Span("write", 9.5, 10.5, 0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([1.5, 5.0, 1.5, 1.5, 0.5, 1.0])
    assert self_time_by_name(spans) == pytest.approx(
        {"cli": 1.5, "run": 5.0, "step": 3.0, "rate": 0.5, "write": 1.0}
    )


def test_tracer_records_nested_spans_with_run_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.spanned("inner", lambda x: x + 1)
    outer = tracer.spanned("outer", lambda x: inner(x) * 2)
    tracer.run_id = 4
    assert outer(1) == 4
    spans = tracer.spans()
    assert [(s.name, s.parent, s.run_id) for s in spans] == [("outer", -1, 4), ("inner", 0, 4)]
    assert self_time_by_name(spans) == {"outer": 2.0, "inner": 1.0}


def test_patch_replaces_every_binding_and_unpatch_restores_them():
    original = engine.run
    tracer = Tracer()
    assert tracer.patch("ecofence.engine", "run", lambda fn: tracer.spanned("engine.run", fn))
    try:
        assert engine.run is not original
        assert cli.run is engine.run and reporting.run is engine.run
    finally:
        tracer.unpatch()
    assert engine.run is original and cli.run is original and reporting.run is original


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(engine, "_snapshot_vehicles")
    monkeypatch.delattr(reporting, "write_table_csv")
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.patch("ecofence.engine", "no_such_name", lambda fn: fn) is False
        values, absent = layers.per_layer_metrics(tracer)
    finally:
        tracer.unpatch()
    assert {"engine.snapshot_s", "reporting.write_s", "reporting.bytes_written"} <= set(absent)
    assert "engine.detect_s" in values and "engine.snapshot_s" not in values
    assert "ecofence.engine.no_such_name" in tracer.absent


def test_observer_of_a_changed_object_marks_its_metric_absent():
    tracer = Tracer()
    layers.install(tracer)
    try:
        observe = layers._guarded(tracer, "engine.detect", lambda args, result: args[0].cyclists)
        observe((object(),), [])
        values, absent = layers.per_layer_metrics(tracer)
    finally:
        tracer.unpatch()
    assert "engine.detect_pairs" in absent and "engine.detect_pairs" not in values


def test_every_layer_resolves_on_a_traced_demo_run(tmp_path):
    tracer = Tracer()
    layers.install(tracer)
    try:
        _run_demo(tmp_path / "out")
        values, absent = layers.per_layer_metrics(tracer)
    finally:
        tracer.unpatch()
    assert absent == [] and tracer.absent == set()
    assert set(values) == set(layers.PER_LAYER)
    assert values["engine.detect_pairs"] > 0 and values["optimizer.solves"] > 0
    assert values["reporting.bytes_written"] > 0
    runs = {s.run_id for s in tracer.spans() if s.name == "engine.step"}
    assert runs == {1}
