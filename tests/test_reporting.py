import csv
import dataclasses
import hashlib
import json

import pytest

import ecofence.engine
import ecofence.optimizer
import ecofence.reporting
from ecofence import cli
from ecofence.emissions import load_default_table
from ecofence.engine import ScenarioTrace, run
from ecofence.reporting import (
    assignment_snapshot_table,
    before_after_table,
    fleet_size_table,
    run_compare,
    summarize,
    total_emissions_table,
    write_commands_csv,
    write_summary_json,
    write_trace_csv,
)
from tests.conftest import command_rows, tosses


def test_compare_slack_scenario_modes_identical(demo_slack):
    compared = run_compare(demo_slack, 7)
    for base_row, ctrl_row in zip(compared.baseline.trace.rows, compared.control.trace.rows):
        assert (base_row.vehicle_ids, base_row.modes) == (ctrl_row.vehicle_ids, ctrl_row.modes)
    decided = tosses(compared.control.commands)
    assert decided and all(x == 1.0 for toss in decided for x in toss.assignments)


def test_compare_zero_vehicles(demo_slack):
    scenario = dataclasses.replace(demo_slack, fleet=(), cyclists=())
    compared = run_compare(scenario, 1)
    assert compared.summary.control_mean_in_fence == 0.0
    assert compared.summary.baseline_mean_in_fence == 0.0


def test_compare_loads_the_coefficient_table_once(demo_slack, monkeypatch):
    calls = []

    def counting_load():
        calls.append(1)
        return load_default_table()

    monkeypatch.setattr(ecofence.engine, "load_default_table", counting_load)
    monkeypatch.setattr(ecofence.reporting, "load_default_table", counting_load)
    run_compare(demo_slack, 1)
    assert len(calls) == 1


def test_compare_baseline_is_silent_in_single_vehicle_mode(demo_ring, demo_ring_compare):
    compared = run_compare(dataclasses.replace(demo_ring, single_vehicle=True), 42)
    assert compared.control.commands  # the detectors do switch under control
    assert compared.baseline.commands == ()
    assert compared.baseline.trace.rows == demo_ring_compare.baseline.trace.rows


@pytest.mark.parametrize("single_vehicle", [False, True], ids=["fence", "single_vehicle"])
@pytest.mark.parametrize("demo", ["demo_ring", "demo_lifecycle", "demo_slack"])
def test_control_run_records_its_baselines_fences(demo, single_vehicle, request):
    # fences follow detections, and so positions, which no mode changes
    scenario = dataclasses.replace(request.getfixturevalue(demo), single_vehicle=single_vehicle)
    for latency in (0.0, 5.0):
        controller = dataclasses.replace(scenario.controller, actuation_latency=latency)
        for seed in (1, 42):
            compared = run_compare(dataclasses.replace(scenario, controller=controller), seed)
            baseline = [row.fences for row in compared.baseline.trace.rows]
            assert any(baseline), (latency, seed)
            assert [row.fences for row in compared.control.trace.rows] == baseline, (latency, seed)


def test_compare_demo_ring_summary(demo_ring_compare):
    summary = demo_ring_compare.summary
    assert summary.baseline_mean_in_fence > 1.1
    assert summary.control_mean_in_fence <= 1.1
    assert summary.control_mean_in_fence <= summary.control_max_in_fence
    assert 0.0 <= summary.within_budget_fraction <= 1.0
    assert all(0.0 <= f <= 1.0 for f in summary.polluting_dwell.values())


def test_baseline_independent_of_control_code(demo_ring, monkeypatch, tmp_path):
    # checksum the baseline trace, then stub out the solver: the baseline
    # trace must not change because it never calls into the control path
    baseline = run(dataclasses.replace(demo_ring, control_enabled=False), 42)
    path_a = tmp_path / "a.csv"
    write_trace_csv(baseline.trace, path_a)

    def boom(problem):
        raise AssertionError("control path used during baseline run")

    monkeypatch.setattr(ecofence.optimizer, "solve", boom)
    monkeypatch.setattr("ecofence.coordinator.solve", boom)
    stubbed = run(dataclasses.replace(demo_ring, control_enabled=False), 42)
    path_b = tmp_path / "b.csv"
    write_trace_csv(stubbed.trace, path_b)
    digest_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
    digest_b = hashlib.sha256(path_b.read_bytes()).hexdigest()
    assert digest_a == digest_b


def test_baseline_dominance(demo_ring_compare):
    # whenever uncontrolled demand exceeds the budget, control must not
    # average above the baseline
    summary = demo_ring_compare.summary
    assert summary.baseline_mean_in_fence > summary.budget
    assert summary.control_mean_in_fence <= summary.baseline_mean_in_fence


def test_windowed_mean_within_budget_slack(demo_ring):
    # with stationary membership, every 300-tick window stays within 10% of
    # the budget; drop the spur shuttles so the member set really is fixed
    ring_only = dataclasses.replace(
        demo_ring, fleet=tuple(f for f in demo_ring.fleet if f.route[0].startswith("ring"))
    )
    result = run(ring_only, 42)
    rows = [r for r in result.trace.rows if r.fences and r.sim_time >= 10.0]
    members = {r.fences[0].member_ids for r in rows}
    assert len(members) == 1  # membership stationary over the tail
    rates = [r.in_fence_rate for r in rows]
    assert len(rates) >= 300
    budget = 1.0
    for start in range(0, len(rates) - 300 + 1, 50):
        window = rates[start : start + 300]
        assert sum(window) / len(window) <= budget * 1.10


def test_summarize_single_run(demo_slack):
    result = run(demo_slack, 7)
    summary = summarize(result)
    assert summary.baseline_mean_in_fence is None
    assert summary.budget == pytest.approx(1.0)
    assert set(summary.polluting_dwell) == {"v01", "v02"}


def test_plot_total_emissions(demo_ring_compare):
    table = total_emissions_table(demo_ring_compare.control.trace)
    assert table.header == ("sim_time", "total_rate", "n_vehicles")
    assert len(table.rows) == len(demo_ring_compare.control.trace.rows)


def test_plot_total_emissions_nondecreasing_under_fleet_growth(demo_ring):
    # while vehicles are still spawning the uncontrolled total must trend up
    baseline = run(dataclasses.replace(demo_ring, control_enabled=False), 42)
    table = total_emissions_table(baseline.trace)
    ramp = [r for r in table.rows if r[0] <= 7.0]
    totals = [r[1] for r in ramp]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_plot_before_after(demo_ring_compare):
    table = before_after_table(demo_ring_compare.control.trace, demo_ring_compare.baseline.trace)
    assert table.header == ("sim_time", "before_rate", "after_rate", "budget")
    assert all(row[1] >= 0.0 and row[2] >= 0.0 for row in table.rows)


def test_plot_assignment_snapshot_matches_log(demo_ring_compare):
    commands = demo_ring_compare.control.commands
    table = assignment_snapshot_table(commands)
    decided = tosses(commands)
    at_time = max(toss.sim_time for toss in decided)
    expected = sorted(
        row
        for toss in decided
        if toss.sim_time == at_time
        for row in zip(toss.vehicle_ids, toss.densities, toss.rates, toss.assignments, toss.modes)
    )
    assert sorted(table.rows) == expected


def test_plot_fleet_size_sweep(demo_ring_compare):
    table = fleet_size_table(demo_ring_compare.control.commands)
    sizes = [row[0] for row in table.rows]
    assert sizes == sorted(sizes)
    assert all(row[3] <= 1.0 + 1e-9 for row in table.rows)  # mean expected <= budget


def test_trace_tables_need_rows(demo_ring_compare):
    empty = ScenarioTrace(rows=())
    control, baseline = demo_ring_compare.control.trace, demo_ring_compare.baseline.trace
    with pytest.raises(ValueError, match="needs a non-empty trace"):
        total_emissions_table(empty)
    with pytest.raises(ValueError, match="needs a control and a baseline trace"):
        before_after_table(empty, baseline)
    with pytest.raises(ValueError, match="different lengths"):
        before_after_table(control, ScenarioTrace(rows=baseline.rows[:-1]))


def test_sums_are_taken_left_to_right():
    # compensated summation (sum() from Python 3.12 on) gives 1.0
    assert ecofence.reporting._sum([1e16, 1.0, -1e16]) == 0.0
    assert ecofence.reporting._sum([0.1] * 10) == 0.9999999999999999


def left_sum(values):
    total = 0
    for value in values:
        total += value
    return total


def reference_plot_tables(commands):
    """The two command tables, from a list of every decided row."""
    decided = [r for r in commands if r.assignment is not None]
    at_time = decided[-1].sim_time
    snapshot = tuple(
        (r.vehicle_id, r.density, r.emission_rate, r.assignment, r.commanded_mode)
        for r in sorted((r for r in decided if r.sim_time == at_time), key=lambda r: r.vehicle_id)
    )
    by_tick = {}
    for r in decided:
        by_tick.setdefault((r.sim_time, r.fence_id), []).append(r)
    by_size = {}
    for records in by_tick.values():
        sample = (left_sum(r.assignment for r in records), left_sum(r.assignment * r.emission_rate for r in records))
        by_size.setdefault(len(records), []).append(sample)
    fleet = tuple(
        (
            size,
            len(samples),
            left_sum(x for x, _ in samples) / len(samples),
            left_sum(e for _, e in samples) / len(samples),
        )
        for size, samples in sorted(by_size.items())
    )
    return snapshot, fleet


def test_command_tables_match_a_list_of_every_decided_row(demo_ring_compare):
    # the tables read one FenceToss per decision; the reference groups rows
    commands = demo_ring_compare.control.commands
    expected_snapshot, expected_fleet = reference_plot_tables(command_rows(commands))
    assert assignment_snapshot_table(commands).rows == expected_snapshot
    assert fleet_size_table(commands).rows == expected_fleet


def test_command_tables_need_decided_rows(demo_slack, demo_ring_compare):
    # single-vehicle commands and a baseline's empty log decide nothing
    single = run(dataclasses.replace(demo_slack, single_vehicle=True), 1).commands
    assert single
    for commands in (single, demo_ring_compare.baseline.commands):
        for table_of in (assignment_snapshot_table, fleet_size_table):
            with pytest.raises(ValueError, match="no assignment rows in the command log"):
                table_of(commands)


def test_writers_produce_files(demo_ring_compare, tmp_path):
    write_trace_csv(demo_ring_compare.control.trace, tmp_path / "trace.csv")
    write_commands_csv(demo_ring_compare.control.commands, tmp_path / "commands.csv")
    write_summary_json(demo_ring_compare.summary, tmp_path / "summary.json")
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "sim_time,budget,in_fence_rate,total_rate,n_vehicles,fences,vehicles"
    commands_header = (tmp_path / "commands.csv").read_text().splitlines()[0]
    assert commands_header == (
        "sim_time,fence_id,vehicle_id,density,emission_rate,assignment,draw,"
        "commanded_mode,effective_time"
    )


def test_compare_runs_see_identical_traffic(demo_ring_compare):
    baseline = demo_ring_compare.baseline.trace.rows
    control = demo_ring_compare.control.trace.rows
    assert len(baseline) == len(control)
    for base_row, ctrl_row in zip(baseline, control):
        for name in ("vehicle_ids", "euro_classes", "edge_ids", "edge_offsets", "speeds"):
            assert getattr(base_row, name) == getattr(ctrl_row, name), (base_row.sim_time, name)
    # the traffic is the same although control changed modes
    assert any(b.modes != c.modes for b, c in zip(baseline, control))
    assert any(row.n_vehicles for row in baseline)


def test_ids_that_need_quoting_read_back_through_the_csv_reader(demo_ring_dict, tmp_path):
    # the loader bars ~, | and + in ids, but not , and ", which the writers
    # leave to csv.writer to quote
    vehicle_ids = set()
    for entry in demo_ring_dict["fleet"]:
        entry["vehicle_id"] = f'{entry["vehicle_id"]},"car"'
        vehicle_ids.add(entry["vehicle_id"])
    cyclist_id = demo_ring_dict["cyclist"]["cyclist_id"] = 'tag,"17"'
    scenario = tmp_path / "quoted.json"
    scenario.write_text(json.dumps(demo_ring_dict), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "1", "--out", str(out)]) == 0

    def read(name):
        with open(out / name, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert all(len(row) == len(header) for row in rows), name
        return rows

    commands = read("commands.csv")
    assert len(commands) > 1000
    assert {row[1] for row in commands} == {cyclist_id}
    assert {row[2] for row in commands} == vehicle_ids
    trace = read("trace.csv")
    traced = {entry.split("~")[0] for row in trace if row[6] for entry in row[6].split("|")}
    assert traced == vehicle_ids
    fences = [row[5].split("~") for row in trace if row[5]]
    assert fences and {fence[0] for fence in fences} == {cyclist_id}
    members = {vid for fence in fences if fence[6] for vid in fence[6].split("+")}
    assert members == vehicle_ids
