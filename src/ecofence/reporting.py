"""Run summaries, control-vs-baseline comparison and plot-ready tables.

Output files are plain CSV/JSON so any external plotting tool can render
them; this package never draws figures itself.  All writers format floats
with ``repr`` so identical runs produce byte-identical files, and every
float sum that reaches a file is taken left to right by :func:`_sum`, so
the bytes do not depend on the Python version either.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from operator import itemgetter, mul
from typing import Iterable

from .coordinator import CommandRecord, FenceToss
from .emissions import load_default_table
from .engine import RunResult, ScenarioTrace, TraceRow, run
from .optimizer import BUDGET_TOL
from .scenario import Scenario

@dataclass(frozen=True)
class RunSummary:
    """Headline statistics of a run (optionally paired with its baseline).

    Rates are means/maxes of the in-fence emission rate over rows with an
    active fence; dwell fractions are the share of recorded rows each
    vehicle spent in polluting mode.
    """

    budget: float
    control_mean_in_fence: float
    control_max_in_fence: float
    within_budget_fraction: float
    polluting_dwell: dict[str, float]
    baseline_mean_in_fence: float | None = None
    baseline_max_in_fence: float | None = None


@dataclass(frozen=True)
class CompareResult:
    baseline: RunResult
    control: RunResult
    summary: RunSummary


def _sum(values: Iterable[float]) -> float:
    """``values``, added one at a time from the left, from 0.

    This is what ``sum`` computed before Python 3.12, which sums floats
    with compensation and so can differ in the last bits.
    """
    total = 0
    for value in values:
        total += value
    return total


def _fence_rows(trace: ScenarioTrace) -> list[TraceRow]:
    return [row for row in trace.rows if row.fences]


def _mean_max_in_fence(rows: list[TraceRow]) -> tuple[float, float]:
    """Mean and max in-fence rate over rows that have a fence."""
    if not rows:
        return 0.0, 0.0
    rates = [row.in_fence_rate for row in rows]
    return _sum(rates) / len(rates), max(rates)


def _dwell_fractions(trace: ScenarioTrace) -> dict[str, float]:
    seen: dict[str, int] = {}
    polluting: dict[str, int] = {}
    for row in trace.rows:
        for vid, mode in zip(row.vehicle_ids, row.modes):
            seen[vid] = seen.get(vid, 0) + 1
            if mode == "polluting":
                polluting[vid] = polluting.get(vid, 0) + 1
    return {vid: polluting.get(vid, 0) / count for vid, count in sorted(seen.items())}


def summarize(control: RunResult, baseline: RunResult | None = None) -> RunSummary:
    rows = control.trace.rows
    budget = _sum(row.budget for row in rows) / len(rows) if rows else 0.0
    fence_rows = _fence_rows(control.trace)
    mean_rate, max_rate = _mean_max_in_fence(fence_rows)
    if fence_rows:
        within = sum(1 for r in fence_rows if r.in_fence_rate <= r.budget + BUDGET_TOL)
        within_fraction = within / len(fence_rows)
    else:
        within_fraction = 1.0
    base_mean = base_max = None
    if baseline is not None:
        base_mean, base_max = _mean_max_in_fence(_fence_rows(baseline.trace))
    return RunSummary(
        budget=budget,
        control_mean_in_fence=mean_rate,
        control_max_in_fence=max_rate,
        within_budget_fraction=within_fraction,
        polluting_dwell=_dwell_fractions(control.trace),
        baseline_mean_in_fence=base_mean,
        baseline_max_in_fence=base_max,
    )


def run_compare(scenario: Scenario, seed: int) -> CompareResult:
    """Run the scenario twice with the same seed: control off, then on.

    The two runs share spawn draws (separate purpose-keyed streams) and the
    baseline consumes no coin tosses, so the traces differ only through the
    control actions and are directly comparable row by row.  Both runs use
    one coefficient table, loaded once.
    """
    table = load_default_table()
    baseline = run(replace(scenario, control_enabled=False), seed, table)
    control = run(replace(scenario, control_enabled=True), seed, table)
    return CompareResult(baseline=baseline, control=control, summary=summarize(control, baseline))


# -- plot-ready tables ---------------------------------------------------------


@dataclass(frozen=True)
class PlotTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def total_emissions_table(trace: ScenarioTrace) -> PlotTable:
    """Total rate and vehicle count per step."""
    if not trace.rows:
        raise ValueError("total_emissions_table needs a non-empty trace")
    rows = tuple((r.sim_time, r.total_rate, r.n_vehicles) for r in trace.rows)
    return PlotTable(("sim_time", "total_rate", "n_vehicles"), rows)


def before_after_table(trace: ScenarioTrace, baseline: ScenarioTrace) -> PlotTable:
    """In-fence rate per step without control (``baseline``) and with it
    (``trace``), beside the budget."""
    if not trace.rows:
        raise ValueError("before_after_table needs a control and a baseline trace")
    if len(trace.rows) != len(baseline.rows):
        raise ValueError("traces have different lengths")
    rows = tuple(
        (c.sim_time, b.in_fence_rate, c.in_fence_rate, c.budget)
        for b, c in zip(baseline.rows, trace.rows)
    )
    return PlotTable(("sim_time", "before_rate", "after_rate", "budget"), rows)


def _tosses(commands: Iterable[CommandRecord | FenceToss]) -> list[FenceToss]:
    """The log's fence tosses, one per decision, in log order."""
    tosses = [entry for entry in commands if type(entry) is FenceToss]
    if not tosses:
        raise ValueError("no assignment rows in the command log")
    return tosses


def assignment_snapshot_table(commands: Iterable[CommandRecord | FenceToss]) -> PlotTable:
    """The assignment rows of the last decision time in the log, in
    vehicle-id order."""
    tosses = _tosses(commands)
    at_time = tosses[-1].sim_time
    snapshot = [
        row
        for toss in tosses
        if toss.sim_time == at_time
        for row in zip(toss.vehicle_ids, toss.densities, toss.rates, toss.assignments, toss.modes)
    ]
    rows = tuple(sorted(snapshot, key=itemgetter(0)))
    return PlotTable(("vehicle_id", "density", "emission_rate", "assignment", "commanded_mode"), rows)


def fleet_size_table(commands: Iterable[CommandRecord | FenceToss]) -> PlotTable:
    """Mean total assignment and mean expected rate of the decisions,
    grouped by how many vehicles each decided."""
    by_size: dict[int, list[tuple[float, float]]] = {}
    for toss in _tosses(commands):
        expected = _sum(map(mul, toss.assignments, toss.rates))
        by_size.setdefault(len(toss.vehicle_ids), []).append((_sum(toss.assignments), expected))
    rows = tuple(
        (
            size,
            len(samples),
            _sum(s[0] for s in samples) / len(samples),
            _sum(s[1] for s in samples) / len(samples),
        )
        for size, samples in sorted(by_size.items())
    )
    return PlotTable(("n_members", "ticks", "mean_total_assignment", "mean_expected_rate"), rows)


# -- file writers ---------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table_csv(table: PlotTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([_cell(v) for v in row])


TRACE_HEADER = (
    "sim_time",
    "budget",
    "in_fence_rate",
    "total_rate",
    "n_vehicles",
    "fences",
    "vehicles",
)


def _encode_fences(row) -> str:
    parts = []
    for f in row.fences:
        members = "+".join(f.member_ids)
        parts.append(
            f"{f.fence_id}~{f.center[0]!r}~{f.center[1]!r}~{f.radius!r}"
            f"~{f.created_at!r}~{f.last_detection_at!r}~{members}"
        )
    return "|".join(parts)


def _encode_vehicles(row) -> str:
    columns = zip(row.vehicle_ids, row.euro_classes, row.edge_ids, row.edge_offsets, row.speeds, row.modes)
    return "|".join(
        f"{vid}~{euro_class}~{edge_id}~{offset!r}~{speed!r}~{mode}"
        for vid, euro_class, edge_id, offset, speed, mode in columns
    )


def write_trace_csv(trace: ScenarioTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for row in trace.rows:
            writer.writerow(
                [
                    _cell(row.sim_time),
                    _cell(row.budget),
                    _cell(row.in_fence_rate),
                    _cell(row.total_rate),
                    row.n_vehicles,
                    _encode_fences(row),
                    _encode_vehicles(row),
                ]
            )


COMMANDS_HEADER = (
    "sim_time",
    "fence_id",
    "vehicle_id",
    "density",
    "emission_rate",
    "assignment",
    "draw",
    "commanded_mode",
    "effective_time",
)


def write_commands_csv(commands: Iterable[CommandRecord | FenceToss], path) -> None:
    """One row per command, in log order: a :class:`CommandRecord` is the
    row of its fields, and a :class:`FenceToss` one row per vehicle,
    straight from its columns.  A toss row's draw cell is the next of the
    toss's ``draws`` where 0 < x < 1, and empty elsewhere, where nothing
    was drawn."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COMMANDS_HEADER)
        for entry in commands:
            if type(entry) is not FenceToss:
                writer.writerow(map(_cell, entry))
                continue
            sim_time, fence_id, effective = _cell(entry.sim_time), entry.fence_id, _cell(entry.effective_time)
            draws = iter(entry.draws)
            columns = zip(entry.vehicle_ids, entry.densities, entry.rates, entry.assignments, entry.modes)
            writer.writerows(
                [
                    sim_time,
                    fence_id,
                    vehicle_id,
                    _cell(density),
                    _cell(rate),
                    _cell(x),
                    _cell(next(draws)) if 0.0 < x < 1.0 else "",
                    mode,
                    effective,
                ]
                for vehicle_id, density, rate, x, mode in columns
            )


def write_summary_json(summary: RunSummary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(asdict(summary), handle, indent=2, sort_keys=True)
        handle.write("\n")
