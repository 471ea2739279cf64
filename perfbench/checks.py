"""Output checks of one operation; every broken check fails the operation.

The checks hold on the seed code for every workload:

* the command exits 0;
* every simulation run has ``scenario.steps()`` trace rows, and so does
  every trace file;
* in every decision ``(sim_time, fence_id)`` every assignment ``x`` is in
  [0, 1] and the expected spend ``sum(x * e)`` is at most
  ``max(budget, 0) + BUDGET_TOL``, with the budget read from the trace row
  of the same time;
* the control-off baseline issues no commands;
* every later operation with the same seed writes byte-identical trace,
  command and summary files (compared by sha256), so the file checks
  run once per seed;
* ``sweep_summary.json`` lists its seeds in ascending order.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

# The files each command writes that must repeat byte for byte.
DIGEST_FILES = {
    "compare": ("baseline_trace.csv", "control_trace.csv", "control_commands.csv", "summary.json"),
    "run": ("trace.csv", "commands.csv", "summary.json"),
    "sweep": ("sweep_summary.json",),
}
# (trace file, command file) pairs whose decisions are checked.
DECISION_FILES = {
    "compare": (("control_trace.csv", "control_commands.csv"),),
    "run": (("trace.csv", "commands.csv"),),
    "sweep": (),
}
csv.field_size_limit(1 << 30)  # trace rows carry every vehicle in one cell


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_budgets(trace_path: Path) -> dict[str, float]:
    """Budget of every trace row, keyed by its ``sim_time`` text."""
    with open(trace_path, "r", encoding="utf-8", newline="") as handle:
        return {row["sim_time"]: float(row["budget"]) for row in csv.DictReader(handle)}


def decision_violations(
    commands: Iterable[Mapping[str, str]], budgets: Mapping[str, float], tol: float
) -> tuple[int, list[str]]:
    """(decisions checked, violations) of a command log.

    Only rows with an assignment are decisions; restores and forced
    commands carry none.
    """
    spend: dict[tuple[str, str], float] = {}
    problems = []
    for row in commands:
        if not row["assignment"]:
            continue
        key = (row["sim_time"], row["fence_id"])
        x = float(row["assignment"])
        if not 0.0 <= x <= 1.0:
            problems.append(f"decision {key}: x={x} for {row['vehicle_id']} is outside [0, 1]")
        spend[key] = spend.get(key, 0.0) + x * float(row["emission_rate"])
    for (sim_time, fence_id), total in spend.items():
        budget = budgets.get(sim_time)
        if budget is None:
            problems.append(f"decision ({sim_time}, {fence_id}): no trace row at that time")
        elif total > max(budget, 0.0) + tol:
            problems.append(
                f"decision ({sim_time}, {fence_id}): expected spend {total!r} over budget {budget!r}"
            )
    return len(spend), problems


def check_operation(
    command: str,
    out: Path,
    child: Mapping,
    steps: int,
    tol: float,
    first_digests: Mapping[str, str] | None,
) -> tuple[dict[str, str], int, list[str]]:
    """Check one operation's outputs; returns (digests, decisions, violations).

    With ``first_digests`` from an earlier operation of the same seed, the
    files must match them byte for byte, which makes the file checks that
    operation passed hold here too, so they are not repeated.
    """
    if child.get("exit_code") != 0:
        return {}, 0, [f"command exited with {child.get('exit_code')!r}"]
    problems = []
    for run in child["runs"]:
        if run["rows"] != steps:
            problems.append(f"run with seed {run['seed']}: {run['rows']} trace rows, expected {steps}")
        if not run["control"] and run["commands"]:
            problems.append(f"baseline run with seed {run['seed']} issued {run['commands']} commands")
    digests = {name: sha256(out / name) for name in DIGEST_FILES[command]}
    if first_digests is not None:
        return digests, 0, problems + digest_mismatches(first_digests, digests)
    decisions = 0
    for trace_name, commands_name in DECISION_FILES[command]:
        budgets = read_budgets(out / trace_name)
        if len(budgets) != steps:
            problems.append(f"{trace_name}: {len(budgets)} rows, expected {steps}")
        with open(out / commands_name, "r", encoding="utf-8", newline="") as handle:
            checked, broken = decision_violations(csv.DictReader(handle), budgets, tol)
        decisions += checked
        problems.extend(broken)
    if command == "compare":
        with open(out / "baseline_trace.csv", "r", encoding="utf-8", newline="") as handle:
            rows = sum(1 for _ in csv.reader(handle)) - 1
        if rows != steps:
            problems.append(f"baseline_trace.csv: {rows} rows, expected {steps}")
    if command == "sweep":
        seeds = [entry["seed"] for entry in json.loads((out / "sweep_summary.json").read_text())]
        if seeds != sorted(seeds):
            problems.append(f"sweep_summary.json seeds out of order: {seeds}")
    return digests, decisions, problems


def digest_mismatches(first: Mapping[str, str] | None, again: Mapping[str, str]) -> list[str]:
    if first is None:
        return []
    return [
        f"{name} differs from the first run with this seed"
        for name in sorted(set(first) | set(again))
        if first.get(name) != again.get(name)
    ]
