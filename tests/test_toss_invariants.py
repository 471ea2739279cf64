"""The coin toss invariants, read from a written ``commands.csv`` alone.

The command file is read with the standard library's ``csv`` and the
powertrains are looked up in the scenario file with ``json``; nothing here
imports ``engine`` or ``coordinator``, so the checks hold the file as
written, not the program's own view of it.  No row of any kind names a
pure EV or a pure ICE vehicle, since only a hybrid can be commanded.  On
every toss row (a row with an ``assignment``):

* x is in [0, 1];
* the row has a draw exactly when 0 < x < 1, and a draw is in [0, 1);
* a drawn row is polluting exactly when its draw is below x;
* an undrawn row is polluting exactly when x == 1;
* each decision, one ``(sim_time, fence_id)``, has at most one drawn row,
  since the greedy fill leaves at most one fractional x;
* each vehicle has at most one toss row per tick, one ``(sim_time,
  vehicle_id)``, so no vehicle is decided twice in a tick.

The mixed-powertrain run's ``trace.csv`` is read too, only to show that
its non-hybrids were fence members, so the check saw them.
"""

import csv
import json

import pytest

from ecofence import cli
from tests.conftest import FENCE_MIX, bench_scenario, data_path, mixed_demo_ring


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def non_hybrids(scenario_path):
    fleet = json.loads(scenario_path.read_text())["fleet"]
    return {entry["vehicle_id"] for entry in fleet if entry.get("powertrain", "hybrid") != "hybrid"}


def fence_members(trace_path):
    """Every id that is a fence member on some row of a ``trace.csv``."""
    found = set()
    for row in read_rows(trace_path):
        for fence in filter(None, row["fences"].split("|")):
            found.update(filter(None, fence.split("~")[6].split("+")))
    return found


def toss_violations(rows, non_hybrid_ids):
    """(drawn rows, violations) of the command rows ``rows``; each
    violation names its line of the file."""
    problems = []
    drawn: dict[tuple[str, str], int] = {}
    decided: dict[tuple[str, str], int] = {}
    for line, row in enumerate(rows, start=2):
        if row["vehicle_id"] in non_hybrid_ids:
            problems.append(f"line {line} ({row['vehicle_id']}): only a hybrid is commanded")
        if not row["assignment"]:
            continue  # a restore or a single-vehicle command
        key = (row["sim_time"], row["vehicle_id"])
        decided[key] = decided.get(key, 0) + 1
        x = float(row["assignment"])
        where = f"line {line} ({row['vehicle_id']}, x {x!r}, draw {row['draw']!r}, {row['commanded_mode']})"
        polluting = row["commanded_mode"] == "polluting"
        if not 0.0 <= x <= 1.0:
            problems.append(f"{where}: x outside [0, 1]")
        if bool(row["draw"]) != (0.0 < x < 1.0):
            problems.append(f"{where}: a draw must be made exactly when 0 < x < 1")
        if row["draw"]:
            draw = float(row["draw"])
            if not 0.0 <= draw < 1.0:
                problems.append(f"{where}: draw outside [0, 1)")
            if polluting != (draw < x):
                problems.append(f"{where}: a drawn row is polluting exactly when draw < x")
            key = (row["sim_time"], row["fence_id"])
            drawn[key] = drawn.get(key, 0) + 1
        elif polluting != (x == 1.0):
            problems.append(f"{where}: an undrawn row is polluting exactly when x == 1")
    problems.extend(f"decision {key}: {count} drawn rows" for key, count in drawn.items() if count > 1)
    problems.extend(f"tick and vehicle {key}: {count} toss rows" for key, count in decided.items() if count > 1)
    return sum(drawn.values()), problems


def written_run(name, tmp_path):
    """(commands.csv, scenario file) of a seed-1 control run of ``name``."""
    if name in ("ring_dense", "grid_sparse"):
        scenario = bench_scenario(name, tmp_path / f"{name}.json")
    elif name == "mixed_powertrains":
        scenario = mixed_demo_ring(tmp_path / f"{name}.json", FENCE_MIX)
    else:
        scenario = data_path(f"{name}.json")
    command, commands = ("compare", "control_commands.csv") if name == "ring_dense" else ("run", "commands.csv")
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(scenario), "--seed", "1", "--out", str(out)]) == 0
    return out / commands, scenario


@pytest.mark.parametrize(
    "name", ["demo_ring", "demo_slack", "demo_lifecycle", "mixed_powertrains", "ring_dense", "grid_sparse"]
)
def test_every_toss_row_keeps_the_invariants(name, tmp_path):
    commands, scenario = written_run(name, tmp_path)
    rows = read_rows(commands)
    drawn, problems = toss_violations(rows, non_hybrids(scenario))
    assert problems == []
    assert sum(1 for row in rows if row["assignment"]) >= 50
    if name == "demo_slack":
        assert drawn == 0  # its budget covers every member, so every x is 1
    else:
        assert drawn > 0
    if name == "mixed_powertrains":
        # every non-hybrid was a fence member, so the check saw the case
        assert non_hybrids(scenario) == {"v01", "v03", "v06"}
        assert non_hybrids(scenario) <= fence_members(commands.parent / "trace.csv")


def violations_of_copy(rows, path, non_hybrid_ids):
    """The violations of ``rows`` once written to ``path`` and read back."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    return toss_violations(read_rows(path), non_hybrid_ids)[1]


def test_each_mutated_copy_breaks_its_invariant(tmp_path):
    commands, scenario = written_run("demo_ring", tmp_path)
    rows = read_rows(commands)
    assert non_hybrids(scenario) == set()
    assert toss_violations(rows, set())[1] == []
    drawn_line = next(i for i, row in enumerate(rows) if row["draw"])
    decision = (rows[drawn_line]["sim_time"], rows[drawn_line]["fence_id"])
    certain_line = next(
        i for i, row in enumerate(rows)
        if (row["sim_time"], row["fence_id"]) == decision and row["assignment"] == "1.0"
    )
    flipped = {"polluting": "electric", "electric": "polluting"}[rows[drawn_line]["commanded_mode"]]

    def changed(index, **changes):
        return [dict(row, **changes) if i == index else row for i, row in enumerate(rows)]

    mutations = {
        "flipped mode": (changed(drawn_line, commanded_mode=flipped), "drawn row is polluting exactly when"),
        "draw on x = 1": (changed(certain_line, draw="0.5"), "draw must be made exactly when"),
        "second fractional row": (changed(certain_line, assignment="0.75", draw="0.25"), "2 drawn rows"),
        "tossed by a second fence": ([*rows, dict(rows[certain_line], fence_id="second")], "2 toss rows"),
    }
    for label, (mutated, expected) in mutations.items():
        problems = violations_of_copy(mutated, tmp_path / f"{label}.csv", set())
        assert any(expected in problem for problem in problems), (label, problems)


def test_a_copied_row_under_a_pure_ev_breaks_the_invariant(tmp_path):
    # the mixed run's file with one of its rows repeated under v01, a pure
    # EV: once a toss row, once a restore
    commands, scenario = written_run("mixed_powertrains", tmp_path)
    rows = read_rows(commands)
    others = non_hybrids(scenario)
    assert toss_violations(rows, others)[1] == []
    toss_row = next(row for row in rows if row["assignment"] == "1.0")
    restore_row = next(row for row in rows if not row["assignment"])
    for label, row in (("toss", toss_row), ("restore", restore_row)):
        mutated = [*rows, dict(row, vehicle_id="v01")]
        problems = violations_of_copy(mutated, tmp_path / f"{label}.csv", others)
        assert problems == [f"line {len(mutated) + 1} (v01): only a hybrid is commanded"], (label, problems)
