"""The coin toss invariants, read from a written ``commands.csv`` alone.

The command file is read with the standard library's ``csv`` and the pure
EVs are looked up in the scenario file with ``json``; nothing here imports
``engine`` or ``coordinator``, so the checks hold the file as written, not
the program's own view of it.  On every toss row (a row with an
``assignment``):

* x is in [0, 1];
* the row has a draw exactly when 0 < x < 1, and a draw is in [0, 1);
* a drawn row is polluting exactly when its draw is below x;
* an undrawn row is polluting exactly when x == 1, except a pure EV's
  row, which is always electric;
* each decision, one ``(sim_time, fence_id)``, has at most one drawn row,
  since the greedy fill leaves at most one fractional x;
* each vehicle has at most one toss row per tick, one ``(sim_time,
  vehicle_id)``, so no vehicle is decided twice in a tick.
"""

import csv
import json

import pytest

from ecofence import cli
from tests.conftest import bench_scenario, data_path


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def pure_evs(scenario_path):
    fleet = json.loads(scenario_path.read_text())["fleet"]
    return {entry["vehicle_id"] for entry in fleet if entry.get("powertrain") == "pure_ev"}


def toss_violations(rows, pure_ev_ids):
    """(drawn rows, violations) of the command rows ``rows``; each
    violation names its line of the file."""
    problems = []
    drawn: dict[tuple[str, str], int] = {}
    decided: dict[tuple[str, str], int] = {}
    for line, row in enumerate(rows, start=2):
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
        elif polluting != (x == 1.0 and row["vehicle_id"] not in pure_ev_ids):
            problems.append(f"{where}: an undrawn row is polluting exactly when x == 1, except a pure EV")
    problems.extend(f"decision {key}: {count} drawn rows" for key, count in drawn.items() if count > 1)
    problems.extend(f"tick and vehicle {key}: {count} toss rows" for key, count in decided.items() if count > 1)
    return sum(drawn.values()), problems


def mixed_powertrains(path):
    """demo_ring where v01 and v06 are pure EVs and v03 is pure ICE, all
    in the fence on most ticks."""
    demo = json.loads(data_path("demo_ring.json").read_text())
    powertrains = {"v01": "pure_ev", "v03": "pure_ice", "v06": "pure_ev"}
    for entry in demo["fleet"]:
        entry["powertrain"] = powertrains.get(entry["vehicle_id"], entry["powertrain"])
    path.write_text(json.dumps(demo))
    return path


def written_run(name, tmp_path):
    """(commands.csv, scenario file) of a seed-1 control run of ``name``."""
    if name in ("ring_dense", "grid_sparse"):
        scenario = bench_scenario(name, tmp_path / f"{name}.json")
    elif name == "mixed_powertrains":
        scenario = mixed_powertrains(tmp_path / f"{name}.json")
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
    drawn, problems = toss_violations(rows, pure_evs(scenario))
    assert problems == []
    assert sum(1 for row in rows if row["assignment"]) >= 50
    if name == "demo_slack":
        assert drawn == 0  # its budget covers every member, so every x is 1
    else:
        assert drawn > 0
    if name == "mixed_powertrains":
        assert {row["vehicle_id"] for row in rows if row["assignment"] == "1.0"} & pure_evs(scenario)


def test_each_mutated_copy_breaks_its_invariant(tmp_path):
    commands, scenario = written_run("demo_ring", tmp_path)
    rows = read_rows(commands)
    evs = pure_evs(scenario)
    assert toss_violations(rows, evs)[1] == []
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
        copy = tmp_path / f"{label}.csv"
        with open(copy, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(mutated)
        _, problems = toss_violations(read_rows(copy), evs)
        assert any(expected in problem for problem in problems), (label, problems)
