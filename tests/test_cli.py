import json
import math
import os
import subprocess
import sys

import pytest

from ecofence.cli import main
from tests.conftest import ROOT, data_path


def scenario_arg():
    return str(data_path("demo_slack.json"))


# json.load raises int's own error on an integer of more digits than int
# converts; the loaders report it as not valid JSON
DIGITS = "9" * 5001
try:
    int(DIGITS)
except ValueError as exc:
    DIGITS_ERROR = str(exc)


def test_run_writes_outputs(tmp_path, capsys):
    code = main(
        ["run", "--scenario", scenario_arg(), "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    for name in ("trace.csv", "commands.csv", "summary.json", "plot_total_emissions.csv"):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "control_mean_in_fence" in summary


def test_run_validation_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "horizon": -5, "network": {"edges": []}}))
    code = main(["run", "--scenario", str(bad), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize(
    "keys, value, error",
    [
        (
            ("network", "edges", 0, "points", 0),
            [10**400, 0],
            "network.edges[0].points[0]: must be [x, y] of finite numbers",
        ),
        (
            ("network", "edges", 0, "points", 1),
            [math.nan, 0],
            "network.edges[0].points[1]: must be [x, y] of finite numbers",
        ),
        (
            ("network", "edges", 0, "points"),
            [[-1e308, 0], [1e308, 0]],
            "network.edges[0]: edge 'ring_s': length must be positive and finite",
        ),
        (("control", "background"), [[0, 10**400]], "control.background[0]: time and level must be finite"),
        (("horizon",), "DIGITS", f"bad.json: not valid JSON ({DIGITS_ERROR})"),
    ],
    ids=["huge-point", "nan-point", "overflowing-length", "huge-background", "digit-limit"],
)
def test_run_number_no_float_holds_exits_one(tmp_path, capsys, keys, value, error):
    # a NaN point made an edge of NaN length, which passed the edge checks;
    # finite points 2e308 apart made an infinite length, and NaN offsets
    # ("cannot convert float NaN to integer"); each of the others exited 2
    # ("runtime failure"): float() or math.isfinite raised on the integer,
    # or json.load on its digits
    doc = json.loads(data_path("demo_slack.json").read_text())
    *path, last = keys
    target = doc
    for key in path:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"DIGITS"', DIGITS))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(bad), "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    first = err.splitlines()[0]  # a dropped edge adds route errors after it
    assert first.startswith("error: ") and first.endswith(error)
    assert "runtime failure" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag", [("run", "--scenario"), ("solve-debug", "--problem")], ids=["run", "solve-debug"]
)
def test_deeply_nested_json_exits_one(tmp_path, capsys, command, flag):
    # json.load raises RecursionError, not a ValueError, past the
    # interpreter's recursion limit
    nested = tmp_path / "nested.json"
    nested.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
    argv = [command, flag, str(nested)]
    if command == "run":
        argv += ["--seed", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "nested.json: not valid JSON (maximum recursion depth exceeded" in err
    assert "runtime failure" not in err


@pytest.mark.parametrize(
    "control, overrides, error",
    [
        (
            {"limit": 1e308, "background": [[0, 0.0], [10, -1e308]]},
            [],
            "error: control.background: limit 1e+308 minus level -1e+308 overflows",
        ),
        (
            {},
            ["--limit=1e308", "--background=-1e308"],
            "error: control override: limit 1e+308 minus level -1e+308 overflows",
        ),
    ],
    ids=["scenario-file", "overrides"],
)
def test_budget_that_overflows_exits_one(tmp_path, capsys, control, overrides, error):
    # every level is finite, but the budget limit - level is not
    doc = json.loads(data_path("demo_ring.json").read_text())
    doc["control"].update(control)
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(scenario), "--seed", "42", *overrides, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [error]
    assert not out.exists()


def test_run_missing_file_exits_one(tmp_path):
    code = main(
        ["run", "--scenario", str(tmp_path / "nope.json"), "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 1


def test_runtime_failure_exits_two(tmp_path, monkeypatch):
    import ecofence.cli as cli_module

    def explode(scenario, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_module, "run", explode)
    code = main(
        ["run", "--scenario", scenario_arg(), "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 2


def test_compare_outputs_and_overrides(tmp_path):
    code = main(
        [
            "compare",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--limit",
            "0.9",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    for name in (
        "baseline_trace.csv",
        "control_trace.csv",
        "control_commands.csv",
        "summary.json",
        "plot_before_after.csv",
    ):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["budget"] == pytest.approx(0.9)


def test_background_override_constant(tmp_path):
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--background",
            "2.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    budget = float(trace[1].split(",")[1])
    assert budget == -1.0  # 1.0 limit minus 2.0 background


def test_background_override_file(tmp_path):
    series = tmp_path / "bg.csv"
    series.write_text("time,level\n0,0.0\n50,1.5\n")
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--background",
            str(series),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0.2\n50,1.5\n20,0.1\n", "strictly increasing"),
        ("0,0.2\n50,1.5\n50,0.1\n", "strictly increasing"),
        ("0,nan\n", "finite"),
    ],
    ids=["decreasing", "duplicate", "nan"],
)
def test_background_file_fails_scenario_validation(tmp_path, capsys, rows, message):
    series = tmp_path / "bg.csv"
    series.write_text("time,level\n" + rows)
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--background",
            str(series),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert message in capsys.readouterr().err


def test_density_override(tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("edge_id,weight\nring_s,4.0\n")
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--density",
            str(weights),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0


def test_density_override_unknown_edge(tmp_path):
    weights = tmp_path / "w.csv"
    weights.write_text("edge_id,weight\nghost,4.0\n")
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--density",
            str(weights),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1


def test_single_vehicle_flag(tmp_path):
    code = main(
        [
            "run",
            "--scenario",
            scenario_arg(),
            "--seed",
            "3",
            "--single-vehicle",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    commands = (tmp_path / "commands.csv").read_text().splitlines()
    assert len(commands) > 1  # detector switched at least once
    assert "electric" in commands[1]


def test_sweep_merges_by_seed(tmp_path):
    code = main(
        [
            "sweep",
            "--scenario",
            scenario_arg(),
            "--seeds",
            "1..3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    merged = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert [row["seed"] for row in merged] == [1, 2, 3]


def test_sweep_bad_range(tmp_path):
    code = main(
        ["sweep", "--scenario", scenario_arg(), "--seeds", "9..1", "--out", str(tmp_path)]
    )
    assert code == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    code = main(
        ["sweep", "--scenario", scenario_arg(), "--seeds", "1..2", "--jobs", jobs, "--out", str(out)]
    )
    assert code == 1
    assert f"error: --jobs {jobs}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, jobs, pools",
    [("1..2", "500", [2]), ("1..3", "2", [2]), ("4", "8", []), ("1..2", "1", [])],
)
def test_sweep_asks_for_no_more_workers_than_seeds(tmp_path, monkeypatch, seeds, jobs, pools):
    import ecofence.cli as cli_module

    asked = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli_module.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code = main(
        ["sweep", "--scenario", scenario_arg(), "--seeds", seeds, "--jobs", jobs, "--out", str(tmp_path)]
    )
    assert code == 0
    assert asked == pools
    merged = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert [row["seed"] for row in merged] == cli_module._parse_seed_range(seeds)


def test_solve_debug_prints_table(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "limit": 2.0,
                "entries": [
                    {"vehicle_id": "A", "density": 1.0, "emission_rate": 1.0},
                    {"vehicle_id": "B", "density": 2.0, "emission_rate": 2.0},
                ],
            }
        )
    )
    code = main(["solve-debug", "--problem", str(problem)])
    assert code == 0
    out = capsys.readouterr().out
    assert "vehicle_id" in out
    assert "A" in out and "B" in out
    assert "objective 1.250000" in out


def test_solve_debug_problem_not_utf8(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_bytes(b'{"limit": 1.0, "entries": [{"vehicle_id": "caf\xe9"}]}')
    code = main(["solve-debug", "--problem", str(problem)])
    assert code == 1
    assert "problem.json: not valid JSON ('utf-8' codec" in capsys.readouterr().err


def test_zero_step_scenario_exits_one_and_writes_nothing(tmp_path, capsys):
    doc = json.loads(data_path("demo_ring.json").read_text())
    doc["horizon"] = 0.4
    scenario = tmp_path / "instant.json"
    scenario.write_text(json.dumps(doc))
    for command in ("run", "compare"):
        out = tmp_path / command
        code = main([command, "--scenario", str(scenario), "--seed", "42", "--out", str(out)])
        assert code == 1
        assert "error: scenario.horizon: must cover at least one step of dt" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_horizon_over_dt_overflow_exits_one_and_creates_nothing(tmp_path, capsys):
    # 1e10 / 1e-300 overflows to inf: no step count, so nothing is run
    doc = json.loads(data_path("demo_ring.json").read_text())
    doc["horizon"] = 1e10
    doc["dt"] = 1e-300
    scenario = tmp_path / "endless.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)])
    assert code == 1
    assert "error: scenario.horizon: must cover a finite number of steps of dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, text",
    [("--density", b"edge_id,weight\nring_s,4.0 caf\xe9\n"), ("--background", b"time,level\n0,0.2 caf\xe9\n")],
    ids=["density", "background"],
)
def test_override_file_that_is_not_utf8_exits_one(tmp_path, capsys, flag, text):
    override = tmp_path / "override.csv"
    override.write_bytes(text)
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", scenario_arg(), "--seed", "3", flag, str(override), "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "not valid UTF-8 ('utf-8' codec can't decode byte 0xe9" in err
    assert "override.csv" in err
    assert not out.exists()


def test_solve_debug_invalid_problem(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"limit": 1.0, "entries": [{"vehicle_id": "A"}]}))
    code = main(["solve-debug", "--problem", str(problem)])
    assert code == 1


@pytest.mark.parametrize(
    "doc, errors",
    [
        (
            {"limit": True, "entries": [{"vehicle_id": None, "density": "2", "emission_rate": False}]},
            [
                "problem.limit: must be a finite number, got True",
                "entries[0].vehicle_id: must be a non-empty string",
                "entries[0].density: must be a finite number, got '2'",
                "entries[0].emission_rate: must be a finite number, got False",
            ],
        ),
        (
            {"entries": [3, {"vehicle_id": "", "density": 1.0}]},
            [
                "problem.limit: must be a finite number",
                "entries[0]: must be an object",
                "entries[1].vehicle_id: must be a non-empty string",
                "entries[1].emission_rate: must be a finite number",
            ],
        ),
        (
            {"limit": 1.0, "entries": [{"vehicle_id": "A", "density": 0.5, "emission_rate": 1.0}]},
            ["problem file: entries[0]: density must be >= 1.0, got 0.5"],
        ),
        (
            {"limit": 1.0, "entries": [{"vehicle_id": "A", "density": 1, "emission_rate": 1}] * 2},
            ["problem file: entries[1]: duplicate vehicle_id 'A'"],
        ),
        (
            {"limit": 10**400, "entries": []},
            [f"problem.limit: must be a finite number, got {10**400!r}"],
        ),
        ('{"limit": ' + DIGITS + ', "entries": []}', [f"problem.json: not valid JSON ({DIGITS_ERROR})"]),
        ({"limit": 1.0, "entries": {"vehicle_id": "A"}}, ["entries: must be a list"]),
        ({"limit": 1.0}, ["entries: must be a list"]),
        ([{"limit": 1.0, "entries": []}], ["problem.json: top level must be an object"]),
    ],
    ids=[
        "wrong-types", "missing-fields", "density-below-one", "duplicate-id", "huge-integer",
        "digit-limit", "entries-not-a-list", "no-entries", "top-level-list",
    ],
)
def test_solve_debug_reports_every_problem_with_its_path(tmp_path, capsys, doc, errors):
    problem = tmp_path / "problem.json"
    problem.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["solve-debug", "--problem", str(problem)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == len(errors)
    assert all(line.startswith("error: ") and line.endswith(error) for line, error in zip(lines, errors))


def test_importing_the_cli_loads_no_process_pool():
    # sweep --jobs imports them when it needs a pool; imported by every
    # command, they raised the benchmark's ring_dense peak RSS from 30.97 to
    # 32.64 MiB (CPython 3.11)
    code = (
        "import sys, ecofence.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "flag, value",
    [("--tau", "nan"), ("--tau", "inf"), ("--tau", "-inf"), ("--radius", "nan"), ("--limit", "inf")],
)
def test_non_finite_control_override_exits_one(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", str(data_path("demo_ring.json")), "--seed", "42",
         f"{flag}={value}", "--out", str(out)]
    )
    assert code == 1
    assert "error: control override: " in capsys.readouterr().err
    assert not (out / "commands.csv").exists()


@pytest.mark.parametrize("flag", ["--scenario", "--density", "--background"])
def test_directory_given_as_an_input_file_exits_one(tmp_path, capsys, flag):
    directory = tmp_path / "inputs"
    directory.mkdir()
    args = {"--scenario": scenario_arg(), flag: str(directory)}
    out = tmp_path / "out"
    argv = ["run", "--seed", "3", "--out", str(out)]
    for name, value in args.items():
        argv += [name, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err and "is a directory" in err
    assert "runtime failure" not in err
    assert not out.exists()


def test_directory_given_as_a_problem_file_exits_one(tmp_path, capsys):
    assert main(["solve-debug", "--problem", str(tmp_path)]) == 1
    assert f"error: problem file {tmp_path}: is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "command, extra",
    [("run", ["--seed", "3"]), ("compare", ["--seed", "3"]), ("sweep", ["--seeds", "1..2"])],
    ids=["run", "compare", "sweep"],
)
def test_out_that_is_not_a_directory_exits_one(tmp_path, capsys, command, extra, under):
    # mkdir raises FileExistsError or NotADirectoryError here: a bad --out is
    # the user's input, not a runtime failure
    existing = tmp_path / "taken"
    existing.write_text("keep me\n")
    out = existing / "out" if under else existing
    assert main([command, "--scenario", scenario_arg(), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: not a directory\n"
    assert existing.read_text() == "keep me\n"
