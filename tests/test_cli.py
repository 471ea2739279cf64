import json

import pytest

from ecofence.cli import main
from tests.conftest import data_path


def scenario_arg():
    return str(data_path("demo_slack.json"))


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
