"""Byte-identity gate: the CLI's output files for the bundled demos.

The digests pin ``trace.csv`` and ``commands.csv`` of ``run`` (and, for
demo_ring, its ``plot_total_emissions.csv``) and the output files of
``compare``, plot tables included, seed 42, plus single-vehicle mode (also
with pure EVs and pure ICE vehicles), a two-fence run with actuation
latency, tau above 1 and a background series, a run whose detection
range exceeds its fence radius, and the merged summary of ``sweep`` on one and on two workers.
Two benchmark workloads, built by ``perfbench/workloads.py``, pin the
dense paths the demos (at most 14 vehicles) never reach: every file of
``compare`` on ring_dense (250 vehicles, one fence holding nearly all of
them) and of ``run`` on grid_sparse (sixteen fences, 5 s latency).
A refactor or optimisation must leave them unchanged; a deliberate
behaviour change updates them and says which bytes changed and why.
"""

import csv
import hashlib
import json

import pytest

from ecofence import cli
from tests.conftest import bench_scenario, data_path

RUN_DIGESTS = {
    ("demo_ring", "trace.csv"): "2ff0c4b7cafeb61eb4837ef207ccbecf1bc8e728f4a19e1d6294cebc278f6a33",
    ("demo_ring", "commands.csv"): "98d509309486f1c8cd8d1c7cbb75a8be43c35a362bf70f76f7e29669ec1ad288",
    ("demo_ring", "plot_total_emissions.csv"): "c2836a77f3b7a2c14f1dbf623bd26b13ffd21245d88f7c7f8a27be71af794d7a",
    ("demo_slack", "trace.csv"): "b51af7c0ba8891fd2d29777f1b79b341f65fe98a4c9896fa9989a6b18bcbe7e4",
    ("demo_slack", "commands.csv"): "df79d8b3edd136be80190cd0d1c04ba22b731eb60b01e6d37f9b32fc74b215a7",
    ("demo_lifecycle", "trace.csv"): "a73d905e557fcb17701d427927e440df2b927d162b6eb3c9b56bbe654833fac4",
    ("demo_lifecycle", "commands.csv"): "eb7e7b5b04b7af17e3d5a9b67cb001f68fc31c3907478c8bb5f8eec982b46b9e",
}

COMPARE_DIGESTS = {
    "baseline_trace.csv": "766b241eb63ba1180158af9524e160f435052a5b1bc7d05490389daa854bbda2",
    "control_trace.csv": "2ff0c4b7cafeb61eb4837ef207ccbecf1bc8e728f4a19e1d6294cebc278f6a33",
    "control_commands.csv": "98d509309486f1c8cd8d1c7cbb75a8be43c35a362bf70f76f7e29669ec1ad288",
    "summary.json": "d9297bbd6f8a59a66d930c89eb8f04cecaecb081c27b7427dcec532715249218",
    "plot_before_after.csv": "5dc074cadf0614e1bd72dada4aa2ced9fa63f794d2903c623b072e2bda9c48f8",
    "plot_assignment_snapshot.csv": "0fb8cb5cb58eeea457eb1143bebe049d3eec08f451f6dfc3cc3ea8cc36aa557a",
    "plot_fleet_size.csv": "8aa9caaaed34853948e8291806b9abacc95f362abd373dea3cd77f838a9982bc",
}


# Every file each command writes, seed 1.  The trace, command and summary
# digests are the ``digests_seed_1`` of perfbench/baseline.json.
BENCH_DIGESTS = {
    "ring_dense": {
        "baseline_trace.csv": "a64d4a6184641f076f14c790cd6d1e21f13ff562149a796770a0e086e26dc0cd",
        "control_trace.csv": "035cb7d241f434f8e5936febe4119340cbe7f85c0a79418dfe47e47c35c90c32",
        "control_commands.csv": "24595de9165c075af473765a794ec294b74f1d6a57f06e0f8f5cb399ef9c4b1d",
        "summary.json": "c779f8737067268a86b08cda60b9c3707d358b33d11989a0beed5948cdbf1e1c",
        "plot_before_after.csv": "30ba8dfa4f1772a01f19e5460605e7493d5376528f07f859aba632d4b2fb949c",
        "plot_assignment_snapshot.csv": "1774bc369b6ae638ccf5ecdde6f8c7dc5227c63bb3532a78ac26be02c6dabfd3",
        "plot_fleet_size.csv": "0d2931b474cbea5ad452866a54eae4e3c7adf5fdead6685996f2f73fa4daeb5f",
    },
    "grid_sparse": {
        "trace.csv": "68235d38dfff000924cc417dd6d08aa7ac2c2ff12c9e8966d3e6da29676bfbd8",
        "commands.csv": "d1b806f1cf50b21d5590676bd5c7f348d041a36a20c148ffc4bf91fd84437561",
        "summary.json": "33932502d2f0af5617dd6801a924d54ea671ba020e9c8036ccbf37f70ca5eb42",
        "plot_total_emissions.csv": "727a41c78c42ad50a237d0459e8081fc68d019b9ca91c2a0b49e3973757d1f47",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("demo", ["demo_ring", "demo_slack", "demo_lifecycle"])
def test_run_outputs_match_golden_digests(demo, tmp_path):
    argv = ["run", "--scenario", str(data_path(f"{demo}.json")), "--seed", "42", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    pinned = {name: digest for (pinned_demo, name), digest in RUN_DIGESTS.items() if pinned_demo == demo}
    assert {"trace.csv", "commands.csv"} <= pinned.keys()
    for name, digest in pinned.items():
        assert sha256(tmp_path / name) == digest, name


def test_compare_outputs_match_golden_digests(tmp_path):
    argv = ["compare", "--scenario", str(data_path("demo_ring.json")), "--seed", "42", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for name, digest in COMPARE_DIGESTS.items():
        assert sha256(tmp_path / name) == digest, name


SINGLE_VEHICLE_DIGESTS = {
    "trace.csv": "70f5485e383906d08666b5a35d989ee762806f3b7be54e2093acabb9e26b89a4",
    "commands.csv": "3393af3c0276058b04eb1f3c67c07ab97a62e8caaaf2b0d6cbc4a7d9c5c403ea",
}

# demo_ring in single-vehicle mode with pure EVs and pure ICE vehicles
MIXED_POWERTRAIN_DIGESTS = {
    "trace.csv": "a6b74506772699cc47d25a2b4c348fd99c2fdcb9d730d4acb0f3eaf3cb50d27f",
    "commands.csv": "fe0fb20d76dfef7eec41911c8449b2e22996c73d298705a211c4271cda770a76",
}

TWO_TILE_DIGESTS = {
    "trace.csv": "83a66d8b4bb56f552243043fbc06f9c39abb6c0345fe0b1ced4d4433d7f5e19e",
    "commands.csv": "76f3e1ca3034b39a3e17b1df0047346016c6f6641e936796864d0b51384bd2e4",
}

SWEEP_DIGEST = "f9fc0256e2083f76dbb106943e7ee6a74e9e98af4263f2d08fde8da730c91224"

# The step's one spatial hash has cells of max(radius, detection_range);
# here that is the detection range, not the radius as in every other demo.
WIDE_DETECTION_DIGESTS = {
    "trace.csv": "2861c4c896035a58abf201cd11e13c46f5d248fc3547ab3f1a61f0ed645d2a2b",
    "commands.csv": "aa607b8f1ec92f85c286e923f08a4191318240d5a62e830f6b467e4c9c0357f9",
}


def two_tile_scenario(path):
    """Two copies of demo_ring 400 m apart, one cyclist each.

    tau 5 s and a 5 s actuation latency, so steps without a decision and
    delayed commands occur, and a background series that goes over
    the 1 g/min limit from 60 s to 100 s, so the all-electric rule runs
    and vehicles are restored afterwards.
    """
    demo = json.loads(data_path("demo_ring.json").read_text())
    edges, fleet, cyclists = [], [], []
    for tile, dx in enumerate((0.0, 400.0)):
        prefix = f"t{tile}_"
        for edge in demo["network"]["edges"]:
            edges.append(
                dict(edge, edge_id=prefix + edge["edge_id"], points=[[x + dx, y] for x, y in edge["points"]])
            )
        for entry in demo["fleet"]:
            fleet.append(
                dict(entry, vehicle_id=prefix + entry["vehicle_id"], route=[prefix + e for e in entry["route"]])
            )
        cyclist = demo["cyclist"]
        cyclists.append(
            dict(cyclist, cyclist_id=prefix + cyclist["cyclist_id"], route=[prefix + e for e in cyclist["route"]])
        )
    scenario = {
        "name": "two-tile-ring",
        "horizon": 320.0,
        "dt": demo["dt"],
        "network": {"edges": edges},
        "fleet": fleet,
        "cyclists": cyclists,
        "control": dict(
            demo["control"],
            tau=5.0,
            actuation_latency=5.0,
            background=[[0.0, 0.2], [60.0, 1.5], [100.0, 0.3]],
        ),
    }
    path.write_text(json.dumps(scenario))
    return path


def test_single_vehicle_run_matches_golden_digests(tmp_path):
    argv = [
        "run", "--scenario", str(data_path("demo_ring.json")), "--seed", "42",
        "--single-vehicle", "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    for name, digest in SINGLE_VEHICLE_DIGESTS.items():
        assert sha256(tmp_path / name) == digest, name


def mixed_powertrain_scenario(path):
    """demo_ring in single-vehicle mode with a 5 s actuation latency, where
    v01 and v02 are pure EVs and v03 and v04 pure ICE vehicles."""
    demo = json.loads(data_path("demo_ring.json").read_text())
    powertrains = {"v01": "pure_ev", "v02": "pure_ev", "v03": "pure_ice", "v04": "pure_ice"}
    for entry in demo["fleet"]:
        entry["powertrain"] = powertrains.get(entry["vehicle_id"], entry["powertrain"])
    demo["control"] = dict(demo["control"], single_vehicle=True, actuation_latency=5.0)
    path.write_text(json.dumps(demo))
    return path


def test_single_vehicle_run_with_mixed_powertrains_matches_golden_digests(tmp_path):
    scenario = mixed_powertrain_scenario(tmp_path / "mixed.json")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 0
    for name, digest in MIXED_POWERTRAIN_DIGESTS.items():
        assert sha256(out / name) == digest, name
    with open(out / "commands.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 172
    cyclist_ids = {json.loads(scenario.read_text())["cyclist"]["cyclist_id"]}
    modes: dict[str, list[str]] = {}
    for row in rows:
        assert row["fence_id"] in cyclist_ids
        assert float(row["effective_time"]) == float(row["sim_time"]) + 5.0
        modes.setdefault(row["vehicle_id"], []).append(row["commanded_mode"])
    # a pure EV is only ever switched on, a pure ICE vehicle never commanded
    assert modes.pop("v01") == modes.pop("v02") == ["electric"] * 10
    assert "v03" not in modes and "v04" not in modes
    for vid, sequence in modes.items():
        assert sequence == ["electric", "polluting"] * (len(sequence) // 2) + ["electric"] * (len(sequence) % 2), vid


def test_two_tile_run_with_latency_and_background_matches_golden_digests(tmp_path):
    scenario = two_tile_scenario(tmp_path / "two_tile.json")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 0
    for name, digest in TWO_TILE_DIGESTS.items():
        assert sha256(out / name) == digest, name


def test_detection_range_above_the_radius_matches_golden_digests(tmp_path):
    demo = json.loads(data_path("demo_ring.json").read_text())
    demo["control"] = dict(demo["control"], detection_range=150.0, radius=100.0)
    scenario = tmp_path / "wide_detection.json"
    scenario.write_text(json.dumps(demo))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 0
    for name, digest in WIDE_DETECTION_DIGESTS.items():
        assert sha256(out / name) == digest, name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_summary_matches_golden_digest(jobs, tmp_path):
    argv = [
        "sweep", "--scenario", str(data_path("demo_ring.json")), "--seeds", "1..3",
        "--jobs", jobs, "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    assert sha256(tmp_path / "sweep_summary.json") == SWEEP_DIGEST


@pytest.mark.parametrize("workload, command", [("ring_dense", "compare"), ("grid_sparse", "run")])
def test_benchmark_workload_outputs_match_golden_digests(workload, command, tmp_path):
    scenario = bench_scenario(workload, tmp_path / f"{workload}.json")
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(scenario), "--seed", "1", "--out", str(out)]) == 0
    pinned = BENCH_DIGESTS[workload]
    assert sorted(p.name for p in out.iterdir()) == sorted(pinned)
    for name, digest in pinned.items():
        assert sha256(out / name) == digest, name


def test_baseline_in_single_vehicle_mode_never_commands(tmp_path):
    # single-vehicle mode is a mode of control: without control it must not
    # switch detectors, so the run equals the plain baseline byte for byte
    base = ["run", "--scenario", str(data_path("demo_ring.json")), "--seed", "42", "--no-control"]
    assert cli.main(base + ["--out", str(tmp_path / "plain")]) == 0
    assert cli.main(base + ["--single-vehicle", "--out", str(tmp_path / "single")]) == 0
    commands = (tmp_path / "single" / "commands.csv").read_text().splitlines()
    assert commands == (tmp_path / "plain" / "commands.csv").read_text().splitlines()
    assert len(commands) == 1  # header only
    assert sha256(tmp_path / "single" / "trace.csv") == sha256(tmp_path / "plain" / "trace.csv")
    assert sha256(tmp_path / "single" / "trace.csv") == COMPARE_DIGESTS["baseline_trace.csv"]
