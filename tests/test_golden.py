"""Byte-identity gate: the CLI's output files for the bundled demos.

The digests pin ``trace.csv`` and ``commands.csv`` of ``run`` (and, for
demo_ring, its ``plot_total_emissions.csv``) and the output files of
``compare``, plot tables included, seed 42, plus single-vehicle mode (also
with pure EVs and pure ICE vehicles), control mode with pure EVs and pure
ICE vehicles, a two-fence run with actuation latency, tau above 1 and a
background series, a run whose detection
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
from tests.conftest import SINGLE_VEHICLE_MIX, bench_scenario, data_path, mixed_demo_ring

RUN_DIGESTS = {
    ("demo_ring", "trace.csv"): "4770896946836664577642c8f95f4446b5bd1b0a934f537b8c54dc5a6797ea62",
    ("demo_ring", "commands.csv"): "d82139b21679f159f3e5fbdb6c3158bd2000ae9a503825fe71cfb0a392641be3",
    ("demo_ring", "plot_total_emissions.csv"): "7e05c7d187ddba6881185eed1277ec502b72667058c7bff41ed369df5ea64ce6",
    ("demo_slack", "trace.csv"): "b51af7c0ba8891fd2d29777f1b79b341f65fe98a4c9896fa9989a6b18bcbe7e4",
    ("demo_slack", "commands.csv"): "55a8ea241802d5f591249cb4b4b12a952e531532a6a248e89aadc69415e6b045",
    ("demo_lifecycle", "trace.csv"): "53f0d11c772177203c2425f0792c082126f84543a43ea93a223adc68074b0ef6",
    ("demo_lifecycle", "commands.csv"): "6464f1e42fbaa16880bafcfc00bce276b4b3ce4254125f744793be3f02dd04d9",
}

COMPARE_DIGESTS = {
    "baseline_trace.csv": "766b241eb63ba1180158af9524e160f435052a5b1bc7d05490389daa854bbda2",
    "control_trace.csv": "4770896946836664577642c8f95f4446b5bd1b0a934f537b8c54dc5a6797ea62",
    "control_commands.csv": "d82139b21679f159f3e5fbdb6c3158bd2000ae9a503825fe71cfb0a392641be3",
    "summary.json": "8bb131c491e2194526f7d3fe30a1d8482b9e0e7ddf901d2764cee3b1aae0e783",
    "plot_before_after.csv": "c6dd8a942b6ba9ac540d268b019a557c733dab176362dab94bfa77cf7bbaa72f",
    "plot_assignment_snapshot.csv": "0fb8cb5cb58eeea457eb1143bebe049d3eec08f451f6dfc3cc3ea8cc36aa557a",
    "plot_fleet_size.csv": "8aa9caaaed34853948e8291806b9abacc95f362abd373dea3cd77f838a9982bc",
}


# Every file each command writes, seed 1.  The trace, command and summary
# digests were the ``digests_seed_1`` of perfbench/baseline.json until
# commands with a latency below dt took effect in the tick that logged
# them, and then only rows with 0 < x < 1 drew from the toss stream: of
# those files only ring_dense's baseline_trace.csv still equals that
# file, and only a change to the benchmark re-records it.
BENCH_DIGESTS = {
    "ring_dense": {
        "baseline_trace.csv": "a64d4a6184641f076f14c790cd6d1e21f13ff562149a796770a0e086e26dc0cd",
        "control_trace.csv": "0b3f51f6373772d146bc02c0ac6fce63131a412edf2c0bbe4dd8b81eb698d18b",
        "control_commands.csv": "11f05a8a596a1086afad2753f987970aec153c6217fbd26e0636d696e33caf7b",
        "summary.json": "e7951498a2899c8b448d73499685ab70371e78244f0241e7ec6c103a5664b4dc",
        "plot_before_after.csv": "33ffe87da56c507487b1315c4d2095512b29600c931aca5654c256d79cd12380",
        "plot_assignment_snapshot.csv": "1774bc369b6ae638ccf5ecdde6f8c7dc5227c63bb3532a78ac26be02c6dabfd3",
        "plot_fleet_size.csv": "0d2931b474cbea5ad452866a54eae4e3c7adf5fdead6685996f2f73fa4daeb5f",
    },
    "grid_sparse": {
        "trace.csv": "73b14f2081ccd85aac5a66a165fa6e989ad260d59561f6c1b439d8efcf949aa0",
        "commands.csv": "5922f0a65a1e8bd1defc2af98fe6790c06634ff01dc392b17433fee4f9701cc1",
        "summary.json": "f7941fe8d90969fff7a7cbe1fb5bba750ce21f222202da9c4356279ddf16a11d",
        "plot_total_emissions.csv": "18480b9e5dfcd4aaac9b3352ac821b6f3395bc05f9bbcf71b6609d019218975b",
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


# demo_ring in single-vehicle mode; its trace rows hold the fences that
# every mode keeps
SINGLE_VEHICLE_DIGESTS = {
    "trace.csv": "ec92aa35c792caa943356953f072f14591e8ab12b24c09878a0e4bb704f748d6",
    "commands.csv": "3393af3c0276058b04eb1f3c67c07ab97a62e8caaaf2b0d6cbc4a7d9c5c403ea",
}

# demo_ring in single-vehicle mode with pure EVs and pure ICE vehicles
MIXED_POWERTRAIN_DIGESTS = {
    "trace.csv": "6f543f5c785f51c19b62339f01859b72a511006b0173fd187a2a52e95177fc83",
    "commands.csv": "6f6c8e22a0e1de0ed7ea884ae7664a5e8ee034d2d35ff78d0cd65bf3166a4ea0",
}

# demo_ring under control, 5 s latency, with two pure EVs on the ring and
# its two spur vehicles pure ICE
MIXED_CONTROL_DIGESTS = {
    "trace.csv": "e046ae9ee3d8e0b920c0e1188476647ecc9de9ff69472045fdb4a50f5cfb6fe0",
    "commands.csv": "132a6b23dad0b5ec09d376f2fbe79abf6cc20c3ec4948c36c2edda182774fa85",
}

TWO_TILE_DIGESTS = {
    "trace.csv": "62442b5751df4fa8b7528e2950ac00fa418cab9290143fa9d3dc670316b758fa",
    "commands.csv": "1609464585cf7d0952b5ad7aa33460493e660c0f260bc970dc467b1617589dbf",
}

SWEEP_DIGEST = "135579416d0263fb62c4a6c8dfb860fa6425d5bb4545c2b286fafc665cee3e8d"

# The step's one spatial hash has cells of max(radius, detection_range);
# here that is the detection range, not the radius as in every other demo.
WIDE_DETECTION_DIGESTS = {
    "trace.csv": "1a6c3a8a284bf06e08ece875b3ac2e053e39626e509e68c5720be218c1ff5a5d",
    "commands.csv": "1451923cc2c8882d91b54c288eb85636a6375f1434e770b3287b59707a1e0584",
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


def test_single_vehicle_run_with_mixed_powertrains_matches_golden_digests(tmp_path):
    # demo_ring in single-vehicle mode with a 5 s actuation latency
    scenario = mixed_demo_ring(tmp_path / "mixed.json", SINGLE_VEHICLE_MIX, single_vehicle=True, actuation_latency=5.0)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 0
    for name, digest in MIXED_POWERTRAIN_DIGESTS.items():
        assert sha256(out / name) == digest, name
    with open(out / "commands.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 152
    cyclist_ids = {json.loads(scenario.read_text())["cyclist"]["cyclist_id"]}
    modes: dict[str, list[str]] = {}
    for row in rows:
        assert row["fence_id"] in cyclist_ids
        assert float(row["effective_time"]) == float(row["sim_time"]) + 5.0
        modes.setdefault(row["vehicle_id"], []).append(row["commanded_mode"])
    # only a hybrid is commanded
    assert modes.keys().isdisjoint({"v01", "v02", "v03", "v04"})
    for vid, sequence in modes.items():
        assert sequence == ["electric", "polluting"] * (len(sequence) // 2) + ["electric"] * (len(sequence) % 2), vid


def test_control_run_with_mixed_powertrains_matches_golden_digests(tmp_path):
    powertrains = {"v01": "pure_ev", "v02": "pure_ev", "v13": "pure_ice", "v14": "pure_ice"}
    scenario = mixed_demo_ring(tmp_path / "mixed_control.json", powertrains, actuation_latency=5.0)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 0
    for name, digest in MIXED_CONTROL_DIGESTS.items():
        assert sha256(out / name) == digest, name
    with open(out / "commands.csv", newline="") as fh:
        commanded = {row["vehicle_id"] for row in csv.DictReader(fh)}
    assert commanded.isdisjoint(powertrains)


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
