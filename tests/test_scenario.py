import copy
import json

import pytest

from ecofence.cli import main
from ecofence.coordinator import ControllerConfig
from ecofence.scenario import (
    ScenarioError,
    load_density_file,
    load_scenario,
    parse_scenario,
    with_density,
)


def test_demo_scenarios_parse(demo_ring, demo_slack, demo_lifecycle):
    assert demo_ring.steps() == 640
    assert demo_slack.steps() == 120
    assert demo_lifecycle.steps() == 260


def test_missing_density_weight_defaults_to_one(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    for edge in doc["network"]["edges"]:
        edge.pop("density_weight", None)
    scenario = parse_scenario(doc)
    assert all(e.density_weight == 1.0 for e in scenario.network.edges.values())


@pytest.mark.parametrize("control", ["absent", "nulls"])
def test_missing_control_parses_to_the_controller_defaults(control, demo_ring_dict):
    # the parser's defaults must not drift from ControllerConfig's
    doc = copy.deepcopy(demo_ring_dict)
    if control == "absent":
        del doc["control"]
    else:
        doc["control"] = dict.fromkeys(
            ["radius", "limit", "tau", "expiry_timeout", "detection_range", "actuation_latency"]
        )
    scenario = parse_scenario(doc)
    assert scenario.controller == ControllerConfig()
    assert scenario.detection_range == 10.0
    assert scenario.control_enabled is True
    assert scenario.single_vehicle is False


@pytest.mark.parametrize("key", ["switch_interval", "force_detector_electric", "tua"])
def test_unknown_control_key_is_reported(key, demo_ring_dict, tmp_path, capsys):
    # a key the loader does not read would otherwise run silently, with a
    # meaning the file did not ask for
    demo_ring_dict["control"][key] = 1.0
    scenario = tmp_path / "unknown.json"
    scenario.write_text(json.dumps(demo_ring_dict))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: control.{key}: unknown key"]
    assert not out.exists()


def test_violations_are_collected_not_fail_first(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["network"]["edges"][0]["density_weight"] = 0.5
    doc["control"]["radius"] = -1.0
    doc["fleet"][0]["euro_class"] = 9
    doc["fleet"][1]["spawn_time"] = -2.0
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc)
    text = "\n".join(excinfo.value.problems)
    assert "density_weight" in text
    assert "radius" in text
    assert "euro_class" in text
    assert "spawn_time" in text
    assert len(excinfo.value.problems) >= 4


def test_route_with_unknown_edge_rejected(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["fleet"][0]["route"] = ["ring_s", "nowhere"]
    with pytest.raises(ScenarioError, match="unknown edge"):
        parse_scenario(doc)


def test_disconnected_route_rejected(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["fleet"][0]["route"] = ["ring_s", "ring_n"]  # skips ring_e
    with pytest.raises(ScenarioError, match="do not connect"):
        parse_scenario(doc)


def test_background_series_validation(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["control"]["background"] = [[10.0, 0.5]]
    with pytest.raises(ScenarioError, match="time 0"):
        parse_scenario(doc)
    doc["control"]["background"] = [[0.0, 0.5], [5.0, 0.2], [5.0, 0.9]]
    with pytest.raises(ScenarioError, match="strictly increasing"):
        parse_scenario(doc)
    doc["control"]["background"] = [[0.0, 0.5], [5.0, float("nan")]]
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(doc)


def test_background_lookup(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["control"]["background"] = [[0.0, 0.1], [100.0, 0.7]]
    scenario = parse_scenario(doc)
    assert scenario.background_at(0.0) == 0.1
    assert scenario.background_at(99.9) == 0.1
    assert scenario.background_at(100.0) == 0.7
    assert scenario.background_at(500.0) == 0.7


def test_round_trip_canonical_form(demo_ring, tmp_path):
    path = tmp_path / "again.json"
    path.write_text(json.dumps(demo_ring.to_dict()), encoding="utf-8")
    again = load_scenario(path)
    assert again == demo_ring
    # and the canonical dict is stable under a re-emit
    assert again.to_dict() == demo_ring.to_dict()


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("network",), [], "network: must be an object"),
        (("control",), [], "control: must be an object"),
        (("fleet",), {}, "fleet: must be a list"),
        (("fleet", 0), "v01", "fleet[0]: must be an object"),
        (("network", "edges", 0), 3, "network.edges[0]: must be an object"),
        (("cyclist",), "c1", "cyclist: must be an object"),
    ],
    ids=["network", "control", "fleet", "fleet-entry", "edge-entry", "cyclist"],
)
def test_wrong_shaped_section_is_a_validation_failure(path, value, problem, demo_ring_dict, tmp_path):
    doc = demo_ring_dict
    doc["horizon"] = -5  # a second problem, to be collected alongside
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    scenario = tmp_path / "bent.json"
    scenario.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(scenario)
    assert problem in excinfo.value.problems
    assert "scenario.horizon: must be a positive number" in excinfo.value.problems
    # a validation failure, not a runtime one
    assert main(["run", "--scenario", str(scenario), "--seed", "1", "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("euro_class", [True, False, 2.0], ids=repr)
def test_euro_class_must_be_an_integer_class(euro_class, demo_ring_dict, tmp_path):
    doc = demo_ring_dict
    doc["fleet"][0]["euro_class"] = euro_class
    scenario = tmp_path / "classed.json"
    scenario.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(scenario)
    assert excinfo.value.problems == [f"fleet[0].euro_class: must be 1..4 or null, got {euro_class!r}"]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 1
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("powertrain", [["hybrid"], {"kind": "hybrid"}], ids=["list", "object"])
def test_powertrain_must_be_one_of_the_names(powertrain, demo_ring_dict, tmp_path):
    doc = demo_ring_dict
    doc["fleet"][0]["powertrain"] = powertrain
    scenario = tmp_path / "powered.json"
    scenario.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(scenario)
    assert excinfo.value.problems == [
        f"fleet[0].powertrain: must be one of ['hybrid', 'pure_ev', 'pure_ice'], got {powertrain!r}"
    ]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--seed", "42", "--out", str(out)]) == 1
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "horizon, dt, problems",
    [
        (0.4, 1.0, ["scenario.horizon: must cover at least one step of dt"]),
        (0.5, 1.0, ["scenario.horizon: must cover at least one step of dt"]),  # rounds to 0 steps
        (0.05, 0.2, ["scenario.horizon: must cover at least one step of dt"]),
        (0.6, 1.0, []),
        (-0.4, 1.0, ["scenario.horizon: must be a positive number"]),
        (0.4, 0.0, ["scenario.dt: must be a positive number"]),
        (
            10**400,
            1.0,
            [
                f"scenario.horizon: must be a finite number, got {10**400!r}",
                "scenario.horizon: must be a positive number",
            ],
        ),
    ],
    ids=["under-half", "half", "short-dt", "one-step", "bad-horizon", "bad-dt", "huge-integer-horizon"],
)
def test_horizon_must_cover_at_least_one_step(horizon, dt, problems, demo_ring_dict):
    demo_ring_dict.update(horizon=horizon, dt=dt)
    if not problems:
        assert parse_scenario(demo_ring_dict).steps() == 1
        return
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(demo_ring_dict)
    assert excinfo.value.problems == problems


def test_load_scenario_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ScenarioError, match=r"latin1\.json: not valid JSON \('utf-8' codec"):
        load_scenario(path)


def test_density_file_applies(demo_ring, tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("edge_id,weight\nring_s,2.5\nring_w,1.0\n")
    weights = load_density_file(path, demo_ring.network)
    assert weights == {"ring_s": 2.5, "ring_w": 1.0}
    updated = with_density(demo_ring, weights)
    assert updated.network.edges["ring_s"].density_weight == 2.5
    assert updated.network.edges["ring_e"].density_weight == 3.0  # untouched


def test_density_file_rejects_unknown_edge_and_low_weight(demo_ring, tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("edge_id,weight\nghost,2.0\nring_s,0.5\nring_s,abc\n")
    with pytest.raises(ScenarioError) as excinfo:
        load_density_file(path, demo_ring.network)
    text = "\n".join(excinfo.value.problems)
    assert "unknown edge" in text
    assert ">= 1.0" in text
    assert "not a number" in text


def test_scenario_fleet_canonical_order(demo_ring_dict):
    doc = copy.deepcopy(demo_ring_dict)
    doc["fleet"] = list(reversed(doc["fleet"]))
    scenario = parse_scenario(doc)
    spawns = [(f.spawn_time, f.vehicle_id) for f in scenario.fleet]
    assert spawns == sorted(spawns)


def test_empty_network_rejected():
    with pytest.raises(ScenarioError, match="network.edges"):
        parse_scenario({"name": "x", "horizon": 10.0, "network": {"edges": []}})
