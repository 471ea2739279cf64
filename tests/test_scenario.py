import copy

import pytest

from ecofence.coordinator import ControllerConfig
from ecofence.scenario import (
    ScenarioError,
    load_density_file,
    load_scenario,
    parse_scenario,
    save_scenario,
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
            ["radius", "limit", "tau", "switch_interval", "expiry_timeout", "detection_range", "actuation_latency"]
        )
    scenario = parse_scenario(doc)
    assert scenario.controller == ControllerConfig()
    assert scenario.detection_range == 10.0
    assert scenario.control_enabled is True
    assert scenario.single_vehicle is False


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
    save_scenario(demo_ring, path)
    again = load_scenario(path)
    assert again == demo_ring
    # and the canonical dict is stable under a re-emit
    assert again.to_dict() == demo_ring.to_dict()


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
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
