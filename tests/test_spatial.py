"""The spatial hash behind detection and fence membership.

The hash only prunes candidates, so hashed ``detect`` and hashed fence
membership must give exactly what a scan over every vehicle gives.  The
scans below are that oracle; the generated layouts put points on cell
boundaries, at exactly the range or radius along an axis, and at negative
coordinates.  The engine builds one hash per step, with cells of the
larger of the detection range and the fence radius, and passes it to both
queries; so both must also be exact on a hash whose cell is not their own
range or radius.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ecofence.coordinator import (
    ControllerConfig,
    GeofenceCoordinator,
    Powertrain,
    VehicleSnapshot,
    euclidean,
    members,
)
from ecofence.engine import CyclistState, VehicleState, World, _snapshot_vehicles, detect
from ecofence.network import Edge, RoadNetwork, SpatialHash


def brute_detect(world, detection_range):
    events = []
    for cid in sorted(world.cyclists):
        cyclist_pos = world.cyclists[cid].position(world.network)
        for vid in sorted(world.vehicles):
            vehicle = world.vehicles[vid]
            vehicle_pos = world.network.edge(vehicle.current_edge_id()).position_at(vehicle.edge_offset)
            if euclidean(cyclist_pos, vehicle_pos) <= detection_range:
                events.append((cid, vid))
    return events


def brute_members(center, radius, positions):
    return tuple(sorted(vid for vid, pos in positions.items() if euclidean(pos, center) <= radius))


ranges = st.one_of(st.sampled_from([0.5, 1.0, 3.0, 10.0, 100.0]), st.floats(0.05, 300.0))
coords = st.floats(-2000.0, 2000.0, allow_nan=False, allow_infinity=False)


@st.composite
def layouts(draw):
    """(range, centres, points): points are spread around the centres."""
    r = draw(ranges)
    on_boundary = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda k: (k[0] * r, k[1] * r))
    centres = draw(st.lists(st.one_of(st.tuples(coords, coords), on_boundary), max_size=4))
    kinds = ["free", "boundary", "axis", "ring", "close"] if centres else ["free", "boundary"]
    points = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "free":
            points.append(draw(st.tuples(coords, coords)))
        elif kind == "boundary":
            points.append(draw(on_boundary))
        else:
            cx, cy = draw(st.sampled_from(centres))
            if kind == "axis":
                dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]))
            elif kind == "ring":
                angle = draw(st.floats(0.0, 2 * math.pi))
                dx, dy = r * math.cos(angle), r * math.sin(angle)
            else:
                dx, dy = draw(st.tuples(st.floats(-2 * r, 2 * r), st.floats(-2 * r, 2 * r)))
            points.append((cx + dx, cy + dy))
    return r, centres, points


def stub_network(positions):
    """One short edge starting at each position, keyed like the position."""
    return RoadNetwork(
        edges={key: Edge(key, ((x, y), (x + 1.0, y)), 30.0) for key, (x, y) in positions.items()}
    )


def world_at(table, centres, points):
    """Cyclists at the centres and vehicles at the points, each on its own edge."""
    cyclist_pos = {f"c{i}": p for i, p in enumerate(centres)}
    vehicle_pos = {f"v{i:02d}": p for i, p in enumerate(points)}
    world = World(network=stub_network({**cyclist_pos, **vehicle_pos}), table=table)
    for cid in cyclist_pos:
        world.cyclists[cid] = CyclistState(cyclist_id=cid, route=(cid,), speed=15.0)
    for vid in vehicle_pos:
        world.vehicles[vid] = VehicleState(vehicle_id=vid, euro_class=4, route=(vid,))
    return world


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_hashed_detect_equals_brute_force(table, layout):
    r, centres, points = layout
    world = world_at(table, centres, points)
    assert detect(world, r) == brute_detect(world, r)


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_hashed_fence_membership_equals_brute_force(table, layout):
    r, centres, points = layout
    coord = GeofenceCoordinator(ControllerConfig(radius=r), table, random.Random(0), control_enabled=False)
    for i, centre in enumerate(centres):
        coord.on_detection(f"c{i}", centre, 0.0)
    snapshots = {
        f"v{i:02d}": VehicleSnapshot(f"v{i:02d}", p, 30.0, 4, Powertrain.HYBRID, 1.0)
        for i, p in enumerate(points)
    }
    coord.step(0.0, snapshots, 0.0)
    positions = {vid: s.position for vid, s in snapshots.items()}
    for fence in coord.active_fences():
        assert fence.member_ids == tuple(sorted(members(fence, positions)))


# The other size of the shared hash, drawn independently of the layout's
# range or radius r: the shared cell max(r, R) is r when R is below it.
other_sizes = st.one_of(st.sampled_from([0.01, 1.0, 10.0, 150.0, 1000.0]), st.floats(0.01, 1000.0))


@settings(max_examples=300, deadline=None)
@given(layouts(), other_sizes)
@example((10.0, [(0.0, 0.0)], [(10.0, 0.0), (0.0, -10.0), (25.0, 0.0)]), 150.0)
@example((150.0, [(0.0, 0.0)], [(150.0, 0.0), (0.0, -150.0), (150.0, 1.0)]), 100.0)
def test_detect_on_a_shared_hash_equals_brute_force(table, layout, other):
    r, centres, points = layout
    world = world_at(table, centres, points)
    _snapshot_vehicles(world)
    grid = SpatialHash(max(r, other), ((vid, v.position) for vid, v in world.vehicles.items()))
    assert detect(world, r, grid) == brute_detect(world, r)


@settings(max_examples=300, deadline=None)
@given(layouts(), other_sizes)
@example((100.0, [(0.0, 0.0)], [(100.0, 0.0), (0.0, -100.0), (100.0, 1.0)]), 150.0)
@example((100.0, [(0.0, 0.0)], [(100.0, 0.0), (-100.0, 0.0), (0.0, 101.0)]), 10.0)
def test_fence_membership_on_a_shared_hash_equals_brute_force(table, layout, other):
    r, centres, points = layout
    coord = GeofenceCoordinator(ControllerConfig(radius=r), table, random.Random(0), control_enabled=False)
    for i, centre in enumerate(centres):
        coord.on_detection(f"c{i}", centre, 0.0)
    snapshots = {
        f"v{i:02d}": VehicleSnapshot(f"v{i:02d}", p, 30.0, 4, Powertrain.HYBRID, 1.0)
        for i, p in enumerate(points)
    }
    grid = SpatialHash(max(r, other), ((vid, s.position) for vid, s in snapshots.items()))
    coord.step(0.0, snapshots, 0.0, grid)
    positions = {vid: s.position for vid, s in snapshots.items()}
    fences = coord.active_fences()
    assert [fence.center for fence in fences] == centres
    for fence, centre in zip(fences, centres):
        assert fence.member_ids == brute_members(centre, r, positions)


# Cells from a twentieth of the query radius to a hundred times it, and
# centres up to 1e9 m from the origin, where 0.1 m is under a million ulps.
cell_ratios = st.one_of(st.sampled_from([0.05, 0.3, 1.0, 1.5, 10.0, 100.0]), st.floats(0.05, 100.0))
far_coords = st.one_of(coords, st.sampled_from([1e6, -1e6, 1e9, -1e9 + 0.5]), st.floats(-1e9, 1e9))


@st.composite
def near_queries(draw):
    """(cell, centre, radius, points): points on, inside and just outside the disc."""
    r = draw(ranges)
    cell = r * draw(cell_ratios)
    cx, cy = draw(st.tuples(far_coords, far_coords))
    points = {}
    for i in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["axis", "ring", "close", "edge"]))
        if kind == "axis":
            dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]))
        elif kind == "ring":
            angle = draw(st.floats(0.0, 2 * math.pi))
            dx, dy = r * math.cos(angle), r * math.sin(angle)
        elif kind == "close":
            dx, dy = draw(st.tuples(st.floats(-2 * r, 2 * r), st.floats(-2 * r, 2 * r)))
        else:  # on a cell edge near the disc's side
            k = math.floor((cx + draw(st.sampled_from([-r, r]))) / cell) + draw(st.integers(-1, 1))
            dx, dy = k * cell - cx, draw(st.floats(-r, r))
        points[f"p{i:02d}"] = (cx + dx, cy + dy)
    return cell, (cx, cy), r, points


@settings(max_examples=500, deadline=None)
@given(near_queries())
# (c - r) / cell and (c + r) / cell land on a cell edge after rounding, and
# the point one rounding below is still within r by the callers' test:
# 0.8 - 0.5 rounds up to 0.30000000000000004, in cell 3, while 0.3 is in
# cell 2 and hypot(0.8 - 0.3, 0.0) == 0.5.
@example((0.1, (0.8, 0.0), 0.5, {"p": (0.3, 0.0)}))
@example((0.1, (-0.8, 0.0), 0.5, {"p": (-0.3, 0.0)}))
@example((0.1, (0.0, 0.8), 0.5, {"p": (0.0, 0.3)}))
@example((0.1, (2.0, -0.8), 0.5, {"p": (2.0, -0.3)}))
def test_near_returns_every_point_within_the_radius(query):
    cell, centre, r, points = query
    found = SpatialHash(cell, points.items()).near(centre, r)
    assert set(found) >= set(brute_members(centre, r, points))
    # detect() subtracts the other way round: both tests must be covered
    cx, cy = centre
    assert set(found) >= {k for k, (x, y) in points.items() if math.hypot(cx - x, cy - y) <= r}
    assert all(points[k] == p for k, p in found.items())
    # the window is the disc's bounding square to the cell, not a cell wider
    slack = cell + r + (abs(cx) + abs(cy) + r + cell) * 1e-9
    assert all(abs(x - cx) <= slack and abs(y - cy) <= slack for x, y in found.values())


def test_exact_range_on_a_cell_boundary_is_detected(table):
    world = world_at(table, [(-10.0, 0.0)], [(0.0, 0.0), (-20.0, 0.0), (-10.0, -10.0), (-10.0, 10.0000001)])
    assert detect(world, 10.0) == [("c0", "v00"), ("c0", "v01"), ("c0", "v02")]


def test_empty_world_detects_nothing(table):
    world = World(network=RoadNetwork(edges={}), table=table)
    assert detect(world, 10.0) == []
    assert detect(world_at(table, [(0.0, 0.0)], []), 10.0) == []
    assert detect(world_at(table, [], [(0.0, 0.0)]), 10.0) == []


def test_near_keeps_keys_and_points():
    grid = SpatialHash(10.0, [("a", (1.0, 2.0)), ("b", (-35.0, 0.0)), ("c", (500.0, 500.0))])
    assert grid.near((0.0, 0.0), 10.0) == {"a": (1.0, 2.0)}
    assert grid.near((-30.0, 0.0), 5.0) == {"b": (-35.0, 0.0)}
    assert SpatialHash(10.0, []).near((0.0, 0.0), 10.0) == {}


@pytest.mark.parametrize("cell", [0.0, -1.0, math.inf, math.nan])
def test_spatial_hash_rejects_bad_cell_sizes(cell):
    with pytest.raises(ValueError):
        SpatialHash(cell, [])


def test_controller_rejects_an_infinite_radius():
    with pytest.raises(ValueError):
        ControllerConfig(radius=math.inf)
