"""The vehicle index behind detection and fence membership.

The index only prunes candidates, so indexed ``detect`` and indexed fence
membership must give exactly what a scan over every vehicle gives.  The
scans below are that oracle.  The generated layouts put vehicles on edges
of one to four segments, at either end of an edge (so exactly at a chosen
point: on a cell boundary, at exactly the range or radius along an axis,
at negative coordinates or up to 1e9 m from the origin) or anywhere along
it.  ``run`` builds one index per run, with cells of at least the larger
of the detection range and the fence radius, and both queries read it; so
both must be exact on an index whose cell is their own range or radius
and on one whose cell is larger.

The engine keeps the index current itself, so the bookkeeping is checked
after every step of whole runs: the index holds exactly the vehicles on
the road, each in the bucket of its cursor's edge.
"""

import math
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ecofence import engine
from ecofence.coordinator import ControllerConfig, GeofenceCoordinator
from ecofence.engine import CyclistState, VehicleState, World, detect, run
from ecofence.network import Edge, RoadNetwork, VehicleIndex
from ecofence.scenario import load_scenario, parse_scenario
from tests.conftest import Snapshot, bench_scenario, index_of


def brute_detect(world, detection_range):
    events = []
    for cid in sorted(world.cyclists):
        cx, cy = world.cyclists[cid].position()
        for vid in sorted(world.vehicles):
            vehicle = world.vehicles[vid]
            edge = world.network.edge(vehicle.route[vehicle.route_index])
            x, y = edge.position_at(vehicle.edge_offset)
            if math.hypot(cx - x, cy - y) <= detection_range:
                events.append((cid, vid))
    return events


def brute_members(center, radius, positions):
    cx, cy = center
    return tuple(sorted(vid for vid, (x, y) in positions.items() if math.hypot(x - cx, y - cy) <= radius))


ranges = st.one_of(st.sampled_from([0.5, 1.0, 3.0, 10.0, 100.0]), st.floats(0.05, 300.0))
coords = st.floats(-2000.0, 2000.0, allow_nan=False, allow_infinity=False)
far_coords = st.one_of(coords, st.sampled_from([1e6, -1e6, 1e9, -1e9 + 0.5]), st.floats(-1e9, 1e9))
headings = st.one_of(
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]), st.floats(0.0, 2 * math.pi)
)


def at(point):
    """A placement exactly at ``point``: the start of a 1 m edge."""
    x, y = point
    return ((x, y), (x + 1.0, y)), 0.0


@st.composite
def placements(draw, point, spans):
    """(vertices, offset): an edge of 1 to 4 segments, each ``spans`` long,
    and the offset that puts a road user exactly at ``point`` (the edge's
    start or end) or somewhere along the edge through it."""
    x, y = point
    vertices = [(x, y)]
    for _ in range(draw(st.integers(1, 4))):
        span, heading = draw(spans), draw(headings)
        x, y = x + span * math.cos(heading), y + span * math.sin(heading)
        vertices.append((x, y))
    where = draw(st.sampled_from(["start", "end", "along"]))
    if where == "end":
        vertices.reverse()
    length = Edge("probe", tuple(vertices), 30.0).length
    offset = {"start": 0.0, "end": length}.get(where)
    if offset is None:
        offset = draw(st.floats(0.0, 1.0)) * length
    return tuple(vertices), offset


@st.composite
def layouts(draw):
    """(range, centres, placements): vehicles are placed around the centres."""
    r = draw(ranges)
    on_boundary = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda k: (k[0] * r, k[1] * r))
    centres = draw(st.lists(st.one_of(st.tuples(far_coords, far_coords), on_boundary), max_size=4))
    kinds = ["free", "boundary", "axis", "ring", "close"] if centres else ["free", "boundary"]
    spans = st.one_of(st.sampled_from([0.5, r, 2 * r, 1e9]), st.floats(0.5, 4 * r + 1.0))
    points = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "free":
            point = draw(st.tuples(coords, coords))
        elif kind == "boundary":
            point = draw(on_boundary)
        else:
            cx, cy = draw(st.sampled_from(centres))
            if kind == "axis":
                dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]))
            elif kind == "ring":
                angle = draw(st.floats(0.0, 2 * math.pi))
                dx, dy = r * math.cos(angle), r * math.sin(angle)
            else:
                dx, dy = draw(st.tuples(st.floats(-2 * r, 2 * r), st.floats(-2 * r, 2 * r)))
            point = (cx + dx, cy + dy)
        points.append(draw(placements(point, spans)))
    return r, centres, points


def world_at(table, centres, points, cell):
    """Cyclists at the centres and vehicles at the placements, each on its
    own edge, in a world whose index has cells of at least ``cell``."""
    vertices = {f"c{i}": at(p)[0] for i, p in enumerate(centres)}
    offsets = {}
    for i, (shape, offset) in enumerate(points):
        vertices[f"v{i:02d}"], offsets[f"v{i:02d}"] = shape, offset
    network = RoadNetwork(edges={key: Edge(key, shape, 30.0) for key, shape in vertices.items()})
    world = World(network=network, table=table, index=VehicleIndex(network, cell))
    for i in range(len(centres)):
        cid = f"c{i}"
        world.cyclists[cid] = CyclistState(cyclist_id=cid, route=(cid,), speed=15.0, edge=network.edge(cid))
    for vid, offset in offsets.items():
        world.add_vehicle(
            VehicleState(
                vehicle_id=vid,
                euro_class=4,
                table=table,
                route=(vid,),
                edge=network.edge(vid),
                edge_offset=offset,
            )
        )
    return world


# The other size of the shared index's cell, drawn independently of the
# layout's range or radius r: the shared cell max(r, R) is r when R is
# below it, as it is whenever R is 0.01.
other_sizes = st.one_of(st.sampled_from([0.01, 1.0, 10.0, 150.0, 1000.0]), st.floats(0.01, 1000.0))


@settings(max_examples=300, deadline=None)
@given(layouts(), other_sizes)
@example((10.0, [(0.0, 0.0)], [at((10.0, 0.0)), at((0.0, -10.0)), at((25.0, 0.0))]), 150.0)
@example((150.0, [(0.0, 0.0)], [at((150.0, 0.0)), at((0.0, -150.0)), at((150.0, 1.0))]), 100.0)
@example(
    (10.0, [(1e9, -1e9)], [at((1e9 + 10.0, -1e9)), at((1e9, -1e9 - 10.0)), at((1e9 - 10.0001, -1e9))]),
    0.01,
)
def test_detect_on_a_shared_hash_equals_brute_force(table, layout, other):
    r, centres, points = layout
    world = world_at(table, centres, points, max(r, other))
    assert detect(world, r) == brute_detect(world, r)


@settings(max_examples=300, deadline=None)
@given(layouts(), other_sizes)
@example((100.0, [(0.0, 0.0)], [at((100.0, 0.0)), at((0.0, -100.0)), at((100.0, 1.0))]), 150.0)
@example((100.0, [(0.0, 0.0)], [at((100.0, 0.0)), at((-100.0, 0.0)), at((0.0, 101.0))]), 10.0)
def test_fence_membership_on_a_shared_hash_equals_brute_force(table, layout, other):
    r, centres, points = layout
    world = world_at(table, centres, points, max(r, other))
    coord = GeofenceCoordinator(ControllerConfig(radius=r), random.Random(0), control_enabled=False)
    for i, centre in enumerate(centres):
        coord.on_detection(f"c{i}", centre, 0.0)
    coord.step(0.0, world.vehicles, 0.0, world.index)
    positions = {vid: vehicle.position for vid, vehicle in world.vehicles.items()}
    fences = coord.active_fences()
    assert [fence.center for fence in fences] == centres
    for fence, centre in zip(fences, centres):
        assert fence.member_ids == brute_members(centre, r, positions)


# Cells from a twentieth of the query radius to a hundred times it, and
# centres up to 1e9 m from the origin, where 0.1 m is under a million ulps.
cell_ratios = st.one_of(st.sampled_from([0.05, 0.3, 1.0, 1.5, 10.0, 100.0]), st.floats(0.05, 100.0))


@st.composite
def near_queries(draw):
    """(cell, centre, radius, placements): vehicles on, inside and just
    outside the disc, on edges no longer than a cell, so that the index
    keeps the drawn cell."""
    r = draw(ranges)
    cell = r * draw(cell_ratios)
    cx, cy = draw(st.tuples(far_coords, far_coords))
    spans = st.floats(0.05 * cell, 0.25 * cell)
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
        vertices, offset = draw(placements((cx + dx, cy + dy), st.just(draw(spans))))
        points[f"p{i:02d}"] = (vertices, offset)
    return cell, (cx, cy), r, points


def indexed(points, cell):
    """An index over one vehicle per placement, and the vehicles' records."""
    edges = {key: Edge(key, vertices, 30.0) for key, (vertices, _) in points.items()}
    index = VehicleIndex(RoadNetwork(edges=edges), cell)
    records = {}
    for key, (_, offset) in points.items():
        records[key] = Snapshot(key, edges[key].position_at(offset), 0.0, None, 1.0)
        index.add(key, records[key], key)
    return index, records


@settings(max_examples=500, deadline=None)
@given(near_queries())
# (c - r) / cell and (c + r) / cell land on a cell edge after rounding, and
# the point one rounding below is still within r by the callers' test:
# 0.8 - 0.5 rounds up to 0.30000000000000004, in cell 3, while 0.3 is in
# cell 2 and hypot(0.8 - 0.3, 0.0) == 0.5.
@example((0.1, (0.8, 0.0), 0.5, {"p": (((0.3, 0.0), (0.3, 0.05)), 0.0)}))
@example((0.1, (-0.8, 0.0), 0.5, {"p": (((-0.3, 0.0), (-0.3, 0.05)), 0.0)}))
@example((0.1, (0.0, 0.8), 0.5, {"p": (((0.0, 0.3), (0.05, 0.3)), 0.0)}))
@example((0.1, (2.0, -0.8), 0.5, {"p": (((2.0, -0.3), (2.05, -0.3)), 0.0)}))
def test_near_returns_every_point_within_the_radius(query):
    cell, centre, r, points = query
    index, records = indexed(points, cell)
    found = index.near(centre, r)
    positions = {key: record.position for key, record in records.items()}
    assert set(found) >= set(brute_members(centre, r, positions))
    # detect() subtracts the other way round: both tests must be covered
    cx, cy = centre
    assert set(found) >= {k for k, (x, y) in positions.items() if math.hypot(cx - x, cy - y) <= r}
    assert all(records[k] is record for k, record in found.items())
    # an edge is kept only if its box meets the disc's bounding square
    slack = r + (abs(cx) + abs(cy) + r + index.extent) * 1e-9
    for key in found:
        vertices = points[key][0]
        xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
        assert min(xs) <= cx + slack and max(xs) >= cx - slack
        assert min(ys) <= cy + slack and max(ys) >= cy - slack


def test_exact_range_on_a_cell_boundary_is_detected(table):
    points = [(0.0, 0.0), (-20.0, 0.0), (-10.0, -10.0), (-10.0, 10.0000001)]
    world = world_at(table, [(-10.0, 0.0)], [at(p) for p in points], 10.0)
    assert detect(world, 10.0) == [("c0", "v00"), ("c0", "v01"), ("c0", "v02")]


def test_empty_world_detects_nothing(table):
    empty = RoadNetwork(edges={})
    for world in (
        World(network=empty, table=table, index=VehicleIndex(empty, 10.0)),
        world_at(table, [(0.0, 0.0)], [], 100.0),
        world_at(table, [], [at((0.0, 0.0))], 100.0),
    ):
        assert detect(world, 10.0) == []


def test_run_builds_one_index_per_run_and_nowhere_else(demo_ring, monkeypatch):
    callers = []
    build = VehicleIndex.__init__

    def counted(self, network, cell):
        callers.append(sys._getframe(1).f_code)
        build(self, network, cell)

    monkeypatch.setattr(VehicleIndex, "__init__", counted)
    run(demo_ring, 42)
    assert callers == [run.__code__]
    run(demo_ring, 7)
    assert callers == [run.__code__] * 2


def test_near_keeps_keys_and_records():
    records = {
        "a": Snapshot("a", (1.0, 2.0), 0.0, None, 1.0),
        "b": Snapshot("b", (-35.0, 0.0), 0.0, None, 1.0),
        "c": Snapshot("c", (500.0, 500.0), 0.0, None, 1.0),
    }
    index = index_of(records, 10.0)
    assert index.near((0.0, 0.0), 10.0) == {"a": records["a"]}
    assert index.near((-30.0, 0.0), 5.0) == {"b": records["b"]}
    assert index_of({}, 10.0).near((0.0, 0.0), 10.0) == {}


@pytest.mark.parametrize("cell", [0.0, -1.0, math.inf, math.nan])
def test_spatial_hash_rejects_bad_cell_sizes(cell):
    with pytest.raises(ValueError):
        VehicleIndex(RoadNetwork(edges={}), cell)


def test_controller_rejects_an_infinite_radius():
    with pytest.raises(ValueError):
        ControllerConfig(radius=math.inf)


# -- the static grid ---------------------------------------------------------


def listings(index):
    """How many cells list each edge."""
    return Counter(entry[0] for listed in index.cells.values() for entry in listed)


def test_grid_lists_each_demo_edge_in_at_most_four_cells(demo_ring, demo_slack, demo_lifecycle, tmp_path):
    grid_sparse = load_scenario(bench_scenario("grid_sparse", tmp_path / "grid_sparse.json"))
    for scenario in (demo_ring, demo_slack, demo_lifecycle, grid_sparse):
        network = scenario.network
        for cell in (1e-6, 10.0, 100.0):
            counts = listings(VehicleIndex(network, cell))
            assert set(counts) == set(network.edges)
            assert max(counts.values()) <= 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(far_coords, far_coords), min_size=1, max_size=6), st.data())
def test_grid_lists_each_edge_in_at_most_four_cells_at_any_cell_size(starts, data):
    spans = st.one_of(st.sampled_from([1e-3, 1.0, 1e9]), st.floats(1e-3, 1e4))
    edges = {}
    for i, start in enumerate(starts):
        vertices, _ = data.draw(placements(start, spans))
        edges[f"e{i}"] = Edge(f"e{i}", vertices, 30.0)
    index = VehicleIndex(RoadNetwork(edges=edges), 1e-6)
    counts = listings(index)
    assert set(counts) == set(edges)
    assert max(counts.values()) <= 4


# -- span listings -----------------------------------------------------------


def test_a_kept_span_listing_sees_every_later_add_move_and_remove():
    # six 8 m edges along y = 0 and y = 30 in 10 m cells; the query covers
    # the cells of every edge but x8 and far
    starts = {"x0": (0.0, 0.0), "x1": (12.0, 0.0), "x2": (24.0, 0.0), "y0": (0.0, 30.0), "x8": (80.0, 0.0)}
    edges = {eid: Edge(eid, ((x, y), (x + 8.0, y)), 30.0) for eid, (x, y) in starts.items()}
    edges["far"] = Edge("far", ((500.0, 500.0), (508.0, 500.0)), 30.0)
    index = VehicleIndex(RoadNetwork(edges=edges), 10.0)
    on = {}  # vehicle id -> (edge id, record)

    def place(vid, eid, offset):
        # as the engine does: a record is added once, then moved and updated
        position = edges[eid].position_at(offset)
        if vid in on:
            was, record = on[vid]
            index.move(vid, was, eid)
            record.position = position
        else:
            record = SimpleNamespace(position=position)
            index.add(vid, record, eid)
        on[vid] = eid, record

    def query():
        found = index.near(centre, radius)
        records = {vid: record for bucket in index.buckets.values() for vid, record in bucket.items()}
        positions = {vid: record.position for vid, record in records.items()}
        assert set(found) >= set(brute_members(centre, radius, positions))
        assert all(records[vid] is record for vid, record in found.items())
        return found

    centre, radius = (15.0, 10.0), 20.0
    place("a", "x0", 4.0)
    place("gone", "x1", 2.0)
    place("stays", "x2", 1.0)
    assert set(query()) == {"a", "gone", "stays"}
    (span,) = index.spans  # the query kept one listing
    kept = index.spans[span]
    # adds onto an edge that was empty when listed, a move in, a move out
    # of the span, and a removal
    place("new", "y0", 3.0)
    place("b", "far", 1.0)
    place("b", "x1", 6.0)
    place("a", "x8", 2.0)
    index.remove("gone", on.pop("gone")[0])
    assert set(query()) == {"new", "b", "stays"}
    assert index.spans == {span: kept}  # the same listing answered


def engine_indexes(monkeypatch):
    """Every index that ``run`` builds from now on."""
    built = []
    build = VehicleIndex.__init__

    def kept(self, network, cell):
        build(self, network, cell)
        built.append(self)

    monkeypatch.setattr(VehicleIndex, "__init__", kept)
    return built


@pytest.mark.parametrize("name", ["demo_ring", "demo_lifecycle", "grid_sparse"])
def test_a_run_keeps_no_more_span_listings_than_near_bounds(name, request, monkeypatch, tmp_path):
    if name == "grid_sparse":
        scenario = load_scenario(bench_scenario("grid_sparse", tmp_path / "grid_sparse.json"))
    else:
        scenario = request.getfixturevalue(name)
    built = engine_indexes(monkeypatch)
    queries = Counter()
    near = VehicleIndex.near

    def counted(self, center, radius):
        queries[id(self)] += 1
        return near(self, center, radius)

    monkeypatch.setattr(VehicleIndex, "near", counted)
    run(scenario, 42)
    (index,) = built
    columns = {ix for ix, _ in index.cells}
    rows = {iy for _, iy in index.cells}
    nx = max(columns) - min(columns) + 1
    ny = max(rows) - min(rows) + 1
    spans = index.spans
    assert 0 < len(spans) <= (4 * nx + 6) * (4 * ny + 6)
    assert queries[id(index)] > 10 * len(spans)  # the listings are reused
    for (ix_first, iy_first, ix_last, iy_last), listing in spans.items():
        assert 0 <= ix_last - ix_first <= 3 and 0 <= iy_last - iy_first <= 3
        assert ix_first <= max(columns) and ix_last >= min(columns)
        assert iy_first <= max(rows) and iy_last >= min(rows)
        # every edge of the span's cells, once each
        listed = [
            entry[0]
            for ix in range(ix_first, ix_last + 1)
            for iy in range(iy_first, iy_last + 1)
            for entry in index.cells.get((ix, iy), ())
        ]
        assert [entry[0] for entry in listing] == list(dict.fromkeys(listed))


# -- bookkeeping ---------------------------------------------------------------


def assert_index_holds_the_road(world):
    """The index holds exactly the vehicles on the road, each record in the
    bucket of its cursor's edge."""
    held = Counter()
    for edge_id, bucket in world.index.buckets.items():
        for vid, record in bucket.items():
            held[vid] += 1
            vehicle = world.vehicles.get(vid)
            assert vehicle is record, (world.tick, vid)
            assert vehicle.edge.edge_id == edge_id, (world.tick, vid)
    assert held == Counter(list(world.vehicles)), world.tick


@pytest.fixture()
def checked_steps(monkeypatch):
    """Check the index after every ``step`` that ``run`` makes; the list
    collects the ticks checked."""
    ticks = []
    original = engine.step

    def checked(world, dt):
        original(world, dt)
        assert_index_holds_the_road(world)
        ticks.append(world.tick)
        return world

    monkeypatch.setattr(engine, "step", checked)
    return ticks


@pytest.mark.parametrize("name", ["demo_ring", "demo_slack", "demo_lifecycle"])
def test_index_holds_the_road_after_every_step_of_each_demo(name, request, checked_steps):
    scenario = request.getfixturevalue(name)
    run(scenario, 42)
    assert checked_steps == list(range(1, scenario.steps() + 1))


def edge_crossing_scenario():
    """Short edges a (10 m), b (3 m), c (3 m), d (24 m) in a line, 1 s steps.

    * ``skips`` (12 m/s, a b c d): at t=2 it leaves b, crosses c and ends
      on d, two edges in one step;
    * ``ends`` (15 m/s, a b): at t=1 it moves onto b and reaches its route
      end in the same step, the step it spawned in;
    * ``short`` (2 m/s, b): it arrives at t=2, in the tick ``late`` spawns.
    """
    edge = lambda eid, x0, x1: {"edge_id": eid, "points": [[x0, 0], [x1, 0]], "speed_limit": 50.0}
    vehicle = lambda vid, t, speed, route: {
        "vehicle_id": vid, "spawn_time": t, "speed": speed, "route": route, "euro_class": 4
    }
    return parse_scenario(
        {
            "horizon": 4.0,
            "dt": 1.0,
            "network": {"edges": [edge("a", 0, 10), edge("b", 10, 13), edge("c", 13, 16), edge("d", 16, 40)]},
            "fleet": [
                vehicle("skips", 0.0, 43.2, ["a", "b", "c", "d"]),
                vehicle("ends", 0.0, 54.0, ["a", "b"]),
                vehicle("short", 0.0, 7.2, ["b"]),
                vehicle("late", 1.0, 7.2, ["a", "b"]),
            ],
            "cyclists": [{"cyclist_id": "c", "route": ["a", "b", "c", "d"], "speed": 10.0}],
            "control": {"detection_range": 5.0, "radius": 20.0},
        }
    )


def test_index_holds_the_road_when_edges_are_crossed_and_routes_end(checked_steps):
    scenario = edge_crossing_scenario()
    rows = run(scenario, 1).trace.rows
    assert checked_steps == [1, 2, 3, 4]
    on = [dict(zip(row.vehicle_ids, row.edge_ids)) for row in rows]
    assert on[0] == {"skips": "b", "short": "b"}  # "ends" spawned and arrived
    assert on[1] == {"skips": "d", "late": "a"}  # "skips" crossed c; "short" arrived as "late" spawned


def test_index_updates_are_spawns_edge_changes_and_arrivals(demo_ring, monkeypatch):
    updates = Counter()
    for name in ("add", "move", "remove"):
        original = getattr(VehicleIndex, name)

        def counted(self, *args, name=name, original=original):
            updates[name] += 1
            original(self, *args)

        monkeypatch.setattr(VehicleIndex, name, counted)
    rows = run(demo_ring, 42).trace.rows
    first_edge = {entry.vehicle_id: entry.route[0] for entry in demo_ring.fleet}
    spawns = changes = arrivals = 0
    previous = {}
    for row in rows:
        on = dict(zip(row.vehicle_ids, row.edge_ids))
        for vid, edge_id in on.items():
            if vid not in previous:
                spawns += 1
            changes += edge_id != previous.get(vid, first_edge[vid])
        arrivals += len(previous.keys() - on.keys())
        previous = on
    assert spawns == len(demo_ring.fleet)
    assert changes > 0
    assert updates == Counter(add=spawns, move=changes, remove=arrivals)
