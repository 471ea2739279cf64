"""The route cursor shared by vehicles and cyclists.

The loop it replaced is kept below as the oracle: moving a cursor must
give, bit for bit, the (index, offset, done) that loop gives, and the
cursor may look an edge up only when it moves onto the next one.  The
interpolation ``Edge.position_at`` did over the raw polyline, before the
edge kept its segment constants, is kept as the position oracle: both
``position_at`` and the engine's inline placement on straight edges
must give its point to the bit.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from ecofence.emissions import load_default_table
from ecofence import engine
from ecofence.engine import CyclistState, VehicleState, World
from ecofence.network import Edge, RoadNetwork, VehicleIndex

TABLE = load_default_table()


def oracle_advance(route, index, offset, distance, network):
    """Move ``distance`` metres along a route; returns (index, offset, done)."""
    while distance > 0:
        edge = network.edge(route[index])
        room = edge.length - offset
        if distance < room:
            return index, offset + distance, False
        distance -= room
        if index + 1 >= len(route):
            return index, edge.length, True
        index += 1
        offset = 0.0
    return index, offset, False


def oracle_cumulative(points):
    """The cumulative offsets of a polyline's points, from 0.0."""
    cum = [0.0]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        cum.append(cum[-1] + math.hypot(x1 - x0, y1 - y0))
    return cum


def oracle_position(edge, offset):
    """``Edge.position_at`` as it was written over the raw polyline."""
    if offset <= 0:
        return edge.points[0]
    cum = oracle_cumulative(edge.points)
    if offset >= cum[-1]:
        return edge.points[-1]
    for i in range(len(cum) - 1):
        if offset <= cum[i + 1]:
            seg_len = cum[i + 1] - cum[i]
            t = (offset - cum[i]) / seg_len
            (x0, y0), (x1, y1) = edge.points[i], edge.points[i + 1]
            return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    return edge.points[-1]


class CountingNetwork(RoadNetwork):
    """A road network that counts its edge lookups."""

    lookups = 0

    def edge(self, edge_id):
        object.__setattr__(self, "lookups", self.lookups + 1)
        return super().edge(edge_id)


segment_lengths = st.one_of(
    st.sampled_from([1.0, 5.0, 10.0, 0.1, 70.0]),
    st.floats(0.01, 200.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def chained_networks(draw, segment_counts=None):
    """(network, route): 1-6 polyline edges, each starting where the last
    ended, of 1-3 segments each, or as many edges as ``segment_counts``
    holds with that many segments each."""
    edges = {}
    route = []
    x, y = draw(st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0)))
    for i in range(len(segment_counts) if segment_counts else draw(st.integers(1, 6))):
        points = [(x, y)]
        for _ in range(segment_counts[i] if segment_counts else draw(st.integers(1, 3))):
            angle = draw(st.sampled_from([0.0, math.pi / 2, math.pi, 1.0, 2.5]))
            length = draw(segment_lengths)
            x, y = x + length * math.cos(angle), y + length * math.sin(angle)
            points.append((x, y))
        eid = f"e{i}"
        edges[eid] = Edge(eid, tuple(points), draw(st.sampled_from([15.0, 30.0, 50.0])))
        route.append(eid)
    repeat = draw(st.integers(1, 2))
    return RoadNetwork(edges=edges), tuple(route) * repeat


def next_distance(data, network, route, index, offset):
    """A step length: free, exactly to an edge end, or across several edges."""
    kind = data.draw(st.sampled_from(["free", "to_end", "across", "tiny"]))
    room = network.edges[route[index]].length - offset
    if kind == "free":
        return data.draw(st.floats(0.001, 300.0))
    if kind == "to_end":
        return room
    if kind == "across":
        ahead = route[index + 1 : index + 1 + data.draw(st.integers(1, 4))]
        return room + sum(network.edges[eid].length for eid in ahead)
    return data.draw(st.sampled_from([1e-12, 5e-324, 1e-6]))


@settings(max_examples=300, deadline=None)
@given(chained_networks(), st.data())
def test_cursor_moves_exactly_like_the_loop_it_replaced(layout, data):
    network, route = layout
    counting = CountingNetwork(edges=network.edges)
    first = network.edge(route[0])
    vehicle = VehicleState(vehicle_id="v", euro_class=4, table=TABLE, route=route, edge=first)
    cyclist = CyclistState(cyclist_id="c", route=route, speed=15.0, edge=first)
    assert vehicle.position == cyclist.position() == oracle_position(first, 0.0)  # placed when built
    index, offset, done = 0, 0.0, False
    for _ in range(40):
        distance = next_distance(data, network, route, index, offset)
        index, offset, done = oracle_advance(route, index, offset, distance, network)
        vehicle.advance(distance, counting)
        cyclist.advance(distance, counting)
        for cursor in (vehicle, cyclist):
            assert cursor.route_index == index
            assert cursor.edge_offset.hex() == offset.hex()
            assert cursor.finished is done
            assert cursor.edge is network.edges[route[index]]
        expected = oracle_position(network.edges[route[index]], offset)
        assert [c.hex() for c in cyclist.position()] == [c.hex() for c in expected]
        assert vehicle.emission_rate == TABLE.rate(4, vehicle.speed)
        # one lookup per edge change for each cursor
        assert counting.lookups == 2 * index
        if done:
            break


@settings(max_examples=300, deadline=None)
@given(chained_networks(), st.data())
def test_position_at_interpolates_like_the_raw_polyline(layout, data):
    network, route = layout
    edge = network.edges[route[0]]
    cum = [end for end, *_ in edge.segments]
    offset = data.draw(
        st.one_of(
            st.floats(-1.0, edge.length + 1.0),
            st.sampled_from([0.0, edge.length, *cum]),
            st.sampled_from(cum).map(lambda c: math.nextafter(c, math.inf)),
        )
    )
    expected = oracle_position(edge, offset)
    assert [c.hex() for c in edge.position_at(offset)] == [float(c).hex() for c in expected]


def hexed(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(chained_networks())
def test_edge_geometry_is_the_oracles_and_survives_pickle_and_reweighting(layout):
    network, _ = layout
    # sweep sends the scenario to its worker processes by pickle
    copies = [network, pickle.loads(pickle.dumps(network)), network.with_density_weights(dict.fromkeys(network.edges, 2.0))]
    for eid, edge in network.edges.items():
        cum = oracle_cumulative(edge.points)
        segments = [
            (cum[i + 1], cum[i], cum[i + 1] - cum[i], x0, y0, x1 - x0, y1 - y0)
            for i, ((x0, y0), (x1, y1)) in enumerate(zip(edge.points, edge.points[1:]))
        ]
        line = segments[0][3:] if len(edge.points) == 2 else None
        for copy in (net.edges[eid] for net in copies):
            assert copy.length.hex() == cum[-1].hex()
            assert [hexed(segment) for segment in copy.segments] == [hexed(segment) for segment in segments]
            assert (copy.line if line is None else hexed(copy.line)) == (line if line is None else hexed(line))
    assert copies[1] == network
    assert all(edge.density_weight == 2.0 for edge in copies[2].edges.values())


# a straight edge whose end point x0 + (x1 - x0) misses by rounding, so
# interpolating at t = 1.0 instead of returning the end point is caught
FAR_EDGE = Edge("far", ((1000.1, 999.7), (0.1, -0.3)), 50.0)
assert FAR_EDGE.line[0] + FAR_EDGE.line[2] != FAR_EDGE.points[1][0]


class StandStillTable:
    """A coefficient table that gives every speed, 0 and the tiny speeds
    below among them, a rate of 0.0, which placement does not read."""

    def rate(self, euro_class, speed):
        return 0.0


@st.composite
def placed_fleets(draw):
    """(world, dt, kinds): a world whose vehicles sit on straight and
    multi-segment edges, ``FAR_EDGE`` among them, at offsets the placement
    must get right, and the kind of offset each vehicle was given.

    A vehicle of kind ``zero``, ``length``, ``below_length`` or ``vertex``
    stands still at 0, exactly ``length``, the float below ``length`` or a
    segment end; one of kind ``rounds_up`` starts at the float below
    ``length`` and moves less than the room left, by an amount that
    ``offset + metres`` rounds up to ``length``; one of kind ``free``
    starts anywhere and moves at any speed, possibly onto later edges."""
    counts = draw(st.permutations([1, draw(st.integers(2, 3))] + draw(st.lists(st.integers(1, 3), max_size=3))))
    chained, chain = draw(chained_networks(segment_counts=counts))
    network = RoadNetwork(edges={**chained.edges, "far": FAR_EDGE})
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    world = World(network=network, table=StandStillTable(), index=VehicleIndex(network, 100.0))
    kinds = {}
    for i in range(draw(st.integers(1, 8))):
        route = draw(st.sampled_from([chain, ("far",)]))
        route_index = draw(st.integers(0, len(route) - 1))
        edge = network.edges[route[route_index]]
        length = edge.length
        kind = draw(st.sampled_from(["zero", "length", "below_length", "vertex", "rounds_up", "free"]))
        speed = 0.0
        if kind == "zero":
            offset = 0.0
        elif kind == "length":
            offset = length
        elif kind in ("below_length", "rounds_up"):
            offset = math.nextafter(length, 0.0)
        elif kind == "vertex":
            offset = draw(st.sampled_from([end for end, *_ in edge.segments]))
        else:
            offset = draw(st.floats(0.0, length))
            speed = draw(st.floats(0.0, 130.0))
        if kind == "rounds_up":
            speed = 0.75 * (length - offset) * 3.6 / dt
        vid = f"v{i}"
        world.add_vehicle(
            VehicleState(
                vehicle_id=vid,
                euro_class=4,
                table=world.table,
                route=route,
                route_index=route_index,
                edge_offset=offset,
                edge=edge,
                speed_override=speed,
            )
        )
        kinds[vid] = kind
    return world, dt, kinds


@settings(max_examples=300, deadline=None)
@given(placed_fleets())
def test_step_places_every_vehicle_where_position_at_and_the_oracle_do(fleet):
    world, dt, kinds = fleet
    before = {vid: (vehicle.edge, vehicle.edge_offset) for vid, vehicle in world.vehicles.items()}
    engine.step(world, dt)
    for vid, vehicle in world.vehicles.items():
        edge, offset = vehicle.edge, vehicle.edge_offset
        if kinds[vid] == "rounds_up":
            # the movement's fast path took it to the end of its edge
            assert edge is before[vid][0] and offset == edge.length
        elif kinds[vid] != "free":
            assert (edge, offset) == before[vid]
        position = hexed(vehicle.position)
        assert position == hexed(edge.position_at(offset)) == hexed(oracle_position(edge, offset)), kinds[vid]


@pytest.mark.parametrize(
    "points, speed_limit, density_weight, error",
    [
        (((0.0, 0.0), (10.0, 0.0)), math.nan, 1.0, "speed_limit"),
        (((0.0, 0.0), (10.0, 0.0)), math.inf, 1.0, "speed_limit"),
        (((0.0, 0.0), (10.0, 0.0)), 30.0, math.nan, "density_weight"),
        (((0.0, 0.0), (10.0, 0.0)), 30.0, math.inf, "density_weight"),
        (((0.0, 0.0), (math.nan, 0.0)), 30.0, 1.0, "length"),
        (((-1e308, 0.0), (1e308, 0.0)), 30.0, 1.0, "length"),
        (((5.0, 5.0), (5.0, 5.0)), 30.0, 1.0, "length"),
    ],
    ids=["nan-speed", "inf-speed", "nan-weight", "inf-weight", "nan-length", "overflowing-length", "zero-length"],
)
def test_edge_rejects_non_finite_values(points, speed_limit, density_weight, error):
    # NaN passes any check written `<= 0` or `< 1.0`, and an infinite
    # length makes a cursor's offsets NaN
    with pytest.raises(ValueError, match=f"{error} must be .*finite"):
        Edge("e", points, speed_limit, density_weight)
