"""The route cursor shared by vehicles and cyclists.

The loop it replaced is kept below as the oracle: moving a cursor must
give, bit for bit, the (index, offset, done) that loop gives, and the
cursor may look an edge up only when it moves onto the next one.  The
interpolation ``Edge.position_at`` did before it cached its segment
constants is kept as the position oracle.
"""

import math

from hypothesis import given, settings, strategies as st

from ecofence.engine import CyclistState, VehicleState
from ecofence.network import Edge, RoadNetwork


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


def oracle_position(edge, offset):
    """``Edge.position_at`` as it was written over the raw polyline."""
    if offset <= 0:
        return edge.points[0]
    cum = [0.0]
    for (x0, y0), (x1, y1) in zip(edge.points, edge.points[1:]):
        cum.append(cum[-1] + math.hypot(x1 - x0, y1 - y0))
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
def chained_networks(draw):
    """(network, route): 1-6 polyline edges, each starting where the last ended."""
    edges = {}
    route = []
    x, y = draw(st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0)))
    for i in range(draw(st.integers(1, 6))):
        points = [(x, y)]
        for _ in range(draw(st.integers(1, 3))):
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
    vehicle = VehicleState(vehicle_id="v", euro_class=4, route=route, edge=network.edge(route[0]))
    cyclist = CyclistState(cyclist_id="c", route=route, speed=15.0)  # edge looked up on first use
    index, offset, done = 0, 0.0, False
    for _ in range(40):
        distance = next_distance(data, network, route, index, offset)
        index, offset, done = oracle_advance(route, index, offset, distance, network)
        vehicle.advance(distance, counting)
        cyclist.advance(distance, counting)
        vehicle.refresh(counting)
        for cursor in (vehicle, cyclist):
            assert cursor.route_index == index
            assert cursor.edge_offset.hex() == offset.hex()
            assert cursor.finished is done
            assert cursor.edge is network.edges[route[index]]
        expected = oracle_position(network.edges[route[index]], offset)
        assert [c.hex() for c in vehicle.position] == [c.hex() for c in expected]
        assert cyclist.position(counting) == vehicle.position
        # one lookup per edge change for each cursor, plus the cyclist's first
        assert counting.lookups == 2 * index + 1
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
