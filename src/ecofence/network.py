"""Road network geometry: polyline edges with speed limits and density weights.

Coordinates are planar metres.  Every edge carries the cyclist-density
weight used by the optimizer (1.0 by default, meaning no recorded cyclist
traffic); routes are sequences of edge ids whose geometry must chain
end-to-start.  :class:`VehicleIndex` keeps the vehicles bucketed by edge
and answers "which vehicles lie near here" for the simulation's proximity
queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

Point = tuple[float, float]

_CHAIN_TOL = 1e-6


@dataclass(frozen=True)
class Edge:
    """A polyline edge, with its geometry computed once when it is built.

    ``segments`` holds per-segment constants ``(end, start, seg_len, x0,
    y0, dx, dy)``: ``start`` and ``end`` are the cumulative offsets of the
    segment's ends, ``seg_len`` their difference and ``(dx, dy)`` the
    segment's vector.  ``length`` is the last segment's ``end``.  A
    two-point edge also keeps ``line = (x0, y0, dx, dy)``, its start point
    and vector, and ``None`` there otherwise: its one segment starts at
    0.0 and its ``seg_len`` is ``length`` bit for bit, so at an offset
    with ``0 < offset < length`` its point is ``t = offset / length;
    (x0 + t * dx, y0 + t * dy)``.  All three are plain attributes set in
    ``__post_init__``, and the engine places vehicles on straight edges
    from them without calling :meth:`position_at`.
    """

    edge_id: str
    points: tuple[Point, ...]
    speed_limit: float
    density_weight: float = 1.0
    length: float = field(init=False, repr=False, compare=False)
    segments: tuple[tuple[float, float, float, float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    line: tuple[float, float, float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"edge {self.edge_id!r}: needs at least 2 points")
        # written so that NaN and infinity fail every test
        if not (self.speed_limit > 0 and math.isfinite(self.speed_limit)):
            raise ValueError(f"edge {self.edge_id!r}: speed_limit must be positive and finite")
        if not (self.density_weight >= 1.0 and math.isfinite(self.density_weight)):
            raise ValueError(f"edge {self.edge_id!r}: density_weight must be >= 1.0 and finite")
        segments = []
        end = 0.0
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            start, end = end, end + math.hypot(x1 - x0, y1 - y0)
            segments.append((end, start, end - start, x0, y0, x1 - x0, y1 - y0))
        if not (end > 0 and math.isfinite(end)):
            raise ValueError(f"edge {self.edge_id!r}: length must be positive and finite")
        object.__setattr__(self, "length", end)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "line", segments[0][3:] if len(segments) == 1 else None)

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    def position_at(self, offset: float) -> Point:
        """Interpolated point at ``offset`` metres along the polyline."""
        if offset <= 0:
            return self.points[0]
        if offset >= self.length:
            return self.points[-1]
        # linear scan; desk-scale edges have a handful of segments
        for end, start, seg_len, x0, y0, dx, dy in self.segments:
            if offset <= end:
                t = (offset - start) / seg_len
                return (x0 + t * dx, y0 + t * dy)
        return self.points[-1]


@dataclass(frozen=True)
class RoadNetwork:
    edges: Mapping[str, Edge]

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def route_problems(self, route: tuple[str, ...], where: str) -> list[str]:
        """Validation diagnostics for a route: unknown edges, broken chaining."""
        problems = []
        for i, eid in enumerate(route):
            if eid not in self.edges:
                problems.append(f"{where}.route[{i}]: unknown edge {eid!r}")
        if problems:
            return problems
        if not route:
            return [f"{where}.route: must not be empty"]
        for i in range(len(route) - 1):
            tail = self.edges[route[i]].end
            head = self.edges[route[i + 1]].start
            if math.hypot(tail[0] - head[0], tail[1] - head[1]) > _CHAIN_TOL:
                problems.append(
                    f"{where}.route[{i}..{i + 1}]: edges {route[i]!r} and "
                    f"{route[i + 1]!r} do not connect"
                )
        return problems

    def with_density_weights(self, weights: Mapping[str, float]) -> "RoadNetwork":
        """Copy of the network with the given per-edge weights applied."""
        unknown = sorted(set(weights) - set(self.edges))
        if unknown:
            raise KeyError(f"density weights reference unknown edges: {unknown}")
        updated = {}
        for eid, edge in self.edges.items():
            if eid in weights:
                updated[eid] = Edge(
                    edge_id=edge.edge_id,
                    points=edge.points,
                    speed_limit=edge.speed_limit,
                    density_weight=weights[eid],
                )
            else:
                updated[eid] = edge
        return RoadNetwork(edges=updated)


class VehicleIndex:
    """The vehicles on the road, bucketed by the edge each is on, with a
    static grid of edge bounding boxes that finds the edges near a point.

    ``buckets`` maps every edge id of the network to a dict of the records
    on that edge, keyed by vehicle id.  The engine keeps it current: a
    vehicle is added at spawn, moved when it enters its next edge and
    removed when it arrives, so a step that stays on its edge costs the
    index nothing.  The grid is built once: every edge's bounding box is
    listed in the square cells of side ``cell`` that it touches (the cells
    hash positions as in Teschner et al. 2003, "Optimized Spatial Hashing
    for Collision Detection of Deformable Objects", but hold edges, which
    do not move).  ``cell`` is at least the size asked for and the longest
    box side, and is doubled until no box spans more than two cells along
    an axis, so each edge is listed in at most 4 cells.  ``extent`` is the
    largest coordinate magnitude of any edge point, which bounds how far
    rounding can put a position outside its edge's box.  ``spans`` caches,
    per span of cells a query has covered, the entries of the edges listed
    there (see :meth:`near`).  The index only prunes: callers keep the
    exact distance test.
    """

    def __init__(self, network: RoadNetwork, cell: float):
        if not (cell > 0 and math.isfinite(cell)):
            raise ValueError("cell size must be positive and finite")
        self.buckets: dict[str, dict[str, Any]] = {eid: {} for eid in network.edges}
        boxes = []
        extent = 0.0
        for eid, edge in network.edges.items():
            xs = [x for x, _ in edge.points]
            ys = [y for _, y in edge.points]
            boxes.append((eid, min(xs), min(ys), max(xs), max(ys)))
            extent = max(extent, *map(abs, xs), *map(abs, ys))
        cell = max([cell] + [max(x1 - x0, y1 - y0) for _, x0, y0, x1, y1 in boxes])
        floor = math.floor
        # coord / cell rounds, which can put the far side of a box as wide
        # as a cell into a third column; doubling halves every ratio exactly
        while any(
            floor(x1 / cell) - floor(x0 / cell) > 1 or floor(y1 / cell) - floor(y0 / cell) > 1
            for _, x0, y0, x1, y1 in boxes
        ):
            cell *= 2.0
        cells: dict[tuple[int, int], list[tuple]] = {}
        for eid, x0, y0, x1, y1 in boxes:
            entry = (eid, x0, y0, x1, y1, self.buckets[eid])
            for ix in range(floor(x0 / cell), floor(x1 / cell) + 1):
                for iy in range(floor(y0 / cell), floor(y1 / cell) + 1):
                    cells.setdefault((ix, iy), []).append(entry)
        self.cell = cell
        self.extent = extent
        # (ix, iy) -> one entry per edge listed there: (edge id, x_lo, y_lo,
        # x_hi, y_hi of its box, its bucket)
        self.cells = cells
        # (ix_first, iy_first, ix_last, iy_last) -> the entries of every
        # edge listed in those cells, once each
        self.spans: dict[tuple[int, int, int, int], tuple[tuple, ...]] = {}

    def add(self, vehicle_id: str, record: Any, edge_id: str) -> None:
        """Put ``record`` in the bucket of ``edge_id``."""
        self.buckets[edge_id][vehicle_id] = record

    def move(self, vehicle_id: str, from_edge: str, to_edge: str) -> None:
        """Move a vehicle's record from one edge's bucket to another's."""
        buckets = self.buckets
        buckets[to_edge][vehicle_id] = buckets[from_edge].pop(vehicle_id)

    def remove(self, vehicle_id: str, edge_id: str) -> None:
        """Take a vehicle's record out of the bucket of ``edge_id``."""
        del self.buckets[edge_id][vehicle_id]

    def near(self, center: Point, radius: float) -> dict[str, Any]:
        """The records of every vehicle whose ``position`` lies within
        ``radius`` of ``center``, plus some beyond it, keyed by vehicle id.

        They are the records on every edge whose box meets the query
        square: the disc's bounding square with each side pushed out by
        ``pad = (|cx| + |cy| + radius + extent) * 2**-40`` to cover
        rounding.  The query's span is the cells under the square,
        ``(ix_first, iy_first, ix_last, iy_last)``.  The edges it tests
        are the span's listing: every edge listed in one of those cells,
        once each, built from ``cells`` the first time the span is queried
        and kept in ``spans``.  A listing holds each edge's bucket itself,
        not a copy, so it never goes stale: ``add``, ``move`` and
        ``remove`` change the buckets it reads.

        Why no record the callers accept is missed.  With unit roundoff
        ``u = 2**-53``, a caller's test ``hypot(x - cx, y - cy) <= radius``
        (a subtraction off by at most ``u`` relative, a ``hypot`` within
        one ulp) accepts only points with ``|x - cx| <= radius * (1 + 4u)``.
        A record's position is ``Edge.position_at`` of its edge, or the
        engine's inline copy of its straight-edge arithmetic: an end
        point exactly, or ``x0 + t * dx`` on a segment with ``0 <= t <= 1``
        (the offset test and monotone rounding bound ``t``), which lies
        between ``x0`` and ``x0 + dx``, and ``x0 + dx`` rounds to within
        ``3u * extent`` of ``x1``.  So some point ``q`` of the edge's box
        lies within ``3u * extent`` of an accepted position, along each
        axis, and within ``radius * (1 + 4u) + 3u * extent`` of ``cx``.
        Computing ``cx - (radius + pad)`` rounds it by at most
        ``u * (|cx| + 2 * (radius + pad))``, so the square's low side lies
        at or below ``q`` whenever
        ``pad * (1 - 2u) >= u * (|cx| + 6 * radius + 3 * extent)``, which
        the pad, about 8192u times ``|cx| + |cy| + radius + extent``, meets
        with a wide margin; the high side and the y axis are alike.  So
        ``q`` lies in both the box and the square, the box test keeps its
        edge, and since ``coord / cell`` and ``floor`` are monotone, the
        cell of ``q`` lies in the span and lists the edge, so the span's
        listing holds it.  For a query within 1 km of the origin, on a
        network within 1 km of it, with a 100 m radius, the pad is under
        3e-9 m.

        How many spans are kept.  A span is kept only when its listing
        holds an edge, so it meets the columns ``c_lo..c_hi`` and the rows
        that ``cells`` occupies.  A span of ``w + 1`` columns that meets
        them starts in one of the ``nx + w`` columns ``c_lo - w..c_hi``,
        where ``nx = c_hi - c_lo + 1``, and the rows alike, with ``ny``.
        A query whose reach ``radius + pad`` is at most 1.25 cells, with
        its centre within ``2**30`` cells of the origin, spans at most 4
        columns and 4 rows: ``x_hi - x_lo`` is under 2.51 cells and the
        divisions by ``cell`` round by far less than 0.49 cells.  The
        engine's queries are such on a network within ``2**30`` cells of
        the origin: their radius is at most ``cell``, their centre is a
        road user's position on the network, and so their pad is under
        ``2**-8`` cells.  So those queries keep at most
        ``(4 * nx + 6) * (4 * ny + 6)`` spans in a run, however many steps
        it makes.
        """
        cx, cy = center
        reach = radius + (abs(cx) + abs(cy) + radius + self.extent) * 2.0**-40
        x_lo, x_hi = cx - reach, cx + reach
        y_lo, y_hi = cy - reach, cy + reach
        cell = self.cell
        floor = math.floor
        span = (floor(x_lo / cell), floor(y_lo / cell), floor(x_hi / cell), floor(y_hi / cell))
        listing = self.spans.get(span)
        if listing is None:
            listing = self._list_span(span)
        found: dict[str, Any] = {}
        for _, bx_lo, by_lo, bx_hi, by_hi, bucket in listing:
            if bucket and bx_lo <= x_hi and x_lo <= bx_hi and by_lo <= y_hi and y_lo <= by_hi:
                found.update(bucket)
        return found

    def _list_span(self, span: tuple[int, int, int, int]) -> tuple[tuple, ...]:
        """The entry of every edge listed in a cell of ``span``, once each,
        in the order a column-by-column visit of its cells first meets
        them; kept in ``spans`` when it holds any."""
        ix_first, iy_first, ix_last, iy_last = span
        cells = self.cells
        listed: dict[str, tuple] = {}
        for ix in range(ix_first, ix_last + 1):
            for iy in range(iy_first, iy_last + 1):
                for entry in cells.get((ix, iy), ()):
                    listed.setdefault(entry[0], entry)
        listing = tuple(listed.values())
        if listing:
            self.spans[span] = listing
        return listing
