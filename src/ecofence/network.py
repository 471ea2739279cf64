"""Road network geometry: polyline edges with speed limits and density weights.

Coordinates are planar metres.  Every edge carries the cyclist-density
weight used by the optimizer (1.0 by default, meaning no recorded cyclist
traffic); routes are sequences of edge ids whose geometry must chain
end-to-start.  :class:`SpatialHash` answers "which points lie near here"
for the simulation's proximity queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

Point = tuple[float, float]

_CHAIN_TOL = 1e-6


@dataclass(frozen=True)
class Edge:
    edge_id: str
    points: tuple[Point, ...]
    speed_limit: float
    density_weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"edge {self.edge_id!r}: needs at least 2 points")
        # written so that NaN and infinity fail every test
        if not (self.speed_limit > 0 and math.isfinite(self.speed_limit)):
            raise ValueError(f"edge {self.edge_id!r}: speed_limit must be positive and finite")
        if not (self.density_weight >= 1.0 and math.isfinite(self.density_weight)):
            raise ValueError(f"edge {self.edge_id!r}: density_weight must be >= 1.0 and finite")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"edge {self.edge_id!r}: length must be positive and finite")

    @cached_property
    def _cumulative(self) -> tuple[float, ...]:
        acc = [0.0]
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            acc.append(acc[-1] + math.hypot(x1 - x0, y1 - y0))
        return tuple(acc)

    @cached_property
    def length(self) -> float:
        return self._cumulative[-1]

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    @cached_property
    def segments(self) -> tuple[tuple[float, float, float, float, float, float, float], ...]:
        """Per-segment constants ``(end, start, seg_len, x0, y0, dx, dy)``.

        ``start`` and ``end`` are the cumulative offsets of the segment's
        ends, ``seg_len`` their difference and ``(dx, dy)`` the segment's
        vector: the same values :meth:`position_at` interpolates with.
        """
        cum = self._cumulative
        return tuple(
            (cum[i + 1], cum[i], cum[i + 1] - cum[i], x0, y0, x1 - x0, y1 - y0)
            for i, ((x0, y0), (x1, y1)) in enumerate(zip(self.points, self.points[1:]))
        )

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


class SpatialHash:
    """Uniform-grid spatial hash over points keyed by id.

    Every point goes into the bucket of the square cell of side ``cell``
    that holds it (Teschner et al. 2003, "Optimized Spatial Hashing for
    Collision Detection of Deformable Objects"), so a disc query visits the
    few cells under the disc instead of every point.  Building is linear in
    the points and a query costs the cells it visits plus the points in
    them.  The hash only prunes: callers keep the exact distance test.
    """

    def __init__(self, cell: float, points: Iterable[tuple[str, Point]]):
        if not (cell > 0 and math.isfinite(cell)):
            raise ValueError("cell size must be positive and finite")
        self.cell = cell
        buckets: dict[tuple[int, int], list[tuple[str, Point]]] = {}
        for key, point in points:
            cell_key = (math.floor(point[0] / cell), math.floor(point[1] / cell))
            buckets.setdefault(cell_key, []).append((key, point))
        self._buckets = buckets

    def near(self, center: Point, radius: float) -> dict[str, Point]:
        """Every point within ``radius`` of ``center``, plus some beyond it.

        The cells scanned are those under the disc's bounding square, with
        each side pushed out by ``pad = (|cx| + |cy| + radius) * 2**-40``
        to cover rounding.  With unit roundoff ``u = 2**-53``, a caller's
        test ``hypot(x - cx, y - cy) <= radius`` (a subtraction off by at
        most ``u`` relative, a ``hypot`` within one ulp) accepts only points
        with ``|x - cx| <= radius * (1 + 4u)``, and computing
        ``cx - (radius + pad)`` rounds it by at most
        ``u * (|cx| + 2 * (radius + pad))``.  So the window's low edge lies
        at or below every accepted point whenever
        ``pad * (1 - 2u) >= u * (|cx| + 6 * radius)``, which the pad, about
        8192u times ``|cx| + |cy| + radius``, meets with a wide margin; the
        high edge and the y axis are alike.  ``coord / cell`` and ``floor``
        are monotone, so no accepted point falls in an unscanned cell.
        At 1 km from the origin the pad is under 1e-9 m, so the window is
        one extra row or column only when a side lands that close to a
        cell edge.
        """
        cell = self.cell
        cx, cy = center
        reach = radius + (abs(cx) + abs(cy) + radius) * 2.0**-40
        floor = math.floor
        x_lo = floor((cx - reach) / cell)
        x_hi = floor((cx + reach) / cell)
        y_lo = floor((cy - reach) / cell)
        y_hi = floor((cy + reach) / cell)
        buckets = self._buckets
        found: dict[str, Point] = {}
        for ix in range(x_lo, x_hi + 1):
            for iy in range(y_lo, y_hi + 1):
                bucket = buckets.get((ix, iy))
                if bucket:
                    found.update(bucket)
        return found
