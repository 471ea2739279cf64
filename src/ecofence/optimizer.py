"""Polluting-probability assignment under a shared emission budget.

Every vehicle ``i`` inside a geofence gets a probability ``x_i`` in [0, 1]
of staying in polluting mode for the next interval.  The assignment
maximises ``sum(x_i / d_i)`` subject to ``sum(x_i * e_i) <= limit``, where
``d_i`` (>= 1) weighs how likely a cyclist is to travel the vehicle's road
and ``e_i`` (>= 0, g/min) is the vehicle's polluting-mode emission rate.
Vehicles on low-density roads and clean vehicles are favoured to keep
polluting; dirty vehicles on busy cycling roads are switched off first.

The problem is a fractional knapsack: filling in benefit/cost order
(equivalently, ascending ``d_i * e_i``) is optimal and leaves at most one
fractional probability.  `brute_force_solve` is an independent oracle that
enumerates the basic solutions directly; it exists so the greedy path can
be cross-checked and must never share code with it.

When the budget is zero or negative the assignment is all-zero by rule:
every vehicle goes electric regardless of objective, since no polluting
allocation is acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

BUDGET_TOL = 1e-9

# Brute force enumerates 2^N subsets; keep it small by contract.
BRUTE_FORCE_MAX_ENTRIES = 8


class ProblemEntry(NamedTuple):
    """One vehicle in the assignment problem."""

    vehicle_id: str
    density: float
    emission_rate: float


@dataclass(frozen=True)
class GeofenceProblem:
    """An assignment instance: the vehicles in a fence plus the budget.

    ``limit`` is the allowed aggregate polluting rate in g/min and may be
    zero or negative (forcing the all-electric rule).
    """

    entries: tuple[ProblemEntry, ...]
    limit: float

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for i, entry in enumerate(self.entries):
            if entry.vehicle_id in seen:
                raise ValueError(f"entries[{i}]: duplicate vehicle_id {entry.vehicle_id!r}")
            seen.add(entry.vehicle_id)
            if not math.isfinite(entry.density) or entry.density < 1.0:
                raise ValueError(
                    f"entries[{i}]: density must be >= 1.0, got {entry.density!r}"
                )
            if not math.isfinite(entry.emission_rate) or entry.emission_rate < 0.0:
                raise ValueError(
                    f"entries[{i}]: emission_rate must be >= 0, got {entry.emission_rate!r}"
                )
        if not math.isfinite(self.limit):
            raise ValueError("limit must be finite")


@dataclass(frozen=True)
class Assignment:
    """Per-vehicle polluting probabilities plus the achieved objective."""

    values: Mapping[str, float] = field(default_factory=dict)
    objective_value: float = 0.0


def solve(problem: GeofenceProblem) -> Assignment:
    """Optimal assignment by greedy benefit/cost fill.

    Zero-rate vehicles (full EVs, stationary vehicles) get x = 1 outright:
    they add objective without spending budget.  Positive-rate vehicles are
    filled in ascending d*e order (ties: lower d first, then input order)
    until the budget runs out, so at most one of them ends up fractional.
    Once the remaining budget is exactly 0.0 every later vehicle would get
    ``0.0 / e = 0.0`` and add ``0.0`` to the objective, so the fill stops
    there and gives them x = 0.0 directly, with the same values, in the
    same order, and the same objective.
    """
    if problem.limit <= 0.0:
        return Assignment(
            values={entry.vehicle_id: 0.0 for entry in problem.entries},
            objective_value=0.0,
        )
    values: dict[str, float] = {}
    objective = 0.0
    costed: list[tuple[float, float, int, ProblemEntry]] = []
    append = costed.append
    for index, entry in enumerate(problem.entries):
        vehicle_id, density, rate = entry
        if rate == 0.0:
            values[vehicle_id] = 1.0
            objective += 1.0 / density
        else:
            append((density * rate, density, index, entry))
    # The index is unique, so tuple order never reaches the entries.
    costed.sort()
    remaining = problem.limit
    fill = iter(costed)
    for _, density, _, entry in fill:
        rate = entry.emission_rate
        # min(1.0, x) as a comparison that picks the same value for every
        # input; x is never negative, since the fill stops before
        # remaining does
        x = remaining / rate
        if not x < 1.0:
            x = 1.0
        values[entry.vehicle_id] = x
        objective += x / density
        remaining -= x * rate
        if not remaining > 0.0:
            break
    for _, _, _, entry in fill:
        values[entry.vehicle_id] = 0.0
    return Assignment(values=values, objective_value=objective)


def brute_force_solve(problem: GeofenceProblem) -> Assignment:
    """Oracle solver: enumerate the basic solutions of the relaxation.

    An optimal extreme point sets every x to 0 or 1 except at most one
    fractional index j, whose value is the leftover budget divided by e_j.
    Enumerating all 0/1 subsets S and all candidate fractional indices
    outside S covers every extreme point; the best feasible one is optimal.
    Only valid for small instances (<= 8 entries).
    """
    n = len(problem.entries)
    if n > BRUTE_FORCE_MAX_ENTRIES:
        raise ValueError(
            f"brute force supports at most {BRUTE_FORCE_MAX_ENTRIES} entries, got {n}"
        )
    if problem.limit <= 0.0:
        return Assignment(
            values={entry.vehicle_id: 0.0 for entry in problem.entries},
            objective_value=0.0,
        )
    best_values: dict[str, float] = {e.vehicle_id: 0.0 for e in problem.entries}
    best_objective = 0.0
    for mask in range(1 << n):
        cost = 0.0
        base_objective = 0.0
        for i in range(n):
            if mask & (1 << i):
                cost += problem.entries[i].emission_rate
                base_objective += 1.0 / problem.entries[i].density
        slack = problem.limit - cost
        # feasibility slop must scale with the operands: an absolute epsilon
        # would admit genuinely infeasible subsets when the rates are tiny
        feas_tol = 1e-12 * max(abs(problem.limit), cost)
        if slack < -feas_tol:
            continue
        if base_objective > best_objective:
            best_objective = base_objective
            best_values = {
                e.vehicle_id: (1.0 if mask & (1 << i) else 0.0)
                for i, e in enumerate(problem.entries)
            }
        if slack <= 0.0:
            continue
        for j in range(n):
            if mask & (1 << j):
                continue
            e_j = problem.entries[j].emission_rate
            if e_j == 0.0:
                continue
            x_j = min(1.0, slack / e_j)
            objective = base_objective + x_j / problem.entries[j].density
            if objective > best_objective:
                best_objective = objective
                values = {
                    e.vehicle_id: (1.0 if mask & (1 << i) else 0.0)
                    for i, e in enumerate(problem.entries)
                }
                values[problem.entries[j].vehicle_id] = x_j
                best_values = values
    return Assignment(values=best_values, objective_value=best_objective)


def budget_spend(assignment: Assignment, problem: GeofenceProblem) -> float:
    """Expected aggregate polluting rate sum(x_i * e_i) under ``assignment``."""
    missing = [e.vehicle_id for e in problem.entries if e.vehicle_id not in assignment.values]
    if missing:
        raise ValueError(f"assignment missing vehicle ids: {missing}")
    return sum(assignment.values[e.vehicle_id] * e.emission_rate for e in problem.entries)
