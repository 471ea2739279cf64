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

A :class:`GeofenceProblem` holds its vehicles as three columns (ids,
densities d and rates e, item ``i`` of each being vehicle ``i``), and an
:class:`Assignment` keeps x as a fourth column in the same order, so the
coordinator's coin tosses and the command log take all four as they are.
The solvers assume unique ids, finite d >= 1, finite e >= 0 and a finite
limit, and check none of it: a problem is checked where its data enters
the program (the scenario loader, and ``solve-debug`` for a problem file).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop
from typing import NamedTuple

BUDGET_TOL = 1e-9

# Brute force enumerates 2^N subsets; keep it small by contract.
BRUTE_FORCE_MAX_ENTRIES = 8


class ProblemEntry(NamedTuple):
    """One vehicle in the assignment problem: one row of its columns."""

    vehicle_id: str
    density: float
    emission_rate: float


@dataclass(frozen=True)
class GeofenceProblem:
    """An assignment instance: the vehicles in a fence plus the budget.

    The vehicles are three columns of equal length: item ``i`` of
    ``vehicle_ids``, ``densities`` and ``rates`` is one vehicle's id,
    density weight d and polluting-mode emission rate e (g/min).
    ``limit`` is the allowed aggregate polluting rate in g/min and may be
    zero or negative (forcing the all-electric rule).  ``entries`` zips
    the columns into :class:`ProblemEntry` rows each time it is read.
    """

    vehicle_ids: tuple[str, ...]
    densities: tuple[float, ...]
    rates: tuple[float, ...]
    limit: float

    @property
    def entries(self) -> tuple[ProblemEntry, ...]:
        return tuple(map(ProblemEntry._make, zip(self.vehicle_ids, self.densities, self.rates)))


@dataclass(frozen=True)
class Assignment:
    """Polluting probabilities plus the achieved objective; ``x[i]``
    belongs to vehicle ``i`` of the problem's columns, so ``x`` is the
    problem's fourth column."""

    x: tuple[float, ...] = ()
    objective_value: float = 0.0


def solve(problem: GeofenceProblem) -> Assignment:
    """Optimal assignment by greedy benefit/cost fill.

    Zero-rate vehicles get x = 1 outright:
    they add objective without spending budget.  Positive-rate vehicles are
    filled in ascending d*e order (ties: lower d first, then input order)
    until the budget runs out, so at most one of them ends up fractional.
    Once the remaining budget is exactly 0.0 every later vehicle would get
    ``0.0 / e = 0.0`` and add ``0.0`` to the objective, so the fill stops
    there and leaves them at x = 0.0, with the same values and the same
    objective.  The x column is filled by vehicle index, in problem order.

    A fill usually stops a few vehicles in, so they are not sorted: their
    ``(d*e, d, index, e)`` keys are heapified and popped in fill order
    only until the budget is spent, which costs O(n + k log n) for k
    vehicles filled.
    """
    densities, rates = problem.densities, problem.rates
    if problem.limit <= 0.0:
        return Assignment(x=(0.0,) * len(rates), objective_value=0.0)
    x = [0.0] * len(rates)
    objective = 0.0
    costed: list[tuple[float, float, int, float]] = []
    append = costed.append
    for index, (density, rate) in enumerate(zip(densities, rates)):
        if rate == 0.0:
            x[index] = 1.0
            objective += 1.0 / density
        else:
            append((density * rate, density, index, rate))
    # The index is unique, so tuple order never reaches the rate.
    heapify(costed)
    remaining = problem.limit
    while costed:
        _, density, index, rate = heappop(costed)
        # min(1.0, share) as a comparison that picks the same value for
        # every input; share is never negative, since the fill stops
        # before remaining does
        share = remaining / rate
        if not share < 1.0:
            share = 1.0
        x[index] = share
        objective += share / density
        remaining -= share * rate
        if not remaining > 0.0:
            break
    return Assignment(x=tuple(x), objective_value=objective)


def brute_force_solve(problem: GeofenceProblem) -> Assignment:
    """Oracle solver: enumerate the basic solutions of the relaxation.

    An optimal extreme point sets every x to 0 or 1 except at most one
    fractional index j, whose value is the leftover budget divided by e_j.
    Enumerating all 0/1 subsets S and all candidate fractional indices
    outside S covers every extreme point; the best feasible one is optimal.
    Only valid for small instances (<= 8 entries).
    """
    densities, rates = problem.densities, problem.rates
    n = len(rates)
    if n > BRUTE_FORCE_MAX_ENTRIES:
        raise ValueError(
            f"brute force supports at most {BRUTE_FORCE_MAX_ENTRIES} entries, got {n}"
        )
    if problem.limit <= 0.0:
        return Assignment(x=(0.0,) * n, objective_value=0.0)
    best_x: tuple[float, ...] = (0.0,) * n
    best_objective = 0.0
    for mask in range(1 << n):
        cost = 0.0
        base_objective = 0.0
        for i in range(n):
            if mask & (1 << i):
                cost += rates[i]
                base_objective += 1.0 / densities[i]
        slack = problem.limit - cost
        # feasibility slop must scale with the operands: an absolute epsilon
        # would admit genuinely infeasible subsets when the rates are tiny
        feas_tol = 1e-12 * max(abs(problem.limit), cost)
        if slack < -feas_tol:
            continue
        subset = [1.0 if mask & (1 << i) else 0.0 for i in range(n)]
        if base_objective > best_objective:
            best_objective = base_objective
            best_x = tuple(subset)
        if slack <= 0.0:
            continue
        for j in range(n):
            if mask & (1 << j):
                continue
            e_j = rates[j]
            if e_j == 0.0:
                continue
            x_j = min(1.0, slack / e_j)
            objective = base_objective + x_j / densities[j]
            if objective > best_objective:
                best_objective = objective
                best_x = (*subset[:j], x_j, *subset[j + 1:])
    return Assignment(x=best_x, objective_value=best_objective)


def budget_spend(assignment: Assignment, problem: GeofenceProblem) -> float:
    """Expected aggregate polluting rate sum(x_i * e_i) under ``assignment``.

    The products are added one at a time from the left, as ``sum`` did
    before Python 3.12 compensated float sums, so every version prints
    the same bits.
    """
    total = 0.0
    for rate, x in zip(problem.rates, assignment.x, strict=True):
        total += x * rate
    return total
