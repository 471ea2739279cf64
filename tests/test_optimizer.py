import random

import pytest
from hypothesis import given, settings, strategies as st

from ecofence.optimizer import (
    Assignment,
    GeofenceProblem,
    ProblemEntry,
    brute_force_solve,
    budget_spend,
    solve,
)


def problem(entries, limit):
    return GeofenceProblem(
        entries=tuple(ProblemEntry(vid, d, e) for vid, d, e in entries), limit=limit
    )


def test_single_vehicle_exact_budget():
    assignment = solve(problem([("A", 1.0, 1.0)], 1.0))
    assert assignment.values == {"A": 1.0}
    assert assignment.objective_value == 1.0


def test_zero_limit_forces_all_electric():
    assignment = solve(problem([("A", 1.0, 1.0), ("B", 2.0, 2.0)], 0.0))
    assert assignment.values == {"A": 0.0, "B": 0.0}
    assert assignment.objective_value == 0.0


def test_negative_limit_forces_all_electric():
    assignment = solve(problem([("A", 1.0, 0.5)], -0.5))
    assert assignment.values == {"A": 0.0}


def test_two_vehicle_split_matches_grid_oracle():
    # Optimum confirmed by 0.01-grid brute force over [0,1]^2 before the
    # build: x=(1.0, 0.5), objective 1.25.
    assignment = solve(problem([("A", 1.0, 1.0), ("B", 2.0, 2.0)], 2.0))
    assert assignment.values["A"] == pytest.approx(1.0)
    assert assignment.values["B"] == pytest.approx(0.5)
    assert assignment.objective_value == pytest.approx(1.25)


def test_grid_oracle_agrees():
    # keep the independent grid check alive in-tree
    best = -1.0
    for i in range(101):
        for j in range(101):
            xa, xb = i / 100.0, j / 100.0
            if xa + 2.0 * xb <= 2.0 + 1e-12:
                best = max(best, xa + xb / 2.0)
    assert best == pytest.approx(1.25)


def test_slack_budget_everyone_polluting():
    assignment = solve(problem([("A", 1.0, 0.3), ("B", 1.0, 0.3), ("C", 1.0, 0.3)], 1.0))
    assert all(x == 1.0 for x in assignment.values.values())
    assert assignment.objective_value == pytest.approx(3.0)


def test_zero_rate_vehicles_get_one():
    assignment = solve(problem([("ev", 4.0, 0.0), ("hv", 1.0, 2.0)], 1.0))
    assert assignment.values["ev"] == 1.0
    assert assignment.values["hv"] == pytest.approx(0.5)


def test_tie_break_prefers_lower_density():
    # equal d*e products: lower d (higher individual probability weight) first
    assignment = solve(problem([("hi_d", 4.0, 1.0), ("lo_d", 2.0, 2.0)], 2.0)
    )
    assert assignment.values["lo_d"] == 1.0
    assert assignment.values["hi_d"] == 0.0


def test_validation_errors():
    with pytest.raises(ValueError, match="density"):
        problem([("A", 0.5, 1.0)], 1.0)
    with pytest.raises(ValueError, match="emission_rate"):
        problem([("A", 1.0, -0.1)], 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        problem([("A", 1.0, 1.0), ("A", 1.0, 1.0)], 1.0)
    with pytest.raises(ValueError, match="finite"):
        problem([("A", 1.0, 1.0)], float("nan"))


def test_brute_force_matches_on_spec_instances():
    instances = [
        problem([("A", 1.0, 1.0)], 1.0),
        problem([("A", 1.0, 1.0), ("B", 2.0, 2.0)], 0.0),
        problem([("A", 1.0, 1.0), ("B", 2.0, 2.0)], 2.0),
        problem([("A", 1.0, 0.3), ("B", 1.0, 0.3), ("C", 1.0, 0.3)], 1.0),
    ]
    for p in instances:
        assert abs(solve(p).objective_value - brute_force_solve(p).objective_value) <= 1e-9


def test_brute_force_single_entry_and_size_limit():
    p = problem([("A", 1.0, 0.5)], 1.0)
    assert brute_force_solve(p).values == {"A": 1.0}
    too_big = problem([(f"v{i}", 1.0, 1.0) for i in range(9)], 1.0)
    with pytest.raises(ValueError, match="at most"):
        brute_force_solve(too_big)


def test_brute_force_zero_limit():
    p = problem([("A", 1.0, 1.0), ("B", 1.0, 0.0)], 0.0)
    assert brute_force_solve(p).values == {"A": 0.0, "B": 0.0}


def test_budget_spend_missing_id():
    p = problem([("A", 1.0, 1.0)], 1.0)
    with pytest.raises(ValueError, match="missing"):
        budget_spend(Assignment(values={}), p)


# -- properties ---------------------------------------------------------------

entry_lists = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


def build(entries_raw, limit):
    return problem([(f"v{i}", d, e) for i, (d, e) in enumerate(entries_raw)], limit)


@given(entry_lists, st.floats(min_value=-1.0, max_value=31.0, allow_nan=False))
def test_property_oracle_equivalence(entries_raw, limit):
    p = build(entries_raw, limit)
    greedy = solve(p)
    oracle = brute_force_solve(p)
    assert abs(greedy.objective_value - oracle.objective_value) <= 1e-9
    if p.limit > 0:
        assert budget_spend(greedy, p) <= p.limit + 1e-9
        assert budget_spend(oracle, p) <= p.limit + 1e-9


@given(entry_lists, st.floats(min_value=-1.0, max_value=31.0, allow_nan=False))
def test_property_box_and_fractional_structure(entries_raw, limit):
    p = build(entries_raw, limit)
    assignment = solve(p)
    fractional = 0
    for entry in p.entries:
        x = assignment.values[entry.vehicle_id]
        assert 0.0 <= x <= 1.0
        if entry.emission_rate > 0 and 1e-12 < x < 1.0 - 1e-12:
            fractional += 1
    assert fractional <= 1


@given(entry_lists, st.floats(min_value=0.1, max_value=31.0, allow_nan=False))
def test_property_monotone_in_weighted_cost(entries_raw, limit):
    p = build(entries_raw, limit)
    assignment = solve(p)
    positive = [e for e in p.entries if e.emission_rate > 0]
    for a in positive:
        for b in positive:
            if a.density * a.emission_rate > b.density * b.emission_rate:
                assert assignment.values[a.vehicle_id] <= assignment.values[b.vehicle_id] + 1e-12


@given(entry_lists, st.floats(min_value=0.1, max_value=31.0, allow_nan=False),
       st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_property_scale_invariance(entries_raw, limit, scale):
    p = build(entries_raw, limit)
    scaled = GeofenceProblem(
        entries=tuple(
            ProblemEntry(e.vehicle_id, e.density, e.emission_rate * scale) for e in p.entries
        ),
        limit=p.limit * scale,
    )
    x0 = solve(p).values
    x1 = solve(scaled).values
    # power-of-two scaling is exact in binary floating point
    assert x0 == x1


def test_thousand_seeded_instances_agree():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 6)
        entries = [
            (f"v{i}", 1.0 + rng.random() * 9.0, rng.random() * 5.0) for i in range(n)
        ]
        total = sum(e for _, _, e in entries)
        limit = -1.0 + rng.random() * (total + 2.0)
        p = problem(entries, limit)
        greedy = solve(p)
        oracle = brute_force_solve(p)
        assert abs(greedy.objective_value - oracle.objective_value) <= 1e-9


# -- the greedy fill against its earlier form ---------------------------------


def keyed_greedy(p):
    """The greedy fill as it was written before it sorted plain tuples:
    a key function over (d*e, d, index), then ``min`` and ``max``."""
    if p.limit <= 0.0:
        return {entry.vehicle_id: 0.0 for entry in p.entries}, 0.0
    values = {}
    total = 0.0
    costed = []
    for index, entry in enumerate(p.entries):
        if entry.emission_rate == 0.0:
            values[entry.vehicle_id] = 1.0
            total += 1.0 / entry.density
        else:
            key = entry.density * entry.emission_rate
            costed.append((key, entry.density, index, entry))
    costed.sort(key=lambda item: item[:3])
    remaining = p.limit
    for _, _, _, entry in costed:
        x = min(1.0, remaining / entry.emission_rate)
        if x < 0.0:
            x = 0.0
        values[entry.vehicle_id] = x
        total += x / entry.density
        remaining = max(0.0, remaining - x * entry.emission_rate)
    return values, total


# Few distinct values, so equal d*e with unequal d (4 x 1 = 2 x 2 = 1 x 4),
# equal d, equal entries and zero rates all occur often; the extremes make
# remaining / e overflow and the budget run out exactly.
tie_densities = st.one_of(st.sampled_from([1.0, 2.0, 4.0, 1.5, 3.0]), st.floats(1.0, 1e6))
tie_rates = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 0.75, 5e-324]), st.floats(0.0, 1e6)
)


@st.composite
def tied_problems(draw):
    pairs = draw(st.lists(st.tuples(tie_densities, tie_rates), max_size=40))
    ids = draw(st.permutations([f"v{i:02d}" for i in range(len(pairs))]))
    rates = [e for _, e in pairs]
    limit = draw(
        st.one_of(
            st.sampled_from([0.0, -1.0, 1.0, 2.0, 1e-300]),
            st.floats(-10.0, 1e7),
            # exactly the sum of a prefix of the rates
            st.integers(0, len(rates)).map(lambda k: float(sum(rates[:k]))),
        )
    )
    return problem([(vid, d, e) for vid, (d, e) in zip(ids, pairs)], limit)


@st.composite
def early_spend_problems(draw):
    """Problems whose budget runs out a few entries into the fill order.

    The limit is the rates of the first k entries in fill order, summed,
    plus a residue: none, a tiny positive one (so the rest of the fill
    keeps getting subnormal or tiny x instead of stopping), or a fraction
    of the next rate.  With up to 150 entries the zero tail is long.
    """
    pairs = draw(st.lists(st.tuples(tie_densities, tie_rates), min_size=1, max_size=150))
    ids = draw(st.permutations([f"v{i:03d}" for i in range(len(pairs))]))
    fill = sorted((d * e, d, i) for i, (d, e) in enumerate(pairs) if e > 0.0)
    k = draw(st.integers(0, min(len(fill), 4)))
    spent = 0.0
    for _, _, i in fill[:k]:
        spent += pairs[i][1]
    residue = draw(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-15, 1e-9, 0.5]))
    if residue == 0.5 and k < len(fill):
        residue = pairs[fill[k][2]][1] * draw(st.floats(0.0, 1.0))
    limit = spent + residue
    if limit <= 0.0:
        limit = draw(st.sampled_from([5e-324, 1e-300]))
    return problem([(vid, d, e) for vid, (d, e) in zip(ids, pairs)], limit)


@settings(max_examples=500, deadline=None)
@given(st.one_of(tied_problems(), early_spend_problems()))
def test_solve_matches_the_keyed_greedy_bit_for_bit(p):
    values, total = keyed_greedy(p)
    assignment = solve(p)
    assert [(vid, x.hex()) for vid, x in assignment.values.items()] == [
        (vid, x.hex()) for vid, x in values.items()
    ]
    assert assignment.objective_value.hex() == total.hex()
