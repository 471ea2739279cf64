"""The spend ledger: a fence row's realized in-fence rate, accounted for
from the trace and the command rows alone.

On a row where every live fence tossed at that tick with no actuation
latency, each tossed vehicle is in its commanded mode, so the row's
in-fence rate is the sum of three terms:

* the expected spend, sum(x * e) over the toss rows;
* the coin's deviation, (outcome - x) * e, which only the one fractional
  vehicle of a toss can make nonzero (x = 1 always lands polluting and
  x = 0 never does);
* the rates of the members left out of the problem, the non-hybrids:
  a pure ICE vehicle is always polluting, and a pure EV adds nothing.
"""

import math

import pytest

from ecofence import engine
from ecofence.scenario import load_scenario
from tests.conftest import FENCE_MIX, mixed_demo_ring, tosses

# The ledger sums in another order than the engine does.
REL_TOL = 1e-9


def ledger_gaps(result, table):
    """(gap, in-fence rate) of each row where every live fence tossed."""
    by_time = {}  # sim_time -> the tosses of that tick
    for toss in tosses(result.commands):
        by_time.setdefault(toss.sim_time, []).append(toss)
    gaps = []
    for row in result.trace.rows:
        tossed = by_time.get(row.sim_time, [])
        if not row.fences or {f.fence_id for f in row.fences} != {t.fence_id for t in tossed}:
            continue
        assert all(t.effective_time == t.sim_time for t in tossed)
        tossed_ids = [vid for t in tossed for vid in t.vehicle_ids]
        if len(set(tossed_ids)) < len(tossed_ids):
            continue  # overlapping fences tossed a vehicle twice
        members = set().union(*(f.member_ids for f in row.fences))
        assert set(tossed_ids) <= members
        columns = [(x, e, mode) for t in tossed for x, e, mode in zip(t.assignments, t.rates, t.modes)]
        expected = math.fsum(x * e for x, e, _ in columns)
        outcome = math.fsum(((mode == "polluting") - x) * e for x, e, mode in columns)
        left_out = math.fsum(
            table.rate(euro_class, speed)
            for vid, euro_class, speed, mode in zip(row.vehicle_ids, row.euro_classes, row.speeds, row.modes)
            if vid in members and vid not in tossed_ids and mode == "polluting"
        )
        gaps.append((row.in_fence_rate - (expected + outcome + left_out), row.in_fence_rate))
    return gaps


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
@pytest.mark.parametrize("name", ["demo_ring", "demo_lifecycle", "demo_slack", "mixed_fence"])
def test_in_fence_rate_is_the_toss_ledger_on_every_fence_row(name, seed, request, table, tmp_path):
    if name == "mixed_fence":
        # pure EVs and pure ICE vehicles in the fence
        scenario = load_scenario(mixed_demo_ring(tmp_path / "mixed_fence.json", FENCE_MIX))
    else:
        scenario = request.getfixturevalue(name)
    assert scenario.controller.actuation_latency == 0.0
    result = engine.run(scenario, seed)
    gaps = ledger_gaps(result, table)
    assert len(gaps) >= 30
    off = [(gap, rate) for gap, rate in gaps if abs(gap) > REL_TOL * max(1.0, rate)]
    assert off == []


def coin_deviation(result):
    """(sum of (outcome - x) * e, its standard error, rows summed) over
    every fractional toss row of a run; the error is sqrt(sum x(1 - x) e^2),
    since each row's outcome is an independent Bernoulli(x) draw."""
    deviation, variance = [], []
    for toss in tosses(result.commands):
        for x, e, mode in zip(toss.assignments, toss.rates, toss.modes):
            if 0.0 < x < 1.0:
                deviation.append(((mode == "polluting") - x) * e)
                variance.append(x * (1.0 - x) * e * e)
    return math.fsum(deviation), math.sqrt(math.fsum(variance)), len(deviation)


# demo_slack's budget covers every member, so it has no fractional x
@pytest.mark.parametrize("seed", [1, 2, 3, 42])
@pytest.mark.parametrize("name", ["demo_ring", "demo_lifecycle"])
def test_the_coins_realize_the_expected_spend_within_four_standard_errors(name, seed, request):
    result = engine.run(request.getfixturevalue(name), seed)
    deviation, error, rows = coin_deviation(result)
    assert rows >= 30 and error > 0.0
    assert abs(deviation / error) <= 4.0
