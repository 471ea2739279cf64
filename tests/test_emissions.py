import math

import pytest
from hypothesis import given, strategies as st

from ecofence.emissions import (
    CoefficientTable,
    ConfigurationError,
    EmissionCoefficients,
    EmissionModelError,
    emission_rate_g_per_km,
    load_default_table,
    to_g_per_min,
    vehicle_emission_rate,
)


def test_rate_reduces_to_ka_over_v():
    coeffs = EmissionCoefficients(k=1.0, a=60.0)
    assert emission_rate_g_per_km(coeffs, 30.0) == 2.0


def test_rate_linear_term_cancels_speed():
    coeffs = EmissionCoefficients(k=1.0, a=0.0, b=1.0)
    for v in (1.0, 17.3, 50.0, 130.0):
        assert emission_rate_g_per_km(coeffs, v) == pytest.approx(1.0)


def test_rate_matches_hand_evaluated_polynomial():
    # Independently evaluated before the build: (0.5/50)*(10 + 0.2*50 + 0.001*50^2) = 0.225
    coeffs = EmissionCoefficients(k=0.5, a=10.0, b=0.2, c=0.001)
    assert emission_rate_g_per_km(coeffs, 50.0) == pytest.approx(0.225, abs=1e-12)


def test_rate_rejects_nonpositive_speed():
    coeffs = EmissionCoefficients(k=1.0, a=1.0)
    with pytest.raises(ValueError, match="speed must be positive"):
        emission_rate_g_per_km(coeffs, 0.0)
    with pytest.raises(ValueError, match="speed must be positive"):
        emission_rate_g_per_km(coeffs, -5.0)


def test_rate_clamps_negative_polynomial(caplog):
    coeffs = EmissionCoefficients(k=1.0, a=-10.0)
    with caplog.at_level("WARNING"):
        assert emission_rate_g_per_km(coeffs, 10.0) == 0.0
    assert any("clamped" in message for message in caplog.messages)


def test_rate_nonfinite_is_model_error():
    coeffs = EmissionCoefficients(k=1e308, a=1e308)
    with pytest.raises(EmissionModelError):
        emission_rate_g_per_km(coeffs, 1e-300)


def test_to_g_per_min_conversion():
    assert to_g_per_min(2.0, 30.0) == 1.0
    assert to_g_per_min(123.4, 0.0) == 0.0
    assert to_g_per_min(1.5, 40.0) == 1.0


def test_to_g_per_min_rejects_negative():
    with pytest.raises(ValueError):
        to_g_per_min(-0.1, 10.0)
    with pytest.raises(ValueError):
        to_g_per_min(1.0, -1.0)


def test_vehicle_rate_composes(table):
    coeffs = EmissionCoefficients(k=1.0, a=60.0)
    custom = CoefficientTable(
        entries={c: coeffs for c in (1, 2, 3, 4)}
    )
    assert vehicle_emission_rate(3, custom, 30.0) == 1.0


def test_vehicle_rate_zero_speed_is_zero(table):
    assert vehicle_emission_rate(1, table, 0.0) == 0.0


def test_vehicle_rate_missing_entry_is_configuration_error(table):
    with pytest.raises(ConfigurationError):
        vehicle_emission_rate(1, CoefficientTable(entries={}), 30.0)


def test_vehicle_rate_rejects_negative_speed(table):
    with pytest.raises(ValueError):
        vehicle_emission_rate(1, table, -1.0)


def test_default_table_class_ordering_at_40(table):
    dirty = vehicle_emission_rate(1, table, 40.0)
    clean = vehicle_emission_rate(4, table, 40.0)
    assert dirty >= clean
    assert dirty > 0 and clean > 0


@pytest.mark.parametrize("v", [1.0, 10.0, 30.0, 50.0, 90.0, 130.0])
def test_default_table_monotone_in_class(table, v):
    rates = [emission_rate_g_per_km(table.lookup(c), v) for c in (1, 2, 3, 4)]
    assert rates == sorted(rates, reverse=True)


@given(st.floats(min_value=1.0, max_value=130.0, allow_nan=False))
def test_default_table_rates_finite_nonnegative(v):
    table = load_default_table()
    for cls in (1, 2, 3, 4):
        rate = emission_rate_g_per_km(table.lookup(cls), v)
        assert math.isfinite(rate)
        assert rate >= 0.0


def test_composed_rate_limit_near_zero_speed():
    # (k/v)*a * v/60 == k*a/60 exactly when b..g are 0; check at v -> 0+
    coeffs = EmissionCoefficients(k=2.0, a=33.0)
    expected = 2.0 * 33.0 / 60.0
    composed = to_g_per_min(emission_rate_g_per_km(coeffs, 0.001), 0.001)
    assert abs(composed - expected) <= 1e-6 * abs(expected)


def test_table_rejects_missing_class():
    entries = {c: EmissionCoefficients(k=1.0, a=10.0) for c in (1, 2, 3)}
    with pytest.raises(ConfigurationError, match="missing classes"):
        CoefficientTable(entries=entries)


def test_table_rejects_class_ordering_violation():
    entries = {c: EmissionCoefficients(k=1.0, a=float(c)) for c in (1, 2, 3, 4)}
    with pytest.raises(ConfigurationError, match="ordering"):
        CoefficientTable(entries=entries)


def test_table_csv_round_trip(table):
    lines = ["euro_class,pollutant,k,a,b,c,d,e,f,g"]
    for cls, co in sorted(table.entries.items()):
        lines.append(
            f"{cls},CO,{co.k},{co.a},{co.b},{co.c},{co.d},{co.e},{co.f},{co.g}"
        )
    reparsed = CoefficientTable.from_csv("\n".join(lines))
    assert reparsed == table


def test_table_csv_bad_header():
    with pytest.raises(ConfigurationError, match="header"):
        CoefficientTable.from_csv("class,pollutant\n1,CO")


def test_table_csv_duplicate_row():
    text = (
        "euro_class,pollutant,k,a,b,c,d,e,f,g\n"
        "1,CO,1,10,0,0,0,0,0,0\n"
        "1,CO,1,11,0,0,0,0,0,0\n"
    )
    with pytest.raises(ConfigurationError, match="duplicate"):
        CoefficientTable.from_csv(text)


def test_table_csv_rejects_a_pollutant_other_than_co():
    text = (
        "euro_class,pollutant,k,a,b,c,d,e,f,g\n"
        "1,CO,1,10,0,0,0,0,0,0\n"
        "2,NOx,1,10,0,0,0,0,0,0\n"
    )
    with pytest.raises(ConfigurationError, match="line 3: .*NOx"):
        CoefficientTable.from_csv(text)


def test_table_csv_with_three_classes_reports_the_missing_class():
    rows = "".join(f"{c},CO,1,10,0,0,0,0,0,0\n" for c in (1, 2, 3))
    with pytest.raises(ConfigurationError, match=r"missing classes \[4\]"):
        CoefficientTable.from_csv("euro_class,pollutant,k,a,b,c,d,e,f,g\n" + rows)


# -- memoised rates ------------------------------------------------------------


def demo_speeds(*scenarios):
    """Every speed a vehicle can drive in the given scenarios, plus standstill."""
    speeds = {0.0}
    for scenario in scenarios:
        speeds.update(edge.speed_limit for edge in scenario.network.edges.values())
        speeds.update(entry.speed for entry in scenario.fleet if entry.speed is not None)
    return sorted(speeds)


def test_memoised_rate_equals_uncached_rate_on_bundled_demos(table, demo_ring, demo_slack, demo_lifecycle):
    memo = load_default_table()
    for v in demo_speeds(demo_ring, demo_slack, demo_lifecycle):
        for euro_class in (1, 2, 3, 4):
            expected = vehicle_emission_rate(euro_class, table, v)
            assert memo.rate(euro_class, v) == expected
            assert memo.rate(euro_class, v) == expected  # served from the memo


def test_memoised_rate_does_not_cache_errors(table):
    memo = load_default_table()
    for _ in range(2):
        with pytest.raises(ValueError):
            memo.rate(1, -1.0)
    empty = CoefficientTable(entries={})
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            empty.rate(1, 30.0)


def test_memoised_rates_are_per_table(table):
    flat = CoefficientTable(entries={c: EmissionCoefficients(k=1.0, a=60.0) for c in (1, 2, 3, 4)})
    assert flat.rate(3, 30.0) == 1.0
    assert table.rate(3, 30.0) == vehicle_emission_rate(3, table, 30.0) != 1.0
    assert flat.rate(3, 30.0) == 1.0


def test_memo_does_not_affect_table_equality(table):
    fresh = load_default_table()
    fresh.rate(1, 30.0)
    assert fresh == load_default_table()


def test_table_rejects_a_curve_that_goes_negative():
    # the runtime clamp would rate every vehicle at 0 g/min
    entries = {c: EmissionCoefficients(k=1.0, a=-10.0) for c in (1, 2, 3, 4)}
    with pytest.raises(ConfigurationError, match="class 1: negative rate at v=1.0"):
        CoefficientTable(entries=entries)


def test_complete_table_with_a_non_finite_rate_is_a_configuration_error():
    entries = {c: EmissionCoefficients(k=1e308, a=1e308) for c in (1, 2, 3, 4)}
    with pytest.raises(ConfigurationError, match="class 4: non-finite rate at v=1.0"):
        CoefficientTable(entries=entries)
