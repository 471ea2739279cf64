"""Average-speed tailpipe emission model.

A vehicle's emission rate is a polynomial curve of its average speed:

    rate_g_per_km(v) = (k / v) * (a + b*v + c*v^2 + d*v^3 + e*v^4 + f*v^5 + g*v^6)

with ``v`` in km/h.  Rates convert to the per-minute units used by the
budget optimizer as ``rate_g_per_km * v / 60`` (g/km * km/h = g/h, /60 =
g/min).  The model tracks one pollutant, CO, the single number the
budget rates each vehicle by, so a coefficient set is keyed by EURO class
alone (1..4, lower class = dirtier vehicle).  Sets are normally loaded
from a coefficient table file; see :meth:`CoefficientTable.from_csv` for
the format and :func:`load_default_table` for the bundled illustrative
values.

The curve has a 1/v singularity, so speeds must be strictly positive when
evaluating the g/km form.  A stationary vehicle is defined to emit 0 g/min
(idling is outside this model), which :func:`vehicle_emission_rate` handles
without touching the singular form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

logger = logging.getLogger(__name__)

EURO_CLASSES = (1, 2, 3, 4)

# Speed domain (km/h) over which bundled tables are validated.
SPEED_DOMAIN = (1.0, 130.0)

# Grid used for load-time table checks: domain endpoints plus every 5 km/h.
_CHECK_SPEEDS = (SPEED_DOMAIN[0],) + tuple(
    float(v) for v in range(5, int(SPEED_DOMAIN[1]) + 1, 5)
)


class ConfigurationError(Exception):
    """A coefficient table is missing entries or violates its invariants."""


class EmissionModelError(Exception):
    """The emission curve produced a non-finite value."""


@dataclass(frozen=True)
class EmissionCoefficients:
    """Polynomial parameters of the average-speed curve for one vehicle class.

    The names ``k, a..g`` follow the curve definition in the module
    docstring; they are unrelated to the optimizer's per-vehicle symbols.
    """

    k: float
    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0
    g: float = 0.0


def _curve_g_per_km(coeffs: EmissionCoefficients, v: float) -> float:
    """The curve's raw value at speed ``v`` > 0: neither clamped nor checked."""
    poly = (
        coeffs.a
        + coeffs.b * v
        + coeffs.c * v**2
        + coeffs.d * v**3
        + coeffs.e * v**4
        + coeffs.f * v**5
        + coeffs.g * v**6
    )
    return coeffs.k / v * poly


def emission_rate_g_per_km(coeffs: EmissionCoefficients, v: float) -> float:
    """Evaluate the average-speed curve at speed ``v`` (km/h), in g/km.

    Raises ValueError for v <= 0 (the k/v term is singular at 0) and
    EmissionModelError if the result is not finite.  Negative polynomial
    values are physically meaningless and clamp to 0 with a warning.
    """
    if v <= 0:
        raise ValueError("speed must be positive")
    rate = _curve_g_per_km(coeffs, v)
    if not math.isfinite(rate):
        raise EmissionModelError(f"emission rate is not finite at v={v} for {coeffs}")
    if rate < 0.0:
        logger.warning("negative emission rate %g at v=%g clamped to 0", rate, v)
        return 0.0
    return rate


def to_g_per_min(rate_gkm: float, v: float) -> float:
    """Convert a g/km rate at speed ``v`` (km/h) to g/min."""
    if rate_gkm < 0:
        raise ValueError("rate must be non-negative")
    if v < 0:
        raise ValueError("speed must be non-negative")
    return rate_gkm * v / 60.0


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficient sets keyed by EURO class.

    A non-empty table must be total on EURO classes 1..4, and dirtier
    (lower) classes must emit at least as much as cleaner ones at any
    fixed speed.  Both properties, and that every curve is finite and
    non-negative before the runtime clamp, are checked when a table is
    constructed, over a sampled speed grid spanning ``SPEED_DOMAIN``.
    """

    entries: Mapping[int, EmissionCoefficients]

    def __post_init__(self) -> None:
        self._validate()
        # memo of rate(); not a field, so equality and repr ignore it
        object.__setattr__(self, "_rates", {})

    def rate(self, euro_class: int, v: float) -> float:
        """:func:`vehicle_emission_rate` on this table, memoised per
        (euro_class, speed).

        Simulated speeds are edge limits or pinned values, so there are few
        keys.  A call that raises is not cached and raises again.
        """
        key = (euro_class, v)
        rate = self._rates.get(key)
        if rate is None:
            rate = self._rates[key] = vehicle_emission_rate(euro_class, self, v)
        return rate

    def lookup(self, euro_class: int) -> EmissionCoefficients:
        try:
            return self.entries[euro_class]
        except KeyError:
            raise ConfigurationError(f"no coefficients for euro_class={euro_class}") from None

    def _validate(self) -> None:
        problems: list[str] = []
        for cls, coeffs in self.entries.items():
            if cls not in EURO_CLASSES:
                problems.append(f"unknown euro_class {cls!r}")
                continue
            # the raw curve: the runtime clamp would hide a negative rate
            for v in _CHECK_SPEEDS:
                rate = _curve_g_per_km(coeffs, v)
                if not math.isfinite(rate):
                    problems.append(f"class {cls}: non-finite rate at v={v}")
                    break
                if rate < 0:
                    problems.append(f"class {cls}: negative rate at v={v}")
                    break
        missing = [c for c in EURO_CLASSES if c not in self.entries]
        if missing and self.entries:
            problems.append(f"missing classes {missing}")
        elif not missing and not problems:
            # Lower class = dirtier: rate must be non-decreasing as the
            # class number decreases, at every sampled speed.  Every curve
            # is finite and non-negative here, so the raw value is the rate.
            for v in _CHECK_SPEEDS:
                rates = [_curve_g_per_km(self.entries[c], v) for c in EURO_CLASSES]
                if any(hi < lo for hi, lo in zip(rates, rates[1:])):
                    problems.append(f"class ordering violated at v={v}")
                    break
        if problems:
            raise ConfigurationError("invalid coefficient table: " + "; ".join(problems))

    @classmethod
    def from_csv(cls, text: str) -> "CoefficientTable":
        """Parse a coefficient table from its text form.

        The format is CSV with ``#`` comment lines and a header row::

            euro_class,pollutant,k,a,b,c,d,e,f,g

        The ``pollutant`` column must read ``CO`` on every row, the one
        species the model tracks.  Units are stated in the file header:
        rates on a g/km basis, speeds in km/h.
        """
        entries: dict[int, EmissionCoefficients] = {}
        header: list[str] | None = None
        expected = ["euro_class", "pollutant", "k", "a", "b", "c", "d", "e", "f", "g"]
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [part.strip() for part in line.split(",")]
            if header is None:
                header = fields
                if header != expected:
                    raise ConfigurationError(
                        f"line {lineno}: header must be {','.join(expected)}"
                    )
                continue
            if len(fields) != len(expected):
                raise ConfigurationError(
                    f"line {lineno}: expected {len(expected)} fields, got {len(fields)}"
                )
            try:
                euro_class = int(fields[0])
                if fields[1] != "CO":
                    raise ValueError(f"pollutant must be CO, got {fields[1]!r}")
                values = [float(x) for x in fields[2:]]
            except ValueError as exc:
                raise ConfigurationError(f"line {lineno}: {exc}") from None
            if euro_class in entries:
                raise ConfigurationError(
                    f"line {lineno}: duplicate entry for class {euro_class}"
                )
            entries[euro_class] = EmissionCoefficients(*values)
        if header is None:
            raise ConfigurationError("coefficient table has no header row")
        return cls(entries=entries)

    @classmethod
    def from_file(cls, path) -> "CoefficientTable":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_csv(handle.read())


def load_default_table() -> CoefficientTable:
    """Load the coefficient table bundled with the package.

    The bundled values are illustrative, chosen to satisfy the class
    ordering invariant with margin; they are not calibrated against any
    measured fleet.
    """
    resource = resources.files("ecofence") / "data" / "default_coefficients.csv"
    return CoefficientTable.from_csv(resource.read_text(encoding="utf-8"))


def vehicle_emission_rate(euro_class: int, table: CoefficientTable, v: float) -> float:
    """Per-minute emission rate for a vehicle of the given class at speed ``v``.

    A stationary vehicle (v = 0) emits 0 g/min by definition; the singular
    g/km form is never evaluated in that case.
    """
    coeffs = table.lookup(euro_class)
    if v < 0:
        raise ValueError("speed must be non-negative")
    if v == 0:
        return 0.0
    return to_g_per_min(emission_rate_g_per_km(coeffs, v), v)
