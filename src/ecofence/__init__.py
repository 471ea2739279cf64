"""Emission regulation inside dynamic geofences around detected cyclists.

The package simulates hybrid vehicles that share an aggregate tailpipe
emission budget whenever a cyclist is detected nearby: a circular geofence
follows the detection, an assignment problem hands each vehicle inside a
probability of staying in polluting mode, and a weighted coin toss per
vehicle enacts it.  A background pollution reading closes the loop by
setting the budget.
"""

from .coordinator import toss_polluting
from .emissions import (
    emission_rate_g_per_km,
    load_default_table,
    to_g_per_min,
    vehicle_emission_rate,
)
from .engine import run
from .optimizer import (
    GeofenceProblem,
    ProblemEntry,
    brute_force_solve,
    budget_spend,
    solve,
)
from .reporting import run_compare
from .scenario import load_scenario

# The names the command line, the tests and the benchmark import from the
# package; everything else is imported from its module.
__all__ = [
    "GeofenceProblem",
    "ProblemEntry",
    "brute_force_solve",
    "budget_spend",
    "emission_rate_g_per_km",
    "load_default_table",
    "load_scenario",
    "run",
    "run_compare",
    "solve",
    "to_g_per_min",
    "toss_polluting",
    "vehicle_emission_rate",
]

__version__ = "0.1.0"
