"""Emission regulation inside dynamic geofences around detected cyclists.

The package simulates hybrid vehicles that share an aggregate tailpipe
emission budget whenever a cyclist is detected nearby: a circular geofence
follows the detection, an assignment problem hands each vehicle inside a
probability of staying in polluting mode, and a weighted coin toss per
vehicle enacts it.  A background pollution reading closes the loop by
setting the budget.
"""

from .coordinator import (
    CommandRecord,
    ControllerConfig,
    Geofence,
    GeofenceCoordinator,
    ModeCommand,
    Powertrain,
    VehicleMode,
    VehicleSnapshot,
    members,
    toss_polluting,
)
from .emissions import (
    CoefficientTable,
    ConfigurationError,
    EmissionCoefficients,
    EmissionModelError,
    emission_rate_g_per_km,
    load_default_table,
    to_g_per_min,
    vehicle_emission_rate,
)
from .engine import (
    RunResult,
    ScenarioTrace,
    World,
    detect,
    run,
    step,
)
from .network import Edge, RoadNetwork
from .optimizer import (
    Assignment,
    GeofenceProblem,
    ProblemEntry,
    brute_force_solve,
    budget_spend,
    objective,
    solve,
)
from .reporting import (
    CompareResult,
    RunSummary,
    emit_plot_data,
    run_compare,
    summarize,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_density_file,
    load_scenario,
    parse_scenario,
    save_scenario,
)

__all__ = [
    "Assignment",
    "CoefficientTable",
    "CommandRecord",
    "CompareResult",
    "ConfigurationError",
    "ControllerConfig",
    "Edge",
    "EmissionCoefficients",
    "EmissionModelError",
    "Geofence",
    "GeofenceCoordinator",
    "GeofenceProblem",
    "ModeCommand",
    "Powertrain",
    "ProblemEntry",
    "RoadNetwork",
    "RunResult",
    "RunSummary",
    "Scenario",
    "ScenarioError",
    "ScenarioTrace",
    "VehicleMode",
    "VehicleSnapshot",
    "World",
    "brute_force_solve",
    "budget_spend",
    "detect",
    "emission_rate_g_per_km",
    "emit_plot_data",
    "load_default_table",
    "load_density_file",
    "load_scenario",
    "members",
    "objective",
    "parse_scenario",
    "run",
    "run_compare",
    "save_scenario",
    "solve",
    "step",
    "summarize",
    "to_g_per_min",
    "toss_polluting",
    "vehicle_emission_rate",
]

__version__ = "0.1.0"
