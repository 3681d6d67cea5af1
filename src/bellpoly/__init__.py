"""Bell-type inequality statistics, correlation-polytope membership, and the
rho-eps measurement model.

Only the main entry points and the error types are re-exported here; the
rest is imported from its submodule (bellpoly.core, bellpoly.pitowsky, ...)."""

from .core import (
    CapacityError,
    Scenario,
    ShapeError,
    ValidationError,
    bell3_vector,
    ch_shape_vector,
    chsh_statistic,
    clauser_horne_statistic,
)
from .epsrho import (
    EpsRhoParams,
    MeasurementDirections,
    chsh_closed_form,
    closed_form_expectation,
    monte_carlo_expectation,
    sweep,
    violation_boundary,
)
from .models import distinguish_events, vessels_scenario
from .pitowsky import (
    bell_inequality_set_n3,
    ch_inequality_set,
    enumerate_vertices,
    membership,
    product_representation,
    verify_representation,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "EpsRhoParams",
    "MeasurementDirections",
    "Scenario",
    "ShapeError",
    "ValidationError",
    "bell3_vector",
    "bell_inequality_set_n3",
    "ch_inequality_set",
    "ch_shape_vector",
    "chsh_closed_form",
    "chsh_statistic",
    "clauser_horne_statistic",
    "closed_form_expectation",
    "distinguish_events",
    "enumerate_vertices",
    "membership",
    "monte_carlo_expectation",
    "product_representation",
    "sweep",
    "verify_representation",
    "violation_boundary",
    "vessels_scenario",
]
