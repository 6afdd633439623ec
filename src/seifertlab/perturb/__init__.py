"""Numerical lab for second-order perturbations of Morse-Bott functions.

Given a family S_eps = S0 + eps*S1 + eps^2*S2 on R^d with S0 Morse-Bott and
S1 Morse-Bott on Z0 = Crit(S0), the critical points of S_eps for small eps
localise at the critical points of the leading term

    f = (1/2) dS1(lambda) + S2   restricted to Z1 = Crit(S1|Z0),

where lambda solves the Lagrange-multiplier system Hess S0 (lambda) = -dS1.
The lab continues critical points numerically with damped Newton, computes
Morse indices from Hessian inertia, checks them against the prediction

    ind(S_eps, x) = ind(S0, x) + ind(+-S1|Z0, x) + ind(f, x),

and verifies signed counts against Euler characteristics of the Z0
components.
"""

from .fields import ScalarField, PerturbationFamily
from .scenarios import (
    Scenario,
    Z0Component,
    Z1Site,
    circle_scenario,
    linear_scenario,
    scenario_by_name,
    scenario_names,
    sphere_scenario,
)
from .lab import (
    DegenerateCriticalPointError,
    ExperimentReport,
    FoundPoint,
    MultiplierError,
    NewtonResult,
    PredictedPoint,
    lagrange_multiplier,
    leading_term,
    newton_critical_point,
    predicted_critical_points,
    run_localisation,
)

__all__ = [
    "ScalarField",
    "PerturbationFamily",
    "Scenario",
    "Z0Component",
    "Z1Site",
    "circle_scenario",
    "sphere_scenario",
    "linear_scenario",
    "scenario_by_name",
    "scenario_names",
    "NewtonResult",
    "newton_critical_point",
    "DegenerateCriticalPointError",
    "MultiplierError",
    "lagrange_multiplier",
    "leading_term",
    "PredictedPoint",
    "predicted_critical_points",
    "FoundPoint",
    "ExperimentReport",
    "run_localisation",
]
