"""Matrix workbench for the angular momentum algebra of covariantly
quantized light on truncated indefinite-metric Fock spaces."""

from . import constraints, dirac, errors, fields, fock, modes, operators, report, suites
from .fock import (
    FockSpace,
    OperatorMatrix,
    annihilator,
    build_fock,
    commutator,
    creator,
    expectation,
    form_bracket,
    indefinite_inner,
    lift_forms,
    metric_operator,
)
from .modes import (
    CartesianGrid,
    SphericalShell,
    build_cartesian_modeset,
    orbital_matrices,
    polarization_frame,
    spin_matrices,
)
from .suites import SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "CartesianGrid",
    "FockSpace",
    "OperatorMatrix",
    "SphericalShell",
    "SuiteConfig",
    "annihilator",
    "build_cartesian_modeset",
    "build_fock",
    "commutator",
    "constraints",
    "creator",
    "dirac",
    "errors",
    "expectation",
    "fields",
    "fock",
    "form_bracket",
    "indefinite_inner",
    "lift_forms",
    "metric_operator",
    "modes",
    "operators",
    "orbital_matrices",
    "polarization_frame",
    "report",
    "run_suite",
    "spin_matrices",
    "suites",
]
