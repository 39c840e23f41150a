"""Numerical laboratory for the fractional heat operator with a Hardy-type
singular potential: exponent formulas, spectral and convolution operators,
a monotone construction scheme, explicit supersolutions, and a regime sweep.
"""

from .constants import (
    ExponentBundle,
    ProblemSpec,
    Regime,
    classify_regime,
    exponents,
    exponents_from,
    lambda_max,
    mu_from_lambda,
    upsilon,
    upsilon_inv,
)
from .lattice import (
    Field,
    Lattice,
    Nodes,
    make_lattice,
    sample,
    weighted_integral,
)
from .kernels import (
    AliasingError,
    NonCausalInput,
    QuadratureError,
    apply_Hs_spectral,
    apply_Js,
    apply_Ls,
    ground_state_residual,
    radial_identity_error,
    radial_power_flap,
    symbol_of_kernel_check,
)
from .extension import PhiProfile, extend_parabolic, extension_checks
from .solver import (
    IterationState,
    TrajectoryReport,
    blowup_functional,
    gaussian_bump_forcing,
    iterate,
    rhs_truncated,
    run,
    singularity_profile,
)
from .supersolution import (
    SearchExhausted,
    SupersolutionCertificate,
    build_w_supersol,
    data_bound,
    find_certificate,
)
from .verifier import CheckReport, VerifierConfig, run_check, run_suite
from .special import gamma_fn

__all__ = [
    "AliasingError",
    "CheckReport",
    "ExponentBundle",
    "Field",
    "IterationState",
    "Lattice",
    "Nodes",
    "NonCausalInput",
    "PhiProfile",
    "ProblemSpec",
    "QuadratureError",
    "Regime",
    "SearchExhausted",
    "SupersolutionCertificate",
    "TrajectoryReport",
    "VerifierConfig",
    "apply_Hs_spectral",
    "apply_Js",
    "apply_Ls",
    "blowup_functional",
    "build_w_supersol",
    "classify_regime",
    "data_bound",
    "exponents",
    "exponents_from",
    "extend_parabolic",
    "extension_checks",
    "find_certificate",
    "gamma_fn",
    "gaussian_bump_forcing",
    "ground_state_residual",
    "iterate",
    "lambda_max",
    "make_lattice",
    "mu_from_lambda",
    "radial_identity_error",
    "radial_power_flap",
    "rhs_truncated",
    "run",
    "run_check",
    "run_suite",
    "sample",
    "singularity_profile",
    "symbol_of_kernel_check",
    "upsilon",
    "upsilon_inv",
    "weighted_integral",
]

__version__ = "0.1.0"
