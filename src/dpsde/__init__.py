"""Approximation schemes and convergence studies for doubly perturbed SDEs.

The state is perturbed by alpha times its running maximum and beta times
its running minimum; coefficients may be Lipschitz or concave-modulus
regular.  The package provides delay-based (Caratheodory) approximation
schemes built on running-extrema representations, a closed-form-case
reference solver for the limit equation, a Skorohod reflection map, and a
deterministic Monte Carlo harness for strong-convergence studies.
"""

from .driver import (
    GridPath,
    SimGrid,
    brownian_values,
    coarsen_values,
    generate_increments,
    lag_map,
    make_grid,
)
from .errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    DegenerateFit,
    DelayNotAligned,
    DelayTooFine,
    DPSDEError,
    EmptyInput,
    InvalidGrid,
    InvalidWorkerCount,
    NegativeStart,
    NonFinitePath,
    NonFiniteStart,
    NonPositiveHorizon,
    NonZeroStart,
    RhoTooLarge,
)
from .experiments import (
    ConvergenceReport,
    ErrorEstimate,
    MomentEstimate,
    RateFit,
    SchemeComparison,
    StudySpec,
    compare_schemes,
    default_study,
    moment_scan,
    rate_fit,
    run_convergence,
)
from .models import (
    CoefficientModel,
    Lipschitz,
    Modulus,
    Rho1,
    Rho2,
    builtin_catalog,
    get_model,
)
from .params import PerturbationParams, beyond_mao, validate
from .reference import (
    MaxSide,
    MinSide,
    exact_singly_perturbed,
    solve_reference,
)
from .reflect import skorohod_map
from .scheme import (
    simulate_general_x0,
    simulate_new,
    simulate_old,
)

__version__ = "0.1.0"
