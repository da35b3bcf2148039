"""Approximation schemes and convergence studies for doubly perturbed SDEs.

The state is perturbed by alpha times its running maximum and beta times
its running minimum; coefficients may be Lipschitz or concave-modulus
regular.  The package provides delay-based (Caratheodory) approximation
schemes built on running-extrema representations, a closed-form-case
reference solver for the limit equation, a Skorohod reflection map, and a
deterministic Monte Carlo harness for strong-convergence studies.

Each name below loads its module on first access (PEP 562), so
``import dpsde`` and the parameter gate (``dpsde.validate``, the CLI's
``validate``) run without importing numpy; ``_EXPORTS`` names every
public name's home module.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "driver": ("GridPath", "SimGrid", "brownian_values", "coarsen_values", "generate_increments", "lag_map",
               "make_grid"),
    "errors": ("AlphaOutOfRange", "BetaOutOfRange", "DegenerateFit", "DelayNotAligned", "DelayTooFine",
               "DPSDEError", "EmptyInput", "InvalidGrid", "InvalidWorkerCount", "NegativeStart", "NonFinitePath",
               "NonFiniteStart", "NonPositiveHorizon", "NonZeroStart", "RhoTooLarge"),
    "experiments": ("ConvergenceReport", "ErrorEstimate", "RateFit", "SchemeComparison", "StudySpec",
                    "compare_schemes", "default_study", "moment_scan", "rate_fit", "run_convergence"),
    "models": ("CoefficientModel", "Lipschitz", "Modulus", "Rho1", "Rho2", "builtin_catalog", "get_model"),
    "params": ("PerturbationParams", "beyond_mao", "validate"),
    "reference": ("MaxSide", "MinSide", "exact_singly_perturbed", "solve_reference"),
    "reflect": ("skorohod_map",),
    "scheme": ("simulate_general_x0", "simulate_new"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so ``from dpsde import cli`` still imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
