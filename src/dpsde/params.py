"""Perturbation parameters for the doubly perturbed SDE.

The equation perturbs the state by ``alpha`` times its running maximum and
``beta`` times its running minimum.  Well-posedness requires

    alpha < 1,  beta < 1,  |alpha*beta| < (1 - alpha)(1 - beta),

the last condition being |rho| < 1 for rho = alpha*beta / ((1-alpha)(1-beta)).
All inequalities are strict: at |rho| = 1 the fixed-point contraction behind
the running-extrema representations breaks down, so no epsilon slack is
applied.  The accept/reject decision is made on the cross-multiplied form
|alpha*beta| < (1-alpha)(1-beta), which is the same strict inequality without
a division that could round across the boundary; rho is carried as derived
data.  Building a PerturbationParams runs this gate, whether directly, by validate (the same class) or
by dataclasses.replace, so every instance satisfies it; time_zero_level stays outside the gate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import AlphaOutOfRange, BetaOutOfRange, NonFiniteStart, NonPositiveHorizon, RhoTooLarge, UndefinedTimeZero

__all__ = ["PerturbationParams", "validate", "beyond_mao", "time_zero_level", "STOCK_STUDY", "SCHEME_KINDS"]

_FIELD_ERRORS = {"alpha": AlphaOutOfRange, "beta": BetaOutOfRange, "x0": NonFiniteStart, "horizon": NonPositiveHorizon}

SCHEME_KINDS = ("new", "old", "general")  # the delay schemes of dpsde.scheme, read by the CLI without numpy
# the stock desk-scale study: experiments.default_study's defaults, and the CLI's, kept here free of numpy
STOCK_STUDY = MappingProxyType({
    "model_id": "affine", "alpha": 0.6, "beta": -1.0, "x0": 0.0, "horizon": 1.0, "grid_steps": 4096,
    "n_list": (8, 16, 32, 64), "p_list": (2.0, 4.0), "paths": 2000, "master_seed": 42, "scheme": "new",
})


@dataclass(frozen=True)
class PerturbationParams:
    """Validated (alpha, beta, x0, horizon) with derived rho; immutable.

    Building one is the well-posedness gate.  Each field must be a numbers.Real (numpy's included) within the
    float range, else its own error below is raised; it is coerced with float(); then, in this order,
    AlphaOutOfRange / BetaOutOfRange is raised when a parameter reaches 1 or is not finite, NonFiniteStart
    when x0 is not finite, RhoTooLarge when |alpha*beta| >= (1-alpha)(1-beta), and NonPositiveHorizon
    unless the horizon is finite and > 0.  rho is computed here and cannot be passed.
    """

    alpha: float
    beta: float
    x0: float
    horizon: float
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        alpha, beta, x0, horizon = (real_number(f, getattr(self, f), error) for f, error in _FIELD_ERRORS.items())
        if not math.isfinite(alpha) or alpha >= 1.0:
            raise AlphaOutOfRange(f"alpha must be finite and < 1, got {alpha}")
        if not math.isfinite(beta) or beta >= 1.0:
            raise BetaOutOfRange(f"beta must be finite and < 1, got {beta}")
        if not math.isfinite(x0):
            raise NonFiniteStart(f"x0 must be finite, got {x0}")
        denom = (1.0 - alpha) * (1.0 - beta)  # > 0 since alpha, beta < 1
        rho = (alpha * beta) / denom
        if not abs(alpha * beta) < denom:
            raise RhoTooLarge(f"rho={rho!r}: need |alpha*beta| < (1-alpha)(1-beta)")
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise NonPositiveHorizon(f"horizon must be finite and > 0, got {horizon}")
        for name, value in zip(("alpha", "beta", "x0", "horizon", "rho"), (alpha, beta, x0, horizon, rho)):
            object.__setattr__(self, name, value)  # the dataclass is frozen


def real_number(name: str, value, error: type) -> float:
    """value as a float if its type is a real number type, numpy's included (numbers.Real); else raise error.

    A string is refused, not parsed, and so is a real number beyond the float range."""
    if not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond the floats
        raise error(f"{name} must be a real number within the float range, got {value!r}") from None


validate = PerturbationParams  # validate(alpha, beta, x0, horizon): the gate under its older name


def beyond_mao(params: PerturbationParams) -> bool:
    """True iff |alpha| + |beta| >= 1, the regime the scheme newly covers.

    Earlier delayed-approximation analyses needed |alpha| + |beta| < 1; the
    running-extrema scheme only needs |rho| < 1, so parameter pairs with
    beyond_mao(...) == True are the interesting test cases.
    """
    return abs(params.alpha) + abs(params.beta) >= 1.0


def time_zero_level(params: PerturbationParams) -> float:
    """x0 / (1 - alpha - beta), the limit equation's level at time zero; raises
    UndefinedTimeZero where alpha + beta rounds to 1, as validate lets (0.3, 0.7) do."""
    denom = 1.0 - params.alpha - params.beta
    if abs(denom) < 1e-15:
        raise UndefinedTimeZero(f"alpha + beta = {params.alpha + params.beta!r} leaves x0/(1-alpha-beta) undefined")
    return params.x0 / denom
