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
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

from .errors import AlphaOutOfRange, BetaOutOfRange, NonFiniteStart, NonPositiveHorizon, RhoTooLarge, UndefinedTimeZero

__all__ = ["PerturbationParams", "validate", "beyond_mao", "time_zero_level", "STOCK_STUDY"]

# the stock desk-scale study: experiments.default_study's defaults, and the CLI's, kept here free of numpy
STOCK_STUDY = MappingProxyType({
    "model_id": "affine", "alpha": 0.6, "beta": -1.0, "x0": 0.0, "horizon": 1.0, "grid_steps": 4096,
    "n_list": (8, 16, 32, 64), "p_list": (2.0, 4.0), "paths": 2000, "master_seed": 42, "scheme": "new",
})


@dataclass(frozen=True)
class PerturbationParams:
    """Validated (alpha, beta, x0, horizon) tuple with derived rho.

    Instances are immutable.  Construct via :func:`validate`; building one
    directly skips the well-posedness gate.
    """

    alpha: float
    beta: float
    x0: float
    horizon: float
    rho: float


def validate(alpha: float, beta: float, x0: float, horizon: float) -> PerturbationParams:
    """Check the well-posedness condition and return a validated record.

    Raises AlphaOutOfRange / BetaOutOfRange when a parameter reaches 1,
    NonFiniteStart when x0 is not finite, RhoTooLarge when
    |alpha*beta| >= (1-alpha)(1-beta), and NonPositiveHorizon when
    horizon <= 0.  Non-finite inputs are rejected with the matching error.
    """
    alpha = float(alpha)
    beta = float(beta)
    x0 = float(x0)
    horizon = float(horizon)
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
    return PerturbationParams(alpha=alpha, beta=beta, x0=x0, horizon=horizon, rho=rho)


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
