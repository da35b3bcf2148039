"""Drift/diffusion coefficient catalog with declared regularity.

Each model carries evaluatable ``drift(t, x)`` and ``diffusion(t, x)``
callables plus a regularity tag: either ``Lipschitz(K)`` meaning

    |sigma(t,x)-sigma(t,y)| + |b(t,x)-b(t,y)| <= K |x-y|,
    |sigma(t,0)| + |b(t,0)| <= K,

or ``Modulus(kind)`` meaning, for some p > 2 and a constant C,

    |sigma(t,x)-sigma(t,y)|**p + |b(t,x)-b(t,y)|**p <= C * rho(|x-y|**p)

with rho a concave non-decreasing modulus vanishing at 0: the identity
(Rho1) or the Yamada-Watanabe-style ``-u*log(u)`` with a linear extension
above a small epsilon (Rho2).  The tags are declared data, the paper's
hypotheses on the coefficients; nothing here evaluates them, and the test
suite spot-checks each catalog model against its tag.

Coefficient callables accept scalar or ndarray ``x`` (elementwise) so the
simulation kernels can batch paths; a single-path reference solve calls
them with a Python float ``x`` and counts on a scalar giving the bits of
the matching array element.  ``t`` may be a float or an ndarray
broadcastable against ``x``: the scheme kernels pass a whole block of grid
steps at once, with ``x`` of shape (steps, paths) and ``t`` a (steps, 1)
column, so a coefficient must combine ``t`` and ``x`` elementwise (numpy
operations, not ``math`` functions of ``t``).  Evaluation is pure and
models are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownModel

__all__ = [
    "Rho1",
    "Rho2",
    "Lipschitz",
    "Modulus",
    "CoefficientModel",
    "builtin_catalog",
    "get_model",
]

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class Rho1:
    """Identity modulus rho(u) = u (the Lipschitz-in-p'th-power case)."""


@dataclass(frozen=True)
class Rho2:
    """Modulus rho(u) = -u*log(u) on (0, epsilon], linear above epsilon.

    epsilon must lie in (0, 1/e] so the core branch is increasing and
    concave up to the switch point; the linear extension continues with the
    left derivative -log(epsilon) - 1, which makes the whole function C^1.
    """

    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= _INV_E):
            raise ValueError(f"epsilon must be in (0, 1/e], got {self.epsilon}")


@dataclass(frozen=True)
class Lipschitz:
    K: float


@dataclass(frozen=True)
class Modulus:
    kind: Rho1 | Rho2


Coefficient = Callable[["np.ndarray | float", "np.ndarray | float"], "np.ndarray | float"]


@dataclass(frozen=True)
class CoefficientModel:
    """A drift/diffusion pair with its declared regularity."""

    id: str
    drift: Coefficient
    diffusion: Coefficient
    regularity: Lipschitz | Modulus


def _log_lipschitz_sigma(epsilon: float) -> Coefficient:
    """sigma(x) = sign(x) * g(|x|) with g(u) = u*(1 - log u) near 0.

    g(0) = 0, g is continuous with unbounded derivative at 0 (the
    non-Lipschitz point) and is extended linearly above epsilon with slope
    -log(epsilon), keeping it globally continuous and increasing.
    """
    g_eps = epsilon * (1.0 - math.log(epsilon))
    slope = -math.log(epsilon)

    def sigma(t: float, x):
        a = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            core = a * (1.0 - np.log(a))
        g = np.where(a == 0.0, 0.0, np.where(a <= epsilon, core, g_eps + slope * (a - epsilon)))
        return np.sign(x) * g

    return sigma


def builtin_catalog() -> list[CoefficientModel]:
    """The built-in coefficient models, addressable by id."""
    return [
        CoefficientModel(
            id="zero-drift-unit-diffusion",
            drift=lambda t, x: 0.0 * x,
            diffusion=lambda t, x: 1.0 + 0.0 * x,
            regularity=Lipschitz(1.0),
        ),
        CoefficientModel(
            id="unit-drift-no-noise",
            drift=lambda t, x: 1.0 + 0.0 * x,
            diffusion=lambda t, x: 0.0 * x,
            regularity=Lipschitz(1.0),
        ),
        # mean-reverting with mild state-dependent noise, so that sup-moments concentrate and
        # stock studies resolve their decay above sampling noise; K = max(0.5+0.2, 1.0+0.5) is tight
        CoefficientModel(
            id="affine",
            drift=lambda t, x: 1.0 + -0.5 * x,
            diffusion=lambda t, x: 0.5 + 0.2 * x,
            regularity=Lipschitz(1.5),
        ),
        CoefficientModel(
            id="gbm",  # geometric Brownian motion, mu = 0.05, sigma_bar = 0.2
            drift=lambda t, x: 0.05 * x,
            diffusion=lambda t, x: 0.2 * x,
            regularity=Lipschitz(0.25),
        ),
        CoefficientModel(
            id="bounded-trig",
            drift=lambda t, x: np.sin(x),
            diffusion=lambda t, x: np.cos(x),
            regularity=Lipschitz(2.0),
        ),
        CoefficientModel(
            id="log-lipschitz",
            drift=lambda t, x: 0.0 * x,
            diffusion=_log_lipschitz_sigma(0.1),
            regularity=Modulus(Rho2(0.1)),
        ),
    ]


def get_model(model_id: str) -> CoefficientModel:
    """Look up a catalog model by id; raises UnknownModel (a KeyError) with the known ids."""
    for model in builtin_catalog():
        if model.id == model_id:
            return model
    known = ", ".join(m.id for m in builtin_catalog())
    raise UnknownModel(f"unknown model {model_id!r}; known models: {known}")
