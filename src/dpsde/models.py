"""Drift/diffusion coefficient catalog.

Each model carries evaluatable ``drift(t, x)`` and ``diffusion(t, x)``
callables.  The paper's hypotheses on them (a Lipschitz constant, or a
concave modulus for the non-Lipschitz extension) are not inputs to the
schemes; the test oracles state them per model id and spot-check them.

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

__all__ = ["CoefficientModel", "builtin_catalog", "get_model"]

Coefficient = Callable[["np.ndarray | float", "np.ndarray | float"], "np.ndarray | float"]


@dataclass(frozen=True)
class CoefficientModel:
    """A drift/diffusion pair addressable by id."""

    id: str
    drift: Coefficient
    diffusion: Coefficient


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
        ),
        CoefficientModel(
            id="unit-drift-no-noise",
            drift=lambda t, x: 1.0 + 0.0 * x,
            diffusion=lambda t, x: 0.0 * x,
        ),
        # mean-reverting with mild state-dependent noise, so that sup-moments concentrate and
        # stock studies resolve their decay above sampling noise
        CoefficientModel(
            id="affine",
            drift=lambda t, x: 1.0 + -0.5 * x,
            diffusion=lambda t, x: 0.5 + 0.2 * x,
        ),
        CoefficientModel(
            id="gbm",  # geometric Brownian motion, mu = 0.05, sigma_bar = 0.2
            drift=lambda t, x: 0.05 * x,
            diffusion=lambda t, x: 0.2 * x,
        ),
        CoefficientModel(
            id="bounded-trig",
            drift=lambda t, x: np.sin(x),
            diffusion=lambda t, x: np.cos(x),
        ),
        CoefficientModel(
            id="log-lipschitz",
            drift=lambda t, x: 0.0 * x,
            diffusion=_log_lipschitz_sigma(0.1),
        ),
    ]


def get_model(model_id: str) -> CoefficientModel:
    """Look up a catalog model by id; raises UnknownModel (a KeyError) with the known ids."""
    for model in builtin_catalog():
        if model.id == model_id:
            return model
    known = ", ".join(m.id for m in builtin_catalog())
    raise UnknownModel(f"unknown model {model_id!r}; known models: {known}")
