"""Drift/diffusion coefficient catalog with declared regularity.

Each model carries evaluatable ``drift(t, x)`` and ``diffusion(t, x)``
callables plus a regularity tag: either ``Lipschitz(K)`` meaning

    |sigma(t,x)-sigma(t,y)| + |b(t,x)-b(t,y)| <= K |x-y|,
    |sigma(t,0)| + |b(t,0)| <= K,

or ``Modulus(kind)`` meaning, for some p > 2 and a constant C,

    |sigma(t,x)-sigma(t,y)|**p + |b(t,x)-b(t,y)|**p <= C * rho(|x-y|**p)

with rho a concave non-decreasing modulus vanishing at 0.  Two classical
moduli are provided: the identity, and the Yamada-Watanabe-style
``-u*log(u)`` modulus with a linear extension above a small epsilon.

Coefficient callables accept scalar or ndarray ``x`` (elementwise) so the
simulation kernels can batch paths; a single-path reference solve calls
them with a Python float ``x`` and counts on a scalar giving the bits of
the matching array element.  ``t`` may be a float or an ndarray
broadcastable against ``x``: the scheme kernels pass a whole block of grid
steps at once, with ``x`` of shape (steps, paths) and ``t`` a (steps, 1)
column, so a coefficient must combine ``t`` and ``x`` elementwise (numpy
operations, not ``math`` functions of ``t``).  Evaluation is pure; models
are immutable and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NegativeInput

__all__ = [
    "Rho1",
    "Rho2",
    "ModulusKind",
    "Lipschitz",
    "Modulus",
    "Regularity",
    "CoefficientModel",
    "eval_modulus",
    "builtin_catalog",
    "get_model",
    "affine_model",
    "gbm_model",
    "RegularityReport",
    "verify_regularity",
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


ModulusKind = Union[Rho1, Rho2]


@dataclass(frozen=True)
class Lipschitz:
    K: float


@dataclass(frozen=True)
class Modulus:
    kind: ModulusKind


Regularity = Union[Lipschitz, Modulus]

Coefficient = Callable[["np.ndarray | float", "np.ndarray | float"], "np.ndarray | float"]


@dataclass(frozen=True)
class CoefficientModel:
    """A drift/diffusion pair with its declared regularity."""

    id: str
    drift: Coefficient
    diffusion: Coefficient
    regularity: Regularity


def eval_modulus(kind: ModulusKind, u):
    """Evaluate the modulus at u >= 0 (scalar or ndarray).

    Rho1 returns u.  Rho2 returns 0 at 0, -u*log(u) on (0, epsilon] and the
    tangent-line extension above epsilon.  Raises NegativeInput for any
    negative argument.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeInput(f"modulus argument must be >= 0, got {u!r}")
    if isinstance(kind, Rho1):
        out = arr
    else:
        eps = kind.epsilon
        rho_eps = -eps * math.log(eps)
        slope = -math.log(eps) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            core = -arr * np.log(arr)
        out = np.where(arr == 0.0, 0.0, np.where(arr <= eps, core, rho_eps + slope * (arr - eps)))
    if np.isscalar(u) or getattr(u, "ndim", 0) == 0:
        return float(out)
    return out


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


def affine_model(a0: float = 1.0, a1: float = -0.5, s0: float = 0.5, s1: float = 0.2) -> CoefficientModel:
    """b = a0 + a1*x, sigma = s0 + s1*x with the tight Lipschitz constant.

    The catalog defaults mean-revert with mild state-dependent noise so
    that sup-moments concentrate and stock Monte Carlo studies resolve
    their decay above sampling noise.
    """
    K = max(abs(a1) + abs(s1), abs(a0) + abs(s0))
    return CoefficientModel(
        id="affine",
        drift=lambda t, x: a0 + a1 * x,
        diffusion=lambda t, x: s0 + s1 * x,
        regularity=Lipschitz(K),
    )


def gbm_model(mu: float = 0.05, sigma_bar: float = 0.2) -> CoefficientModel:
    """Geometric Brownian motion coefficients b = mu*x, sigma = sigma_bar*x."""
    K = max(abs(mu) + abs(sigma_bar), 1e-12)
    return CoefficientModel(
        id="gbm",
        drift=lambda t, x: mu * x,
        diffusion=lambda t, x: sigma_bar * x,
        regularity=Lipschitz(K),
    )


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
        affine_model(),
        gbm_model(),
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
    """Look up a catalog model by id; raises KeyError with the known ids."""
    for model in builtin_catalog():
        if model.id == model_id:
            return model
    known = ", ".join(m.id for m in builtin_catalog())
    raise KeyError(f"unknown model {model_id!r}; known models: {known}")


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a sampled regularity check (report-only, never raises)."""

    max_violation: float
    fitted_constant: float | None
    samples: int


def verify_regularity(
    model: CoefficientModel,
    samples: int,
    seed: int,
    horizon: float = 1.0,
    radius: float = 10.0,
    p: float = 4.0,
) -> RegularityReport:
    """Spot-check the declared regularity on random (t, x, y) triples.

    For Lipschitz(K) models the declared inequality is checked directly and
    the worst relative excess is reported.  For Modulus models the constant
    C is fitted as the largest sample ratio
    ``(|dsigma|^p + |db|^p) / rho(|x-y|^p)`` (the modulus bound holds up to a
    constant, so none is assumed); the report then carries that constant and
    a zero violation provided it is finite.  The moment exponent p is a
    study parameter, default 4.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, horizon, size=samples)
    x = rng.uniform(-radius, radius, size=samples)
    y = rng.uniform(-radius, radius, size=samples)
    d_sig = np.abs(np.asarray(model.diffusion(t, x)) - np.asarray(model.diffusion(t, y)))
    d_b = np.abs(np.asarray(model.drift(t, x)) - np.asarray(model.drift(t, y)))

    if isinstance(model.regularity, Lipschitz):
        K = model.regularity.K
        lhs = d_sig + d_b
        rhs = K * np.abs(x - y)
        rel = (lhs - rhs) / np.maximum(rhs, 1.0)
        at_zero = np.abs(np.asarray(model.diffusion(t, 0.0 * x))) + np.abs(
            np.asarray(model.drift(t, 0.0 * x))
        )
        rel_zero = (at_zero - K) / max(K, 1.0)
        worst = max(float(np.max(rel)), float(np.max(rel_zero)), 0.0)
        return RegularityReport(max_violation=worst, fitted_constant=None, samples=samples)

    kind = model.regularity.kind
    gap_p = np.abs(x - y) ** p
    lhs = d_sig**p + d_b**p
    denom = np.asarray(eval_modulus(kind, gap_p))
    mask = denom > 0.0
    if not np.any(mask):
        return RegularityReport(max_violation=0.0, fitted_constant=0.0, samples=samples)
    ratios = lhs[mask] / denom[mask]
    C = float(np.max(ratios))
    # the fit lives in ratio space, so the excess over C is zero by
    # construction whenever C is finite
    worst = float(np.max(np.maximum(ratios - C, 0.0))) if math.isfinite(C) else math.inf
    return RegularityReport(max_violation=worst, fitted_constant=C, samples=samples)
