"""Grid solver for the limit equation and closed-form singly perturbed paths.

The limit equation determines X_{k+1} implicitly from

    X_{k+1} = x0 + Phi_{k+1} + alpha * M_{k+1} + beta * I_{k+1},

with M, I the running max/min of X itself (undelayed, left-point
coefficients).  Because a single new value can move at most one extremum,
the step has a closed-form case analysis.  Writing
D = x0 + Phi_{k+1} + alpha*M_k + beta*I_k for the no-new-extremum
candidate:

    (i)   I_k <= D <= M_k:  X_{k+1} = D, extrema unchanged;
    (ii)  D > M_k:          X_{k+1} = (x0 + Phi_{k+1} + beta*I_k)/(1-alpha),
                            a new maximum (X_{k+1} - M_k = (D-M_k)/(1-alpha) > 0);
    (iii) D < I_k:          X_{k+1} = (x0 + Phi_{k+1} + alpha*M_k)/(1-beta),
                            a new minimum.

The cases are exhaustive and mutually exclusive; ties resolve to (i) where
all three formulas coincide.  At time zero the equation itself forces
X_0 = x0 / (1 - alpha - beta) (both extrema equal the state there).

The step is fused in-place arithmetic on preallocated (paths,) buffers.
It forms s = x0 + Phi_{k+1}, alpha*M_k, beta*I_k and s + alpha*M_k once,
writes D, and then overwrites D with case (iii) where D < I_k and with case
(ii) where D > M_k, in that order, as a nested
where(D > M_k, (ii), where(D < I_k, (iii), D)) would (both cannot hold,
since I_k <= M_k).  Every sum is taken in the same order as the
formulas above, so the result is bit for bit the unfused case analysis,
which the tests keep as an oracle.  reference_steps yields the state after
every step as a one-row block, under the block protocol stated in
dpsde.driver; solve_reference_batch collects all four components, and a
strong-error study keeps only X.

A batch of exactly one path (solve_reference, dpsde simulate --scheme
reference) is solved by a plain Python-float loop instead: with one element
per buffer, the fused step's twenty-odd ufunc calls are all overhead.  The
choice depends on the path count alone.  The loop does the same IEEE-754
double operations in the same order (phi + (drift*h + diffusion*dW),
s = x0 + phi, D = (s + alpha*M_k) + beta*I_k, the same divisors) and takes
case (ii) if D > M_k, else case (iii) if D < I_k.  Coefficients act
elementwise, so a float x gives the bits of the matching array element,
and the tests compare both routes bit for bit on every catalog model.

For b = 0, sigma = 1, x0 = 0 and one vanishing parameter the solution has
an explicit running-extremum form, exposed as exact_singly_perturbed and
used as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import GridPath, SimGrid, brownian_values, check_steps, collect, single_path, time_major
from .errors import AlphaOutOfRange, BetaOutOfRange
from .models import CoefficientModel
from .params import PerturbationParams, time_zero_level

__all__ = [
    "MaxSide",
    "MinSide",
    "reference_steps",
    "solve_reference",
    "solve_reference_batch",
    "exact_singly_perturbed",
]


@dataclass(frozen=True)
class MaxSide:
    """Singly perturbed by the running maximum (beta = 0)."""

    alpha: float


@dataclass(frozen=True)
class MinSide:
    """Singly perturbed by the running minimum (alpha = 0)."""

    beta: float


def reference_steps(model, params, grid, dw):
    """Solve the limit equation step by step on time-major (L, B) increments.

    A generator of one-row blocks (k, k+1, phi, big_m, big_i, x), k = 0..L,
    under the block protocol of dpsde.driver, each array a (1, B) buffer.
    """
    check_steps(dw, grid)
    alpha, beta, x0, h = params.alpha, params.beta, params.x0, grid.step_size
    c0 = time_zero_level(params)
    L, B = dw.shape
    phi = np.zeros((1, B))
    big_m = np.full((1, B), c0)
    big_i = np.full((1, B), c0)
    x = np.full((1, B), c0)
    yield 0, 1, phi, big_m, big_i, x
    inc, noise = np.empty((1, B)), np.empty((1, B))
    s, a_m, b_i, s_am = np.empty((1, B)), np.empty((1, B)), np.empty((1, B)), np.empty((1, B))
    up, dn = np.empty((1, B), dtype=bool), np.empty((1, B), dtype=bool)
    one_m_alpha, one_m_beta = 1.0 - alpha, 1.0 - beta
    drift, diffusion = model.drift, model.diffusion
    for k in range(L):
        t_k = k * h
        np.multiply(drift(t_k, x), h, out=inc)
        np.multiply(diffusion(t_k, x), dw[k : k + 1], out=noise)
        np.add(inc, noise, out=inc)
        np.add(phi, inc, out=phi)
        np.add(x0, phi, out=s)
        np.multiply(alpha, big_m, out=a_m)
        np.multiply(beta, big_i, out=b_i)
        np.add(s, a_m, out=s_am)
        np.add(s_am, b_i, out=x)  # D: no extremum moves
        np.greater(x, big_m, out=up)
        np.less(x, big_i, out=dn)
        # a new minimum first, then a new maximum over it, as in
        # where(up, new max, where(dn, new min, D))
        np.divide(s_am, one_m_beta, out=x, where=dn)
        np.add(s, b_i, out=s_am)
        np.divide(s_am, one_m_alpha, out=x, where=up)
        np.copyto(big_m, x, where=up)
        np.copyto(big_i, x, where=dn)
        yield k + 1, k + 2, phi, big_m, big_i, x


def _solve_one_path(model, params, grid, dw):
    """reference_steps for one path, (L, 1) increments, in Python floats: four lists of L+1 values."""
    check_steps(dw, grid)
    alpha, beta, x0, h = params.alpha, params.beta, params.x0, grid.step_size
    c0 = time_zero_level(params)
    phi, big_m, big_i, x = 0.0, c0, c0, c0
    phis, big_ms, big_is, xs = [phi], [big_m], [big_i], [x]
    one_m_alpha, one_m_beta = 1.0 - alpha, 1.0 - beta
    drift, diffusion = model.drift, model.diffusion
    for k, dw_k in enumerate(dw[:, 0].tolist()):
        t_k = k * h
        phi = phi + (drift(t_k, x) * h + diffusion(t_k, x) * dw_k)
        s = x0 + phi
        s_am = s + alpha * big_m
        x = s_am + beta * big_i
        if x > big_m:
            x = (s + beta * big_i) / one_m_alpha
            big_m = x
        elif x < big_i:
            x = s_am / one_m_beta
            big_i = x
        phis.append(phi)
        big_ms.append(big_m)
        big_is.append(big_i)
        xs.append(x)
    return phis, big_ms, big_is, xs


def solve_reference_batch(
    model: CoefficientModel,
    params: PerturbationParams,
    grid: SimGrid,
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the limit equation on a (paths, L) batch of increments.

    Returns (phi, big_m, big_i, x), each (paths, L+1); big_m/big_i are the
    exact running extrema of x and the step identity
    x = x0 + phi + alpha*big_m + beta*big_i holds by construction.  One
    path is solved by the Python-float loop, more by reference_steps.
    """
    dw = time_major(increments)
    if dw.shape[1] == 1:
        return tuple(np.array([row]) for row in _solve_one_path(model, params, grid, dw))
    return collect(reference_steps(model, params, grid, dw), dw)


def solve_reference(model, params, grid, increments) -> GridPath:
    """Solve the limit equation along one increment sequence."""
    return single_path(solve_reference_batch, model, params, grid, increments)


def exact_singly_perturbed(increments: np.ndarray, grid: SimGrid, side) -> GridPath:
    """Closed-form path for b = 0, sigma = 1, x0 = 0 and one parameter zero.

    MaxSide(alpha):  X = W + (alpha/(1-alpha)) * max_{j<=k} W_j
    MinSide(beta):   X = W + (beta/(1-beta))  * min_{j<=k} W_j

    (The positive part in the underlying reflection identity is redundant
    because the running extrema of W straddle W_0 = 0.)  big_m/big_i are
    recomputed from X itself so the usual path invariants hold.  A side
    parameter that validate rejects raises AlphaOutOfRange/BetaOutOfRange.
    """
    w = brownian_values(np.asarray(increments, dtype=float))
    if isinstance(side, MaxSide):
        if not math.isfinite(side.alpha) or side.alpha >= 1.0:
            raise AlphaOutOfRange(f"alpha must be finite and < 1, got {side.alpha}")
        x = w + (side.alpha / (1.0 - side.alpha)) * np.maximum.accumulate(w, axis=-1)
    elif isinstance(side, MinSide):
        if not math.isfinite(side.beta) or side.beta >= 1.0:
            raise BetaOutOfRange(f"beta must be finite and < 1, got {side.beta}")
        x = w + (side.beta / (1.0 - side.beta)) * np.minimum.accumulate(w, axis=-1)
    else:
        raise TypeError(f"side must be MaxSide or MinSide, got {side!r}")
    return GridPath(
        phi=w,
        big_m=np.maximum.accumulate(x, axis=-1),
        big_i=np.minimum.accumulate(x, axis=-1),
        x=x,
        grid=grid,
    )
