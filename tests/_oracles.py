"""Independent oracles shared by the test suite.

Everything here recomputes quantities by a route deliberately different
from the library: from-scratch maxima instead of incremental ones, scalar
Python loops instead of vector kernels, closed-form solutions where they
exist.  Keep these slow and obvious.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# the brute-force scheme, the Skorohod oracle and the parameter sampler live
# in dpsde.checks, which `dpsde check` runs; the tests use the same copies
from dpsde.checks import brute_new_scheme, brute_skorohod, random_valid_params  # noqa: F401
from dpsde.models import Lipschitz, Rho1


def clamped_lag(m: int, k: int) -> int:
    """Index of the clamped lag max(t_k - delay, 0) for a lag of m steps."""
    return max(k - m, 0)


def raw_lag(m: int, k: int) -> int:
    """Index of the raw lag t_k - delay; negative means pre-time history."""
    return k - m


def brute_old_scheme(model, params, grid, m, dw):
    """Scalar evaluator of the plain delayed scheme with from-scratch extrema."""
    L = len(dw)
    h = grid.step_size
    alpha, beta, x0 = params.alpha, params.beta, params.x0
    phi = [0.0]
    x = [x0]
    lagged = lambda j: x[j - m] if j - m >= 0 else x0
    for k in range(1, L + 1):
        j = k - 1 - m
        xlag = x[j] if j >= 0 else x0
        t_prev = (k - 1) * h
        phi.append(phi[k - 1] + (model.drift(t_prev, xlag) * h + model.diffusion(t_prev, xlag) * dw[k - 1]))
        vmax = max(lagged(i) for i in range(k + 1))
        vmin = min(lagged(i) for i in range(k + 1))
        x.append(x0 + phi[k] + alpha * vmax + beta * vmin)
    return np.array(x)


def phi_step(
    model,
    params,
    grid,
    m: int,
    x_history,
    increments,
    k: int,
    history: float | None = None,
) -> float:
    """Increment of the delayed integral Phi over (t_{k-1}, t_k].

    Left-point evaluation: b(t_{k-1}, X_lag)*h + sigma(t_{k-1}, X_lag)*dW
    with X_lag read m steps back from x_history, or equal to the constant
    pre-time value (``history``, default params.x0) when the raw lag lands
    before time zero.
    """
    if k < 1:
        raise ValueError("phi_step needs k >= 1")
    if history is None:
        history = params.x0
    j = k - 1 - m
    xlag = x_history[j] if j >= 0 else history
    t_prev = (k - 1) * grid.step_size
    dw = increments[k - 1]
    return model.drift(t_prev, xlag) * grid.step_size + model.diffusion(t_prev, xlag) * dw


# The per-step scheme recursions, one Python iteration per grid step, kept
# as the bitwise oracles of the block kernel in dpsde.scheme.  Each takes
# time-major (L, B) increments and returns time-major (L+1, B) arrays
# (phi, big_m, big_i, x).


def step_new_kernel(model, alpha, beta, h, m, dw):
    L, B = dw.shape
    phi = np.zeros((L + 1, B))
    big_m = np.zeros((L + 1, B))
    big_i = np.zeros((L + 1, B))
    x = np.zeros((L + 1, B))
    hist = np.zeros(B)
    gmax = np.zeros(B)
    qmax = np.zeros(B)
    one_m_alpha = 1.0 - alpha
    beta_m1 = beta - 1.0
    drift, diffusion = model.drift, model.diffusion
    for k in range(1, L + 1):
        j = k - 1 - m
        xlag = x[j] if j >= 0 else hist
        t_prev = (k - 1) * h
        p = phi[k - 1] + (drift(t_prev, xlag) * h + diffusion(t_prev, xlag) * dw[k - 1])
        phi[k] = p
        lk = k - m if k >= m else 0
        np.maximum(gmax, p + beta * big_i[lk], out=gmax)
        mk = np.maximum(gmax, 0.0) / one_m_alpha
        big_m[k] = mk
        np.maximum(qmax, -p - alpha * big_m[lk], out=qmax)
        ik = np.maximum(qmax, 0.0) / beta_m1
        big_i[k] = ik
        x[k] = p + alpha * mk + beta * ik
    return phi, big_m, big_i, x


def step_old_kernel(model, alpha, beta, x0, h, m, dw):
    L, B = dw.shape
    phi = np.zeros((L + 1, B))
    big_m = np.empty((L + 1, B))
    big_i = np.empty((L + 1, B))
    x = np.empty((L + 1, B))
    hist = np.full(B, x0)
    x[0] = x0
    vmax = np.full(B, x0)
    vmin = np.full(B, x0)
    big_m[0] = vmax
    big_i[0] = vmin
    drift, diffusion = model.drift, model.diffusion
    for k in range(1, L + 1):
        j = k - 1 - m
        xlag = x[j] if j >= 0 else hist
        t_prev = (k - 1) * h
        p = phi[k - 1] + (drift(t_prev, xlag) * h + diffusion(t_prev, xlag) * dw[k - 1])
        phi[k] = p
        jv = k - m
        v = x[jv] if jv >= 0 else hist
        np.maximum(vmax, v, out=vmax)
        np.minimum(vmin, v, out=vmin)
        big_m[k] = vmax
        big_i[k] = vmin
        x[k] = x0 + p + alpha * vmax + beta * vmin
    return phi, big_m, big_i, x


def step_general_kernel(model, alpha, beta, x0, h, m, dw):
    L, B = dw.shape
    c = x0 / (1.0 - alpha - beta)
    phi = np.zeros((L + 1, B))
    big_m = np.empty((L + 1, B))
    big_i = np.empty((L + 1, B))
    x = np.empty((L + 1, B))
    hist = np.full(B, c)
    one_m_alpha = 1.0 - alpha
    beta_m1 = beta - 1.0
    # the time-zero components go through the same expressions as every
    # later step (value c up to roundoff), keeping monotonicity and the
    # step identity exact rather than one ulp off
    gmax = np.full(B, x0 + beta * c)
    qmax = np.full(B, -x0 - alpha * c)
    big_m[0] = gmax / one_m_alpha
    big_i[0] = qmax / beta_m1
    x[0] = x0 + alpha * big_m[0] + beta * big_i[0]
    drift, diffusion = model.drift, model.diffusion
    for k in range(1, L + 1):
        j = k - 1 - m
        xlag = x[j] if j >= 0 else hist
        t_prev = (k - 1) * h
        p = phi[k - 1] + (drift(t_prev, xlag) * h + diffusion(t_prev, xlag) * dw[k - 1])
        phi[k] = p
        lk = k - m if k >= m else 0
        np.maximum(gmax, x0 + p + beta * big_i[lk], out=gmax)
        mk = gmax / one_m_alpha
        big_m[k] = mk
        np.maximum(qmax, -x0 - p - alpha * big_m[lk], out=qmax)
        ik = qmax / beta_m1
        big_i[k] = ik
        x[k] = x0 + p + alpha * mk + beta * ik
    return phi, big_m, big_i, x


def implicit_step(x0, alpha, beta, phi_next, big_m, big_i):
    """One closed-form implicit step; returns (x_next, big_m, big_i).

    Inputs may be scalars or aligned arrays.  Pure case arithmetic -- no
    parameter validation, so it can be exercised on illustrative values.
    """
    D = x0 + phi_next + alpha * big_m + beta * big_i
    up = D > big_m
    dn = D < big_i
    x_next = np.where(
        up,
        (x0 + phi_next + beta * big_i) / (1.0 - alpha),
        np.where(dn, (x0 + phi_next + alpha * big_m) / (1.0 - beta), D),
    )
    return x_next, np.where(up, x_next, big_m), np.where(dn, x_next, big_i)


def step_reference(model, params, h, dw):
    """The limit-equation solver as one implicit_step per grid step.

    Bitwise oracle of the fused step in dpsde.reference: takes time-major
    (L, B) increments and returns time-major (L+1, B) arrays
    (phi, big_m, big_i, x).
    """
    L, B = dw.shape
    alpha, beta, x0 = params.alpha, params.beta, params.x0
    c0 = x0 / (1.0 - alpha - beta)
    phi = np.zeros((L + 1, B))
    big_m = np.empty((L + 1, B))
    big_i = np.empty((L + 1, B))
    x = np.empty((L + 1, B))
    x[0] = big_m[0] = big_i[0] = c0
    cur_x = np.full(B, c0)
    cur_m = np.full(B, c0)
    cur_i = np.full(B, c0)
    for k in range(L):
        t_k = k * h
        p = phi[k] + (model.drift(t_k, cur_x) * h + model.diffusion(t_k, cur_x) * dw[k])
        phi[k + 1] = p
        cur_x, cur_m, cur_i = implicit_step(x0, alpha, beta, p, cur_m, cur_i)
        x[k + 1] = cur_x
        big_m[k + 1] = cur_m
        big_i[k + 1] = cur_i
    return phi, big_m, big_i, x


def exact_gbm(x0, mu, sigma_bar, grid, increments):
    """Pathwise exact geometric Brownian motion on the grid."""
    w = np.concatenate(([0.0], np.cumsum(increments)))
    t = grid.times()
    return x0 * np.exp((mu - 0.5 * sigma_bar**2) * t + sigma_bar * w)


# Byte oracles of the path writers in dpsde.output, which format each run of
# equal values once: here every value gets its own repr, and json.dumps lays
# out the JSON.  Each returns the text the writer puts in the file.


def path_csv_text(path_obj) -> str:
    columns = (path_obj.grid.times(), path_obj.phi, path_obj.big_m, path_obj.big_i, path_obj.x)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = ["k,t,phi,M,I,X"]
    lines += [f"{k},{t!r},{phi!r},{m!r},{i!r},{x!r}" for k, (t, phi, m, i, x) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def path_json_text(path_obj) -> str:
    body = {
        "k": list(range(len(path_obj.x))),
        "t": path_obj.grid.times().tolist(),
        "phi": path_obj.phi.tolist(),
        "M": path_obj.big_m.tolist(),
        "I": path_obj.big_i.tolist(),
        "X": path_obj.x.tolist(),
    }
    return json.dumps(body, indent=2) + "\n"


# The regularity spot-check.  The catalog declares each model's regularity
# (dpsde.models.Lipschitz or Modulus) as data; these recompute the modulus
# and test the declared inequality on random samples.


def eval_modulus(kind, u):
    """Evaluate the modulus at u >= 0 (scalar or ndarray).

    Rho1 returns u.  Rho2 returns 0 at 0, -u*log(u) on (0, epsilon] and the
    tangent-line extension above epsilon.  Raises ValueError for any
    negative argument.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"modulus argument must be >= 0, got {u!r}")
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


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a sampled regularity check (report-only, never raises)."""

    max_violation: float
    fitted_constant: float | None
    samples: int


def verify_regularity(
    model,
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
