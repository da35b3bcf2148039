"""Built-in invariant suite, a fast self-test behind ``dpsde check``.

Each check recomputes a structural property through an independent route
(direct inequality evaluation, from-scratch maxima, closed forms) and
compares against the library's incremental implementations.  Runs in a few
seconds; prints one PASS/FAIL line per check, ending in its duration.
"""

from __future__ import annotations

import time

import numpy as np

from . import params as params_mod
from .driver import generate_increments, lag_map, make_grid
from .errors import DPSDEError
from .models import get_model
from .reference import MaxSide, MinSide, exact_singly_perturbed, solve_reference, solve_reference_batch
from .reflect import skorohod_map
from .scheme import simulate_new, simulate_new_batch, simulate_old_batch

__all__ = ["run_all_checks"]


def random_valid_params(rng, x0=0.0, horizon=1.0):
    """Rejection-sample an (alpha, beta) pair accepted by the gate."""
    while True:
        a = float(rng.uniform(-4.0, 0.99))
        b = float(rng.uniform(-4.0, 0.99))
        try:
            return params_mod.validate(a, b, x0, horizon)
        except DPSDEError:
            continue


def _check_parameter_gate() -> tuple[bool, str]:
    grid = np.linspace(-4.0, 0.99, 41)
    mismatches = 0
    for a in grid:
        for b in grid:
            direct = a < 1.0 and b < 1.0 and abs(a * b) < (1.0 - a) * (1.0 - b)
            try:
                params_mod.validate(a, b, 0.0, 1.0)
                accepted = True
            except DPSDEError:
                accepted = False
            mismatches += accepted != direct
    return mismatches == 0, f"41x41 grid, {mismatches} mismatches"


def brute_skorohod(y):
    """O(L^2) prefix-max reflection along the last axis: k_j = max_{i<=j} (-y_i)^+.

    Returns (z, k) with z = y + k.
    """
    y = np.asarray(y, dtype=float)
    k = np.stack([np.max(np.maximum(-y[..., : j + 1], 0.0), axis=-1) for j in range(y.shape[-1])], axis=-1)
    return y + k, k


def _check_skorohod() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    y = np.cumsum(rng.normal(0.0, 0.1, size=(200, 129)), axis=1)
    y[:, 0] = np.abs(y[:, 0])
    z, k = skorohod_map(y)
    ok = bool(np.all(z >= 0.0)) and bool(np.all(np.diff(k, axis=1) >= 0.0)) and bool(np.all(k[:, 0] == 0.0))
    increases = np.diff(k, axis=1) > 0.0
    ok = ok and bool(np.all(z[:, 1:][increases] == 0.0))
    ok = ok and np.array_equal(k, brute_skorohod(y)[1])
    return ok, "200 paths, prefix-max oracle + flat-off"


def _check_scheme_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    grid = make_grid(256, 1.0)
    worst = 0.0
    for _ in range(20):
        p = random_valid_params(rng)
        model = get_model(rng.choice(["affine", "gbm", "bounded-trig", "zero-drift-unit-diffusion"]))
        n = int(rng.choice([8, 16, 32]))
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=grid.steps)
        path = simulate_new(model, p, grid, n, dw)
        resid = np.max(np.abs(path.x - path.phi - p.alpha * path.big_m - p.beta * path.big_i))
        scale = 1.0 + np.max(np.abs(path.x))
        worst = max(worst, resid / scale)
        if np.any(np.diff(path.big_m) < 0.0) or np.any(path.big_m < 0.0):
            return False, "running max component not non-decreasing >= 0"
        if np.any(np.diff(path.big_i) > 0.0) or np.any(path.big_i > 0.0):
            return False, "running min component not non-increasing <= 0"
    return worst <= 1e-12, f"worst relative identity residual {worst:.2e}"


def brute_new_scheme(model, params, grid, m, dw):
    """Scalar re-maximization evaluator of the running-extrema scheme.

    At every step all maxima are recomputed from scratch over the full
    prefix (O(L^2)); arithmetic mirrors the definitions term by term.
    Returns the arrays (phi, big_m, big_i, x).
    """
    L = len(dw)
    h = grid.step_size
    alpha, beta = params.alpha, params.beta
    phi = [0.0]
    big_m = [0.0]
    big_i = [0.0]
    x = [0.0]
    for k in range(1, L + 1):
        j = k - 1 - m
        xlag = x[j] if j >= 0 else 0.0
        t_prev = (k - 1) * h
        phi.append(phi[k - 1] + (model.drift(t_prev, xlag) * h + model.diffusion(t_prev, xlag) * dw[k - 1]))
        g = max(phi[i] + beta * big_i[max(i - m, 0)] for i in range(k + 1))
        big_m.append(max(g, 0.0) / (1.0 - alpha))
        q = max(-phi[i] - alpha * big_m[max(i - m, 0)] for i in range(k + 1))
        big_i.append(max(q, 0.0) / (beta - 1.0))
        x.append(phi[k] + alpha * big_m[k] + beta * big_i[k])
    return np.array(phi), np.array(big_m), np.array(big_i), np.array(x)


def _check_brute_force() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    for _ in range(100):
        L = int(rng.integers(2, 13))
        grid = make_grid(L, 1.0)
        m = lag_map(grid, L)
        p = random_valid_params(rng)
        model = get_model("affine")
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=L)
        fast = simulate_new(model, p, grid, L, dw)
        slow = brute_new_scheme(model, p, grid, m, dw)[3]
        if not np.array_equal(fast.x, slow):
            return False, f"mismatch at L={L}"
    return True, "100 instances, m=1, exact match"


def _check_reference_residual() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    grid = make_grid(512, 1.0)
    p = params_mod.validate(0.6, -1.0, 0.0, 1.0)
    model = get_model("affine")
    dw = rng.normal(0.0, np.sqrt(grid.step_size), size=(20, grid.steps))
    phi, big_m, big_i, x = solve_reference_batch(model, p, grid, dw)
    resid = np.max(np.abs(x - p.x0 - phi - p.alpha * big_m - p.beta * big_i))
    scale = 1.0 + np.max(np.abs(x))
    ok = resid <= 1e-12 * scale
    ok = ok and np.array_equal(big_m, np.maximum.accumulate(x, axis=1))
    ok = ok and np.array_equal(big_i, np.minimum.accumulate(x, axis=1))
    one = solve_reference(model, p, grid, dw[0])  # one path runs the Python-float loop
    loop = np.array([one.phi, one.big_m, one.big_i, one.x])
    ok = ok and np.array_equal(np.array([phi[0], big_m[0], big_i[0], x[0]]).view(np.int64), loop.view(np.int64))
    return ok, f"residual {resid:.2e}, extrema exact, one-path loop bitwise"


def _check_old_new_agree() -> tuple[bool, str]:
    rng = np.random.default_rng(19)
    grid = make_grid(256, 1.0)
    p = params_mod.validate(0.0, 0.0, 0.0, 1.0)
    model = get_model("gbm")
    dw = rng.normal(0.0, np.sqrt(grid.step_size), size=(5, grid.steps))
    x_new = simulate_new_batch(model, p, grid, 16, dw)[3]
    x_old = simulate_old_batch(model, p, grid, 16, dw)[3]
    return np.array_equal(x_new, x_old), "alpha=beta=0, bitwise"


def _check_singly_perturbed() -> tuple[bool, str]:
    grid = make_grid(2048, 1.0)
    model = get_model("zero-drift-unit-diffusion")
    worst = 0.0
    for alpha, beta, side in ((0.5, 0.0, MaxSide(0.5)), (0.0, -1.0, MinSide(-1.0))):
        p = params_mod.validate(alpha, beta, 0.0, 1.0)
        for i in range(10):
            dw = generate_increments(99, i, grid)
            ref = solve_reference_batch(model, p, grid, dw[None, :])[3][0]
            exact = exact_singly_perturbed(dw, grid, side).x
            worst = max(worst, float(np.max(np.abs(ref - exact)) / (1.0 + np.max(np.abs(exact)))))
    return worst <= 1e-9, f"max and min sides, same-grid closed-form gap {worst:.2e}"


def _check_reference_crosscheck() -> tuple[bool, str]:
    # Diagnostic: the scheme at a large delay parameter should sit close to
    # the limit-equation solver (both on the same grid and noise).
    grid = make_grid(4096, 1.0)
    p = params_mod.validate(0.6, -1.0, 0.0, 1.0)
    model = get_model("affine")
    dw = np.stack([generate_increments(4242, i, grid) for i in range(50)])
    x_ref = solve_reference_batch(model, p, grid, dw)[3]
    x_big = simulate_new_batch(model, p, grid, 512, dw)[3]
    gap = float(np.mean(np.max(np.abs(x_big - x_ref), axis=1)))
    scale = float(np.mean(np.max(np.abs(x_ref), axis=1)))
    return gap < 0.25 * scale, f"n=512 mean sup-gap {gap:.4f} vs path scale {scale:.2f}"


_CHECKS = [
    ("parameter-gate", _check_parameter_gate),
    ("skorohod-map", _check_skorohod),
    ("scheme-identity", _check_scheme_identity),
    ("brute-force-equivalence", _check_brute_force),
    ("reference-residual", _check_reference_residual),
    ("old-new-agreement", _check_old_new_agree),
    ("singly-perturbed-oracle", _check_singly_perturbed),
    ("reference-crosscheck", _check_reference_crosscheck),
]


def run_all_checks() -> bool:
    """Run every built-in check; print one PASS/FAIL line each, with its duration."""
    all_ok = True
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - t0
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed:.3f} s)")
        all_ok = all_ok and ok
    return all_ok
