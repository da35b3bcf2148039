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
X_0 = x0 / (1 - alpha - beta) (both extrema equal the state there).  The
cases decide X alone, and M_{k+1} = max(M_k, X_{k+1}) and
I_{k+1} = min(I_k, X_{k+1}) by definition: exactly the running extrema of
X, even where case (ii) rounds X one ulp below M_k.

The vector step keeps only the state, the (1, paths) arrays Phi, M, I
and X, updated in place, and h, x0, alpha, beta, 1-alpha and 1-beta as
(1, paths) rows, since numpy takes an array operand faster than a Python
float; all else lives for one step.  It forms s = x0 + Phi_{k+1} (Phi
itself when x0 is +-0.0: Phi starts at +0.0 and is never -0.0, so the sum
is Phi bit for bit), alpha*M_k, beta*I_k and s + alpha*M_k once, writes D
into X, and overwrites it by np.putmask (cheaper than a masked divide or
copyto) with case (iii) where D < I_k, then case (ii) where D > M_k (both
cannot hold, since I_k <= M_k).  Then np.maximum(X, M, out=M) and
np.minimum(X, I, out=I), X first: numpy returns the second operand on a
tie, so a +-0.0 tie keeps the bits of M and I, and a NaN X makes both
NaN.  Sums keep the order of the formulas above, so the result is bit for
bit the unfused case analysis, which the tests keep as an oracle.
reference_steps checks the parameters and builds a stream yielding the
state after every step as a one-row block, under the block protocol of
dpsde.driver; solve_reference_batch collects all four components, and a
strong-error study keeps only X.

A run on exactly one path (solve_reference, dpsde simulate --scheme
reference) takes a plain Python-float loop inside the same stream instead,
and yields all L+1 rows as one block: with one element per array, the
vector step's ufunc calls are all overhead.  The choice depends on the
path count alone.  The loop does the same IEEE-754 double operations in
the same order, takes case (ii) if D > M_k, else case (iii) if D < I_k,
and sets M to M if X <= M else X (I mirrored), the element
np.maximum(X, M) picks, ties and NaN included.  Coefficients act
elementwise, so a float x gives the bits of the matching array element;
the tests compare both routes bit for bit.

For b = 0, sigma = 1, x0 = 0 and one vanishing parameter the solution has
an explicit running-extremum form, exposed as exact_singly_perturbed, which
takes the same checked PerturbationParams as the solvers and serves as an
independent oracle.
"""

from __future__ import annotations

import numpy as np

from .driver import GridPath, SimGrid, brownian_values, check_steps, collect, single_path
from .errors import InvalidIncrements, NotSinglyPerturbed
from .models import CoefficientModel
from .params import PerturbationParams, time_zero_level

__all__ = [
    "reference_steps",
    "solve_reference",
    "solve_reference_batch",
    "exact_singly_perturbed",
]


def reference_steps(model, params, grid):
    """Build the limit-equation solver as a block stream.

    Calling it runs time_zero_level and returns a generator function of
    time-major (L, B) increments, under the block protocol of dpsde.driver.
    For B > 1 it yields one-row blocks (k, k+1, phi, big_m, big_i, x),
    k = 0..L, each array a (1, B) buffer; for B = 1 it runs the Python-float
    loop and yields all L+1 rows as one block.
    """
    alpha, beta, x0, h = params.alpha, params.beta, params.x0, grid.step_size
    c0 = time_zero_level(params)
    one_m_alpha, one_m_beta = 1.0 - alpha, 1.0 - beta
    drift, diffusion = model.drift, model.diffusion
    times = grid.times()[:-1].tolist()

    def steps(dw):
        check_steps(dw, grid)
        L, B = dw.shape
        if B == 1:
            phi, big_m, big_i, x = 0.0, c0, c0, c0
            phis, big_ms, big_is, xs = [phi], [big_m], [big_i], [x]
            for t_k, dw_k in zip(times, dw[:, 0].tolist()):
                phi = phi + (drift(t_k, x) * h + diffusion(t_k, x) * dw_k)
                s = x0 + phi
                s_am = s + alpha * big_m
                x = s_am + beta * big_i
                if x > big_m:
                    x = (s + beta * big_i) / one_m_alpha
                elif x < big_i:
                    x = s_am / one_m_beta
                big_m = big_m if x <= big_m else x
                big_i = big_i if x >= big_i else x
                phis.append(phi)
                big_ms.append(big_m)
                big_is.append(big_i)
                xs.append(x)
            yield 0, L + 1, *(np.array(column)[:, None] for column in (phis, big_ms, big_is, xs))
            return
        h_row, x0_row, a_row, b_row, oma_row, omb_row = (
            np.full((1, B), v) for v in (h, x0, alpha, beta, one_m_alpha, one_m_beta)
        )
        phi = np.zeros((1, B))
        big_m, big_i, x = (np.full((1, B), c0) for _ in range(3))
        yield 0, 1, phi, big_m, big_i, x
        for k, t_k in enumerate(times):
            phi += drift(t_k, x) * h_row + diffusion(t_k, x) * dw[k : k + 1]
            s = phi if x0 == 0.0 else x0_row + phi
            b_i = b_row * big_i
            s_am = s + a_row * big_m
            np.add(s_am, b_i, out=x)  # D: no extremum moves
            up, dn = x > big_m, x < big_i
            # a new minimum, then a new maximum over it: where(up, max, where(dn, min, D))
            np.putmask(x, dn, s_am / omb_row)
            np.putmask(x, up, (s + b_i) / oma_row)
            np.maximum(x, big_m, out=big_m)
            np.minimum(x, big_i, out=big_i)
            yield k + 1, k + 2, phi, big_m, big_i, x

    return steps


def solve_reference_batch(
    model: CoefficientModel,
    params: PerturbationParams,
    grid: SimGrid,
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the limit equation on a (paths, L) batch of increments.

    Returns (phi, big_m, big_i, x), each (paths, L+1); big_m/big_i equal
    np.maximum/np.minimum.accumulate of x by construction (a +-0.0 tie keeps
    the earlier zero), and x = x0 + phi + alpha*big_m + beta*big_i to roundoff.
    """
    return collect(reference_steps(model, params, grid), increments)


def solve_reference(model, params, grid, increments) -> GridPath:
    """Solve the limit equation along one increment sequence."""
    return single_path(reference_steps(model, params, grid), grid, increments)


def exact_singly_perturbed(increments: np.ndarray, grid: SimGrid, params: PerturbationParams) -> GridPath:
    """Closed-form path for b = 0, sigma = 1, x0 = 0 and one parameter zero.

    beta = 0:   X = W + (alpha/(1-alpha)) * max_{j<=k} W_j
    alpha = 0:  X = W + (beta/(1-beta))  * min_{j<=k} W_j

    alpha = beta = 0 takes the first form and gives X = W.  params is the
    checked record (its horizon is not read): x0 != 0, or alpha and beta
    both non-zero, raises NotSinglyPerturbed, and increments whose last
    axis does not hold grid.steps steps raise InvalidIncrements, both
    before any work.  (The positive part in the underlying reflection
    identity is redundant because the running extrema of W straddle
    W_0 = 0.)  big_m/big_i are recomputed from X itself so the usual path
    invariants hold.
    """
    alpha, beta = params.alpha, params.beta
    if params.x0 != 0.0 or (alpha != 0.0 and beta != 0.0):  # not alpha * beta, which can underflow to 0
        raise NotSinglyPerturbed(f"need x0 = 0 and alpha = 0 or beta = 0, got {params}")
    dw = np.asarray(increments, dtype=float)
    if dw.shape[-1:] != (grid.steps,):
        raise InvalidIncrements(f"need {grid.steps} increments per path, one per grid step; got shape {dw.shape}")
    w = brownian_values(dw)
    if beta == 0.0:
        x = w + (alpha / (1.0 - alpha)) * np.maximum.accumulate(w, axis=-1)
    else:
        x = w + (beta / (1.0 - beta)) * np.minimum.accumulate(w, axis=-1)
    return GridPath(
        phi=w,
        big_m=np.maximum.accumulate(x, axis=-1),
        big_i=np.minimum.accumulate(x, axis=-1),
        x=x,
        grid=grid,
    )
