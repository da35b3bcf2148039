"""Caratheodory approximations for the doubly perturbed SDE.

The target equation perturbs an Ito diffusion by alpha times its running
maximum and beta times its running minimum:

    X_t = x0 + int_0^t b(s, X_s) ds + int_0^t sigma(s, X_s) dW_s
          + alpha * max_{s<=t} X_s + beta * min_{s<=t} X_s.

All schemes evaluate the coefficients at the delayed state X(s - 1/n).
Writing Phi for the delayed drift+diffusion integral, a left-point (Ito)
sum over the increments, the running-extrema scheme (x0 = 0) maintains the
triple (Phi, M, I):

    M_k = (max_{j<=k} [Phi_j + beta * I_{lag+(j)}])^+ / (1 - alpha)
    I_k = (max_{j<=k} [-Phi_j - alpha * M_{lag+(j)}])^+ / (beta - 1)
    X_k = Phi_k + alpha * M_k + beta * I_k,

where lag+(j) = max(j - m, 0) is the clamped delay of m grid steps.
(max_j g_j)^+ equals max_j (g_j)^+ because x -> x^+ is non-decreasing, so a
single clamp after the running max suffices.  Since 1 - alpha > 0 and
beta - 1 < 0, M is non-decreasing and >= 0 while I is non-increasing and
<= 0.

Two other variants are provided: the plain delayed scheme that feeds the
lagged state X_{lag+(k)} directly into running max/min (any x0), and the
general-x0 variant whose extremum formulas carry x0 explicitly, drop the
positive part, and start all three components from x0 / (1 - alpha - beta).

Block evaluation.  Step k reads the coefficients at the raw lag k-1-m and
the extrema at the clamped lag max(k-m, 0), both at least m steps back.
So every input of the m steps k0..k0+m-1 is final once step k0-1 is done,
and all three variants advance a whole block per Python iteration
(ceil(L/m) iterations per run; the last block is partial when L/m is not
an integer): one coefficient evaluation on the (m, paths) lagged rows with
t as an (m, 1) column, Phi from one np.add.accumulate over
[Phi_{k0-1}, increments...], and both running extrema as one inclusive
scan of np.maximum over [carry, arguments...]; the plain scheme scans -X
and negates the result, bit for bit its running minimum (negation flips
only the sign bit, and np.minimum picks the mirrored element of a pair).
The scan runs by doubling (_running): ceil(log2(m+1)) elementwise passes
over the whole block, each with the earlier operand first, since numpy's
accumulate runs one column at a time, about ten times slower per element
than an elementwise pass.  Max is exact and resolves every tie (+0.0
against -0.0, two NaNs) to the same element under any grouping, so every
prefix equals the left fold.  Phi keeps np.add.accumulate: a float sum
depends on its grouping, so it must stay the sequential left fold.  Every
other operation is elementwise in the same order as the step-by-step
recursion, so the result is bit-for-bit the step-by-step one; the tests
hold the step-by-step loops as oracles.

Streaming.  A block reads nothing older than the m+1 rows before it: the
raw lags k0-1-m..k1-2-m and the clamped lags k0-m..k1-1-m all lie in the
previous block or in that block's first row.  So the kernel keeps two
(4, m+1, paths) buffers of (Phi, M, I, X), the current block and the
previous one, where row 0 of a buffer repeats the last row of the block
before it, and swaps them after each block.  The previous buffer starts as
the pre-time segment, steps -m..0: raw lags reaching negative times read
the constant history, clamped lags the time-zero state.  So the first
block runs the same code as the others.  The scan's arguments and its
second buffer take two (2, m+1, paths) buffers more.  It yields each
block's rows as views into the current buffer, under the block protocol
of dpsde.driver, so its memory is O(m * paths) whatever L is.
scheme_blocks checks the parameters and works out m, the start state and
the times column once, when the stream is built; each run of the stream
allocates its own buffers.
"""

from __future__ import annotations

import numpy as np

from .driver import GridPath, SimGrid, check_steps, collect, lag_map, single_path
from .errors import NonZeroStart, UnknownScheme
from .models import CoefficientModel
from .params import PerturbationParams, time_zero_level

__all__ = [
    "simulate_new",
    "simulate_general_x0",
    "simulate_new_batch",
    "simulate_old_batch",
    "simulate_general_x0_batch",
    "scheme_blocks",
    "check_scheme",
    "SCHEME_KINDS",
]

SCHEME_KINDS = ("new", "old", "general")


def check_scheme(kind: str, params: PerturbationParams) -> None:
    """Raise UnknownScheme unless kind is a scheme variant, and NonZeroStart
    if it is "new" and x0 != 0."""
    if kind not in SCHEME_KINDS:
        raise UnknownScheme(f"scheme must be one of {', '.join(SCHEME_KINDS)}, got {kind!r}")
    if kind == "new" and params.x0 != 0.0:
        raise NonZeroStart(f"scheme 'new' requires x0 = 0, got x0={params.x0!r}; any x0 runs with --scheme general")


def scheme_blocks(kind, model, params, grid, n):
    """Build one scheme variant ("new", "old" or "general") as a block stream.

    Calling it runs check_scheme, lag_map and, for "general",
    time_zero_level, and returns a generator function of time-major (L, B)
    increments.  It yields blocks of m rows after the time-zero row, under
    the block protocol of dpsde.driver.  The variants differ only in their
    start state, their extremum arguments and the positive-part clamp of "new".
    """
    check_scheme(kind, params)
    alpha, beta, x0, h = params.alpha, params.beta, params.x0, grid.step_size
    m = lag_map(grid, n)
    if kind == "general":
        # the time-zero components go through the same expressions as every
        # later step (value hist up to roundoff), keeping monotonicity and
        # the step identity exact rather than one ulp off
        hist = time_zero_level(params)
        up0, down0 = x0 + beta * hist, -x0 - alpha * hist
        m0, i0 = up0 / (1.0 - alpha), down0 / (beta - 1.0)
        start = (up0, down0, m0, i0, x0 + alpha * m0 + beta * i0)
    else:
        # "new" is the general formulas at x0 = +0.0: Phi starts at +0.0, so
        # it is never -0.0 and 0.0 + Phi is Phi bit for bit
        hist = x0 = 0.0 if kind == "new" else x0
        # "old" scans -X for its running minimum, so that carry starts at -x0
        start = (x0, -x0 if kind == "old" else x0, x0, x0, x0)
    drift, diffusion = model.drift, model.diffusion
    # t_k = k*h for k = 0..L-1; row k0-1.. of a block is arange(k0-1, k1-1)*h
    times = (np.arange(grid.steps) * h)[:, None]

    def blocks(dw):
        check_steps(dw, grid)
        L, B = dw.shape
        # (phi, big_m, big_i, x) of the current and the previous block; row 0
        # of a buffer is the last row of the block before it.  prev starts as
        # steps -m..0: the raw X lags in rows 0..m-1, the clamped M and I lags
        # in rows 1..m, the time-zero state in row m; nothing reads the rest
        cur = np.empty((4, m + 1, B))
        prev = np.empty((4, m + 1, B))
        # [carry, arguments...] of the two running maxima (the carry before
        # clamp, division or negation), and the second buffer of their scan
        ud = np.empty((2, m + 1, B))
        scratch = np.empty((2, m + 1, B))
        prev[0, m], prev[3, :m] = 0.0, hist
        ud[0, 0], ud[1, 0], prev[1, 1:], prev[2, 1:], prev[3, m] = start
        yield 0, 1, *prev[:, m:]
        for k0 in range(1, L + 1, m):
            k1 = min(k0 + m, L + 1)
            w = k1 - k0
            cur[:, 0] = prev[:, m]
            xlag, lag = prev[3, :w], prev[:, 1 : w + 1]
            phi, big_m, big_i, x = cur[:, : w + 1]
            t = times[k0 - 1 : k1 - 1]
            np.add(drift(t, xlag) * h, diffusion(t, xlag) * dw[k0 - 1 : k1 - 1], out=phi[1:])
            np.add.accumulate(phi, axis=0, out=phi)
            p = phi[1:]
            base = p if kind == "new" else x0 + p
            args = ud[:, : w + 1]
            if kind == "old":
                args[0, 1:] = lag[3]
                np.negative(lag[3], out=args[1, 1:])
            else:
                np.add(base, beta * lag[2], out=args[0, 1:])
                # -Phi, not -0.0 - Phi, which would keep the sign of a NaN
                np.subtract(-p if kind == "new" else -x0 - p, alpha * lag[1], out=args[1, 1:])
            scan = _running(args, scratch[:, : w + 1])
            g, q = scan[:, 1:]
            if kind == "old":
                big_m[1:] = g
                np.negative(q, out=big_i[1:])
            else:
                if kind == "new":
                    g, q = np.maximum(g, 0.0, out=big_m[1:]), np.maximum(q, 0.0, out=big_i[1:])
                np.divide(g, 1.0 - alpha, out=big_m[1:])
                np.divide(q, beta - 1.0, out=big_i[1:])
            np.add(base, alpha * big_m[1:], out=x[1:])
            x[1:] += beta * big_i[1:]
            ud[:, 0] = scan[:, w]
            yield k0, k1, p, big_m[1:], big_i[1:], x[1:]
            prev, cur = cur, prev

    return blocks


def _running(a, scratch):
    """The inclusive running maximum of a along its time axis, the second to
    last, by doubling.

    Pass j sets row i to np.maximum(row i - 2**j, row i) for i >= 2**j,
    earlier operand first, and keeps rows i < 2**j, alternating between a and
    scratch (same shape); it returns whichever holds the result after
    ceil(log2(rows)) passes, and overwrites both.  Ties resolve to the second
    operand and two NaNs to the first, the same element under any grouping,
    so every row is bit for bit np.maximum.accumulate's left fold.
    """
    rows, shift = a.shape[-2], 1
    while shift < rows:
        np.maximum(a[..., :-shift, :], a[..., shift:, :], out=scratch[..., shift:, :])
        scratch[..., :shift, :] = a[..., :shift, :]
        a, scratch = scratch, a
        shift *= 2
    return a


def simulate_new_batch(
    model: CoefficientModel,
    params: PerturbationParams,
    grid: SimGrid,
    n: int,
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the running-extrema scheme on a (paths, L) batch of increments.

    Returns (phi, big_m, big_i, x), each of shape (paths, L+1).  Requires
    params.x0 == 0; route nonzero x0 through simulate_general_x0_batch.
    """
    return collect(scheme_blocks("new", model, params, grid, n), increments)


def simulate_old_batch(model, params, grid, n, increments):
    """Run the plain delayed scheme (lagged state into max/min) on a batch."""
    return collect(scheme_blocks("old", model, params, grid, n), increments)


def simulate_general_x0_batch(model, params, grid, n, increments):
    """Run the general-x0 scheme (no positive part, x0 in the extremum args)."""
    return collect(scheme_blocks("general", model, params, grid, n), increments)


def simulate_new(model, params, grid, n, increments) -> GridPath:
    """One path of the running-extrema scheme (x0 = 0)."""
    return single_path(scheme_blocks("new", model, params, grid, n), grid, increments)


def simulate_general_x0(model, params, grid, n, increments) -> GridPath:
    """One path of the general-x0 scheme.

    At x0=0 it equals simulate_new in value, but not bit for bit: where
    simulate_new writes I = -0.0, this scheme writes 0.0.
    """
    return single_path(scheme_blocks("general", model, params, grid, n), grid, increments)
