"""Time grids, delay index maps and reproducible Brownian increments.

All processes are discretized on one uniform grid t_k = k*h, h = T/L, a
SimGrid, which checks L and T when it is built (make_grid is the same class).
The delay parameter n of the approximation scheme only selects a lag of
m = L/(n*T) whole grid steps, which must divide evenly (lag_map decides this
in exact integers); the two lag conventions of the scheme are

    raw lag      k -> k - m        (integrand history; negative index means
                                    the constant pre-time segment)
    clamped lag  k -> max(k - m, 0)   (running-extrema arguments)

Brownian increments are drawn per path from a counter-based Philox stream
keyed by (master_seed, path_index), so any path can be regenerated in
isolation and results never depend on execution order.  Gaussians come from
numpy's ziggurat sampler (inverse-free); everything is bitwise reproducible
for a fixed numpy build.  Both key words, the seed and the path index, must
lie in [0, 2**64).

The block protocol.  A solver (dpsde.scheme.scheme_blocks,
dpsde.reference.reference_steps) is built, then run.  Building it runs
every check that does not depend on the increments, so bad parameters fail
before any increment is drawn, and returns a stream: a generator function
of time-major (L, B) increments.  Running the stream yields blocks
(k0, k1, phi, big_m, big_i, x): grid rows k0..k1-1 of each component as
(k1-k0, B) views that later blocks overwrite, time zero first.  A stream
creates its buffers on each run, so one built stream serves every piece of
a study, in whichever process runs the piece.  Before its first step every
run passes its increments to check_steps, which raises InvalidIncrements
unless they hold exactly L steps per path.  Only the shape is checked: a
non-finite increment runs through, and a study stops on the non-finite
statistic it gives with NonFinitePath.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DelayNotAligned, DelayTooFine, InvalidGrid, InvalidIncrements, SeedOutOfRange
from .params import real_number

__all__ = [
    "SimGrid",
    "GridPath",
    "make_grid",
    "lag_map",
    "generate_increments",
    "brownian_values",
    "coarsen_values",
]

_MASK64 = (1 << 64) - 1


def whole_number(name: str, value, error: type) -> int:
    """value as a Python int if its type is an integer type, numpy's included (it has __index__); else raise error."""
    if not hasattr(value, "__index__"):
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimGrid:
    """Uniform grid with L steps on [0, T]; t_k = k * step_size.  Building one raises InvalidGrid on steps
    not a whole number >= 1, on more steps than one path's float64 increments can hold in an address space
    (8*steps > sys.maxsize), or on a horizon that is not a real number (numbers.Real), finite and > 0."""

    steps: int
    horizon: float

    def __post_init__(self) -> None:
        steps = whole_number("steps", self.steps, InvalidGrid)
        if steps < 1:
            raise InvalidGrid(f"steps must be >= 1, got {steps}")
        if steps * 8 > sys.maxsize:
            raise InvalidGrid(f"steps must be at most {sys.maxsize // 8} for one path's increments, got {steps}")
        horizon = real_number("horizon", self.horizon, InvalidGrid)
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise InvalidGrid(f"horizon must be finite and > 0, got {self.horizon}")
        object.__setattr__(self, "steps", steps)  # the dataclass is frozen
        object.__setattr__(self, "horizon", horizon)

    @property
    def step_size(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """All L+1 grid times, computed as k*h for bit-stable indexing."""
        return np.arange(self.steps + 1) * self.step_size


@dataclass(frozen=True)
class GridPath:
    """One solver run on the grid: Phi, M, I, X sampled at t_0..t_L."""

    phi: np.ndarray
    big_m: np.ndarray
    big_i: np.ndarray
    x: np.ndarray
    grid: SimGrid


make_grid = SimGrid  # make_grid(steps, horizon): the checked grid under its older name


def lag_map(grid: SimGrid, n: int) -> int:
    """The delay 1/n as a whole number m >= 1 of grid steps.

    Requires a whole n >= 1, delay at most the horizon, and L/(n*T) within
    1e-9*max(1, m) of its nearest integer m (half to even); raises DelayTooFine
    when m < 1 and DelayNotAligned otherwise.  The rule is decided in exact
    integers from T's float value, so an n or L/(n*T) of any size is judged alike.
    """
    n = whole_number("delay parameter n", n, DelayNotAligned)
    if n < 1:
        raise DelayNotAligned(f"delay parameter n must be >= 1, got {n}")
    a, b = grid.horizon.as_integer_ratio()
    num, den = grid.steps * b, n * a  # L/(n*T) = num/den
    m, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and m % 2):
        m += 1
    if m < 1:
        raise DelayTooFine(f"delay 1/{n} is below one grid step h={grid.step_size!r}")
    if m > grid.steps:
        raise DelayNotAligned(f"delay 1/{n} exceeds the horizon {grid.horizon!r}")
    if 10**9 * abs(num - m * den) > max(1, m) * den:
        raise DelayNotAligned(f"L/(n*T) = {num / den!r} is not an integer (L={grid.steps}, n={n}, T={grid.horizon!r})")
    return m


def check_key_word(name: str, value: int) -> int:
    """value as an int; raises SeedOutOfRange unless it is a whole number in [0, 2**64), one Philox key word."""
    value = whole_number(name, value, SeedOutOfRange)
    if not 0 <= value <= _MASK64:
        raise SeedOutOfRange(f"{name} must be in [0, 2**64), got {value!r}")
    return value


def _philox_key(master_seed: int, path_index: int) -> int:
    # 128-bit key: high word = seed, low word = path index.  Distinct keys
    # give statistically independent Philox streams, so per-path draws are
    # order-independent by construction.  Python ints: a numpy seed would shift out of its 64 bits.
    return (check_key_word("master_seed", master_seed) << 64) | check_key_word("path_index", path_index)


def generate_increments(master_seed: int, path_index: int, grid: SimGrid) -> np.ndarray:
    """L centered Gaussian increments of variance h for one path.

    Deterministic given (master_seed, path_index, grid); distinct path
    indices use disjoint counter-based streams.  Raises SeedOutOfRange for a
    seed or index outside [0, 2**64).
    """
    gen = np.random.Generator(np.random.Philox(key=_philox_key(master_seed, path_index)))
    return gen.standard_normal(grid.steps) * np.sqrt(grid.step_size)


def check_steps(dw: np.ndarray, grid: SimGrid) -> None:
    """Raise InvalidIncrements unless time-major dw holds grid.steps increments per path."""
    if dw.ndim != 2 or dw.shape[0] != grid.steps:
        raise InvalidIncrements(f"need {grid.steps} increments per path, one per grid step; got (L, paths) = {dw.shape}")


def collect(blocks, increments) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A built solver stream run on increments, 1-D for one path or (paths, L),
    as (phi, big_m, big_i, x), each (paths, L+1)."""
    arr = np.asarray(increments, dtype=float)
    if arr.ndim not in (1, 2):
        raise InvalidIncrements(f"increments must be 1-D or (paths, L), got shape {arr.shape}")
    dw = np.ascontiguousarray(np.atleast_2d(arr).T)  # time-major (L, paths)
    out = np.empty((4, dw.shape[0] + 1, dw.shape[1]))
    for k0, k1, *block in blocks(dw):
        for whole, part in zip(out, block):
            whole[k0:k1] = part
    return tuple(a.T for a in out)


def single_path(blocks, grid: SimGrid, increments) -> GridPath:
    """A built solver stream run on one path's 1-D increments."""
    if np.ndim(increments) != 1:
        raise InvalidIncrements(f"a single path needs 1-D increments, got shape {np.shape(increments)}")
    phi, big_m, big_i, x = collect(blocks, increments)
    return GridPath(phi=phi[0], big_m=big_m[0], big_i=big_i[0], x=x[0], grid=grid)


def brownian_values(increments: np.ndarray) -> np.ndarray:
    """Brownian path W_0 = 0, W_k = W_{k-1} + dW_{k-1} (length L+1)."""
    increments = np.asarray(increments, dtype=float)
    out = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def coarsen_values(values: np.ndarray, factor: int) -> np.ndarray:
    """Subsample a Brownian path to a factor-coarser grid (bitwise exact)."""
    values = np.asarray(values, dtype=float)
    if factor < 1 or (values.shape[-1] - 1) % factor != 0:
        raise InvalidGrid(f"factor {factor} does not divide {values.shape[-1] - 1} steps")
    return values[..., ::factor]
