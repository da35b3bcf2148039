import collections
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import clamped_lag, exact_lag, raw_lag
from dpsde.driver import (
    SimGrid,
    brownian_values,
    coarsen_values,
    generate_increments,
    lag_map,
    make_grid,
    single_path,
)
from dpsde.errors import DelayNotAligned, DelayTooFine, InvalidGrid, InvalidIncrements, SeedOutOfRange
from dpsde.models import get_model
from dpsde.params import validate
from dpsde.reference import reference_steps, solve_reference, solve_reference_batch
from dpsde.scheme import (
    scheme_blocks,
    simulate_general_x0,
    simulate_general_x0_batch,
    simulate_new,
    simulate_new_batch,
    simulate_old_batch,
)


def test_make_grid_step_size():
    assert make_grid(4, 1.0).step_size == 0.25
    assert make_grid(4096, 1.0).step_size == 1.0 / 4096
    grid = make_grid(10, 2.5)
    t = grid.times()
    assert t[0] == 0.0 and t[-1] == pytest.approx(2.5) and len(t) == 11


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(InvalidGrid):
        make_grid(0, 1.0)
    with pytest.raises(InvalidGrid):
        make_grid(8, 0.0)
    with pytest.raises(InvalidGrid):
        make_grid(8, float("nan"))
    # one path's float64 increments must fit an address space: 2**60 of them are 2**63 bytes
    with pytest.raises(InvalidGrid, match="steps must be at most"):
        make_grid(2**60, 1.0)
    assert make_grid(sys.maxsize // 8, 1.0).steps == sys.maxsize // 8


def test_lag_map_examples():
    grid = make_grid(4096, 1.0)
    m = lag_map(grid, 8)
    assert m == 512 and type(m) is int
    assert clamped_lag(m, 1000) == 488
    assert clamped_lag(m, 100) == 0
    assert raw_lag(m, 100) == -412


def test_lag_map_misaligned():
    with pytest.raises(DelayNotAligned):
        lag_map(make_grid(4096, 1.0), 3)


def test_lag_map_too_fine():
    # delay 1/n below one grid step
    with pytest.raises(DelayTooFine):
        lag_map(make_grid(8, 1.0), 16)


def test_lag_map_non_unit_horizon():
    # T = 0.5, L = 4096: delay 1/8 is 2048 h
    assert lag_map(make_grid(4096, 0.5), 8) == 1024


def test_lag_map_beyond_the_floats():
    # n * T is no float, or L / (n * T) overflows to inf: the rule is applied in exact arithmetic
    with pytest.raises(DelayTooFine):
        lag_map(make_grid(2048, 1.0), 10**400)
    for horizon in (1e-310, 5e-324):
        with pytest.raises(DelayNotAligned, match="exceeds the horizon"):
            lag_map(make_grid(2048, horizon), 8)
    # h = 2**-1024 and a delay of 1/2**1024 are one step, although neither n nor L/h is a float
    assert lag_map(make_grid(2**24, 2.0**-1000), 2**1024) == 1


NOT_WHOLE = [2.5, 4096 / 3, 8.0, np.float64(8.0), float("nan"), float("inf"), float("-inf"), "8"]


@pytest.mark.parametrize("steps", NOT_WHOLE)
def test_make_grid_takes_only_whole_step_counts(steps):
    # 2.5 was truncated to 2 steps; a float, NaN, inf or string count is refused where it enters
    for build in (make_grid, SimGrid):  # a grid built directly is checked the same way
        with pytest.raises(InvalidGrid, match="steps must be a whole number"):
            build(steps, 1.0)
        grid = build(np.int64(64), 1.0)
        assert grid == make_grid(64, 1.0) and type(grid.steps) is int


@pytest.mark.parametrize("n", NOT_WHOLE)
def test_lag_map_takes_only_whole_delay_parameters(n):
    # 4096/3 was rounded to a lag of 3 steps; every n that is not a whole number is refused
    with pytest.raises(DelayNotAligned, match="delay parameter n must be a whole number"):
        lag_map(make_grid(4096, 1.0), n)
    m = lag_map(make_grid(4096, 1.0), np.int64(8))
    assert m == 512 and type(m) is int
    with pytest.raises(DelayTooFine):  # a whole n beyond the floats still takes the exact path
        lag_map(make_grid(2048, 1.0), 10**400)


@pytest.mark.parametrize("steps,horizon,message", [
    (256.0, 1.0, "steps must be a whole number, got 256.0"),
    (256.5, 1.0, "steps must be a whole number, got 256.5"),
    (0, 1.0, "steps must be >= 1, got 0"),
    (2**60, 1.0, f"steps must be at most {sys.maxsize // 8} for one path's increments, got {2**60}"),
    (8, -1.0, "horizon must be finite and > 0, got -1.0"),
    (8, float("nan"), "horizon must be finite and > 0, got nan"),
    (8, np.float64(-1.0), "horizon must be finite and > 0, got -1.0"),
    (8, "1.0", "horizon must be a real number, got '1.0'"),
    (8, None, "horizon must be a real number, got None"),
    (8, 10**400, f"horizon must be a real number within the float range, got {10**400}"),
], ids=["float", "fraction", "zero", "beyond-address-space", "negative-horizon", "nan-horizon", "numpy-horizon",
        "string-horizon", "none-horizon", "horizon-beyond-floats"])
def test_every_way_to_build_a_grid_runs_its_checks(steps, horizon, message):
    # SimGrid(256.0, 1.0) used to build unchecked and fail late in np.empty; the messages are make_grid's
    assert make_grid is SimGrid
    with pytest.raises(InvalidGrid) as info:
        SimGrid(steps, horizon)
    assert str(info.value) == message
    with pytest.raises(InvalidGrid) as info:
        replace(make_grid(8, 1.0), steps=steps, horizon=horizon)
    assert str(info.value) == message
    grid = SimGrid(8, 2)
    assert type(grid.horizon) is float and replace(grid, steps=16) == make_grid(16, 2.0)
    for horizon in (np.float32(2.0), np.int64(2), Fraction(2), np.uint16(2)):  # every numbers.Real
        assert SimGrid(8, horizon) == grid and type(SimGrid(8, horizon).horizon) is float


def test_lag_map_matches_an_exact_oracle():
    rng = random.Random(20281)
    outcomes = collections.Counter()
    for case in range(3000):
        if case % 3 == 0:  # horizons q/2**e with lags near alignment
            horizon, n = rng.randint(1, 16) / 2 ** rng.randint(0, 8), rng.randint(1, 4096)
            steps = max(1, round(rng.randint(1, 64) * n * horizon) + rng.choice((0, 0, 1, -1)))
        elif case % 3 == 1:  # decimal horizons, where n*T rounds in floats
            horizon, n = rng.choice((0.1, 0.3, 1 / 3, 0.7, 2.5, 1e-3, 3.0)), rng.randint(1, 10**6)
            steps = max(1, round(rng.randint(1, 1000) * n * horizon))
        else:  # any magnitude: n far beyond the floats, subnormal to huge T, L up to the address bound
            horizon = math.ldexp(rng.random() + 0.5, rng.randint(-1075, 1000)) or 5e-324
            steps, n = rng.randint(1, 2 ** rng.randint(1, 59) - 1), rng.randint(1, 10 ** rng.randint(1, 400))
        try:
            got = lag_map(make_grid(steps, horizon), n)
        except (DelayTooFine, DelayNotAligned) as exc:
            got = type(exc)
        assert got == exact_lag(steps, horizon, n), (steps, horizon, n)
        outcomes["m" if isinstance(got, int) else got.__name__] += 1
    assert min(outcomes.values()) > 300 and len(outcomes) == 3, outcomes


def test_lag_map_edge_cases_decided_exactly():
    # the float route read L/(n*T) here as exactly 0.5 and raised DelayTooFine; it is 0.50000000000000003
    with pytest.raises(DelayNotAligned, match="is not an integer"):
        lag_map(make_grid(4, 1 / 3), 24)
    assert exact_lag(4, 1 / 3, 24) is DelayNotAligned
    # L/(n*T) = m + off/n sits exactly on the 1e-9*m tolerance at off = +-4, and one past it at +-5
    m, n = 5**9 * 2, 1024
    for off in (4, -4):
        assert lag_map(make_grid(m * n + off, 1.0), n) == m == exact_lag(m * n + off, 1.0, n)
    for off in (5, -5):
        with pytest.raises(DelayNotAligned, match="is not an integer"):
            lag_map(make_grid(m * n + off, 1.0), n)
    # ties round half to even, as round() does: L/(n*T) = 0.5 rounds below one step, 1.5 to a misaligned 2,
    # and from m = 5e8 up a half step is within the tolerance, so the tie picks the lag itself
    assert lag_map(make_grid(2 * 10**9 + 1, 1.0), 2) == 10**9 == exact_lag(2 * 10**9 + 1, 1.0, 2)
    assert lag_map(make_grid(2 * 10**9 + 3, 1.0), 2) == 10**9 + 2 == exact_lag(2 * 10**9 + 3, 1.0, 2)
    with pytest.raises(DelayTooFine):
        lag_map(make_grid(1, 1.0), 2)
    with pytest.raises(DelayNotAligned, match=r"L/\(n\*T\) = 1.5 is not an integer"):
        lag_map(make_grid(3, 1.0), 2)


def test_lag_map_beyond_the_floats_loads_no_fractions():
    # the exact rule is integer arithmetic: fractions (and the decimal module it loads) stay out
    script = """
import sys
from dpsde.driver import lag_map, make_grid
try:
    lag_map(make_grid(2048, 1.0), 10**400)
except Exception as exc:
    print(type(exc).__name__, "fractions" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "DelayTooFine False\n"


def test_clamped_lag_is_monotone_and_explicit():
    m = lag_map(make_grid(256, 1.0), 16)
    prev = 0
    for k in range(257):
        lk = clamped_lag(m, k)
        assert lk >= prev
        if k >= 1:
            assert lk <= k - 1  # recursion stays explicit
        prev = lk
    assert m >= 1


def test_increments_deterministic_and_stream_separated():
    grid = make_grid(128, 1.0)
    a = generate_increments(42, 3, grid)
    b = generate_increments(42, 3, grid)
    assert np.array_equal(a, b)
    c = generate_increments(42, 4, grid)
    d = generate_increments(43, 3, grid)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_increments_reject_key_words_outside_64_bits():
    # the Philox key is two 64-bit words; a masked -1 would alias 2**64 - 1
    grid = make_grid(8, 1.0)
    for seed, index in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(SeedOutOfRange):
            generate_increments(seed, index, grid)
    assert generate_increments(2**64 - 1, 2**64 - 1, grid).shape == (8,)


@pytest.mark.parametrize("seed,index", [(1.5, 0), (0, 2.0), (float("nan"), 0), (0, float("inf")), ("42", 0)])
def test_increments_take_only_whole_key_words(seed, index):
    with pytest.raises(SeedOutOfRange, match="must be a whole number"):
        generate_increments(seed, index, make_grid(8, 1.0))


def test_numpy_key_words_draw_the_same_stream_as_python_ints():
    # a numpy seed shifted left by 64 bits lost itself: np.int64(42) drew the stream of seed 0
    grid = make_grid(64, 1.0)
    same = generate_increments(np.int64(42), np.uint64(3), grid)
    assert np.array_equal(same, generate_increments(42, 3, grid))
    assert not np.array_equal(same, generate_increments(0, 3, grid))


def test_increment_moments():
    grid = make_grid(1_000_000, 1.0)
    dw = generate_increments(2024, 0, grid)
    h = grid.step_size
    n = len(dw)
    se_mean = np.sqrt(h / n)
    assert abs(float(np.mean(dw))) < 4.0 * se_mean
    se_var = h * np.sqrt(2.0 / (n - 1))
    assert abs(float(np.var(dw, ddof=1)) - h) < 4.0 * se_var


def test_cross_path_correlation_sane():
    grid = make_grid(100_000, 1.0)
    a = generate_increments(7, 0, grid)
    b = generate_increments(7, 1, grid)
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r) < 5.0 / np.sqrt(len(a))


def test_brownian_values_prepends_zero():
    w = brownian_values(np.array([1.0, -0.5, 2.0]))
    assert np.array_equal(w, np.array([0.0, 1.0, 0.5, 2.5]))


def test_coarsen_values_is_bitwise_subsample():
    grid = make_grid(4096, 1.0)
    w = brownian_values(generate_increments(5, 0, grid))
    wc = coarsen_values(w, 8)
    assert np.array_equal(wc, w[::8])


def test_coarsen_rejects_non_divisor():
    with pytest.raises(InvalidGrid):
        coarsen_values(np.zeros(11), 4)


@pytest.mark.parametrize("factor", [2.0, "2", 0, -2])
def test_coarsen_takes_only_a_whole_factor_of_at_least_one(factor):
    # 2.0 and "2" used to fail with a bare TypeError from the slice and the comparison
    w = np.arange(9.0)
    with pytest.raises(InvalidGrid):
        coarsen_values(w, factor)
    assert np.array_equal(coarsen_values(w, np.int64(2)), w[::2])


# every solver entry on one path's 1-D increments (m, p, g, dw: model, params, grid, increments)
_SOLVER_ENTRIES = {
    "simulate_new": lambda m, p, g, dw: simulate_new(m, p, g, 8, dw),
    "single_path_old": lambda m, p, g, dw: single_path(scheme_blocks("old", m, p, g, 8), g, dw),
    "simulate_general_x0": lambda m, p, g, dw: simulate_general_x0(m, p, g, 8, dw),
    "simulate_new_batch": lambda m, p, g, dw: simulate_new_batch(m, p, g, 8, [dw, dw]),
    "simulate_old_batch": lambda m, p, g, dw: simulate_old_batch(m, p, g, 8, [dw, dw]),
    "simulate_general_x0_batch": lambda m, p, g, dw: simulate_general_x0_batch(m, p, g, 8, [dw, dw]),
    "scheme_blocks": lambda m, p, g, dw: next(scheme_blocks("new", m, p, g, 8)(dw[:, None])),
    "reference_steps": lambda m, p, g, dw: next(reference_steps(m, p, g)(dw[:, None])),  # the B=1 float loop
    "solve_reference": lambda m, p, g, dw: solve_reference(m, p, g, dw),
    "solve_reference_batch": lambda m, p, g, dw: solve_reference_batch(m, p, g, [dw, dw]),
}


@pytest.mark.parametrize("entry", sorted(_SOLVER_ENTRIES))
def test_every_solver_rejects_an_increment_count_off_the_grid(entry):
    model, params, grid = get_model("affine"), validate(0.6, -1.0, 0.0, 1.0), make_grid(256, 1.0)
    solve = _SOLVER_ENTRIES[entry]
    solve(model, params, grid, np.zeros(256))
    with pytest.raises(InvalidIncrements, match=r"need 256 increments per path"):
        solve(model, params, grid, np.zeros(7))


def test_increments_of_the_wrong_rank_raise_invalid_increments():
    model, params, grid = get_model("affine"), validate(0.6, -1.0, 0.0, 1.0), make_grid(256, 1.0)
    with pytest.raises(InvalidIncrements):
        simulate_new(model, params, grid, 8, np.zeros((1, 256)))
    with pytest.raises(InvalidIncrements):
        simulate_new_batch(model, params, grid, 8, np.zeros((1, 1, 256)))
    with pytest.raises(InvalidIncrements):
        next(scheme_blocks("new", model, params, grid, 8)(np.zeros(256)))
