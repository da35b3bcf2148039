import sys

import numpy as np
import pytest

from _oracles import clamped_lag, raw_lag
from dpsde.driver import (
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
