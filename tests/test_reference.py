import math

import numpy as np
import pytest

from _oracles import implicit_step, random_valid_params, step_reference
from dpsde import beyond_mao, builtin_catalog, validate
from dpsde.driver import brownian_values, coarsen_values, generate_increments, make_grid
from dpsde.errors import AlphaOutOfRange, BetaOutOfRange
from dpsde.models import CoefficientModel, get_model
from dpsde.reference import (
    MaxSide,
    MinSide,
    exact_singly_perturbed,
    reference_steps,
    solve_reference,
    solve_reference_batch,
)


def const_model(b: float, s: float) -> CoefficientModel:
    return CoefficientModel(
        id=f"const-{b}-{s}",
        drift=lambda t, x: b + 0.0 * x,
        diffusion=lambda t, x: s + 0.0 * x,
    )


def test_implicit_step_interior_case():
    # D = 0.2 inside [-1, 1]: no extremum moves (illustrative arithmetic)
    x, m, i = implicit_step(0.0, 0.5, 0.5, 0.2, 1.0, -1.0)
    assert float(x) == pytest.approx(0.2)
    assert float(m) == 1.0 and float(i) == -1.0


def test_implicit_step_new_maximum_case():
    # D = 1.7 > M = 1: X = 1.2 / 0.5 = 2.4 and 2.4 = 1.2 + 0.5 * 2.4
    x, m, i = implicit_step(0.0, 0.5, 0.0, 1.2, 1.0, 0.0)
    assert float(x) == pytest.approx(2.4)
    assert float(m) == pytest.approx(2.4)
    assert float(i) == 0.0
    assert float(x) == pytest.approx(1.2 + 0.5 * float(x))


def test_implicit_step_new_minimum_case():
    x, m, i = implicit_step(0.0, 0.0, 0.5, -1.2, 0.0, -1.0)
    assert float(x) == pytest.approx(-2.4)
    assert float(i) == pytest.approx(-2.4)
    assert float(m) == 0.0


def test_implicit_step_tie_is_interior():
    # D == M: all formulas coincide, interior branch taken
    x, m, i = implicit_step(0.0, 0.5, 0.0, 0.5, 1.0, 0.0)
    assert float(x) == pytest.approx(1.0)
    assert float(m) == 1.0


def test_zero_coefficients_zero_path():
    grid = make_grid(64, 1.0)
    p = validate(0.6, -1.0, 0.0, 1.0)
    ref = solve_reference(const_model(0.0, 0.0), p, grid, np.zeros(64))
    assert np.array_equal(ref.x, np.zeros(65))


def test_time_zero_value_general_x0():
    grid = make_grid(8, 1.0)
    p = validate(0.25, 0.25, 1.0, 1.0)
    ref = solve_reference(const_model(0.0, 0.0), p, grid, np.zeros(8))
    # the equation forces X_0 = x0 / (1 - alpha - beta) = 2, then stays there
    assert np.allclose(ref.x, np.full(9, 2.0), rtol=0.0, atol=1e-14)


def test_residual_and_extrema_on_random_models():
    rng = np.random.default_rng(47)
    grid = make_grid(512, 1.0)
    for _ in range(25):
        p = random_valid_params(rng, x0=float(rng.normal()))
        model = get_model(["affine", "gbm", "bounded-trig"][rng.integers(3)])
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=grid.steps)
        ref = solve_reference(model, p, grid, dw)
        resid = np.max(np.abs(ref.x - p.x0 - ref.phi - p.alpha * ref.big_m - p.beta * ref.big_i))
        assert resid <= 1e-12 * (1.0 + np.max(np.abs(ref.x)))
        assert np.array_equal(ref.big_m, np.maximum.accumulate(ref.x))
        assert np.array_equal(ref.big_i, np.minimum.accumulate(ref.x))


def test_exact_singly_perturbed_hand_values_max_side():
    # W = (0, 1, 0.5, 2), alpha = 0.5: X = W + max(W) = (0, 2, 1.5, 4)
    grid = make_grid(3, 3.0)
    increments = np.array([1.0, -0.5, 1.5])
    ref = exact_singly_perturbed(increments, grid, MaxSide(0.5))
    assert np.allclose(ref.x, [0.0, 2.0, 1.5, 4.0], rtol=0.0, atol=1e-15)


def test_exact_singly_perturbed_alpha_zero_is_brownian():
    grid = make_grid(16, 1.0)
    dw = generate_increments(9, 0, grid)
    ref = exact_singly_perturbed(dw, grid, MaxSide(0.0))
    assert np.array_equal(ref.x, brownian_values(dw))


def test_exact_singly_perturbed_hand_values_min_side():
    # beta = -1: X = W - 0.5 * min(W); W = (0, -1, 1) -> X = (0, -0.5, 1.5)
    grid = make_grid(2, 2.0)
    ref = exact_singly_perturbed(np.array([-1.0, 2.0]), grid, MinSide(-1.0))
    assert np.allclose(ref.x, [0.0, -0.5, 1.5], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("bad", [1.0, math.nan, math.inf])
def test_exact_singly_perturbed_rejects_what_validate_rejects(bad):
    grid = make_grid(4, 1.0)
    with pytest.raises(AlphaOutOfRange):
        validate(bad, 0.0, 0.0, 1.0)
    with pytest.raises(AlphaOutOfRange):
        exact_singly_perturbed(np.zeros(4), grid, MaxSide(bad))
    with pytest.raises(BetaOutOfRange):
        validate(0.0, bad, 0.0, 1.0)
    with pytest.raises(BetaOutOfRange):
        exact_singly_perturbed(np.zeros(4), grid, MinSide(bad))


def test_solver_matches_closed_form_on_same_grid():
    # with b=0, sigma=1, beta=0 the case recursion reproduces the closed form
    # at the grid points up to roundoff
    grid = make_grid(4096, 1.0)
    p = validate(0.5, 0.0, 0.0, 1.0)
    model = const_model(0.0, 1.0)
    for i in range(5):
        dw = generate_increments(13, i, grid)
        ref = solve_reference(model, p, grid, dw)
        exact = exact_singly_perturbed(dw, grid, MaxSide(0.5))
        scale = 1.0 + np.max(np.abs(exact.x))
        assert np.max(np.abs(ref.x - exact.x)) <= 1e-10 * scale


def test_singly_perturbed_check_holds_both_sides(monkeypatch):
    # dpsde check holds the solver to the closed form with beta = 0 and with alpha = 0
    import dpsde.checks

    sides = []

    def recording(dw, grid, side):
        sides.append(side)
        return exact_singly_perturbed(dw, grid, side)

    monkeypatch.setattr(dpsde.checks, "exact_singly_perturbed", recording)
    ok, detail = dpsde.checks._check_singly_perturbed()
    assert ok, detail
    assert sides == [MaxSide(0.5)] * 10 + [MinSide(-1.0)] * 10

    def wrong_min_side(dw, grid, side):
        return exact_singly_perturbed(dw, grid, MinSide(-0.5) if isinstance(side, MinSide) else side)

    monkeypatch.setattr(dpsde.checks, "exact_singly_perturbed", wrong_min_side)
    assert not dpsde.checks._check_singly_perturbed()[0]


def test_grid_bias_shrinks_against_fine_truth():
    # sup-gap to the closed form evaluated on a 16x finer coupled path decays
    # roughly like sqrt(h) when the solver grid refines 4x
    fine = make_grid(8192, 1.0)
    p = validate(0.5, 0.0, 0.0, 1.0)
    model = const_model(0.0, 1.0)
    gaps = {512: [], 2048: []}
    for i in range(60):
        dwf = generate_increments(15, i, fine)
        wf = brownian_values(dwf)
        truth = wf + (0.5 / 0.5) * np.maximum.accumulate(wf)
        for L in (512, 2048):
            q = 8192 // L
            dwc = np.diff(coarsen_values(wf, q))
            ref = solve_reference(model, p, make_grid(L, 1.0), dwc)
            gaps[L].append(float(np.max(np.abs(ref.x - truth[::q]))))
    g_coarse = float(np.mean(gaps[512]))
    g_fine = float(np.mean(gaps[2048]))
    assert g_fine < g_coarse / 1.25


def test_bitwise_repeatable():
    grid = make_grid(256, 1.0)
    p = validate(0.6, -1.0, 0.0, 1.0)
    dw = generate_increments(17, 0, grid)
    a = solve_reference(get_model("affine"), p, grid, dw)
    b = solve_reference(get_model("affine"), p, grid, dw)
    assert np.array_equal(a.x, b.x)


def test_small_x0_shift_moves_path_continuously():
    grid = make_grid(256, 1.0)
    model = get_model("affine")
    dw = generate_increments(19, 0, grid)
    base = solve_reference(model, validate(0.6, -1.0, 0.0, 1.0), grid, dw)
    for delta in (1e-9, 1e-6):
        moved = solve_reference(model, validate(0.6, -1.0, delta, 1.0), grid, dw)
        shift = float(np.max(np.abs(moved.x - base.x)))
        assert shift <= 1e3 * delta
        assert shift > 0.0


def test_batch_matches_single():
    # a batch runs the vector step, one path the Python-float loop
    grid = make_grid(128, 1.0)
    p = validate(0.3, -0.4, 0.5, 1.0)
    dw = np.stack([generate_increments(23, i, grid) for i in range(4)])
    for model in builtin_catalog():
        batch = solve_reference_batch(model, p, grid, dw)
        for i in range(4):
            single = solve_reference(model, p, grid, dw[i])
            for whole, one in zip(batch, (single.phi, single.big_m, single.big_i, single.x)):
                assert np.array_equal(whole[i].view(np.int64), one.view(np.int64)), (model.id, i)


def test_fused_step_matches_implicit_step_oracle_bitwise():
    # int64 views, so a -0.0 where the oracle writes 0.0 fails too
    rng = np.random.default_rng(53)
    grid = make_grid(256, 1.0)
    seen_beyond_mao = 0
    for model in builtin_catalog():
        for paths in (1, 5, 64):  # 64: one span of a compare-fine study
            # x0 = +-0.0 takes the s = Phi shortcut of the vector step
            for x0 in (0.0, -0.0, float(rng.normal())):
                p = random_valid_params(rng, x0=x0)
                seen_beyond_mao += beyond_mao(p)
                dw = rng.normal(0.0, np.sqrt(grid.step_size), size=(paths, grid.steps))
                got = solve_reference_batch(model, p, grid, dw)
                expected = step_reference(model, p, grid.step_size, np.ascontiguousarray(dw.T))
                for a, b in zip(got, expected):
                    assert a.shape == (paths, grid.steps + 1)
                    assert np.array_equal(a.view(np.int64), b.T.view(np.int64)), (model.id, paths, p)
    assert seen_beyond_mao >= 5


def vector_steps(model, params, grid, dw):
    """The vector step on one path's (L, 1) increments, collected (L+1, 1).

    It runs at B=2 on a duplicated column, since a one-path run takes the
    Python-float loop; the first column is returned.
    """
    two = np.hstack([dw, dw])
    rows = [tuple(r[:, :1].copy() for r in step[2:]) for step in reference_steps(model, params, grid)(two)]
    return tuple(np.concatenate(column) for column in zip(*rows))


def same_bits(a, b):
    """Bitwise equal, except that any NaN matches any NaN in the same place."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


def test_single_path_loop_matches_vector_step_and_oracle_bitwise():
    # one path goes through the Python-float loop; the vector step (at B=2)
    # and the implicit_step oracle must give the same bits, signed zeros
    # included (zero increments leave ties at +-0.0)
    rng = np.random.default_rng(59)
    grid = make_grid(256, 1.0)
    time_dependent = CoefficientModel(
        id="time-dependent",
        drift=lambda t, x: t * x,
        diffusion=lambda t, x: 1.0 + t * np.sin(x),
    )
    seen_beyond_mao = 0
    for model in builtin_catalog() + [time_dependent]:
        for x0 in (0.0, float(rng.normal())):
            for _ in range(2):
                p = random_valid_params(rng, x0=x0)
                seen_beyond_mao += beyond_mao(p)
                random_dw = rng.normal(0.0, np.sqrt(grid.step_size), size=grid.steps)
                for dw in (random_dw, np.zeros(grid.steps)):
                    got = solve_reference_batch(model, p, grid, dw[None, :])
                    vector = vector_steps(model, p, grid, dw[:, None])
                    oracle = step_reference(model, p, grid.step_size, dw[:, None])
                    for a, b, c in zip(got, vector, oracle):
                        assert a.shape == (1, grid.steps + 1)
                        assert np.array_equal(a.view(np.int64), b.T.view(np.int64)), (model.id, p)
                        assert np.array_equal(a.view(np.int64), c.T.view(np.int64)), (model.id, p)
    assert seen_beyond_mao >= 5


def test_single_path_loop_goes_non_finite_like_vector_step():
    # an infinite increment makes the path infinite and then NaN; the loop
    # must put inf and NaN where the vector step and the oracle do
    grid = make_grid(64, 1.0)
    for model_id in ("affine", "bounded-trig"):
        model = get_model(model_id)
        p = validate(0.6, -1.0, 0.5, 1.0)
        dw = generate_increments(29, 0, grid)
        dw[20] = np.inf
        with np.errstate(all="ignore"):
            got = solve_reference_batch(model, p, grid, dw[None, :])
            vector = vector_steps(model, p, grid, dw[:, None])
            oracle = step_reference(model, p, grid.step_size, dw[:, None])
        x = got[3][0]
        assert np.all(np.isfinite(x[:21])) and np.isinf(x[21]) and np.isnan(x[-1]), model_id
        for a, b, c in zip(got, vector, oracle):
            assert same_bits(a, b.T) and same_bits(a, c.T), model_id
