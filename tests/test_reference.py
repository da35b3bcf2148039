from dataclasses import replace

import numpy as np
import pytest

from _oracles import implicit_step, random_valid_params, step_reference
from dpsde import beyond_mao, builtin_catalog, validate
from dpsde.driver import brownian_values, coarsen_values, generate_increments, make_grid
from dpsde.errors import InvalidIncrements, NotSinglyPerturbed
from dpsde.models import CoefficientModel, get_model
from dpsde.reference import exact_singly_perturbed, reference_steps, solve_reference, solve_reference_batch


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


def test_implicit_step_keeps_max_where_case_ii_rounds_below_it():
    # D lands one ulp above M, yet (s + beta*I)/(1 - alpha) rounds below M:
    # the running maximum must stay where it was, bit for bit
    big_m, big_i, s = 1.3182253562629596, 0.2446437674242071, 0.7719339099293909
    x, m, i = implicit_step(0.0, 0.6, -1.0, s, big_m, big_i)
    assert (s + 0.6 * big_m) + -1.0 * big_i > big_m
    assert float(x) == 1.3182253562629593 < big_m
    assert float(m) == big_m and float(i) == big_i


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
    ref = exact_singly_perturbed(increments, grid, validate(0.5, 0.0, 0.0, 3.0))
    assert np.allclose(ref.x, [0.0, 2.0, 1.5, 4.0], rtol=0.0, atol=1e-15)


def test_exact_singly_perturbed_alpha_zero_is_brownian():
    grid = make_grid(16, 1.0)
    dw = generate_increments(9, 0, grid)
    ref = exact_singly_perturbed(dw, grid, validate(0.0, 0.0, 0.0, 1.0))
    assert np.array_equal(ref.x, brownian_values(dw))


def test_exact_singly_perturbed_hand_values_min_side():
    # beta = -1: X = W - 0.5 * min(W); W = (0, -1, 1) -> X = (0, -0.5, 1.5)
    grid = make_grid(2, 2.0)
    ref = exact_singly_perturbed(np.array([-1.0, 2.0]), grid, validate(0.0, -1.0, 0.0, 2.0))
    assert np.allclose(ref.x, [0.0, -0.5, 1.5], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("alpha, beta, x0", [(0.5, -1.0, 0.0), (0.5, 0.0, 1.0), (0.0, 0.0, -2.0), (1e-200, 1e-200, 0.0)])
def test_exact_singly_perturbed_needs_x0_zero_and_one_parameter_zero(alpha, beta, x0):
    # 1e-200 * 1e-200 underflows to 0, yet neither parameter is zero; the
    # wrong shape shows that the parameters are checked first
    with pytest.raises(NotSinglyPerturbed):
        exact_singly_perturbed(np.zeros(3), make_grid(4, 1.0), validate(alpha, beta, x0, 1.0))


@pytest.mark.parametrize("shape", [(10,), (2, 10), (257,), (256, 2), ()])
def test_exact_singly_perturbed_needs_the_grid_step_count_on_the_last_axis(shape):
    # 10 increments on a 256-step grid used to give an 11-point path, which
    # write_path_csv then zipped against the grid's 257 times
    grid = make_grid(256, 1.0)
    with pytest.raises(InvalidIncrements, match="need 256 increments per path"):
        exact_singly_perturbed(np.zeros(shape), grid, validate(0.5, 0.0, 0.0, 1.0))
    assert exact_singly_perturbed(np.zeros((2, 256)), grid, validate(0.0, -1.0, 0.0, 1.0)).x.shape == (2, 257)


def test_solver_matches_closed_form_on_same_grid():
    # with b=0, sigma=1, beta=0 the case recursion reproduces the closed form
    # at the grid points up to roundoff
    grid = make_grid(4096, 1.0)
    p = validate(0.5, 0.0, 0.0, 1.0)
    model = const_model(0.0, 1.0)
    for i in range(5):
        dw = generate_increments(13, i, grid)
        ref = solve_reference(model, p, grid, dw)
        exact = exact_singly_perturbed(dw, grid, p)
        scale = 1.0 + np.max(np.abs(exact.x))
        assert np.max(np.abs(ref.x - exact.x)) <= 1e-10 * scale


def test_singly_perturbed_check_holds_both_sides(monkeypatch):
    # dpsde check holds the solver to the closed form with beta = 0 and with alpha = 0
    import dpsde.checks

    records = []

    def recording(dw, grid, params):
        records.append(params)
        return exact_singly_perturbed(dw, grid, params)

    monkeypatch.setattr(dpsde.checks, "exact_singly_perturbed", recording)
    ok, detail = dpsde.checks._check_singly_perturbed()
    assert ok, detail
    assert records == [validate(0.5, 0.0, 0.0, 1.0)] * 10 + [validate(0.0, -1.0, 0.0, 1.0)] * 10

    def wrong_min_side(dw, grid, params):
        return exact_singly_perturbed(dw, grid, replace(params, beta=-0.5) if params.beta else params)

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


def test_reference_max_holds_where_case_ii_rounds_below_it():
    # zero drift and unit diffusion make Phi the Brownian path, so two
    # increments place the state: step 1 sets a new maximum M_1, step 2 puts
    # D one ulp above M_1, and case (ii) rounds X_2 below M_1 (a search over
    # x0 and the increments at alpha=0.6, beta=-1 found this state)
    grid = make_grid(2, 1.0)
    p = validate(0.6, -1.0, 0.12, 1.0)
    model = get_model("zero-drift-unit-diffusion")
    dw = np.array([0.64, -(2.0**-53)])
    loop = solve_reference(model, p, grid, dw)
    d = ((p.x0 + loop.phi[2]) + p.alpha * loop.big_m[1]) + p.beta * loop.big_i[1]
    assert d > loop.big_m[1] > loop.x[2]
    assert loop.big_m[2] == loop.big_m[1] == 1.6857142857142855
    assert loop.x[2] == 1.6857142857142853
    vector = vector_steps(model, p, grid, dw[:, None])
    for a, b in zip((loop.phi, loop.big_m, loop.big_i, loop.x), vector):
        assert np.array_equal(a.view(np.int64), b[:, 0].view(np.int64))


def edge_increments(rng, p, grid, paths):
    """(paths, L) increments for zero-drift-unit-diffusion, whose Phi is the
    Brownian path: three zero steps (ties at +-0.0 when x0 is +-0.0), then
    normal draws mixed with steps that aim D = x0 + Phi + alpha*M + beta*I
    within a few ulps of M_k or I_k, with the state tracked by implicit_step."""
    dw = np.zeros((paths, grid.steps))
    c0 = p.x0 / (1.0 - p.alpha - p.beta)
    for row in dw:
        phi, big_m, big_i = 0.0, c0, c0
        for k in range(3, grid.steps):
            if rng.random() < 0.25:
                row[k] = rng.normal(0.0, np.sqrt(grid.step_size))
            else:
                edge = big_m if rng.random() < 0.5 else big_i
                target = edge - p.x0 - p.alpha * big_m - p.beta * big_i
                row[k] = target + int(rng.integers(-4, 5)) * np.spacing(target) - phi
            phi = phi + row[k]
            _, big_m, big_i = (float(v) for v in implicit_step(p.x0, p.alpha, p.beta, phi, big_m, big_i))
    return dw


def test_extrema_never_step_back_near_case_boundaries():
    # M never falls and I never rises, even where the case formula rounds X
    # to the wrong side of the extremum it moves; the vector step (B=3) and
    # the Python-float loop (B=1) agree bit for bit, +-0.0 ties included
    rng = np.random.default_rng(61)
    grid = make_grid(96, 1.0)
    model = get_model("zero-drift-unit-diffusion")
    seen_beyond_mao = rounded_past = 0
    for _ in range(20):
        for x0 in (0.0, -0.0, float(rng.normal())):
            p = random_valid_params(rng, x0=x0)
            seen_beyond_mao += beyond_mao(p)
            dw = edge_increments(rng, p, grid, 3)
            phi, big_m, big_i, x = solve_reference_batch(model, p, grid, dw)
            assert np.all(np.diff(big_m) >= 0.0) and np.all(np.diff(big_i) <= 0.0), p
            assert np.array_equal(big_m, np.maximum.accumulate(x, axis=1)), p
            assert np.array_equal(big_i, np.minimum.accumulate(x, axis=1)), p
            for row in range(3):
                loop = solve_reference_batch(model, p, grid, dw[row : row + 1])
                for a, b in zip((phi, big_m, big_i, x), loop):
                    assert np.array_equal(a[row].view(np.int64), b[0].view(np.int64)), (p, row)
            d = ((p.x0 + phi[:, 1:]) + p.alpha * big_m[:, :-1]) + p.beta * big_i[:, :-1]
            rounded_past += np.sum((d > big_m[:, :-1]) & (x[:, 1:] < big_m[:, :-1]))
            rounded_past += np.sum((d < big_i[:, :-1]) & (x[:, 1:] > big_i[:, :-1]))
    assert seen_beyond_mao >= 5
    assert rounded_past >= 10


def test_reference_check_holds_the_loop_to_the_vector_step(monkeypatch):
    # dpsde check solves its first path again through the Python-float loop
    # and fails on one differing bit
    import dpsde.checks

    assert dpsde.checks._check_reference_residual()[0]

    def nudged(*args):
        path = solve_reference(*args)
        path.x[-1] = np.nextafter(path.x[-1], np.inf)
        return path

    monkeypatch.setattr(dpsde.checks, "solve_reference", nudged)
    assert not dpsde.checks._check_reference_residual()[0]
