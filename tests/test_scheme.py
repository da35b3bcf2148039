import numpy as np
import pytest

from _oracles import (
    brute_new_scheme,
    brute_old_scheme,
    phi_step,
    random_valid_params,
    step_general_kernel,
    step_new_kernel,
    step_old_kernel,
)
from dpsde import beyond_mao, builtin_catalog, validate
from dpsde.driver import brownian_values, generate_increments, lag_map, make_grid, single_path
from dpsde.errors import DelayNotAligned, DPSDEError
from dpsde.models import CoefficientModel, get_model
from dpsde.reference import MaxSide, exact_singly_perturbed
from dpsde.scheme import (
    _running,
    _scan_buffers,
    _scan_views,
    scheme_blocks,
    simulate_general_x0,
    simulate_general_x0_batch,
    simulate_new,
    simulate_new_batch,
    simulate_old_batch,
)


def const_model(b: float, s: float) -> CoefficientModel:
    return CoefficientModel(
        id=f"const-{b}-{s}",
        drift=lambda t, x: b + 0.0 * x,
        diffusion=lambda t, x: s + 0.0 * x,
    )


def test_phi_pure_drift_is_time():
    grid = make_grid(32, 1.0)
    p = validate(0.0, 0.0, 0.0, 1.0)
    path = simulate_new(const_model(1.0, 0.0), p, grid, 4, np.zeros(32))
    assert np.allclose(path.phi, grid.times(), rtol=0.0, atol=1e-12)


def test_phi_pure_diffusion_is_brownian():
    grid = make_grid(64, 1.0)
    p = validate(0.0, 0.0, 0.0, 1.0)
    dw = generate_increments(1, 0, grid)
    path = simulate_new(const_model(0.0, 1.0), p, grid, 8, dw)
    assert np.array_equal(path.phi, brownian_values(dw))


def test_phi_vanishes_for_multiplicative_noise_at_zero():
    grid = make_grid(64, 1.0)
    p = validate(0.0, 0.0, 0.0, 1.0)
    dw = generate_increments(1, 1, grid)
    path = simulate_new(get_model("gbm"), p, grid, 8, dw)
    assert np.array_equal(path.x, np.zeros(65))


def test_phi_step_matches_increment():
    grid = make_grid(16, 1.0)
    p = validate(0.2, -0.3, 0.0, 1.0)
    m = lag_map(grid, 16)
    dw = generate_increments(2, 0, grid)
    model = get_model("affine")
    path = simulate_new(model, p, grid, 16, dw)
    for k in range(1, 17):
        inc = phi_step(model, p, grid, m, path.x, dw, k, history=0.0)
        assert path.phi[k] == path.phi[k - 1] + inc


def test_scheme_collapses_without_perturbation():
    grid = make_grid(128, 1.0)
    p = validate(0.0, 0.0, 0.0, 1.0)
    dw = generate_increments(3, 0, grid)
    path = simulate_new(const_model(0.0, 1.0), p, grid, 8, dw)
    w = brownian_values(dw)
    assert np.array_equal(path.x, w)
    # the extrema components still track the Brownian running extrema
    assert np.array_equal(path.big_m, np.maximum.accumulate(w))
    assert np.array_equal(path.big_i, np.minimum.accumulate(w))


def test_zero_coefficients_zero_fixed_point():
    grid = make_grid(64, 1.0)
    p = validate(0.6, -1.0, 0.0, 1.0)
    path = simulate_new(const_model(0.0, 0.0), p, grid, 8, np.zeros(64))
    for arr in (path.x, path.big_m, path.big_i, path.phi):
        assert np.array_equal(arr, np.zeros(65))


def test_new_requires_zero_x0():
    grid = make_grid(64, 1.0)
    p = validate(0.2, 0.2, 1.0, 1.0)
    with pytest.raises(DPSDEError):
        simulate_new(get_model("affine"), p, grid, 8, np.zeros(64))


def test_misaligned_delay_propagates():
    grid = make_grid(64, 1.0)
    p = validate(0.2, 0.2, 0.0, 1.0)
    with pytest.raises(DelayNotAligned):
        simulate_new(get_model("affine"), p, grid, 3, np.zeros(64))


def test_single_sided_scheme_hits_closed_form():
    # beta = 0 with constant sigma: the delay never enters (no state in the
    # coefficients, zero weight on the lagged extremum), so the scheme equals
    # the closed form W + (alpha/(1-alpha)) max(W) at every n
    grid = make_grid(1024, 1.0)
    p = validate(0.3, 0.0, 0.0, 1.0)
    model = const_model(0.0, 1.0)
    for n in (8, 64):
        for i in range(10):
            dw = generate_increments(11, i, grid)
            path = simulate_new(model, p, grid, n, dw)
            exact = exact_singly_perturbed(dw, grid, MaxSide(0.3))
            assert np.max(np.abs(path.x - exact.x)) <= 1e-12 * (1.0 + np.max(np.abs(exact.x)))


def test_state_dependent_gap_to_reference_shrinks_with_n():
    from dpsde.reference import solve_reference_batch

    grid = make_grid(1024, 1.0)
    p = validate(0.5, 0.0, 0.0, 1.0)
    model = get_model("affine")
    dw = np.stack([generate_increments(11, i, grid) for i in range(40)])
    ref = solve_reference_batch(model, p, grid, dw)[3]
    gaps = {}
    for n in (8, 64):
        xn = simulate_new_batch(model, p, grid, n, dw)[3]
        gaps[n] = float(np.mean(np.max(np.abs(xn - ref), axis=1)))
    assert gaps[64] < gaps[8]


def test_identity_and_monotonicity_random_configs():
    rng = np.random.default_rng(21)
    grid = make_grid(256, 1.0)
    ids = ["affine", "gbm", "bounded-trig", "zero-drift-unit-diffusion", "log-lipschitz"]
    for _ in range(60):
        p = random_valid_params(rng)
        model = get_model(ids[rng.integers(len(ids))])
        n = int(rng.choice([8, 16, 32]))
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=grid.steps)
        path = simulate_new(model, p, grid, n, dw)
        resid = np.max(np.abs(path.x - path.phi - p.alpha * path.big_m - p.beta * path.big_i))
        assert resid <= 1e-12 * (1.0 + np.max(np.abs(path.x)))
        assert np.all(np.diff(path.big_m) >= 0.0) and np.all(path.big_m >= 0.0)
        assert np.all(np.diff(path.big_i) <= 0.0) and np.all(path.big_i <= 0.0)


def test_matches_brute_force_re_maximization_bitwise():
    rng = np.random.default_rng(23)
    ids = ["affine", "gbm", "bounded-trig", "zero-drift-unit-diffusion", "log-lipschitz"]
    for _ in range(100):
        L = int(rng.integers(2, 17))
        grid = make_grid(L, 1.0)
        p = random_valid_params(rng)
        model = get_model(ids[rng.integers(len(ids))])
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=L)
        path = simulate_new(model, p, grid, L, dw)  # n = L gives lag of one step
        phi_b, m_b, i_b, x_b = brute_new_scheme(model, p, grid, 1, dw)
        assert np.array_equal(path.phi, phi_b)
        assert np.array_equal(path.big_m, m_b)
        assert np.array_equal(path.big_i, i_b)
        assert np.array_equal(path.x, x_b)


def test_old_equals_new_without_perturbation():
    grid = make_grid(256, 1.0)
    p = validate(0.0, 0.0, 0.0, 1.0)
    dw = generate_increments(31, 2, grid)
    a = simulate_new(get_model("affine"), p, grid, 16, dw)
    b = single_path(scheme_blocks("old", get_model("affine"), p, grid, 16), grid, dw)
    assert np.array_equal(a.x, b.x)


def test_old_scheme_delay_window_values():
    # b = 0, sigma = 0, x0 = 1, alpha = 0.5, beta = 0: within delay window w
    # the value is a_w with a_0 = 1, a_{w+1} = 1 + 0.5 * a_w (all exact floats)
    grid = make_grid(16, 1.0)
    p = validate(0.5, 0.0, 1.0, 1.0)
    path = single_path(scheme_blocks("old", const_model(0.0, 0.0), p, grid, 4), grid, np.zeros(16))
    m = 4
    a = [1.0, 1.5, 1.75, 1.875, 1.9375]
    assert path.x[0] == 1.0
    for k in range(1, 17):
        w = (k - 1) // m + 1
        assert path.x[k] == a[w], k


def test_old_scheme_matches_scalar_recursion():
    rng = np.random.default_rng(29)
    grid = make_grid(32, 1.0)
    for _ in range(20):
        p = random_valid_params(rng, x0=float(rng.normal()))
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=32)
        path = single_path(scheme_blocks("old", get_model("affine"), p, grid, 8), grid, dw)
        assert np.array_equal(path.x, brute_old_scheme(get_model("affine"), p, grid, 4, dw))


def test_old_pure_drift_is_shifted_time():
    grid = make_grid(64, 1.0)
    p = validate(0.0, 0.0, 2.0, 1.0)
    path = single_path(scheme_blocks("old", const_model(1.0, 0.0), p, grid, 8), grid, np.zeros(64))
    assert np.allclose(path.x, 2.0 + grid.times(), rtol=0.0, atol=1e-12)


def test_general_x0_constant_fixed_point():
    # zero coefficients: X stays at x0 / (1 - alpha - beta) = 2 exactly
    grid = make_grid(32, 1.0)
    p = validate(0.25, 0.25, 1.0, 1.0)
    path = simulate_general_x0(const_model(0.0, 0.0), p, grid, 8, np.zeros(32))
    assert np.array_equal(path.x, np.full(33, 2.0))
    assert np.array_equal(path.big_m, np.full(33, 2.0))
    assert np.array_equal(path.big_i, np.full(33, 2.0))


def test_general_x0_pure_drift_no_perturbation():
    grid = make_grid(64, 1.0)
    p = validate(0.0, 0.0, 1.0, 1.0)
    path = simulate_general_x0(const_model(1.0, 0.0), p, grid, 8, np.zeros(64))
    assert np.allclose(path.x, 1.0 + grid.times(), rtol=0.0, atol=1e-12)


def test_general_x0_reduces_to_new_at_zero():
    # the zero initial term keeps every running max non-negative, so the
    # missing positive part never binds and the two variants coincide
    rng = np.random.default_rng(37)
    grid = make_grid(128, 1.0)
    for _ in range(10):
        p = random_valid_params(rng)
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=(3, grid.steps))
        a = simulate_new_batch(get_model("affine"), p, grid, 16, dw)
        b = simulate_general_x0_batch(get_model("affine"), p, grid, 16, dw)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)


def test_general_x0_identity_holds():
    rng = np.random.default_rng(41)
    grid = make_grid(128, 1.0)
    for _ in range(20):
        p = random_valid_params(rng, x0=float(rng.normal()))
        dw = rng.normal(0.0, np.sqrt(grid.step_size), size=grid.steps)
        path = simulate_general_x0(get_model("affine"), p, grid, 16, dw)
        resid = np.max(np.abs(path.x - p.x0 - path.phi - p.alpha * path.big_m - p.beta * path.big_i))
        assert resid <= 1e-12 * (1.0 + np.max(np.abs(path.x)))
        assert np.all(np.diff(path.big_m) >= 0.0)
        assert np.all(np.diff(path.big_i) <= 0.0)


def test_batch_matches_single_paths():
    grid = make_grid(64, 1.0)
    p = validate(0.6, -1.0, 0.0, 1.0)
    dw = np.stack([generate_increments(51, i, grid) for i in range(5)])
    phi, big_m, big_i, x = simulate_new_batch(get_model("affine"), p, grid, 8, dw)
    for i in range(5):
        path = simulate_new(get_model("affine"), p, grid, 8, dw[i])
        assert np.array_equal(x[i], path.x)
        assert np.array_equal(phi[i], path.phi)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf, cos(inf)
def test_block_kernel_matches_step_oracles_bitwise():
    # int64 views, so a -0.0 where the step recursion writes 0.0 fails too;
    # zero increments leave ties at +-0.0 in the running extrema, and an inf,
    # a -inf and a NaN increment check the sign of every NaN they leave
    time_model = CoefficientModel(
        id="time-dependent",
        drift=lambda t, x: t * x,
        diffusion=lambda t, x: 1.0 + t * np.sin(x),
    )
    models = builtin_catalog() + [time_model]
    # (L, T, n): m = L/(nT) in {1, 7, 8, 15, 16, 31, L} (doubling scans of
    # 2**j - 1, 2**j and 2**j + 1 rows) and one partial last block (m=64)
    grids = [(24, 1.0, 24), (56, 1.0, 8), (64, 1.0, 8), (40, 1.0, 1), (96, 0.75, 2),
             (45, 1.0, 3), (64, 1.0, 4), (62, 1.0, 2)]
    rng = np.random.default_rng(43)
    seen_beyond_mao = 0
    for model in models:
        for L, T, n in grids:
            grid = make_grid(L, T)
            h, m = grid.step_size, lag_map(grid, n)
            for paths in (1, 5, 64):
                random_dw = rng.normal(0.0, np.sqrt(h), size=(paths, L))
                p0 = random_valid_params(rng, horizon=T)
                px = random_valid_params(rng, x0=float(rng.normal()), horizon=T)
                pz = random_valid_params(rng, x0=-0.0, horizon=T)
                seen_beyond_mao += beyond_mao(p0) + beyond_mao(px)
                wild_dw = random_dw.copy()
                wild_dw.flat[rng.choice(wild_dw.size, 3, replace=False)] = (np.inf, -np.inf, np.nan)
                for dw in (random_dw, np.zeros((paths, L)), wild_dw):
                    lb = np.ascontiguousarray(dw.T)
                    cases = [(simulate_new_batch, p0, step_new_kernel(model, p0.alpha, p0.beta, h, m, lb))]
                    for p in (px, pz):
                        cases += [
                            (simulate_old_batch, p, step_old_kernel(model, p.alpha, p.beta, p.x0, h, m, lb)),
                            (
                                simulate_general_x0_batch,
                                p,
                                step_general_kernel(model, p.alpha, p.beta, p.x0, h, m, lb),
                            ),
                        ]
                    for batch_fn, p, expected in cases:
                        got = batch_fn(model, p, grid, n, dw)
                        for a, b in zip(got, expected):
                            assert a.shape == (paths, L + 1)
                            a, b = a.view(np.int64), b.T.view(np.int64)
                            if batch_fn is simulate_new_batch and dw is wild_dw:
                                # "new" can differ from its oracle in the sign of a NaN
                                nan = np.isnan(a.view(np.float64))
                                assert np.array_equal(nan, np.isnan(b.view(np.float64))), (model.id, L, n, p)
                                a, b = a[~nan], b[~nan]
                            assert np.array_equal(a, b), (model.id, L, n, batch_fn, p)
    assert seen_beyond_mao >= 50


def test_running_matches_accumulate_bitwise():
    # every prefix must pick the element the sequential fold picks: the later
    # of two equal values (+0.0 against -0.0 included) and the first NaN,
    # whatever its sign or payload; an all -inf column and a NaN in row 0
    # meet the -inf pad, which must leave every element as it is
    rng = np.random.default_rng(61)
    payload_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    specials = np.array([0.0, -0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 1.0, -1.0])
    lengths = sorted({2**j + d for j in range(7) for d in (-1, 0, 1)} - {0, 127, 128})
    assert lengths[0] == 1 and lengths[-1] == 65
    for rows in lengths:
        for width in (1, 3, 64):
            pool = np.concatenate([specials, rng.normal(size=4)])
            a = rng.choice(pool, size=(rows, width))
            a[:, 0] = rng.choice(specials[:2], size=rows)  # a column of signed-zero ties only
            if width > 1:
                a[:, 1] = -np.inf
                a[0, 2] = rng.choice(specials[2:5])
            # the kernel's layout: two (rows, width) halves, [carry, arguments...],
            # scanned in buffers sized for a full block (m = rows - 1) and
            # for a longer one (the partial last block of m = 64)
            for m in {max(rows - 1, 1), 64}:
                for b in (a, a[::-1]):
                    scan, pad = _scan_buffers(m, width)
                    carry = np.empty((2, 1, width))
                    args, passes, out = _scan_views(scan, carry, pad, rows - 1)
                    # the running minimum is the negated running maximum of the negated input
                    halves = np.stack([b, -b])
                    carry[...], args[...] = halves[:, :1], halves[:, 1:]
                    _running(passes)
                    got = np.concatenate([carry, out], axis=1)
                    assert np.array_equal(got[0].view(np.int64), np.maximum.accumulate(b, axis=0).view(np.int64)), (
                        rows, width, m)
                    assert np.array_equal((-got[1]).view(np.int64), np.minimum.accumulate(b, axis=0).view(np.int64)), (
                        rows, width, m)
                    assert np.array_equal(scan[:, :, :pad], np.full((2, 2, pad, width), -np.inf))
