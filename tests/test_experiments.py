import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dpsde.experiments
from _oracles import exact_gbm, random_valid_params
from dpsde import PerturbationParams, beyond_mao, cli, validate
from dpsde.driver import SimGrid, generate_increments, lag_map, make_grid
from dpsde.errors import (
    AlphaOutOfRange,
    DegenerateFit,
    DelayNotAligned,
    DelayTooFine,
    InvalidGrid,
    InvalidStudy,
    InvalidWorkerCount,
    MomentOutOfRange,
    NonFinitePath,
    NonZeroStart,
    SeedOutOfRange,
    UndefinedTimeZero,
    UnknownScheme,
)
from dpsde.experiments import (
    _CHUNK,
    StudySpec,
    compare_schemes,
    default_study,
    moment_scan,
    rate_fit,
    run_convergence,
)
from dpsde.models import CoefficientModel, get_model
from dpsde.output import write_report_csv, write_report_json
from dpsde.reference import solve_reference_batch
from dpsde.scheme import scheme_blocks, simulate_general_x0_batch, simulate_new_batch, simulate_old_batch


def small_spec(**kw):
    base = dict(
        model_id="affine",
        params=validate(0.6, -1.0, 0.0, 1.0),
        n_list=(8, 16, 32),
        p_list=(2.0,),
        paths=40,
        grid=make_grid(256, 1.0),
        master_seed=7,
        scheme="new",
    )
    base.update(kw)
    return StudySpec(**base)


def one_delay_gaps(spec, n):
    """Per-path sup_k |X^n_k - X_k| of the spec's scheme, running the delay n alone."""
    return dpsde.experiments._per_path_sup(replace(spec, n_list=(n,)), (spec.scheme,), True)[(spec.scheme, n)]


def test_spec_enforces_resolution_rule():
    with pytest.raises(DelayTooFine):
        small_spec(n_list=(8, 64))  # 64 leaves only 4 steps per delay on L=256


def test_spec_enforces_alignment():
    with pytest.raises(DelayNotAligned):
        small_spec(n_list=(3,))


def test_spec_rejects_new_scheme_with_nonzero_x0():
    with pytest.raises(NonZeroStart):
        small_spec(params=validate(0.6, -1.0, 0.5, 1.0))
    small_spec(params=validate(0.6, -1.0, 0.5, 1.0), scheme="general")
    with pytest.raises(NonZeroStart):
        compare_schemes(small_spec(params=validate(0.6, -1.0, 0.5, 1.0), scheme="old"))


def test_spec_rejects_bad_p_and_paths():
    with pytest.raises(InvalidStudy):
        small_spec(p_list=(0.5,))
    for paths in (0, 1):  # one path has no standard error
        with pytest.raises(InvalidStudy, match="paths must be >= 2"):
            small_spec(paths=paths)
    with pytest.raises(UnknownScheme):
        small_spec(scheme="euler")


@pytest.mark.parametrize("field,value,error", [
    ("n_list", (), InvalidStudy),
    ("n_list", (8, 8, 16), InvalidStudy),
    ("p_list", (), InvalidStudy),
    ("p_list", (2.0, float("nan")), InvalidStudy),
    ("p_list", (2.0, 4.0, 2.0), InvalidStudy),
    ("p_list", (float("inf"),), InvalidStudy),
    ("grid", make_grid(512, 2.0), InvalidStudy),  # the solvers would run on T=2, the report state T=1
    ("master_seed", -1, SeedOutOfRange),
    ("master_seed", 2**64, SeedOutOfRange),
    ("p_list", ("2",), InvalidStudy),  # not a real number: math.isfinite raised a bare TypeError
])
def test_spec_rejects_repeats_non_finite_p_and_seeds_outside_64_bits(field, value, error):
    with pytest.raises(error):
        small_spec(**{field: value})


@pytest.mark.parametrize("field,value,error", [
    ("n_list", (8.9, 16, 32), InvalidStudy),
    ("n_list", (8.0, 16, 32), InvalidStudy),
    ("n_list", (8, float("nan"), 32), InvalidStudy),
    ("n_list", (8, 16, float("inf")), InvalidStudy),
    ("n_list", ("8", 16, 32), InvalidStudy),
    ("paths", 10.5, InvalidStudy),
    ("paths", float("nan"), InvalidStudy),
    ("paths", float("-inf"), InvalidStudy),
    ("paths", "10", InvalidStudy),
    ("master_seed", 1.5, SeedOutOfRange),
    ("master_seed", float("inf"), SeedOutOfRange),
    ("master_seed", "42", SeedOutOfRange),
])
@pytest.mark.parametrize("build", ["spec", "default_study"])
def test_study_takes_only_whole_counts_and_seeds(field, value, error, build):
    # refused where the study is built: paths=10.5 used to fail in mmap, master_seed=1.5 at
    # the first increment, and default_study truncated (8.9, 16, 32), 10.7 and 3.2 silently
    with pytest.raises(error, match="must be a whole number"):
        if build == "spec":
            small_spec(**{field: value})
        else:
            default_study(grid_steps=256, **{"n_list": (8, 16, 32), field: value})


def test_spec_cannot_be_built_from_an_unchecked_input():
    # both records used to build without their gates: the alpha=2 study ran and reported an error
    # estimate for an ill-posed equation, and a float step count failed late in np.empty
    with pytest.raises(AlphaOutOfRange):
        small_spec(params=PerturbationParams(alpha=2.0, beta=0.0, x0=0.0, horizon=1.0))
    with pytest.raises(InvalidGrid, match="steps must be a whole number"):
        small_spec(grid=SimGrid(256.0, 1.0))
    with pytest.raises(AlphaOutOfRange):
        small_spec(params=replace(small_spec().params, alpha=2.0))


def test_numpy_integer_fields_give_the_same_study_as_python_ints(tmp_path):
    # np.int64 paths used to run the whole study and then fail in json.dumps
    plain = small_spec()
    spec = small_spec(n_list=tuple(np.int64(n) for n in plain.n_list), paths=np.int64(40), master_seed=np.uint64(7),
                      p_list=(np.int64(2),))
    assert spec == plain
    assert all(type(v) is int for v in (*spec.n_list, spec.paths, spec.master_seed))
    outputs = []
    for i, s in enumerate((plain, spec)):
        report = run_convergence(s)
        write_report_csv(report, tmp_path / f"{i}.csv")
        write_report_json(report, tmp_path / f"{i}.json")
        body = json.loads((tmp_path / f"{i}.json").read_text())
        body["metadata"].pop("generated_at")
        outputs.append(((tmp_path / f"{i}.csv").read_bytes(), body))
    assert outputs[0] == outputs[1]


def test_spec_rejects_arrays_beyond_the_address_space():
    # building a spec allocates nothing, so the sizes at the edge are cheap to try
    words = sys.maxsize // 8
    assert small_spec(n_list=(1, 2, 4, 8), paths=words // 8).paths == words // 8
    with pytest.raises(InvalidStudy, match="too large to address"):
        small_spec(n_list=(1, 2, 4, 8), paths=words // 8 + 1)  # 2 kinds x 4 n x paths statistics
    edge = words // _CHUNK - 1  # a piece's (L+1, _CHUNK) reference just fits at L = edge
    assert edge % 2 == 0 and small_spec(grid=make_grid(edge, 1.0), n_list=(1, 2), paths=_CHUNK).grid.steps == edge
    with pytest.raises(InvalidStudy, match="too large to address"):
        small_spec(grid=make_grid(edge + 1, 1.0), n_list=(1,), paths=_CHUNK)


@pytest.mark.parametrize("study,scheme", [
    (run_convergence, "new"), (compare_schemes, "new"), (moment_scan, "general")])
def test_study_rejects_alpha_plus_beta_rounding_to_one_before_work(monkeypatch, study, scheme):
    # the reference and the general scheme start from x0/(1-alpha-beta),
    # and 1 - 0.3 - 0.7 is 0.0 although the gate accepts the pair
    def no_work(*args):
        raise AssertionError("work started for an undefined time-zero level")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_work)
    monkeypatch.setattr(os, "fork", no_work)
    with pytest.raises(UndefinedTimeZero):
        study(small_spec(params=validate(0.3, 0.7, 0.0, 1.0), scheme=scheme, paths=300), workers=2)


def test_strong_error_zero_for_degenerate_dynamics():
    # x0 = 0 with coefficients vanishing at 0: scheme and reference are both
    # identically zero, the self-comparison limit of the estimator
    (e,) = run_convergence(small_spec(model_id="gbm", n_list=(8,))).errors
    assert e.estimate == 0.0 and e.std_err == 0.0


@pytest.mark.parametrize("largest,p,ok", [
    (2.0**-511, 1.0, True),  # squared: 2**-1022, the smallest normal float
    (2.0**-512, 1.0, False),  # squared: subnormal
    (2.0**-1074, 1.0, False),  # squared: zero
    (2.0**511, 1.0, True),
    (2.0**512, 1.0, False),  # squared: inf
    (1e-3, 700.0, False),  # stat**p is zero for a non-zero statistic
    (1e3, 200.0, False),  # stat**p is inf
    (0.0, 700.0, True),  # an all-zero row is exact
    (0.5, 100.0, True),
])
def test_table_rejects_moments_outside_the_float_range(largest, p, ok):
    spec = small_spec(n_list=(8, 16), p_list=(p,))
    stats = {("new", 8): np.zeros(3), ("new", 16): np.array([largest, 0.0, largest / 2])}
    if ok:
        zero, row = dpsde.experiments._table(spec, "new", stats)
        assert (zero.n, zero.estimate, zero.std_err, row.n) == (8, 0.0, 0.0, 16)
        assert (row.estimate > 0.0) == (row.std_err > 0.0) == (largest > 0.0)
        return
    with pytest.raises(MomentOutOfRange, match=rf"scheme 'new', n=16, p={p}: largest "):
        dpsde.experiments._table(spec, "new", stats)


def test_degenerate_coupling_estimates_are_float_noise():
    # b=0, sigma=1, beta=0: the delay cancels exactly, so the estimates sit
    # at the rounding floor for every n instead of showing n-decay
    spec = small_spec(
        model_id="zero-drift-unit-diffusion",
        params=validate(0.5, 0.0, 0.0, 1.0),
        n_list=(8, 16, 32),
        paths=100,
    )
    for e in run_convergence(spec).errors:
        assert e.estimate <= 1e-24


def test_delayed_euler_against_exact_gbm():
    # alpha = beta = 0 reduces the plain delayed scheme to delayed Euler; its
    # error against the closed-form path must drop as the delay shrinks
    grid = make_grid(1024, 1.0)
    params = validate(0.0, 0.0, 1.0, 1.0)
    from dpsde.models import get_model

    model = get_model("gbm")
    dw = np.stack([generate_increments(3, i, grid) for i in range(200)])
    gaps = {}
    for n in (8, 64):
        xn = simulate_old_batch(model, params, grid, n, dw)[3]
        exact = np.stack([exact_gbm(1.0, 0.05, 0.2, grid, dw[i]) for i in range(200)])
        gaps[n] = float(np.mean(np.max(np.abs(xn - exact), axis=1)))
    assert gaps[64] < gaps[8]


def test_strong_error_decreases_for_delayed_gbm():
    spec = small_spec(model_id="gbm", params=validate(0.0, 0.0, 1.0, 1.0), scheme="old", paths=200)
    estimates = [e.estimate for e in run_convergence(spec).errors]
    assert estimates[0] > estimates[1] > estimates[2]


def test_rate_fit_exact_geometric_decay():
    slope, intercept = rate_fit([(8, 0.1), (16, 0.05), (32, 0.025)])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log2(0.1) + 3.0, abs=1e-12)


def test_rate_fit_flat():
    slope, _ = rate_fit([(8, 0.3), (16, 0.3), (32, 0.3)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        rate_fit([(8, 0.1)])
    with pytest.raises(DegenerateFit):
        rate_fit([(8, 0.1), (16, 0.0), (32, 0.025)])
    with pytest.raises(DegenerateFit):
        rate_fit([(8, 0.1), (8, 0.2), (8, 0.3)])


def test_moment_scan_zero_model():
    spec = small_spec(model_id="gbm")  # x0 = 0 keeps every path at zero
    rows = moment_scan(spec)
    assert all(r.estimate == 0.0 for r in rows)


def test_moment_scan_deterministic_drift():
    # b = 1, sigma = 0, no perturbation: X_t = t, sup over [0,1] is 1
    spec = small_spec(
        model_id="unit-drift-no-noise",
        params=validate(0.0, 0.0, 0.0, 1.0),
        p_list=(1.0,),
        paths=3,
    )
    rows = moment_scan(spec)
    for r in rows:
        assert r.estimate == pytest.approx(1.0, rel=1e-12)


def test_moment_scan_bounded_in_n():
    spec = small_spec(
        model_id="affine",
        grid=make_grid(1024, 1.0),
        n_list=(8, 16, 32, 64, 128),
        p_list=(2.0, 4.0),
        paths=300,
    )
    rows = moment_scan(spec)
    for p in (2.0, 4.0):
        vals = [r.estimate for r in rows if r.p == p]
        assert max(vals) / min(vals) < 2.0


def test_jensen_consistency_between_moments():
    spec = small_spec(p_list=(2.0, 4.0), paths=150)
    gaps = one_delay_gaps(spec, 8)
    e2 = float(np.mean(gaps**2.0))
    e4 = float(np.mean(gaps**4.0))
    assert e4 ** (1.0 / 4.0) >= e2 ** (1.0 / 2.0) - 1e-12


def test_std_err_scales_with_paths():
    se_small = run_convergence(small_spec(paths=300, n_list=(8,))).errors[0].std_err
    se_large = run_convergence(small_spec(paths=1200, n_list=(8,))).errors[0].std_err
    ratio = se_small / se_large
    assert 1.4 < ratio < 2.9  # 4x paths should halve the standard error


def test_run_convergence_report_shape_and_fit():
    spec = small_spec(paths=200, p_list=(2.0, 4.0))
    report = run_convergence(spec)
    assert len(report.errors) == 6  # 3 n times 2 p
    assert {f.p for f in report.fits} == {2.0, 4.0}
    est = {(e.n, e.p): e.estimate for e in report.errors}
    assert est[(8, 2.0)] > est[(32, 2.0)]


def test_compare_schemes_identical_without_perturbation():
    spec = small_spec(params=validate(0.0, 0.0, 0.0, 1.0), model_id="affine", paths=60)
    cmp = compare_schemes(spec)
    for e_new, e_old in zip(cmp.new.errors, cmp.old.errors):
        assert e_new.estimate == e_old.estimate
        assert e_new.std_err == e_old.std_err


def test_compare_schemes_beyond_mao_reports_both():
    cmp = compare_schemes(small_spec(paths=80))
    new_est = [e.estimate for e in cmp.new.errors]
    assert new_est[0] > new_est[-1]  # new scheme error drops with n
    assert len(cmp.old.errors) == len(new_est)  # old column reported as observed


def test_compare_schemes_large_negative_pair():
    cmp = compare_schemes(small_spec(params=validate(-3.0, -3.0, 0.0, 1.0), paths=80))
    new_est = [e.estimate for e in cmp.new.errors]
    assert all(np.isfinite(v) for v in new_est)
    assert new_est[0] > new_est[-1]
    assert all(np.isfinite(e.estimate) for e in cmp.old.errors)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bitwise_deterministic_and_worker_invariant():
    # 530 paths: at 1 and 2 workers each span runs as pieces of unequal
    # width (176/177/177, 132/133), at 3 and 4 as one piece; 257 paths: two
    # pieces of 128 and 129 at 1 worker, odd-width spans at 3 and 4.  Both
    # pairs are beyond Mao.
    for alpha, beta, paths in ((0.6, -1.0, 530), (-3.0, -3.0, 257)):
        spec = small_spec(params=validate(alpha, beta, 0.0, 1.0), paths=paths)
        assert beyond_mao(spec.params)
        base = dpsde.experiments._per_path_sup(spec, ("new", "old"), True)
        a = run_convergence(spec, workers=1)
        for workers in (1, 2, 3, 4):
            gaps = dpsde.experiments._per_path_sup(spec, ("new", "old"), True, workers)
            no_child_left()
            for key, want in base.items():
                assert np.array_equal(gaps[key].view(np.int64), want.view(np.int64)), (paths, workers, key)
            b = run_convergence(spec, workers=workers)
            no_child_left()
            for e_x, e_y in zip(a.errors, b.errors):
                assert (e_x.estimate, e_x.std_err) == (e_y.estimate, e_y.std_err)
            for f_x, f_y in zip(a.fits, b.fits):
                assert (f_x.slope, f_x.intercept) == (f_y.slope, f_y.intercept)


def test_default_study_matches_documented_defaults():
    spec = default_study()
    assert spec.model_id == "affine"
    assert (spec.params.alpha, spec.params.beta) == (0.6, -1.0)
    assert spec.n_list == (8, 16, 32, 64)
    assert spec.p_list == (2.0, 4.0)
    assert spec.paths == 2000
    assert spec.grid.steps == 4096
    assert spec.master_seed == 42


_BATCH_FNS = {"new": simulate_new_batch, "old": simulate_old_batch, "general": simulate_general_x0_batch}


def materialised_sups(spec, n, against_reference):
    """sup_k |X^n_k - X_k| (or sup_k |X^n_k|) from the full (paths, L+1) outputs."""
    model = get_model(spec.model_id)
    dw = np.stack([generate_increments(spec.master_seed, i, spec.grid) for i in range(spec.paths)])
    x = _BATCH_FNS[spec.scheme](model, spec.params, spec.grid, n, dw)[3]
    if against_reference:
        x = x - solve_reference_batch(model, spec.params, spec.grid, dw)[3]
    return np.max(np.abs(x), axis=1)


def test_streaming_fold_matches_materialised_sups_bitwise():
    # int64 views; 300 paths run as two pieces, and (L=96, T=0.75, n=2) has a
    # partial last block (m=64)
    rng = np.random.default_rng(61)
    pairs = [(0.6, -1.0), (-2.0, 0.5)]
    pairs += [(p.alpha, p.beta) for p in (random_valid_params(rng) for _ in range(2))]
    assert sum(beyond_mao(validate(a, b, 0.0, 1.0)) for a, b in pairs) >= 2
    for L, T, n in [(96, 0.75, 2), (96, 0.75, 8), (256, 1.0, 32)]:
        for alpha, beta in pairs:
            for kind in ("new", "old", "general"):
                spec = small_spec(
                    model_id="bounded-trig",
                    params=validate(alpha, beta, 0.0 if kind == "new" else 0.3, T),
                    n_list=(n,),
                    p_list=(2.0, 3.0),
                    paths=300,
                    grid=make_grid(L, T),
                    scheme=kind,
                )
                expected = materialised_sups(spec, n, True)
                got = one_delay_gaps(spec, n)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (L, n, alpha, beta, kind)
                sups = materialised_sups(spec, n, False)
                for row in moment_scan(spec):
                    want = float(np.mean(sups**row.p))
                    assert np.float64(row.estimate).view(np.int64) == np.float64(want).view(np.int64)


def test_moment_scan_rows_are_the_error_table_of_the_sups():
    # p-major (n, p) rows whose estimate and std_err follow the error table's
    # formula on sup_k |X^n_k|, bit for bit
    spec = small_spec(model_id="bounded-trig", params=validate(-2.0, 0.5, 0.3, 1.0), n_list=(8, 16),
                      p_list=(3.0, 2.0), paths=300, scheme="general")
    rows = moment_scan(spec)
    assert [(r.n, r.p) for r in rows] == [(8, 3.0), (16, 3.0), (8, 2.0), (16, 2.0)]
    for row in rows:
        values = materialised_sups(spec, row.n, False) ** row.p
        want = (float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values))))
        assert np.array_equal(np.array([row.estimate, row.std_err]).view(np.int64), np.array(want).view(np.int64))


def width_recording(widths):
    """scheme_blocks whose runs append (kind, n, increment columns) to widths."""
    def recording(kind, model, params, grid, n):
        stream = scheme_blocks(kind, model, params, grid, n)

        def run(dw):
            widths.append((kind, n, dw.shape[1]))
            return stream(dw)

        return run

    return recording


def tile_widths(m, B, tile):
    """The widths of the t = min(B, ceil(m*B / tile)) even column tiles a B-path piece runs on at lag m."""
    t = min(B, -(-m * B // tile))
    return [B * (i + 1) // t - B * i // t for i in range(t)]


@pytest.mark.parametrize("L,T,n_list,paths,tile", [
    (256, 1.0, (8, 16), 302, 1000),  # two 151-path pieces in uneven tiles: 5 at m=32, 3 at m=16
    (96, 0.75, (2, 8), 302, 1000),  # m=64 has a partial last block; 10 tiles at m=64, 3 at m=16
    (256, 1.0, (8, 16), 40, 16),  # m > tile: one-column tiles
    (256, 1.0, (8, 16), 40, 2**14),  # a piece narrower than one tile
    (1024, 1.0, (4, 8), 128, 2**14),  # split by the module's tile as converge-stock's n=8: 2 tiles at m=256
])
def test_tiled_fold_equals_the_one_tile_fold_bitwise(monkeypatch, L, T, n_list, paths, tile):
    # every solver is column-independent, so the per-path sups (and moment
    # sups) of each kind and parameter pair do not depend on the tiles
    assert dpsde.experiments._TILE == 2**14
    drawn = random_valid_params(np.random.default_rng(29))
    pairs = [(0.6, -1.0), (-2.0, 0.5), (drawn.alpha, drawn.beta)]
    assert all(beyond_mao(validate(a, b, 0.0, 1.0)) for a, b in pairs[:2])
    pieces = [paths // 2, paths - paths // 2] if paths > _CHUNK else [paths]
    widths = []
    monkeypatch.setattr(dpsde.experiments, "scheme_blocks", width_recording(widths))
    for alpha, beta in pairs:
        for x0, kinds in ((0.0, ("new", "old", "general")), (0.3, ("old", "general"))):
            spec = small_spec(model_id="bounded-trig", params=validate(alpha, beta, x0, T), n_list=n_list,
                              paths=paths, grid=make_grid(L, T), scheme=kinds[-1])
            for against_reference in (True, False):
                monkeypatch.setattr(dpsde.experiments, "_TILE", 2**62)
                whole = dpsde.experiments._per_path_sup(spec, kinds, against_reference)
                monkeypatch.setattr(dpsde.experiments, "_TILE", tile)
                widths.clear()
                tiled = dpsde.experiments._per_path_sup(spec, kinds, against_reference)
                keys = [(kind, n) for kind in kinds for n in n_list]
                assert widths == [(kind, n, w) for B in pieces for kind, n in keys
                                  for w in tile_widths(lag_map(spec.grid, n), B, tile)]
                for key in keys:
                    assert np.array_equal(tiled[key].view(np.int64), whole[key].view(np.int64)), (key, alpha, beta)


def test_stock_chunk_peak_memory_is_bounded():
    # one 256-path chunk of the stock study keeps O(_TILE) scheme state, the
    # (L, B) increments and the reference X, not four (L+1, B) outputs per n
    L, B = 2048, 256
    spec = default_study(grid_steps=L, paths=B)
    tracemalloc.start()
    try:
        run_convergence(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * L * B * 8, peak / (L * B * 8)


def nan_after_half(condition=lambda x: True):
    return CoefficientModel(
        id="nan-after-half",
        drift=lambda t, x: np.where((t > 0.5) & condition(x), np.nan, 0.0) + 0.0 * x,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
    )


def test_non_finite_gap_raises_naming_kind_n_and_path(monkeypatch):
    monkeypatch.setattr(dpsde.experiments, "get_model", lambda model_id: nan_after_half())
    with pytest.raises(NonFinitePath, match=r"'new', n=16: first at path index 0"):
        run_convergence(small_spec(n_list=(16, 8)))
    with pytest.raises(NonFinitePath, match=r"'old', n=8"):
        moment_scan(small_spec(scheme="old"))


def test_non_finite_gap_names_first_bad_path(monkeypatch):
    # with this seed only paths from 256 on ever pass x = 3 after t = 0.5
    model = nan_after_half(lambda x: x > 3.0)
    monkeypatch.setattr(dpsde.experiments, "get_model", lambda model_id: model)
    spec = small_spec(params=validate(0.0, 0.0, 0.0, 1.0), n_list=(8,), paths=300, master_seed=18)
    dw = np.stack([generate_increments(spec.master_seed, i, spec.grid) for i in range(spec.paths)])
    x = simulate_new_batch(model, spec.params, spec.grid, 8, dw)[3]
    ref = solve_reference_batch(model, spec.params, spec.grid, dw)[3]
    first = int(np.flatnonzero(~np.isfinite(np.max(np.abs(x - ref), axis=1)))[0])
    assert first >= 256
    with pytest.raises(NonFinitePath, match=rf"first at path index {first}$"):
        one_delay_gaps(spec, 8)


def test_non_finite_path_in_the_second_span_exits_2_as_with_one_worker(capsys, tmp_path, monkeypatch):
    # the bad paths of test_non_finite_gap_names_first_bad_path all lie in
    # [256, 300), inside the second of two spans [0, 150) and [150, 300)
    model = nan_after_half(lambda x: x > 3.0)
    monkeypatch.setattr(dpsde.experiments, "get_model", lambda model_id: model)
    errs = []
    for workers in ("1", "2"):
        out_csv = tmp_path / f"{workers}.csv"
        code = cli.main(["converge", "--alpha", "0", "--beta", "0", "--grid-steps", "256", "--n-list", "8",
                         "--paths", "300", "--seed", "18", "--workers", workers,
                         "--out-csv", str(out_csv), "--out-json", str(tmp_path / f"{workers}.json")])
        no_child_left()
        assert code == 2
        assert not out_csv.exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("dpsde: error: NonFinitePath:")
    assert int(re.search(r"path index (\d+)$", errs[0].strip()).group(1)) >= 256


def poisoned_blocks(spec, bad, effect):
    """scheme_blocks whose runs apply effect(x, hit) to X, where hit marks the columns of the paths in bad[(kind, n)].

    A column is known by its first increment, as the stream sees only the increments.
    """
    firsts = {key: [generate_increments(spec.master_seed, i, spec.grid)[0] for i in paths] for key, paths in bad.items()}

    def poisoned(kind, model, params, grid, n):
        stream = scheme_blocks(kind, model, params, grid, n)

        def run(dw):
            hit = np.isin(dw[0], firsts.get((kind, n), []))
            for *block, x in stream(dw):
                yield (*block, effect(x, hit))

        return run

    return poisoned


@pytest.mark.parametrize("bad,kind,n,first", [
    # the lowest bad path decides, not the study order of the (kind, n) bad there
    ({("new", 8): [200], ("new", 16): [10]}, "new", 16, 10),
    ({("new", 8): [220, 180], ("old", 8): [3]}, "old", 8, 3),
    ({("new", 8): [280], ("old", 32): [140]}, "old", 32, 140),
    # bad only in the second piece of the second span
    ({("old", 16): [290, 260]}, "old", 16, 260),
    # two (kind, n) bad at the lowest bad path: the first in study order
    ({("old", 8): [170], ("new", 32): [250, 170], ("new", 16): [220]}, "new", 32, 170),
])
def test_non_finite_path_is_the_one_worker_error_whatever_the_spans(monkeypatch, bad, kind, n, first):
    # 300 paths: pieces [0, 150) and [150, 300) at 1 worker, spans [0, 150)
    # and [150, 300) at 2, [0, 100), [100, 200) and [200, 300) at 3
    spec = small_spec(paths=300)
    monkeypatch.setattr(dpsde.experiments, "scheme_blocks",
                        poisoned_blocks(spec, bad, lambda x, hit: np.where(hit, np.nan, x)))
    want = rf"^non-finite per-path sup gap for scheme {kind!r}, n={n}: first at path index {first}$"
    for workers in (1, 2, 3):
        with pytest.raises(NonFinitePath, match=want):
            compare_schemes(spec, workers=workers)
        no_child_left()


@pytest.mark.parametrize("bad,kind,n,first", [
    # (new, 8) runs first and is bad at path 140, in its 18th of 19 tiles; the
    # lower path 120, in the 9th of 10 tiles of (new, 16), decides
    ({("new", 8): [140], ("new", 16): [120]}, "new", 16, 120),
    # bad only in later tiles of the second piece
    ({("old", 32): [299], ("old", 16): [285, 271]}, "old", 16, 271),
])
def test_non_finite_path_in_a_later_tile_is_the_lowest_bad_path(monkeypatch, bad, kind, n, first):
    # 300 paths run as 150-path pieces (or spans at 2 workers); a tile of 256
    # elements cuts each piece into 19, 10 and 5 tiles at m = 32, 16 and 8
    spec = small_spec(paths=300)
    monkeypatch.setattr(dpsde.experiments, "_TILE", 256)
    monkeypatch.setattr(dpsde.experiments, "scheme_blocks",
                        poisoned_blocks(spec, bad, lambda x, hit: np.where(hit, np.nan, x)))
    want = rf"^non-finite per-path sup gap for scheme {kind!r}, n={n}: first at path index {first}$"
    for workers in (1, 2):
        with pytest.raises(NonFinitePath, match=want):
            compare_schemes(spec, workers=workers)
        no_child_left()


class KeywordOnlyError(Exception):
    """An exception pickle cannot rebuild: its __init__ needs a keyword-only argument."""

    def __init__(self, *, reason):
        super().__init__(reason)


def test_worker_failure_reaches_the_parent(monkeypatch):
    # path 200 lies in the second span of two, [150, 300).  A child whose
    # span raises exits 1, and this process reruns the span: the caller gets
    # the error itself, raised through _per_path_sup, even one that pickle
    # could not rebuild.  A child that dies without a word is no failure:
    # its span is rerun here and the per-path arrays equal workers=1's
    spec = small_spec(paths=300)
    parent = os.getpid()
    statuses = []
    real_waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "waitpid", recording_waitpid)

    def raising(error):
        def effect(x, hit):
            if hit.any():
                raise error
            return x

        return effect

    def dying(x, hit):
        if hit.any() and os.getpid() != parent:
            os._exit(3)
        return x

    for error, match in ((ValueError("bad coefficient"), "^bad coefficient$"),
                         (KeywordOnlyError(reason="no pickle"), "^no pickle$")):
        statuses.clear()
        monkeypatch.setattr(dpsde.experiments, "scheme_blocks",
                            poisoned_blocks(spec, {("new", 16): [200]}, raising(error)))
        with pytest.raises(type(error), match=match) as caught:
            dpsde.experiments._per_path_sup(spec, ("new",), True, 2)
        assert "_per_path_sup" in [entry.name for entry in caught.traceback]
        assert statuses == [1]
        no_child_left()
    statuses.clear()
    monkeypatch.setattr(dpsde.experiments, "scheme_blocks", poisoned_blocks(spec, {("new", 16): [200]}, dying))
    got = dpsde.experiments._per_path_sup(spec, ("new",), True, 2)
    assert statuses == [3]
    no_child_left()
    want = dpsde.experiments._per_path_sup(spec, ("new",), True, 1)
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key].view(np.int64), want[key].view(np.int64)), key


def running(pid):
    """Whether pid names a process that exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_worker_leaves_once_its_study_process_is_gone():
    # a study at workers=2 in a subprocess forks one child for its second
    # span, 40 pieces of 256 paths (about 0.09 s each, 3.6 s in all, on a
    # 2-CPU host); once the study process is SIGKILLed, the child leaves
    # before its next piece, well within 1 s.  A zombie counts as gone:
    # whoever adopts it may never reap it
    script = """
import os
import dpsde.experiments as ex
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = reporting_fork
spec = ex.default_study(grid_steps=1024, n_list=(8,), p_list=(2.0,), paths=2 * 40 * 256)
ex._per_path_sup(spec, ("new",), True, 2)
"""
    src = str(Path(dpsde.experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    study = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
    child = None
    try:
        child = int(study.stdout.readline())
        study.kill()
        study.wait(timeout=60)
        deadline = time.monotonic() + 1.0
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not running(child)
    finally:
        if study.poll() is None:
            study.kill()
            study.wait(timeout=60)
        if child is not None and running(child):
            os.kill(child, signal.SIGKILL)
        study.stdout.close()


def test_one_delay_runs_only_that_delay(monkeypatch):
    # a study builds the reference and one scheme stream per (kind, n) once,
    # before the first increments are drawn, and runs each stream once per
    # piece (300 paths: [0, 150) and [150, 300)); a one-n spec builds and runs only that
    # delay, and gives the full study's gaps bit for bit
    calls = []

    def counting(build, key):
        def counted_build(*args):
            calls.append(("build", *key(*args)))
            stream = build(*args)

            def counted_run(dw):
                calls.append(("run", *key(*args)))
                return stream(dw)

            return counted_run

        return counted_build

    def counted_increments(master_seed, path_index, grid):
        calls.append(("increments", path_index))
        return generate_increments(master_seed, path_index, grid)

    monkeypatch.setattr(dpsde.experiments, "scheme_blocks",
                        counting(dpsde.experiments.scheme_blocks, lambda kind, model, params, grid, n: (kind, n)))
    monkeypatch.setattr(dpsde.experiments, "reference_steps",
                        counting(dpsde.experiments.reference_steps, lambda *args: ("reference",)))
    monkeypatch.setattr(dpsde.experiments, "generate_increments", counted_increments)

    def expected(keys):
        runs = [("run", *key) for key in keys]
        first, second = ([("increments", i) for i in span] for span in (range(150), range(150, 300)))
        return [("build", *key) for key in keys] + first + runs + second + runs

    spec = small_spec(paths=300)
    full = dpsde.experiments._per_path_sup(spec, (spec.scheme,), True)
    assert calls == expected([("reference",)] + [("new", n) for n in spec.n_list])
    calls.clear()
    compare_schemes(spec)
    assert calls == expected([("reference",)] + [(kind, n) for kind in ("new", "old") for n in spec.n_list])
    for n in spec.n_list:
        calls.clear()
        got = one_delay_gaps(spec, n)
        assert calls == expected([("reference",), ("new", n)])
        assert np.array_equal(got.view(np.int64), full[(spec.scheme, n)].view(np.int64))
        calls.clear()
        (e,) = run_convergence(small_spec(paths=300, n_list=(n,))).errors
        assert calls == expected([("reference",), ("new", n)])
        assert np.float64(e.estimate).view(np.int64) == np.mean(full[(spec.scheme, n)] ** 2.0).view(np.int64)


def test_each_span_runs_as_even_pieces_of_at_most_256_paths(monkeypatch):
    # the width of every reference run in this process: 2000 paths run as
    # 8 pieces of 250 in one process; at 2 workers this process runs the
    # span [0, 1000) as 4 pieces of 250 (and the child [1000, 2000) alike)
    widths = []
    build = dpsde.experiments.reference_steps

    def recording(*args):
        stream = build(*args)

        def run(dw):
            widths.append(dw.shape[1])
            return stream(dw)

        return run

    monkeypatch.setattr(dpsde.experiments, "reference_steps", recording)
    spec = small_spec(n_list=(8,), paths=2000, grid=make_grid(64, 1.0))
    for workers, want in ((1, [250] * 8), (2, [250] * 4)):
        widths.clear()
        dpsde.experiments._per_path_sup(spec, ("new",), True, workers)
        no_child_left()
        assert widths == want, workers


def _no_work(*args):
    raise AssertionError("work started for an invalid worker count")


@pytest.mark.parametrize("study", [run_convergence, compare_schemes, moment_scan])
@pytest.mark.parametrize("workers", [0, -1])
def test_study_rejects_worker_count_below_one_before_work(monkeypatch, study, workers):
    monkeypatch.setattr(dpsde.experiments, "generate_increments", _no_work)
    monkeypatch.setattr(os, "fork", _no_work)
    with pytest.raises(InvalidWorkerCount):
        study(small_spec(), workers=workers)


@pytest.mark.parametrize("study", [run_convergence, compare_schemes, moment_scan])
@pytest.mark.parametrize("workers", [65, 10**6])
def test_study_rejects_worker_count_above_the_ceiling_before_work(monkeypatch, study, workers):
    # only rejected counts here: an accepted count in the hundreds would fork that many processes
    assert dpsde.experiments._MAX_WORKERS == 64
    monkeypatch.setattr(dpsde.experiments, "generate_increments", _no_work)
    monkeypatch.setattr(os, "fork", _no_work)
    with pytest.raises(InvalidWorkerCount, match=r"workers must be in 1\.\.64, got"):
        study(small_spec(paths=10**5), workers=workers)


def test_report_keeps_skipped_fits_with_reason():
    # gbm started at 0 stays at 0: every estimate is 0, so no p can be fitted
    report = run_convergence(small_spec(model_id="gbm", p_list=(2.0, 4.0), paths=5))
    assert report.fits == ()
    assert report.skipped_fits == (
        (2.0, "rate fit needs positive finite estimates"),
        (4.0, "rate fit needs positive finite estimates"),
    )
    assert run_convergence(small_spec()).skipped_fits == ()
