import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import path_csv_text, path_json_text
from dpsde import validate
from dpsde.driver import generate_increments, make_grid, single_path
from dpsde.experiments import StudySpec, compare_schemes, run_convergence
from dpsde.models import get_model
from dpsde.output import _column_reprs, write_path_csv, write_path_json, write_report_csv, write_report_json
from dpsde.reference import solve_reference
from dpsde.scheme import scheme_blocks, simulate_general_x0, simulate_new


def _tiny_spec():
    return StudySpec(
        model_id="affine",
        params=validate(0.6, -1.0, 0.0, 1.0),
        n_list=(8, 16, 32),
        p_list=(2.0,),
        paths=20,
        grid=make_grid(256, 1.0),
        master_seed=5,
        scheme="new",
    )


def test_path_csv_round_trips(tmp_path):
    grid = make_grid(64, 1.0)
    p = validate(0.6, -1.0, 0.0, 1.0)
    dw = generate_increments(1, 0, grid)
    path = simulate_new(get_model("affine"), p, grid, 8, dw)
    dest = tmp_path / "path.csv"
    write_path_csv(path, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "k,t,phi,M,I,X"
    assert len(lines) == 66  # header + 65 grid points
    k, t, phi, m, i, x = lines[17].split(",")
    assert int(k) == 16
    assert float(t) == grid.times()[16]
    assert float(x) == path.x[16]  # repr round-trips exactly
    assert float(phi) == path.phi[16]
    assert float(m) == path.big_m[16] and float(i) == path.big_i[16]


def test_report_csv_rows_and_header(tmp_path):
    report = run_convergence(_tiny_spec())
    dest = tmp_path / "report.csv"
    write_report_csv(report, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "scheme,model,alpha,beta,n,p,error,std_err"
    assert len(lines) == 4  # 3 (n, p) rows
    first = lines[1].split(",")
    assert first[0] == "new" and first[1] == "affine"
    assert float(first[2]) == 0.6 and float(first[3]) == -1.0
    assert int(first[4]) == 8 and float(first[5]) == 2.0


def test_report_json_contents(tmp_path):
    report = run_convergence(_tiny_spec())
    dest = tmp_path / "report.json"
    write_report_json(report, dest)
    body = json.loads(dest.read_text())
    assert body["metadata"]["model"] == "affine"
    assert body["metadata"]["master_seed"] == 5
    assert "generated_at" in body["metadata"]
    assert len(body["errors"]) == 3
    assert len(body["slopes"]) == 1
    slope = body["slopes"][0]["slope"]
    fit = report.fits[0]
    assert slope == fit.slope  # full precision survives the round trip


def test_comparison_csv_contains_both_schemes(tmp_path):
    cmp = compare_schemes(_tiny_spec())
    dest = tmp_path / "cmp.csv"
    write_report_csv(cmp, dest)
    lines = dest.read_text().splitlines()
    assert len(lines) == 7  # header + 3 new + 3 old
    schemes = {line.split(",")[0] for line in lines[1:]}
    assert schemes == {"new", "old"}
    write_report_json(cmp, tmp_path / "cmp.json")
    body = json.loads((tmp_path / "cmp.json").read_text())
    assert set(body) == {"new", "old"}


def test_report_csv_bytes_stable(tmp_path):
    report = run_convergence(_tiny_spec())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_report_csv(report, a)
    write_report_csv(run_convergence(_tiny_spec()), b)
    assert a.read_bytes() == b.read_bytes()


def _export_path(kind):
    """The paths of the path-export benchmark workload (L=2048, seed 42), and smaller ones."""
    model = get_model("affine")
    if kind == "two-point":
        grid = make_grid(1, 1.0)
        return solve_reference(model, validate(0.6, -1.0, 0.5, 1.0), grid, generate_increments(3, 0, grid))
    grid = make_grid(2048, 1.0)
    dw = generate_increments(42, 0, grid)
    if kind == "general":
        return simulate_general_x0(model, validate(0.6, -1.0, 0.5, 1.0), grid, 8, dw)
    if kind == "reference":
        return solve_reference(model, validate(0.6, -1.0, 0.5, 1.0), grid, dw)
    return single_path(scheme_blocks("old", get_model("gbm"), validate(0.3, -0.5, 1.0, 1.0), grid, 16), grid, dw)


def _awkward_path():
    """Non-finite values, signed zeros side by side, subnormals, extremes and long runs."""
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, -0.0, -0.0, 0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1e-300, 1e16, 0.1, math.nan, math.nan]
    phi = np.array(special + [0.1] * 40 + [-0.0] * 30 + [math.inf] * 5 + special[::-1])
    size = phi.size
    ramp = np.repeat(np.array([0.0, -0.0, 1.5, math.nan, -math.inf, 1.5]), -(-size // 6))[:size]
    rng = np.random.default_rng(0)
    return SimpleNamespace(
        grid=make_grid(size - 1, 1.0),
        phi=phi,
        big_m=ramp,
        big_i=-ramp[::-1].copy(),
        x=np.where(rng.random(size) < 0.5, phi, rng.normal(size=size)),
    )


@pytest.mark.parametrize("kind", ["general", "reference", "old", "two-point", "awkward"])
def test_path_writers_match_oracle_bytes(tmp_path, kind):
    path = _awkward_path() if kind == "awkward" else _export_path(kind)
    write_path_csv(path, tmp_path / "p.csv")
    write_path_json(path, tmp_path / "p.json")
    assert (tmp_path / "p.csv").read_bytes() == path_csv_text(path).encode()
    assert (tmp_path / "p.json").read_bytes() == path_json_text(path).encode()


_RUNNY_FLOATS = st.lists(
    st.tuples(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
        st.integers(1, 4),
    ),
    max_size=30,
).map(lambda runs: np.array([v for v, count in runs for _ in range(count)], dtype=float))


@given(_RUNNY_FLOATS)
def test_column_reprs_equal_per_value_repr(col):
    assert _column_reprs(col) == [repr(v) for v in col.tolist()]


def test_path_json_round_trips(tmp_path):
    path = _export_path("general")
    dest = tmp_path / "path.json"
    write_path_json(path, dest)
    body = json.loads(dest.read_text())
    assert list(body) == ["k", "t", "phi", "M", "I", "X"]
    assert body["k"] == list(range(2049))
    for name, col in [("t", path.grid.times()), ("phi", path.phi), ("M", path.big_m),
                      ("I", path.big_i), ("X", path.x)]:
        assert np.array_equal(np.array(body[name]).view(np.int64), col.view(np.int64))
