import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import REGULARITY, Lipschitz, Modulus, Rho1, Rho2, eval_modulus, verify_regularity
from dpsde.models import CoefficientModel, builtin_catalog, get_model


def test_rho1_is_identity():
    assert eval_modulus(Rho1(), 0.3) == 0.3
    assert eval_modulus(Rho1(), 0.0) == 0.0


def test_rho2_at_zero():
    assert eval_modulus(Rho2(0.1), 0.0) == 0.0


def test_rho2_core_branch_value():
    # -u*log(u) at u = 0.05
    expected = -0.05 * math.log(0.05)
    got = eval_modulus(Rho2(0.1), 0.05)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(0.14979, abs=5e-6)


def test_rho2_linear_branch_continuous_above_epsilon():
    eps = 0.1
    rho_eps = -eps * math.log(eps)
    slope = -math.log(eps) - 1.0
    assert eval_modulus(Rho2(eps), eps) == pytest.approx(rho_eps, rel=1e-13)
    assert eval_modulus(Rho2(eps), 0.4) == pytest.approx(rho_eps + slope * 0.3, rel=1e-13)


@pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.0, -0.1, float("nan")])  # 0.5 is above 1/e
def test_rho2_epsilon_domain(epsilon):
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1/e\]"):
        Rho2(epsilon)


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        eval_modulus(Rho1(), -0.1)
    with pytest.raises(ValueError):
        eval_modulus(Rho2(0.1), np.array([0.2, -1e-9]))


@pytest.mark.parametrize("kind", [Rho1(), Rho2(0.1), Rho2(0.3)])
def test_modulus_positive_and_nondecreasing(kind):
    u = np.linspace(0.0, 3.0, 1001)
    vals = eval_modulus(kind, u)
    assert vals[0] == 0.0
    assert np.all(vals[1:] > 0.0)
    assert np.all(np.diff(vals) >= -1e-15)


@given(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_modulus_concavity(u, v, lam):
    for kind in (Rho1(), Rho2(0.1)):
        lhs = eval_modulus(kind, lam * u + (1.0 - lam) * v)
        rhs = lam * eval_modulus(kind, u) + (1.0 - lam) * eval_modulus(kind, v)
        assert lhs >= rhs - 1e-12


def test_catalog_ids_and_trivial_values():
    cat = {m.id: m for m in builtin_catalog()}
    assert set(cat) == {
        "zero-drift-unit-diffusion",
        "unit-drift-no-noise",
        "affine",
        "gbm",
        "bounded-trig",
        "log-lipschitz",
    }
    assert float(cat["zero-drift-unit-diffusion"].diffusion(0.0, 17.0)) == 1.0
    assert float(cat["zero-drift-unit-diffusion"].drift(0.0, 17.0)) == 0.0
    assert float(cat["gbm"].drift(0.3, 2.0)) == pytest.approx(0.1)
    assert float(cat["log-lipschitz"].diffusion(0.0, 0.0)) == 0.0


def test_log_lipschitz_shape():
    sigma = get_model("log-lipschitz").diffusion
    # odd, continuous through zero, linear far out with slope -log(eps)
    assert float(sigma(0.0, 0.05)) == pytest.approx(-float(sigma(0.0, -0.05)))
    assert float(sigma(0.0, 1e-12)) == pytest.approx(0.0, abs=1e-9)
    slope = -math.log(0.1)
    far = (float(sigma(0.0, 3.0)) - float(sigma(0.0, 2.0))) / 1.0
    assert far == pytest.approx(slope, rel=1e-12)


def test_catalog_coefficients_give_a_nan_one_sign_in_any_layout():
    # the block kernel evaluates a (w, B) block where its oracle evaluates a
    # (B,) row, so a NaN x must give the same NaN bits whatever the array's
    # shape; numpy's NaN * NaN takes either sign by position in the array
    for model in builtin_catalog():
        for f in (model.drift, model.diffusion):
            for nan in (np.nan, -np.nan):
                one = np.asarray(f(0.5, np.full(1, nan))).view(np.int64)[0]
                for shape in [(n,) for n in range(2, 41)] + [(7, 5), (8, 64)]:
                    got = np.asarray(f(0.5, np.full(shape, nan))).view(np.int64)
                    assert (got == one).all(), (model.id, f, shape, nan)


def test_catalog_coefficients_vectorize():
    x = np.linspace(-2.0, 2.0, 11)
    for model in builtin_catalog():
        b = np.asarray(model.drift(0.5, x))
        s = np.asarray(model.diffusion(0.5, x))
        assert b.shape == x.shape and s.shape == x.shape
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(s))


def test_get_model_unknown_id():
    with pytest.raises(KeyError):
        get_model("no-such-model")


def test_verify_regularity_constant_model():
    report = verify_regularity(get_model("zero-drift-unit-diffusion"), 1000, 7)
    assert report.max_violation == 0.0


def test_verify_regularity_affine_analytic_constant():
    # b = 1 + 2x, sigma = x: |2| + |1| = 3 is the exact Lipschitz constant of this pair
    model = CoefficientModel(
        id="affine-k3",
        drift=lambda t, x: 1.0 + 2.0 * x,
        diffusion=lambda t, x: 0.0 + 1.0 * x,
    )
    report = verify_regularity(model, 1000, 7, regularity=Lipschitz(3.0))
    assert report.max_violation <= 1e-12


def test_verify_regularity_log_lipschitz_fitted_constant():
    report = verify_regularity(get_model("log-lipschitz"), 1000, 7, p=4.0)
    assert report.fitted_constant is not None and math.isfinite(report.fitted_constant)
    assert report.max_violation == 0.0


def test_catalog_regularity_passes_at_scale():
    # every catalog model states its hypothesis, so a new model without one fails here
    assert set(REGULARITY) == {m.id for m in builtin_catalog()}
    for model in builtin_catalog():
        report = verify_regularity(model, 10_000, 7)
        if isinstance(REGULARITY[model.id], Lipschitz):
            assert report.max_violation <= 1e-12, model.id
        else:
            assert isinstance(REGULARITY[model.id], Modulus)
            assert report.max_violation == 0.0 and math.isfinite(report.fitted_constant), model.id
