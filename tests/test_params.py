from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsde import PerturbationParams, beyond_mao, validate
from dpsde.errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    DPSDEError,
    NonFiniteStart,
    NonPositiveHorizon,
    RhoTooLarge,
    UndefinedTimeZero,
)
from dpsde.params import time_zero_level


def direct_condition(a: float, b: float) -> bool:
    # independent evaluation of the well-posedness inequalities
    return a < 1.0 and b < 1.0 and abs(a * b) < (1.0 - a) * (1.0 - b)


def test_boundary_pair_rejected_with_rho_one():
    with pytest.raises(RhoTooLarge) as err:
        validate(0.5, 0.5, 0.0, 1.0)
    assert "rho=1.0" in str(err.value)


def test_beyond_mao_pair_accepted():
    p = validate(0.6, -1.0, 0.0, 1.0)
    assert p.rho == pytest.approx(-0.75)
    assert abs(p.alpha) + abs(p.beta) == pytest.approx(1.6)
    assert beyond_mao(p)


def test_large_negative_pair_accepted():
    p = validate(-3.0, -3.0, 0.0, 1.0)
    assert p.rho == pytest.approx(9.0 / 16.0)
    assert beyond_mao(p)


def test_alpha_boundary_rejected():
    with pytest.raises(AlphaOutOfRange):
        validate(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(BetaOutOfRange):
        validate(0.0, 1.5, 0.0, 1.0)


def test_non_positive_horizon_rejected():
    with pytest.raises(NonPositiveHorizon):
        validate(0.2, 0.2, 0.0, 0.0)
    with pytest.raises(NonPositiveHorizon):
        validate(0.2, 0.2, 0.0, -1.0)


def test_non_finite_inputs_rejected():
    with pytest.raises(AlphaOutOfRange):
        validate(float("nan"), 0.0, 0.0, 1.0)
    with pytest.raises(BetaOutOfRange):
        validate(0.0, float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        validate(0.0, 0.0, float("nan"), 1.0)
    with pytest.raises(NonPositiveHorizon):
        validate(0.0, 0.0, 0.0, float("inf"))


def test_beyond_mao_examples():
    assert not beyond_mao(validate(0.3, 0.3, 0.0, 1.0))
    assert beyond_mao(validate(0.6, -1.0, 0.0, 1.0))
    assert beyond_mao(validate(-3.0, -3.0, 0.0, 1.0))


def test_grid_matches_direct_condition():
    # exhaustive accept/reject agreement on a coarse parameter grid
    grid = np.linspace(-4.0, 0.99, 81)
    for a in grid:
        for b in grid:
            try:
                validate(float(a), float(b), 0.0, 1.0)
                accepted = True
            except DPSDEError:
                accepted = False
            assert accepted == direct_condition(float(a), float(b)), (a, b)


@given(
    st.floats(min_value=-10.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=2.0, allow_nan=False),
)
def test_validate_iff_direct_condition(a, b):
    try:
        p = validate(a, b, 0.0, 1.0)
        accepted = True
    except DPSDEError:
        accepted = False
    assert accepted == direct_condition(a, b)
    if accepted:
        # downstream denominators are safe
        assert 1.0 - abs(p.rho) > 0.0
        assert 1.0 - p.alpha > 0.0
        assert 1.0 - p.beta > 0.0


def test_params_is_immutable():
    p = validate(0.3, -0.2, 0.0, 1.0)
    with pytest.raises(AttributeError):
        p.alpha = 0.9
    assert isinstance(p, PerturbationParams)


def test_non_finite_x0_is_a_named_domain_error():
    import dpsde

    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(dpsde.NonFiniteStart) as info:
            validate(0.0, 0.0, bad, 1.0)
        assert isinstance(info.value, dpsde.DPSDEError)


def test_time_zero_level_rejects_alpha_plus_beta_rounding_to_one():
    # the gate accepts (0.3, 0.7): rho rounds to just below 1, while
    # 1 - 0.3 - 0.7 evaluates to 0.0
    p = validate(0.3, 0.7, 1.0, 1.0)
    assert p.rho < 1.0 and 1.0 - p.alpha - p.beta == 0.0
    with pytest.raises(UndefinedTimeZero):
        time_zero_level(p)
    assert time_zero_level(validate(0.25, 0.25, 1.0, 1.0)) == 2.0


GATE_CASES = [  # (alpha, beta, x0, horizon), error, message: the messages validate gave before it became the class
    ((2.0, 0.0, 0.0, 1.0), AlphaOutOfRange, "alpha must be finite and < 1, got 2.0"),
    ((float("nan"), 0, 0, 1), AlphaOutOfRange, "alpha must be finite and < 1, got nan"),
    ((0.0, 1.5, 0.0, 1.0), BetaOutOfRange, "beta must be finite and < 1, got 1.5"),
    ((0, 0, float("inf"), 1), NonFiniteStart, "x0 must be finite, got inf"),
    ((0.5, 0.5, 0, 1), RhoTooLarge, "rho=1.0: need |alpha*beta| < (1-alpha)(1-beta)"),
    ((0.2, 0.2, 0, -1.0), NonPositiveHorizon, "horizon must be finite and > 0, got -1.0"),
    ((0.2, 0.2, 0, float("inf")), NonPositiveHorizon, "horizon must be finite and > 0, got inf"),
    ((2.0, 1.5, float("nan"), -1.0), AlphaOutOfRange, "alpha must be finite and < 1, got 2.0"),  # first check wins
    # a value that is not a numbers.Real raises its field's error, before any range check
    (("x", 0, 0, 1), AlphaOutOfRange, "alpha must be a real number, got 'x'"),
    (("0.5", 0, 0, 1), AlphaOutOfRange, "alpha must be a real number, got '0.5'"),
    ((None, 0, 0, 1), AlphaOutOfRange, "alpha must be a real number, got None"),
    ((2.0, b"0", 0, 1), BetaOutOfRange, "beta must be a real number, got b'0'"),
    ((0, 0, 1j, 1), NonFiniteStart, "x0 must be a real number, got 1j"),
    ((0, 0, 0, "1"), NonPositiveHorizon, "horizon must be a real number, got '1'"),
    ((0, 0, 0, Decimal(1)), NonPositiveHorizon, "horizon must be a real number, got Decimal('1')"),
    ((0, -(10**400), 0, 1), BetaOutOfRange, f"beta must be a real number within the float range, got {-(10**400)}"),
]


@pytest.mark.parametrize("args,error,message", GATE_CASES, ids=[
    "alpha", "alpha-nan", "beta", "x0-inf", "rho-one", "horizon", "horizon-inf", "first-check-wins", "string",
    "numeric-string", "none", "bytes-before-range", "complex", "horizon-string", "decimal", "beyond-floats"])
def test_every_way_to_build_params_runs_the_gate(args, error, message):
    # building the record is the gate: validate is the class, and replace builds through it too
    assert validate is PerturbationParams
    with pytest.raises(error) as info:
        PerturbationParams(*args)
    assert type(info.value) is error and str(info.value) == message
    good = validate(0.3, -0.2, 0.5, 2.0)
    with pytest.raises(error) as info:
        replace(good, **dict(zip(("alpha", "beta", "x0", "horizon"), args)))
    assert str(info.value) == message


def test_every_real_number_type_gives_the_same_params():
    # numpy's scalars, Fraction and bool are numbers.Real; each field is stored as a Python float
    got = validate(np.float32(0.5), np.int64(0), Fraction(1, 4), True)
    assert got == validate(0.5, 0.0, 0.25, 1.0)
    assert all(type(v) is float for v in (got.alpha, got.beta, got.x0, got.horizon))
    assert PerturbationParams(np.float64(0.6), -1, 0, np.uint8(2)) == validate(0.6, -1.0, 0.0, 2.0)


def test_rho_is_derived_never_passed():
    p = PerturbationParams(alpha=0.6, beta=-1, x0=0, horizon=1)
    assert p == validate(0.6, -1.0, 0.0, 1.0) and p.rho == 0.6 * -1.0 / (0.4 * 2.0)
    assert all(type(v) is float for v in (p.alpha, p.beta, p.x0, p.horizon, p.rho))
    with pytest.raises(TypeError):
        PerturbationParams(alpha=2.0, beta=0.0, x0=0.0, horizon=1.0, rho=0.0)
    with pytest.raises(ValueError):
        replace(p, rho=0.0)
    assert replace(p, beta=-0.5).rho == validate(0.6, -0.5, 0.0, 1.0).rho == pytest.approx(-0.5)
    with pytest.raises(AlphaOutOfRange):
        replace(p, alpha=2.0)
