import numpy as np
import pytest

from _oracles import brute_skorohod
from dpsde.errors import EmptyInput, NegativeStart
from dpsde.reflect import skorohod_map


def test_constant_positive_path_untouched():
    y = np.full(10, 2.0)
    z, k = skorohod_map(y)
    assert np.array_equal(k, np.zeros(10))
    assert np.array_equal(z, y)


def test_linear_descent_fully_reflected():
    t = np.linspace(0.0, 1.0, 11)
    z, k = skorohod_map(-t)
    assert np.array_equal(k, t)
    assert np.array_equal(z, np.zeros(11))


def test_hand_example():
    y = np.array([0.0, 1.0, -0.5, 0.25, -2.0])
    z, k = skorohod_map(y)
    assert np.array_equal(k, np.array([0.0, 0.0, 0.5, 0.5, 2.0]))
    assert np.array_equal(z, np.array([0.0, 1.0, 0.0, 0.75, 0.0]))


def test_negative_start_rejected():
    with pytest.raises(NegativeStart):
        skorohod_map(np.array([-0.1, 0.5]))


def test_matches_brute_force_on_random_paths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = np.cumsum(rng.normal(0.0, 0.3, size=200))
        y[0] = abs(y[0])
        z, k = skorohod_map(y)
        zb, kb = brute_skorohod(y)
        assert np.array_equal(k, kb)
        assert np.array_equal(z, zb)


def test_skorohod_properties_and_flat_off():
    rng = np.random.default_rng(4)
    y = np.cumsum(rng.normal(0.0, 0.2, size=(200, 128)), axis=1)
    y[:, 0] = np.abs(y[:, 0])
    z, k = skorohod_map(y)
    assert np.all(z >= 0.0)
    assert np.all(k[:, 0] == 0.0)
    dk = np.diff(k, axis=1)
    assert np.all(dk >= 0.0)
    # wherever k increases, z is exactly zero
    assert np.all(z[:, 1:][dk > 0.0] == 0.0)


def test_skorohod_idempotent():
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.normal(0.0, 0.3, size=100))
    y[0] = abs(y[0])
    z, _ = skorohod_map(y)
    z2, k2 = skorohod_map(z)
    assert np.array_equal(z2, z)
    assert np.array_equal(k2, np.zeros_like(z))


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        skorohod_map(np.array([]))
