"""Skorohod reflection map on sampled paths.

For a path y with y_0 >= 0 the discrete Skorohod map returns the unique
pair (z, k) with

    z_j = y_j + k_j,   k_j = max_{i <= j} (-y_i)^+,

so z >= 0 everywhere, k is non-decreasing with k_0 = 0, and k increases at
j only when z_j = 0 ("flat off" the zero set) -- the last identity is exact
on grids: a new maximum of (-y)^+ at j forces k_j = -y_j and hence
z_j = y_j + (-y_j) = 0 in IEEE arithmetic.

Inputs may be 1-D (one path) or 2-D (paths, L+1) batches; the map is pure.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, NegativeStart

__all__ = ["skorohod_map"]


def skorohod_map(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect y at zero: returns (z, k) with z = y + k >= 0.

    Raises NegativeStart when any path starts below zero.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] == 0:
        raise EmptyInput("skorohod_map of an empty path")
    if np.any(y[..., 0] < 0.0):
        raise NegativeStart("skorohod_map requires y_0 >= 0")
    k = np.maximum.accumulate(np.maximum(-y, 0.0), axis=-1)
    return y + k, k
