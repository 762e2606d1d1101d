"""Brute-force grid oracle for the dimensional constant, a test oracle.

It is the independent check on the solved constant, as mpmath is on the
closed forms: it evaluates the volume ratio of tents by fixed quadrature
alone, never touching the closed forms it is meant to certify.
"""

from __future__ import annotations

import math

import numpy as np

from epidual.measures import _GL_NODES, _GL_WEIGHTS
from epidual.profile import INF

# largest tent increment b the grid oracle scans before b = inf
_BRUTE_FORCE_B_MAX = 1e4
_QUAD_PANELS = 32
_QUAD_TOP = 60.0  # exp(-60) is far below the 1e-4 oracle target


def _kink_aligned_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    # Both integrands kink at z = a and z = 1/a whatever b is, so panels
    # split there keep the 15-point rule at spectral accuracy.
    cuts = [z for z in (a, 1.0 / a) if 0.0 < z < _QUAD_TOP]
    edges = np.unique(
        np.concatenate([np.linspace(0.0, _QUAD_TOP, _QUAD_PANELS + 1), cuts])
    )
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    zs = (mids[:, None] + half[:, None] * np.array(_GL_NODES)[None, :]).ravel()
    ws = (half[:, None] * np.array(_GL_WEIGHTS)[None, :]).ravel()
    return zs, ws * np.exp(-zs)


def _int_pow(x: np.ndarray, n: int) -> np.ndarray:
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _tent_log_ratios(n: int, a: float, b_vals: np.ndarray) -> np.ndarray:
    """log nu/mu for the tents T(a, b, 1), one quadrature per b, b = inf ok.

    brute_force_lambda's independent route, an oracle for the solver: the
    two volumes by quadrature, not big_f's and big_g's closed form.
    """
    zs, ws = _kink_aligned_rule(a)
    z = zs[None, :]
    b = b_vals[:, None]
    with np.errstate(invalid="ignore"):
        past_kink = 1.0 + (z - a) / (a + b)
    past_kink = np.where(np.isinf(b), 1.0, past_kink)
    rho = np.where(z <= a, z / a, past_kink)
    mu = _int_pow(rho, n) @ ws
    with np.errstate(invalid="ignore"):
        swapped = (b * z + 1.0) / (a + b)  # w * rho(1/w) below the kink
    swapped = np.where(np.isinf(b), z, swapped)
    rho_j = np.minimum(swapped, 1.0 / a)
    nu = _int_pow(rho_j, n) @ ws
    return np.log(nu) - np.log(mu)


def _brute_force_scan(
    n: int,
    grid_a: int,
    grid_b: int,
    a_range: tuple[float, float],
) -> tuple[float, float, float]:
    if not (0.0 < a_range[0] < a_range[1]):
        raise ValueError(f"slope range must satisfy 0 < lo < hi, got {a_range}")
    if grid_a < 2 or grid_b < 2:
        raise ValueError("need at least 2 grid points per axis")
    b_vals = np.concatenate(
        [[0.0], np.geomspace(1e-2, _BRUTE_FORCE_B_MAX, grid_b - 1), [np.inf]]
    )
    best, best_a, best_b = -INF, math.nan, math.nan
    for a in np.geomspace(a_range[0], a_range[1], grid_a):
        ratios = _tent_log_ratios(n, float(a), b_vals)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, best_a, best_b = float(ratios[j]), float(a), float(b_vals[j])
    return best, best_a, best_b


def brute_force_lambda(
    n: int,
    grid_a: int,
    grid_b: int,
    a_range: tuple[float, float] = (0.01, 5.0),
) -> float:
    """log of the grid maximum of the tent volume ratio, quadrature only.

    Scans slopes a geometrically over a_range and increments b over
    {0} + geometric(1e-2, 1e4) + {inf}; meant for small n where the
    kink-aligned composite 15-point rule on [0, 60] sits far below the
    1e-4 comparison tolerance against the solved constant.
    """
    best, _, _ = _brute_force_scan(n, grid_a, grid_b, a_range)
    return best
