"""Step sizes, grids, tolerances and constants shared by the numerical routines."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# the stencil's budgets, and each thermal panel's reach from mu in units of T
UNITARITY_TOL = 1e-8
HERMITIZATION_FLOOR = 10.0 * 1e-9
ENERGY_WINDOW = 30.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes, steps and the difference order that a caller varies.

    The stencil's budgets and the thermal reach are module constants;
    derive another resolution with ``dataclasses.replace(q, n_time=...)``.

    Finite-difference steps are relative: the energy step is
    ``h_e_rel * max(E, 1)`` and the time step is ``h_t_rel`` times the
    cycle's natural time scale (period, or pulse-window length).
    ``n_energy`` Gauss-Legendre points cover the thermal window
    ``mu +- ENERGY_WINDOW * T`` in two panels meeting at ``mu``.
    The zero-temperature shot noise takes Simpson's rule on at least
    ``n_shot_time`` nodes over the pulse window; node pairs closer than
    ``eps_diag_rel`` of the window take the diagonal limit, which at the
    default is lag 0 alone (under one step up to 10**7 Simpson intervals).
    """

    h_e_rel: float = 1e-5
    h_t_rel: float = 1e-5
    n_energy: int = 64
    n_time: int = 512
    n_shot_time: int = 512
    eps_diag_rel: float = 1e-7
    richardson: bool = False

    def __post_init__(self):
        for name in ("h_e_rel", "h_t_rel", "eps_diag_rel"):
            # written so that NaN fails too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("n_energy", "n_time", "n_shot_time"):
            require_count(name, getattr(self, name), 16)


def require_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer >= least (numpy ints pass)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")


@functools.lru_cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b], as fresh arrays."""
    x, w = _legendre_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def midpoint_grid(t0: float, t1: float, n: int) -> tuple[np.ndarray, float]:
    """Midpoint nodes on [t0, t1] and the common weight.

    For periodic integrands this is the usual equal-weight rule (same
    accuracy as trapezoid) but no node lands on t0 or t1, which keeps
    difference stencils away from non-smooth cycle corners.
    """
    require_count("n", n, 1)
    dt = (t1 - t0) / n
    return t0 + dt * (np.arange(n) + 0.5), dt
