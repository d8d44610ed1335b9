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


@functools.lru_cache
def _sinh_kernel_rule(n: int, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss rule for the weight x^2 / sinh^2 x on
    [-reach, reach], mirrored bit for bit.

    Discretized Stieltjes on 32-point Gauss-Legendre panels of width
    about 1 gives the recurrence; the Jacobi matrix's eigenpairs give
    nodes and weights (Golub-Welsch).  The weight is even, so every
    alpha is 0 and only the betas are computed.
    """
    edges = np.linspace(-reach, reach, math.ceil(2.0 * reach) + 1)
    t, v = map(np.ravel,
               gauss_legendre(edges[:-1, None], edges[1:, None], 32))
    v *= (t / np.sinh(t)) ** 2
    beta = np.empty(n)
    beta[0] = v.sum()
    before, p = np.zeros_like(t), np.full_like(t, beta[0] ** -0.5)
    for k in range(1, n):
        q = t * p - math.sqrt(beta[k - 1]) * before
        beta[k] = v @ q ** 2
        before, p = p, q / math.sqrt(beta[k])
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(beta[1:]), 1), UPLO="U")
    weights = beta[0] * vectors[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def midpoint_grid(t0: float, t1: float, n: int) -> tuple[np.ndarray, float]:
    """Midpoint nodes on [t0, t1] and the common weight.

    For periodic integrands this is the usual equal-weight rule (same
    accuracy as trapezoid) but no node lands on t0 or t1, which keeps
    difference stencils away from non-smooth cycle corners.
    """
    require_count("n", n, 1)
    dt = (t1 - t0) / n
    return t0 + dt * (np.arange(n) + 0.5), dt
