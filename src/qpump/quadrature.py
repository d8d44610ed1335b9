"""Step sizes, grids, tolerances and constants shared by the numerical routines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for differentiation and integration.

    Every changeable grid size, finite-difference step and tolerance of
    the S pipeline is a field here (fixed ones are module constants);
    derive another resolution with ``dataclasses.replace(q, n_time=...)``.

    Finite-difference steps are relative: the energy step is
    ``h_e_rel * max(E, 1)`` and the time step is ``h_t_rel`` times the
    cycle's natural time scale (period, or pulse-window length).
    ``n_energy`` Gauss-Legendre points cover the thermal window
    ``mu +- energy_window * T`` in two panels meeting at ``mu``.
    """

    h_e_rel: float = 1e-5
    h_t_rel: float = 1e-5
    n_energy: int = 64
    energy_window: float = 30.0
    n_time: int = 512
    n_shot_time: int = 1024
    eps_diag_rel: float = 1e-3
    richardson: bool = False
    unitarity_tol: float = 1e-8
    hermiticity_tol: float = 1e-9

    def __post_init__(self):
        for name in ("h_e_rel", "h_t_rel", "eps_diag_rel", "unitarity_tol",
                     "hermiticity_tol", "energy_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("n_energy", "n_time", "n_shot_time"):
            if getattr(self, name) < 16:
                raise ValueError(f"{name} must be at least 16")


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def midpoint_grid(t0: float, t1: float, n: int) -> tuple[np.ndarray, float]:
    """Midpoint nodes on [t0, t1] and the common weight.

    For periodic integrands this is the usual equal-weight rule (same
    accuracy as trapezoid) but no node lands on t0 or t1, which keeps
    difference stencils away from non-smooth cycle corners.
    """
    dt = (t1 - t0) / n
    return t0 + dt * (np.arange(n) + 0.5), dt
