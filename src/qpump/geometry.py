"""Geometric and topological charge formulas.

The j-th row of S(E, t), viewed as a unit vector, carries a Berry
connection whose time component is minus the diagonal energy shift.  A
closed pump cycle therefore pumps

    2 pi <Q>_j = -(global angle of the row loop),

and the same charge can be computed as a discrete curvature flux
through any surface the loop bounds (Stokes), as minus the winding
number of the surviving amplitude for deterministic matrices, or, for
two channels, from the solid angle swept on the Bloch sphere by the
phase-invariant image of the row (fraction of a charge mod 1).

All discrete formulas use gauge-invariant overlap products, so no phase
fixing of the sampled states is ever needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (EnergyAtBandEdge, GridTooCoarse, PhaseUnwrapFailure,
                     RegionTouchesDiscontinuity)
from .quadrature import TWO_PI, QuadratureSpec, midpoint_grid
from .smatrix import PumpCycle

# energy intervals of the [0, mu] x cycle surface in `cylinder_charge`
CYLINDER_ENERGIES = 48


# ---------------------------------------------------------------------------
# row loops and the global angle

def row_states(cycle: PumpCycle, channel: int, energy: float,
               times: np.ndarray) -> np.ndarray:
    """Rows of S(energy, t) for t in `times`, shape (len(times), n).

    Possibly a read-only view, like `PumpCycle.sample_grid`.
    """
    if not 0 <= channel < cycle.n_channels:
        raise ValueError("channel index out of range")
    return cycle.sample_grid(energy, times)[:, 0, channel]


def _links(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Overlaps <a_k | b_k> with a guard against orthogonal neighbours."""
    overlaps = np.sum(states_a.conj() * states_b, axis=-1)
    mods = np.abs(overlaps)
    if np.any(mods < 0.2):
        raise GridTooCoarse(
            "neighbouring states nearly orthogonal; refine the sampling")
    return overlaps


def global_angle(states: np.ndarray, closed: bool = True) -> float:
    """Sum of overlap phases arg <psi_k | psi_k+1> along a discrete path.

    With `closed` the wrap-around link is included, which makes the
    result gauge invariant (independent of the phases of the samples).
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[0] < 2:
        raise ValueError("need a (n_samples, dim) array with >= 2 samples")
    nxt = np.roll(states, -1, axis=0) if closed else states[1:]
    cur = states if closed else states[:-1]
    return float(np.sum(np.angle(_links(cur, nxt))))


def charge_from_global_angle(cycle: PumpCycle, channel: int, mu: float,
                             q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge of a periodic cycle from the row loop at E = mu."""
    if cycle.period is None:
        raise ValueError("global-angle charge needs a periodic cycle")
    times, _ = midpoint_grid(0.0, cycle.period, q.n_time)
    states = row_states(cycle, channel, mu, times)
    return -global_angle(states, closed=True) / TWO_PI


# ---------------------------------------------------------------------------
# discrete Stokes on patches of states

def plaquette_phases(grid: np.ndarray, wrap_u: bool = False,
                     wrap_v: bool = False) -> np.ndarray:
    """Loop phase of every grid plaquette, counterclockwise in (u, v).

    `grid` has shape (nu, nv, dim).  The phase of the overlap product
    around one cell is the discrete Berry flux through it; values near
    +-pi mean the discretization cannot resolve the curvature.
    """
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ValueError("need a (nu, nv, dim) array of states")
    if wrap_u:
        u0, u1 = grid, np.roll(grid, -1, axis=0)
    else:
        u0, u1 = grid[:-1], grid[1:]
    if wrap_v:
        v_index = np.arange(grid.shape[1])
        v_next = np.roll(v_index, -1)
    else:
        v_index = np.arange(grid.shape[1] - 1)
        v_next = v_index + 1
    p00 = u0[:, v_index]
    p10 = u1[:, v_index]
    p11 = u1[:, v_next]
    p01 = u0[:, v_next]
    # angle of the overlap product, so per-sample gauge choices drop out
    chi = np.angle(_links(p00, p10) * _links(p10, p11)
                   * _links(p11, p01) * _links(p01, p00))
    if np.any(np.abs(chi) > 2.8):
        raise GridTooCoarse(
            "plaquette phase close to half a turn; refine the patch")
    return chi


def surface_flux(grid: np.ndarray, wrap_u: bool = False,
                 wrap_v: bool = False) -> float:
    """Total discrete curvature flux through a patch of states."""
    return float(np.sum(plaquette_phases(grid, wrap_u, wrap_v)))


def boundary_states(grid: np.ndarray) -> np.ndarray:
    """Counterclockwise boundary loop of an open patch, corners once."""
    grid = np.asarray(grid)
    bottom = grid[:-1, 0]
    right = grid[-1, :-1]
    top = grid[:0:-1, -1]
    left = grid[0, :0:-1]
    return np.concatenate([bottom, right, top, left], axis=0)


def stokes_residual(grid: np.ndarray) -> float:
    """|surface flux - boundary angle| for an open patch.

    Interior links cancel pairwise in the plaquette sum, so for a patch
    fine enough that no loop phase wraps, this is a roundoff-level
    identity; it is the discrete form of the charge-as-curvature
    statement.
    """
    flux = surface_flux(grid)
    line = global_angle(boundary_states(grid), closed=True)
    return abs(flux - line)


def random_smooth_patch(rng: np.random.Generator, dim: int,
                        shape: tuple[int, int] = (24, 24),
                        harmonics: int = 2, amplitude: float = 0.6) -> np.ndarray:
    """Random smooth map [0,1]^2 -> unit vectors in C^dim (open patch).

    Low-order Fourier sums with a constant offset keep the vectors away
    from zero before normalization.
    """
    nu, nv = shape
    u = np.linspace(0.0, 1.0, nu)[:, None, None]
    v = np.linspace(0.0, 1.0, nv)[None, :, None]
    vec = np.full((nu, nv, dim), 0.0, dtype=np.complex128)
    vec += rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for m in range(1, harmonics + 1):
        for n in range(1, harmonics + 1):
            scale = amplitude / (m * n)
            for phase_u in (np.cos, np.sin):
                for phase_v in (np.cos, np.sin):
                    coeff = scale * (rng.normal(size=dim)
                                     + 1j * rng.normal(size=dim))
                    vec += coeff * phase_u(math.pi * m * u) * phase_v(math.pi * n * v)
    norms = np.linalg.norm(vec, axis=-1, keepdims=True)
    if np.min(norms) < 1e-3:
        return random_smooth_patch(rng, dim, shape, harmonics, amplitude)
    return vec / norms


# ---------------------------------------------------------------------------
# charge as curvature flux over the filled band

def cylinder_charge(cycle: PumpCycle, channel: int, mu: float,
                    q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge as discrete flux through [0, mu] x cycle.

    Valid when the frozen matrix is constant in time at the band bottom
    (the zero-energy boundary loop then carries no angle); this is
    checked and a ValueError raised otherwise.  The energy grid includes
    both ends, the time grid wraps periodically.
    """
    if cycle.period is None:
        raise ValueError("cylinder flux needs a periodic cycle")
    if not 0 <= channel < cycle.n_channels:
        raise ValueError("channel index out of range")
    times, _ = midpoint_grid(0.0, cycle.period, q.n_time)
    energies = np.linspace(0.0, mu, CYLINDER_ENERGIES + 1)
    try:
        grid = cycle.sample_grid(energies, times)[:, :, channel].swapaxes(0, 1)
    except EnergyAtBandEdge as exc:
        raise RegionTouchesDiscontinuity(
            f"energy sweep over [0, {mu!r}] hits a band edge") from exc
    bottom = grid[0]
    drift = np.max(np.linalg.norm(bottom - bottom[0], axis=-1))
    if drift > 1e-6:
        raise ValueError(
            "frozen matrix moves at zero energy (drift "
            f"{drift:.2e}); cylinder flux does not equal the charge")
    return -surface_flux(grid, wrap_u=False, wrap_v=True) / TWO_PI


# ---------------------------------------------------------------------------
# winding numbers

def winding_number(values: np.ndarray) -> int:
    """Winding of a closed discrete path in the punctured complex plane."""
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1 or z.size < 3:
        raise ValueError("need a 1-d path with >= 3 samples")
    if np.min(np.abs(z)) < 1e-12:
        raise ValueError("path passes through zero; winding undefined")
    steps = np.angle(np.roll(z, -1) / z)
    if np.any(np.abs(steps) > 0.9 * math.pi):
        raise PhaseUnwrapFailure(
            "phase step of nearly half a turn between samples")
    total = float(np.sum(steps)) / TWO_PI
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise PhaseUnwrapFailure(f"winding sum {total!r} is not an integer")
    return int(nearest)


def amplitude_winding(cycle: PumpCycle, channel: int, mu: float,
                      q: QuadratureSpec = QuadratureSpec()) -> int:
    """Winding of the diagonal amplitude S_jj(mu, t) over one period.

    For deterministic (fully reflecting or chiral) matrices the pumped
    charge is minus this integer.
    """
    if cycle.period is None:
        raise ValueError("winding needs a periodic cycle")
    times, _ = midpoint_grid(0.0, cycle.period, q.n_time)
    return winding_number(cycle.sample_grid(mu, times)[:, 0, channel, channel])


# ---------------------------------------------------------------------------
# two-channel sphere picture

def hopf_vector(row: np.ndarray) -> np.ndarray:
    """Phase-invariant image of a two-channel row on the unit sphere."""
    row = np.asarray(row, dtype=np.complex128)
    if row.shape != (2,):
        raise ValueError("need a length-2 row")
    a, b = row
    cross = 2.0 * a * b.conj()
    n = np.array([cross.real, cross.imag, abs(a) ** 2 - abs(b) ** 2])
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("row is not a unit vector")
    return n / norm


def sphere_path(cycle: PumpCycle, channel: int, mu: float,
                q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Closed path swept on the sphere by the row image over one period."""
    if cycle.period is None:
        raise ValueError("sphere path needs a periodic cycle")
    times, _ = midpoint_grid(0.0, cycle.period, q.n_time)
    states = row_states(cycle, channel, mu, times)
    return np.array([hopf_vector(s) for s in states])


def spherical_polygon_area(points: np.ndarray) -> float:
    """Signed area enclosed by a closed path of unit vectors.

    Fan triangulation from the normalized centroid (or the north pole
    when the centroid degenerates); each triangle contributes its signed
    spherical excess.  The result is defined modulo 4 pi, the usual
    ambiguity of 'the enclosed region' on a sphere.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise ValueError("need a (n, 3) path with >= 3 points")
    norms = np.linalg.norm(pts, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("path points must lie on the unit sphere")
    gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if np.max(gaps) > math.sqrt(2.0):
        raise GridTooCoarse("sphere path jumps by a quarter turn or more")
    centroid = pts.mean(axis=0)
    if np.linalg.norm(centroid) > 0.2:
        apex = centroid / np.linalg.norm(centroid)
    else:
        apex = np.array([0.0, 0.0, 1.0])
    total = 0.0
    for k in range(pts.shape[0]):
        b = pts[k]
        c = pts[(k + 1) % pts.shape[0]]
        total += _triangle_excess(apex, b, c)
    return total


def _triangle_excess(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    num = float(np.dot(a, np.cross(b, c)))
    den = 1.0 + float(np.dot(a, b) + np.dot(b, c) + np.dot(c, a))
    return 2.0 * math.atan2(num, den)


def fractional_charge(cycle: PumpCycle, channel: int, mu: float,
                      q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge modulo 1 from the swept solid angle / 4 pi."""
    path = sphere_path(cycle, channel, mu, q)
    return spherical_polygon_area(path) / (2.0 * TWO_PI)
