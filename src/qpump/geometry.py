"""Geometric and topological charge formulas.

The j-th row of S(E, t), viewed as a unit vector, carries a Berry
connection whose time component is minus the diagonal energy shift.  A
periodic pump cycle therefore pumps

    2 pi <Q>_j = -(global angle of the row loop),

and the same charge can be computed as a discrete curvature flux
through any surface the loop bounds (Stokes), as minus the winding
number of the surviving amplitude for deterministic matrices, or, for
two channels, from the solid angle swept on the Bloch sphere by the
phase-invariant image of the row (fraction of a charge mod 1).

All discrete formulas use gauge-invariant overlap products, so no phase
fixing of the sampled states is ever needed; a patch is read once into
the link overlaps of Fukui, Hatsugai & Suzuki, J. Phys. Soc. Jpn. 74,
1674 (2005).  The rows of S are also a continuous section, which
`cylinder_charge` holds to Luscher's admissibility rule on the same
links (`_check_admissible`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (EnergyAtBandEdge, GridTooCoarse, NoTimeDomain,
                     PhaseUnwrapFailure, RegionTouchesDiscontinuity)
from .quadrature import TWO_PI, QuadratureSpec
from .smatrix import PumpCycle

# energy intervals of the [0, mu] x cycle surface in `cylinder_charge`
CYLINDER_ENERGIES = 48


# ---------------------------------------------------------------------------
# row loops and the global angle

def _check_channel(cycle: PumpCycle, channel: int) -> None:
    if not 0 <= channel < cycle.n_channels:
        raise ValueError("channel index out of range")


def row_states(cycle: PumpCycle, channel: int, energy: float,
               times: np.ndarray) -> np.ndarray:
    """Rows of S(energy, t) for t in `times`, shape (len(times), n).

    Possibly a read-only view, like `PumpCycle.sample_grid`.
    """
    _check_channel(cycle, channel)
    return cycle.sample_grid(energy, times)[:, 0, channel]


def _links(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Overlaps <a_k | b_k> with a guard against orthogonal neighbours."""
    overlaps = np.sum(states_a.conj() * states_b, axis=-1)
    mods = np.abs(overlaps)
    if np.any(mods < 0.2):
        raise GridTooCoarse(
            "neighbouring states nearly orthogonal; refine the sampling")
    return overlaps


def global_angle(states: np.ndarray) -> float:
    """Sum of overlap phases arg <psi_k | psi_k+1> around a discrete loop.

    The wrap-around link from the last sample to the first is included,
    which makes the result gauge invariant (independent of the phases of
    the samples).
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[0] < 2:
        raise ValueError("need a (n_samples, dim) array with >= 2 samples")
    nxt = np.roll(states, -1, axis=0)
    return float(np.sum(np.angle(_links(states, nxt))))


def _period_times(cycle: PumpCycle, q: QuadratureSpec) -> np.ndarray:
    """Time nodes of one period; the loop formulas need a periodic cycle."""
    if cycle.period is None:
        raise NoTimeDomain("this formula needs a periodic cycle")
    return cycle.time_grid(q.n_time)[0]


def _period_rows(cycle: PumpCycle, channel: int, mu: float,
                 q: QuadratureSpec) -> np.ndarray:
    """Rows of S(mu, t) at the time nodes of one period."""
    return row_states(cycle, channel, mu, _period_times(cycle, q))


def charge_from_global_angle(cycle: PumpCycle, channel: int, mu: float,
                             q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge of a periodic cycle from the row loop at E = mu."""
    return _loop_charge(_period_rows(cycle, channel, mu, q))


def _loop_charge(rows: np.ndarray) -> float:
    """`charge_from_global_angle` from the rows of one period."""
    return -global_angle(rows) / TWO_PI


# ---------------------------------------------------------------------------
# discrete Stokes on patches of states

def plaquette_phases(grid: np.ndarray, wrap_u: bool = False,
                     wrap_v: bool = False) -> np.ndarray:
    """Loop phase of every grid plaquette, counterclockwise in (u, v).

    `grid` has shape (nu, nv, dim).  The phase of the overlap product
    around one cell is the discrete Berry flux through it; values near
    +-pi mean the discretization cannot resolve the curvature; a flux
    that wraps past them to a small value gives a Stokes residual 2 pi k.
    """
    return _flux(*_link_overlaps(grid, wrap_u, wrap_v))


def _link_overlaps(grid: np.ndarray, wrap_u: bool,
                   wrap_v: bool) -> tuple[np.ndarray, np.ndarray]:
    """Link overlaps u (i, j) -> (i + 1, j) and v (i, j) -> (i, j + 1)
    of a (nu, nv, dim) patch of states, each wrapped axis closed through
    a copy of its first row or column."""
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ValueError("need a (nu, nv, dim) array of states")
    if wrap_u:
        grid = np.concatenate([grid, grid[:1]], axis=0)
    if wrap_v:
        grid = np.concatenate([grid, grid[:, :1]], axis=1)
    return _links(grid[:-1], grid[1:]), _links(grid[:, :-1], grid[:, 1:])


def _flux(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`plaquette_phases` from the link overlaps of `_link_overlaps`."""
    # angle of the overlap product, so per-sample gauge choices drop out
    chi = np.angle(u[:, :-1] * v[1:] * u[:, 1:].conj() * v[:-1].conj())
    if np.any(np.abs(chi) > 2.8):
        raise GridTooCoarse(
            "plaquette phase close to half a turn; refine the patch")
    return chi


def _check_admissible(grid: np.ndarray, wrap_u: bool = False,
                      wrap_v: bool = False) -> np.ndarray:
    """`plaquette_phases` of an admissible patch: GridTooCoarse unless
    every plaquette's four wrapped link angles, in the states' own gauge,
    sum to less than pi in magnitude (Luscher, Commun. Math. Phys. 85, 39
    (1982)).

    For a continuous section, such as the rows of S, this catches a phase
    that winds by 2 pi inside one plaquette, around a zero of a
    component: the overlaps of `plaquette_phases` cannot see it, and a
    closed surface would read a Chern number where the section forces 0.
    """
    u, v = _link_overlaps(grid, wrap_u, wrap_v)
    du, dv = np.angle(u), np.angle(v)
    own = du[:, :-1] + dv[1:] - du[:, 1:] - dv[:-1]
    # written so that NaN fails too
    if not np.all(np.abs(own) < math.pi):
        raise GridTooCoarse("a plaquette's own link angles sum to half a "
                            "turn or more; refine the grid")
    return _flux(u, v)


def surface_flux(grid: np.ndarray, wrap_u: bool = False,
                 wrap_v: bool = False) -> float:
    """Total discrete curvature flux through a patch of states."""
    return float(np.sum(plaquette_phases(grid, wrap_u, wrap_v)))


def stokes_residual(grid: np.ndarray) -> float:
    """|surface flux - boundary angle| for an open patch.

    Interior links cancel pairwise in the plaquette sum, so for a patch
    fine enough that no loop phase wraps, this is a roundoff-level
    identity; it is the discrete form of the charge-as-curvature
    statement.  A residual of 2 pi k means an unresolved patch: k
    plaquette phases wrapped.  The rim reuses the plaquettes' links.
    """
    u, v = _link_overlaps(grid, False, False)
    rim = np.concatenate([u[:, 0], v[-1], u[::-1, -1].conj(),
                          v[0, ::-1].conj()])
    return abs(float(np.sum(_flux(u, v))) - float(np.sum(np.angle(rim))))


def random_smooth_patch(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random smooth open patch [0,1]^2 -> unit vectors in C^dim, 24 x 24.

    Fourier sums of mode numbers 1 and 2 (amplitude 0.6 / (m n)) with a
    constant offset keep the vectors away from zero before normalization.
    A draw that comes near zero at a node, or that `_check_admissible`
    (in the normalized gauge, with the plaquette guard it applies)
    refuses, is unresolved on the grid and drawn again.
    """
    u = np.linspace(0.0, 1.0, 24)[:, None, None]
    v = np.linspace(0.0, 1.0, 24)[None, :, None]
    vec = np.full((24, 24, dim), 0.0, dtype=np.complex128)
    vec += rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for m in (1, 2):
        for n in (1, 2):
            scale = 0.6 / (m * n)
            for phase_u in (np.cos, np.sin):
                for phase_v in (np.cos, np.sin):
                    coeff = scale * (rng.normal(size=dim)
                                     + 1j * rng.normal(size=dim))
                    vec += coeff * phase_u(math.pi * m * u) * phase_v(math.pi * n * v)
    norms = np.linalg.norm(vec, axis=-1, keepdims=True)
    if np.min(norms) < 1e-3:
        return random_smooth_patch(rng, dim)
    vec = vec / norms
    try:
        _check_admissible(vec)
    except GridTooCoarse:
        return random_smooth_patch(rng, dim)
    return vec


# ---------------------------------------------------------------------------
# charge as curvature flux over the filled band

def cylinder_charge(cycle: PumpCycle, channel: int, mu: float,
                    q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge as discrete flux through [0, mu] x cycle.

    Valid when the frozen matrix is constant in time at the band bottom
    (the zero-energy boundary loop then carries no angle); this is
    checked and RegionTouchesDiscontinuity raised otherwise.  The energy
    grid includes both ends, the time grid wraps periodically.  It sums
    the plaquettes that `_check_admissible` admits.
    """
    times = _period_times(cycle, q)
    _check_channel(cycle, channel)
    energies = np.linspace(0.0, mu, CYLINDER_ENERGIES + 1)
    try:
        grid = cycle.sample_grid(energies, times)[:, :, channel].swapaxes(0, 1)
    except EnergyAtBandEdge as exc:
        raise RegionTouchesDiscontinuity(
            f"energy sweep over [0, {mu!r}] hits a band edge") from exc
    bottom = grid[0]
    drift = np.max(np.linalg.norm(bottom - bottom[0], axis=-1))
    if drift > 1e-6:
        raise RegionTouchesDiscontinuity(
            "frozen matrix moves at zero energy (drift "
            f"{drift:.2e}); cylinder flux does not equal the charge")
    return -float(np.sum(_check_admissible(grid, wrap_v=True))) / TWO_PI


# ---------------------------------------------------------------------------
# winding numbers

def winding_number(values: np.ndarray) -> int:
    """Winding of a discrete loop in the punctured complex plane."""
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1 or z.size < 3:
        raise ValueError("need a 1-d path with >= 3 samples")
    if np.min(np.abs(z)) < 1e-12:
        raise PhaseUnwrapFailure("path passes through zero; winding undefined")
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
    return _loop_winding(_period_rows(cycle, channel, mu, q), channel)


def _loop_winding(rows: np.ndarray, channel: int) -> int:
    """`amplitude_winding` from the rows of one period."""
    return winding_number(rows[:, channel])


# ---------------------------------------------------------------------------
# two-channel sphere picture

def hopf_vector(row: np.ndarray) -> np.ndarray:
    """Phase-invariant image of two-channel rows on the unit sphere.

    `row` has shape (..., 2); the result has shape (..., 3).
    """
    row = np.asarray(row, dtype=np.complex128)
    if row.ndim < 1 or row.shape[-1] != 2:
        raise ValueError("need rows of length 2")
    # always a 2-d stack, so one row takes the same array arithmetic
    # as a row of a stack
    a, b = row.reshape(-1, 2).T
    cross = 2.0 * a * b.conj()
    n = np.stack([cross.real, cross.imag, abs(a) ** 2 - abs(b) ** 2], axis=-1)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if np.any(np.abs(norm - 1.0) > 1e-8):
        raise ValueError("row is not a unit vector")
    return (n / norm).reshape(row.shape[:-1] + (3,))


def spherical_polygon_area(points: np.ndarray) -> float:
    """Signed area bounded by a loop of unit vectors.

    Fan triangulation from the normalized centroid (or the north pole
    when the centroid degenerates); each triangle contributes its signed
    spherical excess.  The result is defined modulo 4 pi, the usual
    ambiguity of 'the region inside' a loop on a sphere.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise ValueError("need a (n, 3) path with >= 3 points")
    norms = np.linalg.norm(pts, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("path points must lie on the unit sphere")
    nxt = np.roll(pts, -1, axis=0)
    gaps = np.linalg.norm(nxt - pts, axis=1)
    if np.max(gaps) > math.sqrt(2.0):
        raise GridTooCoarse("sphere path jumps by a quarter turn or more")
    centroid = pts.mean(axis=0)
    if np.linalg.norm(centroid) > 0.2:
        apex = centroid / np.linalg.norm(centroid)
    else:
        apex = np.array([0.0, 0.0, 1.0])
    # triangle (apex, b, c) for every edge b -> c of the path
    num = np.cross(pts, nxt) @ apex
    den = 1.0 + (pts @ apex + np.sum(pts * nxt, axis=1) + nxt @ apex)
    return float(np.sum(2.0 * np.arctan2(num, den)))


def fractional_charge(cycle: PumpCycle, channel: int, mu: float,
                      q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumped charge modulo 1 from the solid angle / 4 pi that the row
    image sweeps on the sphere over one period."""
    return _loop_fraction(_period_rows(cycle, channel, mu, q))


def _loop_fraction(rows: np.ndarray) -> float:
    """`fractional_charge` from the rows of one period."""
    return spherical_polygon_area(hopf_vector(rows)) / (2.0 * TWO_PI)
