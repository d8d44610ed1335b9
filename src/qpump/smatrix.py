"""Frozen scattering matrices S(E, t) and their differential data.

A pump cycle is a two-parameter family of n x n unitary scattering
matrices: E is the energy of the incoming particle, t the (slow) time at
which the scatterer is frozen.  All transport quantities derive from two
Hermitian matrices built from first derivatives,

    energy shift   = i dS/dt S^dagger
    time delay     = -i dS/dE S^dagger   (Wigner delay)

and from the time-energy curvature, their commutator

    curvature = i [time_delay, energy_shift].

Every derivative comes from one kernel, `stencil`, which works on a
whole grid of (t, E) nodes at once.  It samples S through
`PumpCycle.sample_grid` at the nodes and at t +- h_t (at E +- h_e too
when the delay is wanted), checks every sample for unitarity and forms
second-order central differences; optional Richardson extrapolation
upgrades them to fourth order.  The anti-Hermitian residue of the
difference quotients is discarded and its worst norm returned as a
quality metric.  `differential_data`, `curvature_identity` and all
transport and counting currents are built on this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonUnitary, StencilOutOfDomain
from .quadrature import TWO_PI, QuadratureSpec

# worst |S S^dagger - 1| `decompose_two_channel` accepts
DECOMPOSE_TOL = 1e-10


@dataclass(frozen=True)
class PumpCycle:
    """A family S(E, t) of frozen scattering matrices.

    `evaluate(E, t)` must return an (n_channels, n_channels) complex
    unitary matrix.  The optional `evaluate_grid(energies, times)` takes
    1-d arrays of M energies and N times and returns all N x M matrices
    at once, shape (N, M, n_channels, n_channels), possibly as a
    read-only view; without it `sample_grid` loops over `evaluate`.
    Periodic cycles carry a finite `period`; pulse cycles instead carry
    a `window` outside which the scatterer is static.  Families with
    neither (open protocols) support differential operations only.
    """

    n_channels: int
    evaluate: Callable[[float, float], np.ndarray]
    period: float | None = None
    window: tuple[float, float] | None = None
    label: str = ""
    evaluate_grid: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if self.window is not None and self.window[1] <= self.window[0]:
            raise ValueError("window must have positive length")

    @property
    def time_scale(self) -> float:
        if self.period is not None:
            return self.period
        if self.window is not None:
            return self.window[1] - self.window[0]
        return 1.0

    def sample(self, energy: float, time: float) -> np.ndarray:
        s = np.asarray(self.evaluate(energy, time), dtype=np.complex128)
        if s.shape != (self.n_channels, self.n_channels):
            raise ValueError(f"evaluate returned shape {s.shape}, "
                             f"expected ({self.n_channels}, {self.n_channels})")
        return s

    def sample_grid(self, energies, times) -> np.ndarray:
        """S at every (times[k], energies[m]), shape (N, M, n, n).

        The result may be a read-only view: energy-independent models
        broadcast one matrix per time over all energies.  Copy it before
        writing into it.
        """
        energies = np.ravel(np.asarray(energies, dtype=float))
        times = np.ravel(np.asarray(times, dtype=float))
        n = self.n_channels
        shape = (times.size, energies.size, n, n)
        if self.evaluate_grid is None:
            s = np.empty(shape, dtype=np.complex128)
            for k, t in enumerate(times):
                for m, e in enumerate(energies):
                    s[k, m] = self.sample(e, t)
            return s
        s = np.asarray(self.evaluate_grid(energies, times), dtype=np.complex128)
        if s.shape != shape:
            raise ValueError(f"evaluate_grid returned shape {s.shape}, "
                             f"expected {shape}")
        return s


@dataclass(frozen=True)
class TwoChannelParams:
    """Angles of the generic two-channel unitary

        S = e^{i gamma} [[e^{i alpha} cos theta, i e^{-i phi} sin theta],
                         [i e^{i phi} sin theta, e^{-i alpha} cos theta]]

    with theta in [0, pi/2], alpha and phi in [0, 2 pi), gamma in [0, pi).
    cos theta is the reflection magnitude, sin theta the transmission
    magnitude; gamma is half the phase of det S.
    """

    theta: float
    alpha: float = 0.0
    phi: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not -1e-12 <= self.theta <= np.pi / 2 + 1e-12:
            raise ValueError("theta must lie in [0, pi/2]")


@dataclass(frozen=True)
class DifferentialData:
    """First-derivative data of a cycle at one (E, t) point."""

    energy: float
    time: float
    energy_shift: np.ndarray
    time_delay: np.ndarray
    curvature: np.ndarray
    h_e: float
    h_t: float
    hermitization_residual: float


def build_two_channel(params: TwoChannelParams) -> np.ndarray:
    return two_channel_matrices(params.theta, params.alpha, params.phi,
                                params.gamma)


def two_channel_matrices(theta, alpha, phi, gamma) -> np.ndarray:
    """`build_two_channel` over broadcast angle arrays, shape (..., 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    ea, ep = np.exp(1j * np.asarray(alpha)), np.exp(1j * np.asarray(phi))
    eg = np.exp(1j * np.asarray(gamma))
    shape = np.broadcast_shapes(c.shape, ea.shape, ep.shape, eg.shape)
    m = np.empty(shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = ea * c
    m[..., 0, 1] = 1j * s / ep
    m[..., 1, 0] = 1j * s * ep
    m[..., 1, 1] = c / ea
    return eg[..., None, None] * m


def decompose_two_channel(s: np.ndarray) -> TwoChannelParams:
    """Recover the canonical angles of a 2x2 unitary.

    Inverts `build_two_channel` with gamma reduced to [0, pi) and the
    degenerate points fixed by convention: theta = 0 takes phi = 0,
    theta = pi/2 takes alpha = 0.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    _check_unitary(s, DECOMPOSE_TOL)
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    gamma = (0.5 * np.angle(det)) % np.pi
    su = np.exp(-1j * gamma) * s
    theta = float(np.arccos(np.clip(np.abs(su[0, 0]), 0.0, 1.0)))
    alpha = float(np.angle(su[0, 0])) % TWO_PI if np.abs(su[0, 0]) > 1e-12 else 0.0
    phi = (float(np.angle(su[1, 0])) - np.pi / 2) % TWO_PI \
        if np.abs(su[1, 0]) > 1e-12 else 0.0
    return TwoChannelParams(theta=theta, alpha=alpha, phi=phi, gamma=gamma)


def _unitarity_defect(s: np.ndarray) -> float:
    """Worst max-norm of S S^dagger - 1 over a stack of matrices."""
    n = s.shape[-1]
    return float(np.max(np.abs(s @ _dagger(s) - np.eye(n)), initial=0.0))


def _check_unitary(s: np.ndarray, tol: float) -> None:
    defect = _unitarity_defect(s)
    if defect > tol:
        raise NonUnitary(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _hermitize(a: np.ndarray) -> tuple[np.ndarray, float]:
    h = 0.5 * (a + _dagger(a))
    return h, float(np.max(np.abs(a - h), initial=0.0))


def _steps(cycle: PumpCycle, energies, q: QuadratureSpec):
    """Energy step h_e_rel * max(E, 1) per energy, and the time step."""
    return q.h_e_rel * np.maximum(energies, 1.0), q.h_t_rel * cycle.time_scale


@dataclass(frozen=True)
class Stencil:
    """Difference data of a cycle on a grid of N times x M energies.

    Matrix arrays have shape (N, M, n, n).  `samples` stacks S at the
    nodes, at t + h_t, t - h_t and, under Richardson, at t + h_t / 2,
    t - h_t / 2, in that order.  `delay` and `ds_de` are None unless the
    delay was requested.  `residual` is the worst Hermitization
    correction over all nodes.
    """

    shift: np.ndarray
    delay: np.ndarray | None
    ds_dt: np.ndarray
    ds_de: np.ndarray | None
    samples: np.ndarray
    residual: float
    h_t: float


def _difference(pm: np.ndarray, h) -> np.ndarray:
    """Central difference from samples at +h, -h [, +h/2, -h/2]."""
    d = (pm[0] - pm[1]) / (2.0 * h)
    if len(pm) == 4:
        d = (4.0 * (pm[2] - pm[3]) / h - d) / 3.0
    return d


def stencil(cycle: PumpCycle, energies, times,
            q: QuadratureSpec = QuadratureSpec(),
            delay: bool = False) -> Stencil:
    """Energy shift (and on request the time delay) on a node grid.

    Steps are h_t = h_t_rel * time_scale and h_e = h_e_rel * max(E, 1).
    Every sample must be unitary to `q.unitarity_tol`, otherwise
    NonUnitary is raised; the Hermitization residual is returned, not
    checked.
    """
    energies = np.ravel(np.asarray(energies, dtype=float))
    times = np.ravel(np.asarray(times, dtype=float))
    n_t, n_e, n = times.size, energies.size, cycle.n_channels
    he, ht = _steps(cycle, energies, q)
    steps_t = (ht, ht / 2) if q.richardson else (ht,)
    grid_t = np.concatenate([times] + [times + d for h in steps_t
                                       for d in (h, -h)])
    samples = cycle.sample_grid(energies, grid_t).reshape(-1, n_t, n_e, n, n)
    _check_unitary(samples, q.unitarity_tol)
    s0h = _dagger(samples[0])
    ds_dt = _difference(samples[1:], ht)
    shift, resid = _hermitize(1j * ds_dt @ s0h)

    delay_h = ds_de = None
    if delay:
        steps_e = (he, he / 2) if q.richardson else (he,)
        grid_e = np.concatenate([energies + d for h in steps_e
                                 for d in (h, -h)])
        around = cycle.sample_grid(grid_e, times)
        around = around.reshape(n_t, -1, n_e, n, n).swapaxes(0, 1)
        _check_unitary(around, q.unitarity_tol)
        ds_de = _difference(around, he[:, None, None])
        delay_h, resid_e = _hermitize(-1j * ds_de @ s0h)
        resid = max(resid, resid_e)
    return Stencil(shift=shift, delay=delay_h, ds_dt=ds_dt, ds_de=ds_de,
                   samples=samples, residual=resid, h_t=ht)


def differential_data(cycle: PumpCycle, energy: float, time: float,
                      q: QuadratureSpec = QuadratureSpec()) -> DifferentialData:
    """Energy shift, time delay and curvature at one (E, t) point.

    The five-point stencil needs E - h_e > 0; below that the band bottom
    is in the way and StencilOutOfDomain is raised.  Both derivative
    matrices are Hermitized; the correction norm must stay below
    10 x hermiticity_tol plus the second-order truncation budget of the
    stencil, otherwise the family is not behaving like a smooth unitary
    cycle at the requested steps (a kink under the stencil, say).
    """
    he, ht = _steps(cycle, energy, q)
    if energy <= he:
        raise StencilOutOfDomain(
            f"energy {energy:.3e} within one step {he:.3e} of the band bottom")
    st = stencil(cycle, energy, time, q, delay=True)
    shift, delay, resid = st.shift[0, 0], st.delay[0, 0], st.residual
    scale = max(1.0, float(np.max(np.abs(shift))), float(np.max(np.abs(delay))))
    h_rel = max(ht / cycle.time_scale, he / max(energy, 1.0))
    budget = 10.0 * q.hermiticity_tol + 100.0 * h_rel ** 2 * scale ** 3
    if resid > budget:
        raise NonUnitary(
            f"Hermitization correction {resid:.3e} exceeds the smooth-cycle "
            f"budget {budget:.1e}; steps unsuitable for this cycle")
    curvature = 1j * (delay @ shift - shift @ delay)
    return DifferentialData(energy=energy, time=time, energy_shift=shift,
                            time_delay=delay, curvature=curvature,
                            h_e=he, h_t=ht, hermitization_residual=resid)


@dataclass(frozen=True)
class CurvatureIdentity:
    """Three discretizations of the time-energy curvature at one point."""

    commutator: np.ndarray      # i [time_delay, energy_shift]
    mixed: np.ndarray           # i (dS/dt dS^dagger/dE - dS/dE dS^dagger/dt)
    divergence: np.ndarray      # d(energy_shift)/dE + d(time_delay)/dt
    residual: float             # max-norm of commutator - divergence
    residual_mixed: float       # max-norm of mixed - divergence


def curvature_identity(cycle: PumpCycle, energy: float, time: float,
                       q: QuadratureSpec = QuadratureSpec()) -> CurvatureIdentity:
    """Check i[T, E] = i(dS/dt dS*/dE - dS/dE dS*/dt) = dE/dE' + dT/dt.

    All three agree exactly for smooth unitary families; the returned
    residuals measure finite-difference error and shrink approximately
    fourfold when the steps in `q` are halved (truncation-dominated
    regime; at very small steps rounding noise takes over).
    """
    he, ht = _steps(cycle, energy, q)
    if energy <= 3.0 * he:
        raise StencilOutOfDomain("nested stencil needs energy > 3 h_e")
    dd = differential_data(cycle, energy, time, q)
    commutator = dd.curvature

    plain = stencil(cycle, energy, time, replace(q, richardson=False),
                    delay=True)
    ds_dt, ds_de = plain.ds_dt[0, 0], plain.ds_de[0, 0]
    mixed, _ = _hermitize(1j * (ds_dt @ _dagger(ds_de) - ds_de @ _dagger(ds_dt)))

    shift_p, shift_m = stencil(cycle, [energy + he, energy - he], time,
                               q).shift[0]
    delay_p, delay_m = stencil(cycle, energy, [time + ht, time - ht], q,
                               delay=True).delay[:, 0]
    divergence = (shift_p - shift_m) / (2.0 * he) + (delay_p - delay_m) / (2.0 * ht)

    return CurvatureIdentity(
        commutator=commutator, mixed=mixed, divergence=divergence,
        residual=float(np.max(np.abs(commutator - divergence))),
        residual_mixed=float(np.max(np.abs(mixed - divergence))))


def apply_gauge_and_fiducial(cycle: PumpCycle, shifts: np.ndarray,
                             phases: np.ndarray,
                             k_of_e: Callable[[float], float] | None = None
                             ) -> PumpCycle:
    """Move fiducial points and re-gauge the channels.

    Shifting the fiducial point of channel i by xi_i and its gauge phase
    by phi_i maps S_ij -> S_ij exp(i k(E)(xi_i + xi_j)) exp(i(phi_i - phi_j)).
    Diagonal differential data, hence every transport current, is
    unchanged.  The default dispersion is k(E) = sqrt(2 E).
    """
    shifts = np.asarray(shifts, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if shifts.shape != (cycle.n_channels,) or phases.shape != (cycle.n_channels,):
        raise ValueError("need one shift and one phase per channel")
    disp = k_of_e if k_of_e is not None else (lambda e: np.sqrt(2.0 * max(e, 0.0)))

    def gauged(e: float, t: float) -> np.ndarray:
        k = disp(e)
        u = np.exp(1j * (k * shifts + phases))
        w = np.exp(1j * (k * shifts - phases))
        return np.outer(u, w) * cycle.evaluate(e, t)

    return PumpCycle(n_channels=cycle.n_channels, evaluate=gauged,
                     period=cycle.period, window=cycle.window,
                     label=cycle.label + "+gauge")


def verify_cycle(cycle: PumpCycle, energies: np.ndarray, times: np.ndarray,
                 q: QuadratureSpec = QuadratureSpec()) -> dict[str, float]:
    """Worst unitarity and periodicity defects over a sample grid."""
    s = cycle.sample_grid(energies, times)
    worst_p = 0.0
    if cycle.period is not None:
        later = cycle.sample_grid(energies, np.asarray(times) + cycle.period)
        worst_p = float(np.max(np.abs(later - s), initial=0.0))
    return {"unitarity": _unitarity_defect(s), "periodicity": worst_p}
