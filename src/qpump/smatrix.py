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
difference quotients, held to a budget at each node, is discarded and
its worst norm returned as a quality metric.  All differential data and
all currents are built on it or its halves `_sample` and `_derivative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonUnitary, NoTimeDomain, StencilOutOfDomain
from .quadrature import (HERMITIZATION_FLOOR, TWO_PI, UNITARITY_TOL,
                         QuadratureSpec, midpoint_grid, require_count)

# worst |S S^dagger - 1| `decompose_two_channel` accepts
DECOMPOSE_TOL = 1e-10


@dataclass(frozen=True)
class PumpCycle:
    """A family S(E, t) of frozen scattering matrices.

    `evaluate(E, t)` must return an (n_channels, n_channels) complex
    unitary matrix.  The optional `evaluate_grid(energies, times)` takes
    1-d arrays of M energies and N times and returns all N x M matrices
    at once, shape (N, M, n_channels, n_channels), possibly as a
    read-only view; without it `sample_grid` loops over `evaluate`.  A
    zero-stride energy axis declares the cycle energy-independent, and
    the stencil then works on one energy.
    A cycle has a `period` or a `window` (outside which the scatterer is
    static), not both; every time integral takes its nodes and weights
    from `time_grid` on that domain.  Families with neither (open
    protocols) support differential operations only.
    """

    n_channels: int
    evaluate: Callable[[float, float], np.ndarray]
    period: float | None = None
    window: tuple[float, float] | None = None
    label: str = ""
    evaluate_grid: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        require_count("n_channels", self.n_channels, 1)
        if self.period is not None and self.window is not None:
            raise ValueError("a cycle has a period or a window, not both")
        # written so that NaN fails too
        if self.period is not None and not 0.0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")
        if self.window is not None \
                and not 0.0 < self.window[1] - self.window[0] < math.inf:
            raise ValueError("window length must be positive and finite")

    @property
    def time_scale(self) -> float:
        if self.period is not None:
            return self.period
        if self.window is not None:
            return self.window[1] - self.window[0]
        return 1.0

    def time_grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n midpoint nodes over one period or over the pulse window, and
        their weights, shape (n,), all equal."""
        span = (0.0, self.period) if self.period is not None else self.window
        if span is None:
            raise NoTimeDomain("cycle has neither a period nor a window")
        nodes, dt = midpoint_grid(*span, n)
        return nodes, np.full(n, dt)

    def sample(self, energy: float, time: float) -> np.ndarray:
        s = np.asarray(self.evaluate(energy, time), dtype=np.complex128)
        if s.shape != (self.n_channels, self.n_channels):
            raise ValueError(f"evaluate returned shape {s.shape}, "
                             f"expected ({self.n_channels}, {self.n_channels})")
        return s

    def sample_grid(self, energies, times) -> np.ndarray:
        """S at every (times[k], energies[m]), shape (N, M, n, n).

        The result may be a read-only view: energy-independent models
        broadcast one matrix per time over all energies, and the stencil
        reads the zero-stride energy axis as a promise that S does not
        depend on energy.  Copy it before writing into it.
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
    return np.multiply(eg[..., None, None], m, out=m)


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


def _distinct(a: np.ndarray) -> np.ndarray:
    """A stack of matrices with every zero-stride (broadcast) leading axis
    cut to length 1; `np.broadcast_to` restores the full shape."""
    return a[tuple(slice(None, 1) if step == 0 else slice(None)
                   for step in a.strides[:-2])]


def _mul_h(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b^dagger over stacks of matrices, broadcast like `@`, as a view.
    Each entry is summed over the inner index on whole stacks with the
    matrix axes in front, several times faster than the stacked `@` on
    small matrices, and each matrix is formed on its own."""
    b = b.conj()
    out = np.empty(a.shape[-2:-1] + b.shape[-2:-1] + np.broadcast_shapes(
        a.shape[:-2], b.shape[:-2]), dtype=complex)
    for i, j in np.ndindex(out.shape[:2]):
        entry = out[i, j, ...]
        np.multiply(a[..., i, 0], b[..., j, 0], out=entry)
        for k in range(1, a.shape[-1]):
            entry += a[..., i, k] * b[..., j, k]
    return out.transpose(*range(2, out.ndim), 0, 1)


def _mul_front(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """a @ b over stacks with the matrix axes in front, shape (n, n, ...),
    written to `out`; `tmp`, of the same shape, is scratch, and neither
    may overlap a or b.  One broadcast product per inner index, so the
    numpy calls grow like n, where `_mul_h` makes 2 n^3; the caller's
    buffers spare the page faults of fresh arrays on large stacks.  Each
    matrix is formed on its own."""
    np.multiply(a[:, :1], b[:1], out=out)
    for k in range(1, a.shape[1]):
        np.multiply(a[:, k:k + 1], b[k:k + 1], out=tmp)
        out += tmp
    return out


def _unitarity_defect(s: np.ndarray) -> float:
    """Worst max-norm of S S^dagger - 1 over a stack of matrices.

    S S^dagger is Hermitian, so one pass over its diagonal and upper
    triangle reads every entry's magnitude.  Row i's defect is
    sum_k (Re^2 + Im^2) - 1 from the real and imaginary planes of S;
    an entry i < j is sum_k s_ik conj(s_jk), formed on the whole stack
    as `_mul_h` does.  The worst squared magnitude is reduced first and
    rooted once.  A NaN or infinite entry of S, or one whose square
    overflows, makes its row's defect NaN or inf, which is returned
    before the upper triangle, where inf times zero would raise a
    RuntimeWarning."""
    s = _distinct(s)
    n = s.shape[-1]
    with np.errstate(over="ignore"):        # an entry past 1e77: inf
        squares = np.square(s.real)
        squares += np.square(s.imag)
        rows = squares[..., 0].copy()
        for k in range(1, n):
            rows += squares[..., k]
        rows -= 1.0
        worst = np.max(np.square(rows, out=rows), initial=0.0)
    if not worst < math.inf:
        return float(worst)
    for i in range(n):
        for j in range(i + 1, n):
            entry = s[..., i, 0] * s[..., j, 0].conj()
            for k in range(1, n):
                entry += s[..., i, k] * s[..., j, k].conj()
            entry = np.square(entry.real) + np.square(entry.imag)
            # np.maximum, unlike Python's max, keeps a NaN from either side
            worst = np.maximum(worst, np.max(entry, initial=0.0))
    return math.sqrt(worst)


def _check_unitary(s: np.ndarray, tol: float) -> None:
    defect = _unitarity_defect(s)
    # written so that a NaN defect fails too
    if not defect <= tol:
        raise NonUnitary(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _hermitize(a, h, least: float) -> tuple[np.ndarray, float]:
    """Hermitian part of difference quotients with step h and the worst
    correction; NonUnitary if a node's correction exceeds its budget
    HERMITIZATION_FLOOR + 100 (h s)^2 s, s = max(least, its max-norm)."""
    budget = lambda s: HERMITIZATION_FLOOR + 100.0 * (h * s) ** 2 * s
    herm = 0.5 * (a + _dagger(a))
    worst = float(np.max(np.abs(a - herm), initial=0.0))
    if worst <= np.min(budget(least)):    # no node's budget is smaller
        return herm, worst
    norm = lambda m: np.max(np.abs(m), axis=(-2, -1), keepdims=True)
    corr = norm(a - herm)
    bound = budget(np.maximum(least, norm(herm)))
    over = ~(corr <= bound)    # written so that NaN fails too
    if np.any(over):
        raise NonUnitary(
            f"Hermitization correction {corr[over][0]:.3e} exceeds the smooth-"
            f"cycle budget {bound[over][0]:.1e}; steps unsuitable for this cycle")
    return herm, worst


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
    correction over all nodes.  The arrays may be read-only views: the
    differences are formed once per distinct matrix and broadcast.
    """

    shift: np.ndarray
    delay: np.ndarray | None
    ds_dt: np.ndarray
    ds_de: np.ndarray | None
    samples: np.ndarray
    residual: float
    h_t: float


def _offsets(x: np.ndarray, h, half: bool) -> list[np.ndarray]:
    """x + h, x - h [, x + h/2, x - h/2]: the stencil's sample order."""
    return [x + d for s in ((h, h / 2) if half else (h,)) for d in (s, -s)]


def _sample(cycle: PumpCycle, energies, times) -> np.ndarray:
    """`sample_grid`, refused with NonUnitary past `UNITARITY_TOL`."""
    s = cycle.sample_grid(energies, times)
    _check_unitary(s, UNITARITY_TOL)
    return s


def _derivative(blocks, h, least: float, phase: complex = 1j):
    """dS from S at the nodes and at +h, -h [, +h/2, -h/2] (fourth order
    with the half steps), the Hermitian part of phase dS S^dagger and its
    worst correction (`_hermitize`), formed per distinct matrix."""
    shape = blocks[0].shape
    s0, *pm = [_distinct(b) for b in blocks]
    d = (pm[0] - pm[1]) / (2.0 * h)
    if len(pm) == 4:
        d = (4.0 * (pm[2] - pm[3]) / h - d) / 3.0
    herm, worst = _hermitize(_mul_h(phase * d, s0), h, least)
    return np.broadcast_to(d, shape), np.broadcast_to(herm, shape), worst


def stencil(cycle: PumpCycle, energies, times,
            q: QuadratureSpec = QuadratureSpec(),
            delay: bool = False) -> Stencil:
    """Energy shift (and on request the time delay) on a node grid.

    Steps are h_t = h_t_rel * time_scale and h_e = h_e_rel * max(E, 1).
    NonUnitary is raised past `UNITARITY_TOL` or a node's `_hermitize`
    budget, StencilOutOfDomain for a delay at E <= h_e.  Matrix work is
    done once per distinct (unbroadcast) sample.
    """
    energies = np.ravel(np.asarray(energies, dtype=float))
    times = np.ravel(np.asarray(times, dtype=float))
    shape = (times.size, energies.size, cycle.n_channels, cycle.n_channels)
    he, ht = _steps(cycle, energies, q)
    if delay and not np.all(energies > he):
        k = np.argmin(energies > he)
        raise StencilOutOfDomain(f"energy {energies[k]:.3e} within one step "
                                 f"{he[k]:.3e} of the band bottom")
    samples = _sample(cycle, energies, np.concatenate(
        [times, *_offsets(times, ht, q.richardson)])).reshape(-1, *shape)
    ds_dt, shift, resid = _derivative(samples, ht, 1.0 / cycle.time_scale)

    delay_h = ds_de = None
    if delay:
        around = _sample(cycle, np.concatenate(
            _offsets(energies, he, q.richardson)), times)
        around = around.reshape(shape[0], -1, *shape[1:]).swapaxes(0, 1)
        he = he[:_distinct(around[0]).shape[1], None, None]
        ds_de, delay_h, resid_e = _derivative(
            [samples[0], *around], he, 1.0, -1j)
        resid = max(resid, resid_e)
    return Stencil(shift=shift, delay=delay_h, ds_dt=ds_dt, ds_de=ds_de,
                   samples=samples, residual=resid, h_t=ht)


def differential_data(cycle: PumpCycle, energy: float, time: float,
                      q: QuadratureSpec = QuadratureSpec()) -> DifferentialData:
    """Energy shift, time delay and curvature at one (E, t) point; the
    stencil's band-bottom and Hermitization checks apply."""
    he, ht = _steps(cycle, energy, q)
    st = stencil(cycle, energy, time, q, delay=True)
    shift, delay, resid = st.shift[0, 0], st.delay[0, 0], st.residual
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
    dd = differential_data(cycle, energy, time, q)
    commutator = dd.curvature

    plain = stencil(cycle, energy, time, replace(q, richardson=False),
                    delay=True)
    ds_dt, ds_de = plain.ds_dt[0, 0], plain.ds_de[0, 0]
    mixed = 1j * (ds_dt @ _dagger(ds_de) - ds_de @ _dagger(ds_dt))

    shift_p, shift_m = stencil(cycle, [energy + he, energy - he], time,
                               q).shift[0]
    delay_p, delay_m = stencil(cycle, energy, [time + ht, time - ht], q,
                               delay=True).delay[:, 0]
    divergence = (shift_p - shift_m) / (2.0 * he) + (delay_p - delay_m) / (2.0 * ht)

    return CurvatureIdentity(
        commutator=commutator, mixed=mixed, divergence=divergence,
        residual=float(np.max(np.abs(commutator - divergence))),
        residual_mixed=float(np.max(np.abs(mixed - divergence))))


def point_evaluator(evaluate_grid: Callable[[np.ndarray, np.ndarray],
                                            np.ndarray]
                    ) -> Callable[[float, float], np.ndarray]:
    """`evaluate(E, t)` of a cycle whose S is implemented as a grid: the
    1 x 1 grid, returned as a fresh writable array."""

    def evaluate(energy: float, time: float) -> np.ndarray:
        return np.array(evaluate_grid(np.array([energy], dtype=float),
                                      np.array([time], dtype=float))[0, 0])

    return evaluate


def default_dispersion(energy):
    """k(E) = sqrt(2 E) (hbar = m = 1) of every lead, elementwise on arrays."""
    return np.sqrt(np.maximum(2.0 * energy, 0.0))


def apply_gauge_and_fiducial(cycle: PumpCycle, shifts: np.ndarray,
                             phases: np.ndarray) -> PumpCycle:
    """Move fiducial points and re-gauge the channels.

    Shifting the fiducial point of channel i by xi_i and its gauge phase
    by phi_i maps S_ij -> S_ij exp(i k(E)(xi_i + xi_j)) exp(i(phi_i - phi_j))
    with k(E) = sqrt(2 E).  Diagonal differential data, hence every
    transport current, is unchanged.
    """
    shifts = np.asarray(shifts, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if shifts.shape != (cycle.n_channels,) or phases.shape != (cycle.n_channels,):
        raise ValueError("need one shift and one phase per channel")

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        k = default_dispersion(energies)[:, None]
        u = np.exp(1j * (k * shifts + phases))
        w = np.exp(1j * (k * shifts - phases))
        return (u[:, :, None] * w[:, None, :]
                * cycle.sample_grid(energies, times))

    return PumpCycle(n_channels=cycle.n_channels,
                     evaluate=point_evaluator(evaluate_grid),
                     period=cycle.period, window=cycle.window,
                     label=cycle.label + "+gauge", evaluate_grid=evaluate_grid)


def verify_cycle(cycle: PumpCycle, energies: np.ndarray,
                 times: np.ndarray) -> dict[str, float]:
    """Worst unitarity and periodicity defects over a sample grid."""
    s = cycle.sample_grid(energies, times)
    worst_p = 0.0
    if cycle.period is not None:
        later = cycle.sample_grid(energies, np.asarray(times) + cycle.period)
        worst_p = float(np.max(np.abs(later - s), initial=0.0))
    return {"unitarity": _unitarity_defect(s), "periodicity": worst_p}
