"""Transport from the frozen scattering matrix.

All observables here are built from the energy-shift matrix of a pump
cycle.  The charge current into channel j is the thermal average of its
diagonal element over minus the derivative of the Fermi function; the
dissipation current averages the squared matrix instead, and the excess
over the charge bound comes from the off-diagonal row weight, which also
feeds the entropy and noise currents at finite temperature.

Every current, cycle integral and sum-rule check reads one `_Sweep`,
one pass of S over a time grid and the thermal nodes with mu last; its
row weight and S at mu also give the pulse noise of `counting` and the
loop rows of `qpump geometry`.
Every time integral is `weights @ series`, weights from `time_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroTemperature
from .quadrature import ENERGY_WINDOW, TWO_PI, QuadratureSpec, gauss_legendre
from .smatrix import (PumpCycle, _derivative, _distinct, _offsets, _sample,
                      _steps, stencil)

# 1 / integral_0^1 of the window shape over filling factors:
# -x ln x - (1-x) ln(1-x) integrates to 1/2, x (1-x) to 1/6.
ENTROPY_NORM = 2.0
NOISE_NORM = 6.0


def _filling(x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("filling factor must lie in [0, 1]")
    return x


def entropy_weight(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x); integral over [0, 1] is 1/2."""
    x = _filling(x)
    out = 0.0
    if x > 0.0:
        out -= x * math.log(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log(1.0 - x)
    return out


def noise_weight(x: float) -> float:
    """Partition noise factor x (1 - x); integral over [0, 1] is 1/6."""
    x = _filling(x)
    return x * (1.0 - x)


@dataclass(frozen=True)
class ThermalState:
    """Reservoir filling: common chemical potential mu and temperature."""

    mu: float
    temperature: float = 0.0

    def __post_init__(self):
        # written so that NaN fails both tests
        if not 0.0 < self.mu < math.inf:
            raise ValueError("chemical potential must be positive and finite")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError("temperature must be non-negative and finite")

    @property
    def beta(self) -> float:
        if self.temperature == 0.0:
            raise ZeroTemperature("beta undefined at zero temperature")
        return 1.0 / self.temperature


def fermi_weight(energy, state: ThermalState):
    """Occupation of the reservoirs at the given energy."""
    e = np.asarray(energy, dtype=float)
    if state.temperature == 0.0:
        return np.where(e < state.mu, 1.0, np.where(e > state.mu, 0.0, 0.5))
    # scipy's expit(-x) formula; exp overflows to inf, and 1 / inf is 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp((e - state.mu) * state.beta))


def fermi_derivative(energy, state: ThermalState):
    """d rho / dE = -beta rho (1 - rho); delta-like at zero temperature."""
    if state.temperature == 0.0:
        raise ZeroTemperature(
            "the zero-temperature occupation derivative is a point measure; "
            "use the mu-evaluated formulas instead")
    rho = fermi_weight(energy, state)
    return -state.beta * rho * (1.0 - rho)


def thermal_energy_nodes(state: ThermalState,
                         q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes straddling mu for integrands localized by -drho/dE.

    Two Gauss-Legendre panels meeting at mu, each reaching out
    `ENERGY_WINDOW` temperatures (the lower one clipped so stencils stay
    inside the physical band E > 0, but never past mu, where it has no
    weight left); the upper one takes the odd node of an odd `n_energy`.
    """
    if state.temperature == 0.0:
        raise ZeroTemperature("no thermal window at zero temperature")
    half = q.n_energy // 2
    reach = ENERGY_WINDOW * state.temperature
    floor = max(1e-8, 10.0 * q.h_e_rel * max(state.mu, 1.0))
    lo = min(max(state.mu - reach, floor), state.mu)
    x1, w1 = gauss_legendre(lo, state.mu, half)
    x2, w2 = gauss_legendre(state.mu, state.mu + reach, q.n_energy - half)
    return np.concatenate([x1, x2]), np.concatenate([w1, w2])


def _thermal_mass(state: ThermalState,
                  q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Energies the currents average over and their weights -drho/dE dE;
    mu alone with weight 1 at zero temperature."""
    if state.temperature == 0.0:
        return np.array([state.mu]), np.ones(1)
    nodes, weights = thermal_energy_nodes(state, q)
    return nodes, -fermi_derivative(nodes, state) * weights


def _thermal_average(values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Weighted sum over the energy axis (axis 1), node by node.

    Bit-equal to `total = 0.0; total += w * v` in node order, for every
    shape and stride.  The products fill the rows of a C-ordered
    (nodes, k + 1) array, and numpy adds the rows, node after node, to a
    row that starts at +0.0.  The zero column keeps two or more elements
    per node: with one (one time and one channel), numpy would sum the
    nodes pairwise.  `einsum`, `tensordot` and `@` are not used: their
    order follows the strides, so a broadcast S would not give the
    numbers of a dense one.
    """
    moved = values.swapaxes(0, 1)
    k = math.prod(moved.shape[1:])
    terms = np.empty((mass.size, k + 1))
    terms[:, k] = 0.0
    np.multiply(mass.reshape((-1,) + (1,) * (values.ndim - 1)), moved,
                out=terms[:, :k].reshape(moved.shape))
    return terms.sum(axis=0, initial=0.0)[:k].reshape(moved.shape[1:])


def _row_weights(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal, squared row norm and off-diagonal row weight of Hermitian
    energy-shift matrices, shape (..., n, n), from the distinct ones; C
    order, which `_thermal_average` reads several times faster."""
    d = _distinct(shift)
    diag = np.real(np.diagonal(d, axis1=-2, axis2=-1))
    rows = np.sum(np.abs(d) ** 2, axis=-1)
    return tuple(np.broadcast_to(np.ascontiguousarray(a), shift.shape[:-1])
                 for a in (diag, rows, rows - diag ** 2))


@dataclass(frozen=True)
class _Sweep:
    """The energy shift of a cycle sampled once over times x energies.

    `charge` and `heat` are the charge and dissipation currents at
    `times`, shape (N, n); `off` is the off-diagonal row weight of the
    shift at mu, (N, n), and `s_mu` a copy of S(mu, t), (N, n, n).
    `weights`, (N,), are the time-quadrature weights of `times`.
    """

    times: np.ndarray
    weights: np.ndarray
    charge: np.ndarray
    heat: np.ndarray
    off: np.ndarray
    s_mu: np.ndarray
    bk_residual: float | None = None    # the sum rule's, if asked for


def _sweep(cycle: PumpCycle, state: ThermalState, q: QuadratureSpec,
           grid=None, sum_rule_every: int | None = None) -> _Sweep:
    """One stencil on a `(times, weights)` grid (`cycle.time_grid(n_time)`
    by default) and the nodes of `_thermal_mass`, with mu as the last
    node: appended at finite temperature, the only one at zero.  With
    k = `sum_rule_every` the same samples give the sum rule at times[::k]."""
    times, weights = cycle.time_grid(q.n_time) if grid is None else grid
    times = np.ravel(np.asarray(times, dtype=float))
    energies, mass = _thermal_mass(state, q)
    if state.temperature > 0.0:
        energies = np.append(energies, state.mu)
    ht = _steps(cycle, energies, q)[1]
    steps = _offsets(times, ht, q.richardson)
    checked = times[::sum_rule_every] if sum_rule_every else times[:0]
    s = _sample(cycle, energies, np.concatenate(
        [times, *steps, *_offsets(checked, ht / 2, False)]))
    m, least = mass.size, 1.0 / cycle.time_scale
    sweep, half = np.split(s, [times.size * (1 + len(steps))])
    blocks = sweep.reshape(-1, times.size, *s.shape[1:])
    diag, rows, off = _row_weights(_derivative(blocks, ht, least)[1])
    bk = None
    if sum_rule_every:
        half = half.reshape(2, -1, *s.shape[1:])
        bk = _sum_rule_residual([b[::sum_rule_every, :m] for b in blocks[:3]]
                                + [b[:, :m] for b in half], ht, mass, least)
    return _Sweep(times=times, weights=weights,
                  charge=_thermal_average(diag[:, :m], mass) / TWO_PI,
                  heat=_thermal_average(rows[:, :m], mass) / (2.0 * TWO_PI),
                  off=off[:, -1], s_mu=np.array(blocks[0][:, -1]),
                  bk_residual=bk)


def bpt_current(cycle: PumpCycle, time: float, state: ThermalState,
                q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Charge current into each channel, scatterer to lead positive.

    At zero temperature this is the diagonal of the energy shift at mu
    over 2 pi; at finite temperature the diagonal is averaged against
    -drho/dE.
    """
    return _sweep(cycle, state, q, ([time], [1.0])).charge[0]


def dissipation_current(cycle: PumpCycle, time: float, state: ThermalState,
                        q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Heat deposited per unit time into each channel, >= pi * current^2.

    The squared energy shift replaces the diagonal in the thermal
    average; Cauchy-Schwarz in both the energy average and the channel
    index gives the charge bound, saturated exactly when the shift is
    diagonal and energy-independent across the thermal window.
    """
    return _sweep(cycle, state, q, ([time], [1.0])).heat[0]


def _window_rates(offdiag: np.ndarray,
                  state: ThermalState) -> tuple[np.ndarray, np.ndarray]:
    """Entropy and noise currents from the off-diagonal row weight at mu."""
    beta = state.beta
    return (beta / (TWO_PI * ENTROPY_NORM) * offdiag,
            beta / (TWO_PI * NOISE_NORM) * offdiag)


def entropy_current(cycle: PumpCycle, time: float, state: ThermalState,
                    q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Entropy carried into each channel per unit time.

    Equals beta / (2 pi * 2) times the off-diagonal row weight of the
    energy shift at mu; the 2 is the inverse integral of the binary
    entropy window.  Finite temperature only, and the shift is taken
    energy-independent across the thermal window.
    """
    off = _sweep(cycle, ThermalState(mu=state.mu), q, ([time], [1.0])).off
    return _window_rates(off[0], state)[0]


def noise_current(cycle: PumpCycle, time: float, state: ThermalState,
                  q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Thermally smeared partition-noise rate for each channel.

    Same structure as the entropy current with the x (1 - x) window, so
    the normalization is 6 instead of 2.
    """
    off = _sweep(cycle, ThermalState(mu=state.mu), q, ([time], [1.0])).off
    return _window_rates(off[0], state)[1]


def cycle_charge(cycle: PumpCycle, state: ThermalState,
                 q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Charge pumped into each channel over one period (or pulse window).

    The cycle's `time_grid` is a midpoint rule: spectral for smooth
    periodic cycles, and its nodes dodge corners of piecewise drives.
    """
    sw = _sweep(cycle, state, q)
    return sw.weights @ sw.charge


def _wrap_angle(x):
    return (x + math.pi) % TWO_PI - math.pi


def _det_phase_rates(pm, h: float) -> np.ndarray:
    """d/dt arg det S to fourth order from S at t + h, t - h, t + h/2 and
    t - h/2, four stacks (..., n, n).  Local phase increments are wrapped
    to (-pi, pi], which is safe for the small stencil steps used here."""
    plus, minus, plus2, minus2 = (
        np.angle(np.broadcast_to(np.linalg.det(_distinct(s)), s.shape[:-2]))
        for s in pm)
    d1 = _wrap_angle(plus - minus) / (2.0 * h)
    d2 = _wrap_angle(plus2 - minus2) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def det_phase_rate(cycle: PumpCycle, energy: float, time: float,
                   q: QuadratureSpec = QuadratureSpec()) -> float:
    """d/dt of arg det S(E, t) by Richardson-extrapolated differences."""
    st = stencil(cycle, energy, time, replace(q, richardson=True))
    return float(_det_phase_rates(st.samples[1:], st.h_t)[0, 0])


def _sum_rule_residual(blocks, h: float, mass, least: float) -> float:
    """Worst |summed currents + (1/2 pi) d/dt arg det S|, thermally averaged
    over `mass`, from S at t, t + h, t - h, t + h/2, t - h/2 (five
    (N, M, n, n) stacks), both sides by fourth-order differences."""
    shift = _derivative(blocks, h, least)[1]
    total = np.sum(_thermal_average(_row_weights(shift)[0], mass) / TWO_PI,
                   axis=-1)
    rate = _thermal_average(_det_phase_rates(blocks[1:], h), mass)
    return float(np.max(np.abs(total + rate / TWO_PI), initial=0.0))


def birman_krein_residual(cycle: PumpCycle, state: ThermalState,
                          q: QuadratureSpec = QuadratureSpec(),
                          times: np.ndarray | None = None) -> float:
    """Worst mismatch between total current and the spectral-flow rate.

    The summed channel currents must equal -1/(2 pi) d/dt arg det S,
    thermally averaged; both sides use fourth-order differencing so the
    residual probes the identity rather than the stencil.  Both come
    from the samples of one `_sweep` over `times`, as in
    `transport_report`, which gives the same number bit for bit.
    """
    grid = cycle.time_grid(16) if times is None else (times, None)
    return _sweep(cycle, state, q, grid, sum_rule_every=1).bk_residual


@dataclass(frozen=True)
class TransportReport:
    """Sampled currents over one cycle plus their integrals."""

    times: np.ndarray
    charge_rate: np.ndarray          # (n_time, n_channels)
    dissipation_rate: np.ndarray     # (n_time, n_channels)
    entropy_rate: np.ndarray | None  # None at zero temperature
    noise_rate: np.ndarray | None
    charges: np.ndarray
    heat: np.ndarray
    entropy: np.ndarray | None
    noise: np.ndarray | None
    bk_residual: float


def transport_report(cycle: PumpCycle, state: ThermalState,
                     q: QuadratureSpec = QuadratureSpec()) -> TransportReport:
    """One-stop cycle summary used by the command-line front end.

    One sweep covers every time node and every thermal node, plus mu
    itself at finite temperature for the entropy and noise currents;
    the same samples give the sum rule, `birman_krein_residual` on
    about eight of the time nodes, times[::n_time // 8].
    """
    sw = _sweep(cycle, state, q, sum_rule_every=q.n_time // 8)
    times, w, charge, diss = sw.times, sw.weights, sw.charge, sw.heat
    finite_t = state.temperature > 0.0
    ent, noi = _window_rates(sw.off, state) if finite_t else (None, None)
    return TransportReport(
        times=times,
        charge_rate=charge,
        dissipation_rate=diss,
        entropy_rate=ent,
        noise_rate=noi,
        charges=w @ charge,
        heat=w @ diss,
        entropy=w @ ent if finite_t else None,
        noise=w @ noi if finite_t else None,
        bk_residual=sw.bk_residual,
    )
