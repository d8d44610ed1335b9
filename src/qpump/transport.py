"""Transport from the frozen scattering matrix.

All observables here are built from the energy-shift matrix of a pump
cycle.  The charge current into channel j is the thermal average of its
diagonal element over minus the derivative of the Fermi function; the
dissipation current averages the squared matrix instead, and the excess
over the charge bound comes from the off-diagonal row weight, which also
feeds the entropy and noise currents at finite temperature.

Each function takes the shift once per node of one (times x energies)
grid from the stencil kernel and derives every current from it; the
thermal nodes are built once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import ZeroTemperature
from .quadrature import TWO_PI, QuadratureSpec, gauss_legendre, midpoint_grid
from .smatrix import PumpCycle, Stencil, stencil

# 1 / integral_0^1 of the window shape over filling factors:
# -x ln x - (1-x) ln(1-x) integrates to 1/2, x (1-x) to 1/6.
ENTROPY_NORM = 2.0
NOISE_NORM = 6.0


def entropy_weight(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x); integral over [0, 1] is 1/2."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("filling factor must lie in [0, 1]")
    out = 0.0
    if x > 0.0:
        out -= x * math.log(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log(1.0 - x)
    return out


def noise_weight(x: float) -> float:
    """Partition noise factor x (1 - x); integral over [0, 1] is 1/6."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("filling factor must lie in [0, 1]")
    return x * (1.0 - x)


@dataclass(frozen=True)
class ThermalState:
    """Reservoir filling: common chemical potential mu and temperature."""

    mu: float
    temperature: float = 0.0

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("chemical potential must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")

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
    return expit(-(e - state.mu) * state.beta)


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
    `energy_window` temperatures (clipped below so stencils stay inside
    the physical band E > 0).
    """
    if state.temperature == 0.0:
        raise ZeroTemperature("no thermal window at zero temperature")
    half = max(q.n_energy // 2, 8)
    reach = q.energy_window * state.temperature
    floor = max(1e-8, 10.0 * q.h_e_rel * max(state.mu, 1.0))
    lo = max(state.mu - reach, floor)
    x1, w1 = gauss_legendre(lo, state.mu, half)
    x2, w2 = gauss_legendre(state.mu, state.mu + reach, half)
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
    """Weighted sum over the energy axis (axis 1), node by node."""
    total = np.zeros(values.shape[:1] + values.shape[2:])
    for w, v in zip(mass, values.swapaxes(0, 1)):
        total += w * v
    return total


def _row_weights(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal, squared row norm and off-diagonal row weight of Hermitian
    energy-shift matrices, shape (..., n, n)."""
    diag = np.real(np.diagonal(shift, axis1=-2, axis2=-1))
    rows = np.sum(np.abs(shift) ** 2, axis=-1)
    return diag, rows, rows - diag ** 2


def _offdiag(cycle: PumpCycle, mu: float, times,
             q: QuadratureSpec) -> np.ndarray:
    """Off-diagonal row weight of the energy shift at mu, shape (N, n)."""
    return _row_weights(stencil(cycle, mu, times, q).shift)[2][:, 0]


def _thermal_rates(cycle: PumpCycle, times, energies: np.ndarray,
                   mass: np.ndarray, q: QuadratureSpec,
                   mu: float | None = None):
    """Charge and dissipation currents at `times`, shape (N, n) each, and
    the off-diagonal row weight of the shift at `mu` when one is given."""
    nodes = energies if mu is None else np.append(energies, mu)
    diag, rows, off = _row_weights(stencil(cycle, nodes, times, q).shift)
    m = mass.size
    return (_thermal_average(diag[:, :m], mass) / TWO_PI,
            _thermal_average(rows[:, :m], mass) / (2.0 * TWO_PI),
            None if mu is None else off[:, -1])


def bpt_current(cycle: PumpCycle, time: float, state: ThermalState,
                q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Charge current into each channel, scatterer to lead positive.

    At zero temperature this is the diagonal of the energy shift at mu
    over 2 pi; at finite temperature the diagonal is averaged against
    -drho/dE.
    """
    return _thermal_rates(cycle, time, *_thermal_mass(state, q), q)[0][0]


def dissipation_current(cycle: PumpCycle, time: float, state: ThermalState,
                        q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Heat deposited per unit time into each channel, >= pi * current^2.

    The squared energy shift replaces the diagonal in the thermal
    average; Cauchy-Schwarz in both the energy average and the channel
    index gives the charge bound, saturated exactly when the shift is
    diagonal and energy-independent across the thermal window.
    """
    return _thermal_rates(cycle, time, *_thermal_mass(state, q), q)[1][0]


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
    return _window_rates(_offdiag(cycle, state.mu, time, q)[0], state)[0]


def noise_current(cycle: PumpCycle, time: float, state: ThermalState,
                  q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Thermally smeared partition-noise rate for each channel.

    Same structure as the entropy current with the x (1 - x) window, so
    the normalization is 6 instead of 2.
    """
    return _window_rates(_offdiag(cycle, state.mu, time, q)[0], state)[1]


def _integration_interval(cycle: PumpCycle) -> tuple[float, float]:
    if cycle.period is not None:
        return 0.0, cycle.period
    if cycle.window is not None:
        return cycle.window
    raise ValueError("cycle has neither a period nor a window to integrate over")


def cycle_charge(cycle: PumpCycle, state: ThermalState,
                 q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Charge pumped into each channel over one period (or pulse window).

    Midpoint rule in time; for smooth periodic cycles this converges
    spectrally, and the nodes dodge path corners of piecewise drives.
    """
    t0, t1 = _integration_interval(cycle)
    times, dt = midpoint_grid(t0, t1, q.n_time)
    charge = _thermal_rates(cycle, times, *_thermal_mass(state, q), q)[0]
    return charge.sum(axis=0) * dt


def _wrap_angle(x):
    return (x + math.pi) % TWO_PI - math.pi


def _det_phase_rates(st: Stencil) -> np.ndarray:
    """d/dt arg det S at the nodes of a Richardson stencil, from its samples.

    Local phase increments are wrapped to (-pi, pi], which is safe for
    the small stencil steps used here.
    """
    _, plus, minus, plus2, minus2 = np.angle(np.linalg.det(st.samples))
    h = st.h_t
    d1 = _wrap_angle(plus - minus) / (2.0 * h)
    d2 = _wrap_angle(plus2 - minus2) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def det_phase_rate(cycle: PumpCycle, energy: float, time: float,
                   q: QuadratureSpec = QuadratureSpec()) -> float:
    """d/dt of arg det S(E, t) by Richardson-extrapolated differences."""
    st = stencil(cycle, energy, time, replace(q, richardson=True))
    return float(_det_phase_rates(st)[0, 0])


def _bk_residual(cycle: PumpCycle, energies: np.ndarray, mass: np.ndarray,
                 times: np.ndarray, q: QuadratureSpec) -> float:
    st = stencil(cycle, energies, times, replace(q, richardson=True))
    diag, _, _ = _row_weights(st.shift)
    total = np.sum(_thermal_average(diag, mass) / TWO_PI, axis=-1)
    rate = _thermal_average(_det_phase_rates(st), mass)
    return float(np.max(np.abs(total + rate / TWO_PI), initial=0.0))


def birman_krein_residual(cycle: PumpCycle, state: ThermalState,
                          q: QuadratureSpec = QuadratureSpec(),
                          times: np.ndarray | None = None) -> float:
    """Worst mismatch between total current and the spectral-flow rate.

    The summed channel currents must equal -1/(2 pi) d/dt arg det S,
    thermally averaged; both sides use fourth-order differencing so the
    residual probes the identity rather than the stencil.  Both come
    from the same stencil samples.
    """
    if times is None:
        t0, t1 = _integration_interval(cycle)
        times, _ = midpoint_grid(t0, t1, 16)
    energies, mass = _thermal_mass(state, q)
    return _bk_residual(cycle, energies, mass, times, q)


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

    One stencil call covers every time node and every thermal node,
    plus mu itself at finite temperature for the entropy and noise
    currents.
    """
    t0, t1 = _integration_interval(cycle)
    times, dt = midpoint_grid(t0, t1, q.n_time)
    finite_t = state.temperature > 0.0
    energies, mass = _thermal_mass(state, q)
    charge, diss, off = _thermal_rates(cycle, times, energies, mass, q,
                                       mu=state.mu if finite_t else None)
    ent, noi = _window_rates(off, state) if finite_t else (None, None)
    bk = _bk_residual(cycle, energies, mass,
                      times[:: max(times.size // 8, 1)], q)
    return TransportReport(
        times=times,
        charge_rate=charge,
        dissipation_rate=diss,
        entropy_rate=ent,
        noise_rate=noi,
        charges=charge.sum(axis=0) * dt,
        heat=diss.sum(axis=0) * dt,
        entropy=ent.sum(axis=0) * dt if finite_t else None,
        noise=noi.sum(axis=0) * dt if finite_t else None,
        bk_residual=bk,
    )
