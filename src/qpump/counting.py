"""Counting statistics of charge through a pump pulse.

A pulse is a cycle with a finite window outside which the frozen matrix
is constant; the transferred charge into a chosen channel then has well
defined cumulants.  The mean is the integrated adiabatic current.  The
second cumulant splits into a thermal part, fed by the transmission
probabilities alone, and a shot part fed by the off-diagonal energy
shift; at zero temperature only the shot part survives and becomes a
double time integral with an inverse-square kernel.

`second_cumulant_direct` evaluates the operator expression
Tr[rho A (1 - rho) A] without the split, using the exact finite-
temperature sinh^-2 kernel, and is the cross-check that the thermal
plus shot decomposition must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPulseCycle, ZeroTemperature
from .quadrature import TWO_PI, QuadratureSpec, gauss_legendre, midpoint_grid
from .smatrix import PumpCycle
from .transport import NOISE_NORM, ThermalState, _offdiag, cycle_charge

# largest |S(t0) - S(t1)| of a pulse that counts as settled
SETTLE_TOL = 1e-6
# Gauss-Legendre rule of the inner x = pi T (t - t') integral of
# `second_cumulant_direct`: node count and reach in x
KERNEL_NODES = 64
KERNEL_REACH = 30.0


def _window(cycle: PumpCycle) -> tuple[float, float]:
    if cycle.window is None:
        raise ValueError("counting statistics need a cycle with a window")
    return cycle.window


def _check_pulse(cycle: PumpCycle, mu: float) -> None:
    """Verify the matrix is frozen outside the window, same value on both
    sides."""
    t0, t1 = _window(cycle)
    span = t1 - t0
    left, right, before, after = cycle.sample_grid(
        mu, [t0, t1, t0 - 0.05 * span, t1 + 0.05 * span])[:, 0]
    drift = max(np.max(np.abs(before - left)), np.max(np.abs(after - right)))
    if drift > 1e-8:
        raise NonPulseCycle(
            f"matrix still moving outside the window (drift {drift:.2e})")
    settle = np.max(np.abs(left - right))
    if settle > SETTLE_TOL:
        raise NonPulseCycle(
            "matrix does not settle to one constant on both sides "
            f"(difference {settle:.2e}); counting integrals do not converge")


def mean_transferred_charge(cycle: PumpCycle, state: ThermalState,
                            q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """First cumulant: the integrated adiabatic current per channel."""
    _window(cycle)
    return cycle_charge(cycle, state, q)


def thermal_noise(cycle: PumpCycle, channel: int, state: ThermalState,
                  q: QuadratureSpec = QuadratureSpec()) -> float:
    """Equilibrium-exchange part of the charge variance over the window:

        T / pi * integral dt (1 - |S_jj(mu, t)|^2).

    The matrix is taken at mu across the thermal shell (wide band); the
    integral runs over the window, the convention used throughout for
    pulse cumulants.
    """
    if state.temperature == 0.0:
        return 0.0
    t0, t1 = _window(cycle)
    times, dt = midpoint_grid(t0, t1, q.n_time)
    diag = cycle.sample_grid(state.mu, times)[:, 0, channel, channel]
    total = sum(1.0 - np.abs(diag) ** 2)
    return float(state.temperature / math.pi * total * dt)


def shot_noise_finite_t(cycle: PumpCycle, channel: int, state: ThermalState,
                        q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumping part of the variance at finite temperature:

        beta / (2 pi * 6) * integral dt of the off-diagonal row weight
        of the energy shift at mu.
    """
    if state.temperature == 0.0:
        raise ZeroTemperature("use shot_noise_zero_t at zero temperature")
    t0, t1 = _window(cycle)
    times, dt = midpoint_grid(t0, t1, q.n_time)
    total = sum(_offdiag(cycle, state.mu, times, q)[:, channel])
    return float(state.beta / (TWO_PI * NOISE_NORM) * total * dt)


def _simpson(t0: float, t1: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes and weights with an odd point count >= n."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(t0, t1, n)
    h = (t1 - t0) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * h / 3.0


def shot_noise_zero_t(cycle: PumpCycle, channel: int, mu: float,
                      q: QuadratureSpec = QuadratureSpec()) -> float:
    """Zero-temperature charge variance of a pulse:

        1/(4 pi^2) * double integral of [1 - |(S(t) S(t')^+)_jj|^2]
        over (t - t')^2.

    The kernel is smooth (the numerator vanishes to second order on the
    diagonal, where the limit is the off-diagonal row weight of the
    energy shift); pairs closer than eps_diag_rel of the window use the
    limit instead of the ratio.  Outside the window the matrix is
    constant, so the tails reduce to single integrals and the corner
    region drops out exactly; convergence requires the pulse to settle
    to one constant, which is checked.
    """
    _check_pulse(cycle, mu)
    t0, t1 = _window(cycle)
    span = t1 - t0
    times, weights = _simpson(t0, t1, q.n_shot_time)
    n = times.size

    rows = cycle.sample_grid(mu, times)[:, 0, channel]
    gram = rows @ rows.conj().T
    bmat = 1.0 - np.abs(gram) ** 2
    np.clip(bmat, 0.0, None, out=bmat)

    dt_matrix = times[:, None] - times[None, :]
    eps = q.eps_diag_rel * span
    kernel = np.zeros_like(bmat)
    far = np.abs(dt_matrix) >= eps
    kernel[far] = bmat[far] / dt_matrix[far] ** 2
    near = ~far
    if np.any(near):
        ii, jj = np.nonzero(near)
        mids, where = np.unique(0.5 * (times[ii] + times[jj]),
                                return_inverse=True)
        kernel[ii, jj] = _offdiag(cycle, mu, mids, q)[where, channel]

    interior = float(weights @ kernel @ weights)

    # tails: for t beyond an edge the matrix is the settled constant, so
    # integrating the inverse-square kernel in t leaves 1/(t' - edge).
    b_edge_left = bmat[0]    # B(t0, t') as a function of t'
    b_edge_right = bmat[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(times > t0, b_edge_left / (times - t0), 0.0)
        right = np.where(times < t1, b_edge_right / (t1 - times), 0.0)
    tails = float(weights @ left) + float(weights @ right)

    return (interior + 2.0 * tails) / (4.0 * math.pi ** 2)


def second_cumulant_direct(cycle: PumpCycle, channel: int,
                           state: ThermalState,
                           q: QuadratureSpec = QuadratureSpec()) -> float:
    """Charge variance from the operator expression, no thermal/shot split.

    Tr[rho A (1 - rho) A] for the projected charge difference A gives a
    single-time term, T/pi * integral of (1 - |S_jj|^2), plus a two-time
    term with the kernel (pi T)^2 / sinh^2(pi T (t - t')).  The inner
    integral is substituted to x = pi T (t - t') and done on its own
    Gauss-Legendre grid, so the kernel width never constrains the outer
    grid.  The matrix is taken at mu (wide band), matching the
    conventions of the split formulas this cross-checks.
    """
    if state.temperature == 0.0:
        raise ZeroTemperature("the direct evaluation needs a thermal kernel")
    _check_pulse(cycle, state.mu)
    t0, t1 = _window(cycle)
    mu = state.mu
    pi_t = math.pi * state.temperature

    single = thermal_noise(cycle, channel, state, q)

    times, dt = midpoint_grid(t0, t1, q.n_time)
    x_nodes, x_weights = gauss_legendre(-KERNEL_REACH, KERNEL_REACH,
                                         KERNEL_NODES)

    near = np.abs(x_nodes) < 1e-4
    x, wx = x_nodes[~near], x_weights[~near]
    s = x / pi_t
    pairs = np.concatenate([(times[:, None] - 0.5 * s).ravel(),
                            (times[:, None] + 0.5 * s).ravel()])
    rows = cycle.sample_grid(mu, pairs)[:, 0, channel]
    before, after = rows.reshape(2, times.size, x.size, -1)
    overlap = np.sum(before.conj() * after, axis=-1)
    b = 1.0 - np.abs(overlap) ** 2
    inner = np.sum(wx * b / np.sinh(x) ** 2, axis=1)
    if np.any(near):
        xn = x_nodes[near]
        ratio = np.divide(xn, np.sinh(xn), out=np.ones_like(xn),
                          where=xn != 0.0)
        inner += _offdiag(cycle, mu, times, q)[:, channel] \
            * np.sum(x_weights[near] * ratio ** 2) / pi_t ** 2
    double = float(np.sum(inner)) * pi_t * dt / (4.0 * math.pi ** 2)

    return single + double


@dataclass(frozen=True)
class NoiseReport:
    """Cumulants of the transferred charge for one channel of a pulse."""

    channel: int
    temperature: float
    mean: float
    thermal: float
    shot: float
    total: float
    direct: float | None = None


def noise_report(cycle: PumpCycle, channel: int, state: ThermalState,
                 q: QuadratureSpec = QuadratureSpec(),
                 include_direct: bool = False) -> NoiseReport:
    """Mean and variance of the pumped charge through one pulse."""
    mean = mean_transferred_charge(cycle, state, q)[channel]
    if state.temperature == 0.0:
        if include_direct:
            raise ZeroTemperature(
                "direct second cumulant needs temperature > 0")
        shot = shot_noise_zero_t(cycle, channel, state.mu, q)
        return NoiseReport(channel=channel, temperature=0.0, mean=float(mean),
                           thermal=0.0, shot=shot, total=shot)
    thermal = thermal_noise(cycle, channel, state, q)
    shot = shot_noise_finite_t(cycle, channel, state, q)
    direct = (second_cumulant_direct(cycle, channel, state, q)
              if include_direct else None)
    return NoiseReport(channel=channel, temperature=state.temperature,
                       mean=float(mean), thermal=thermal, shot=shot,
                       total=thermal + shot, direct=direct)
