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

Every public entry point first passes the cycle, at any temperature,
through `_check_pulse`, the one reader of its window here: a cycle with
no window, or whose matrix moves outside it or differs on its two
sides, raises `NonPulseCycle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPulseCycle, ZeroTemperature
from .geometry import _check_channel, row_states
from .quadrature import QuadratureSpec, _sinh_kernel_rule
# uncalled here; benchmarks/tracer.py binds qpump.counting.gauss_legendre
from .quadrature import gauss_legendre  # noqa: F401
from .smatrix import PumpCycle
from .transport import ThermalState, _sweep, _window_rates, cycle_charge

# largest |S(t0) - S(t1)| of a pulse that counts as settled
SETTLE_TOL = 1e-6
# Gauss rule for the weight x^2 / sinh^2 x of the inner x = pi T (t - t')
# integral of `second_cumulant_direct`: node count and reach in x.  The
# count stays even: an odd rule of an even weight has a node at x = 0,
# where the integrand b / x^2 is 0 / 0.
KERNEL_NODES = 16
KERNEL_REACH = 30.0


def _check_pulse(cycle: PumpCycle, mu: float) -> tuple[float, float]:
    """The window of a pulse, after verifying the matrix is frozen outside
    it, same value on both sides."""
    if cycle.window is None:
        raise NonPulseCycle("counting statistics need a cycle with a window")
    t0, t1 = cycle.window
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
    return t0, t1


def mean_transferred_charge(cycle: PumpCycle, state: ThermalState,
                            q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """First cumulant: the integrated adiabatic current per channel."""
    _check_pulse(cycle, state.mu)
    return cycle_charge(cycle, state, q)


def thermal_noise(cycle: PumpCycle, channel: int, state: ThermalState,
                  q: QuadratureSpec = QuadratureSpec()) -> float:
    """Equilibrium-exchange part of the charge variance over the window:

        T / pi * integral dt (1 - |S_jj(mu, t)|^2).

    The matrix is taken at mu across the thermal shell (wide band); the
    integral runs over the window, the convention used throughout for
    pulse cumulants.
    """
    _check_channel(cycle, channel)
    _check_pulse(cycle, state.mu)
    if state.temperature == 0.0:
        return 0.0
    times, weights = cycle.time_grid(q.n_time)
    diag = row_states(cycle, channel, state.mu, times)[:, channel]
    return _thermal_from_diag(diag, state, weights)


def _thermal_from_diag(diag: np.ndarray, state: ThermalState,
                       weights: np.ndarray) -> float:
    """Thermal noise from S_jj at mu on the window's time grid."""
    return float(weights @ (1.0 - np.abs(diag) ** 2)
                 * (state.temperature / math.pi))


def shot_noise_finite_t(cycle: PumpCycle, channel: int, state: ThermalState,
                        q: QuadratureSpec = QuadratureSpec()) -> float:
    """Pumping part of the variance at finite temperature:

        beta / (2 pi * 6) * integral dt of the off-diagonal row weight
        of the energy shift at mu.
    """
    _check_channel(cycle, channel)
    if state.temperature == 0.0:
        raise ZeroTemperature("use shot_noise_zero_t at zero temperature")
    _check_pulse(cycle, state.mu)
    sw = _sweep(cycle, ThermalState(mu=state.mu), q)
    return float(_window_rates(sw.weights @ sw.off, state)[1][channel])


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

        1/(4 pi^2) * double integral of B(t, t') / (t - t')^2,
        B(t, t') = 1 - |(S(t) S(t')^+)_jj|^2.

    The kernel is smooth (B vanishes to second order on the diagonal,
    where the limit is the off-diagonal row weight of the energy shift);
    pairs closer than eps_diag_rel of the window take the mean of the
    limits at their two nodes.  At the defaults (513 Simpson nodes) that
    band holds only coincident nodes, lag 0: being smooth, the kernel
    needs no limit one step off the diagonal.  Outside the window the
    matrix is constant, so the tails reduce to single integrals against
    the two edge rows and the corner region drops out exactly;
    convergence requires the pulse to settle to one constant, which is
    checked.

    On the uniform Simpson grid both kernels depend on the lag alone, so
    the double sum is a set of Toeplitz quadratic forms, each done by FFT
    on a circulant embedding of twice the node count: O(N log N) time
    and O(N) memory.  With P(t) = r r^+ for the row r of channel j,
    D(t) = P(t) - P(t0), a(t) = Re Tr P(t0) D(t) and c = 1 - Tr P(t0)^2,

        B(t, t') = c - a(t) - a(t') - Tr D(t) D(t')

    exactly.  Every term vanishes when P is constant, so a noiseless
    pulse gives zero to rounding instead of the difference of two sums
    a thousand times larger than the answer.
    """
    _check_channel(cycle, channel)
    t0, t1 = _check_pulse(cycle, mu)
    times, weights = _simpson(t0, t1, q.n_shot_time)
    n = times.size

    # one sweep at the nodes gives the rows and the near-band limits
    sw = _sweep(cycle, ThermalState(mu=mu), q, (times, weights))
    rows, off = sw.s_mu[:, channel], sw.off[:, channel]

    proj = rows[:, :, None] * rows[:, None, :].conj()
    d = proj - proj[0]
    a = np.einsum("ab,kba->k", proj[0], d).real
    c = 1.0 - np.einsum("ab,ba->", proj[0], proj[0]).real

    # far kernel 1 / (k h)^2 and the near band's indicator, on lags k >= 0
    lag = np.arange(n) * ((t1 - t0) / (n - 1))
    near = lag < q.eps_diag_rel * (t1 - t0)
    kernels = np.zeros((2 * n, 2))
    np.divide(1.0, lag ** 2, out=kernels[:n, 0], where=~near)
    kernels[:n, 1] = near
    kernels[n + 1:] = kernels[n - 1:0:-1]
    # x^H K y is the sum over frequencies of K^ conj(X) Y / 2n, and the
    # interior is c w'Kw - 2 (w a)'Kw - sum_ab (w D_ab)^H K (w D_ab) plus
    # (w off)' band w.  numpy.fft is reached here, so importing the
    # package does not load it
    fft = np.fft.fft
    spectra = fft(kernels, axis=0).real / (2 * n)
    signals = np.column_stack([np.ones(n), a, off, d.reshape(n, -1)])
    x = fft(weights[:, None] * signals, n=2 * n, axis=0)
    cross = (x[:, 0].conj()[:, None] * x[:, 1:3]).real
    far = (c * np.abs(x[:, 0]) ** 2 - 2.0 * cross[:, 0]
           - np.sum(np.abs(x[:, 3:]) ** 2, axis=1))
    interior = float(spectra[:, 0] @ far + spectra[:, 1] @ cross[:, 1])

    # tails: for t beyond an edge the matrix is the settled constant, so
    # integrating the inverse-square kernel in t leaves B(edge, t') over
    # |t' - edge|
    edge = 1.0 - np.abs(rows @ rows[[0, -1]].conj().T) ** 2
    np.clip(edge, 0.0, None, out=edge)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(times > t0, edge[:, 0] / (times - t0), 0.0)
        right = np.where(times < t1, edge[:, 1] / (t1 - times), 0.0)
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
    grid, so the kernel width never constrains the outer grid: a
    16-point (`KERNEL_NODES`) Gauss rule for the weight x^2 / sinh^2 x,
    applied to b / x^2.  The count is even, so that no node lands on
    x = 0.  The matrix is taken at mu (wide band), matching the
    conventions of the split formulas this cross-checks.

    Below about T = 2, b varies within the kernel's width: the rule
    misses the two-time term by up to 4.9e-5 at T = 1 and 9.4e-4 at
    T = 0.5, so there the cross-check resolves the split to ~1e-3.
    """
    if state.temperature == 0.0:
        raise ZeroTemperature("the direct evaluation needs a thermal kernel")
    thermal = thermal_noise(cycle, channel, state, q)
    return thermal + _direct_double(cycle, channel, state, q)


def _direct_double(cycle: PumpCycle, channel: int, state: ThermalState,
                   q: QuadratureSpec) -> float:
    """Two-time term of `second_cumulant_direct` of a checked pulse."""
    mu = state.mu
    pi_t = math.pi * state.temperature

    times, weights = cycle.time_grid(q.n_time)
    x, wx = _sinh_kernel_rule(KERNEL_NODES, KERNEL_REACH)
    s = x / pi_t
    # the rule is mirrored bit for bit, so t - s_k / 2 is t + s_(n-1-k) / 2
    # and the rows at t - s / 2 are those at t + s / 2 read backwards
    pairs = times[:, None] + 0.5 * s
    after = row_states(cycle, channel, mu, pairs).reshape(*pairs.shape, -1)
    before = after[:, ::-1]
    overlap = np.sum(before.conj() * after, axis=-1)
    b = 1.0 - np.abs(overlap) ** 2
    inner = np.sum(wx * b / x ** 2, axis=1)
    return float(weights @ inner) * pi_t / (4.0 * math.pi ** 2)


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
    """Mean and variance of the pumped charge through one pulse.

    At finite temperature the sweep of the mean also gives the matrices
    and the off-diagonal weight at mu for the thermal and shot parts,
    and the thermal part is shared with the direct cumulant, so each is
    sampled once.
    """
    _check_channel(cycle, channel)
    if state.temperature == 0.0 and include_direct:
        raise ZeroTemperature("direct second cumulant needs temperature > 0")
    if state.temperature == 0.0:
        shot = shot_noise_zero_t(cycle, channel, state.mu, q)
        mean = cycle_charge(cycle, state, q)[channel]
        return NoiseReport(channel=channel, temperature=0.0, mean=float(mean),
                           thermal=0.0, shot=shot, total=shot)
    _check_pulse(cycle, state.mu)
    sw = _sweep(cycle, state, q)
    mean = (sw.weights @ sw.charge)[channel]
    thermal = _thermal_from_diag(sw.s_mu[:, channel, channel], state,
                                 sw.weights)
    shot = float(_window_rates(sw.weights @ sw.off, state)[1][channel])
    direct = (thermal + _direct_double(cycle, channel, state, q)
              if include_direct else None)
    return NoiseReport(channel=channel, temperature=state.temperature,
                       mean=float(mean), thermal=thermal, shot=shot,
                       total=thermal + shot, direct=direct)
