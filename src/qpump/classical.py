"""Classical phase-space scattering off a moving thin barrier.

The plow is a thin barrier of height `height` that sits parked at
-speed * travel_time, moves right at `speed` during |t| < travel_time,
and parks again.  A particle crossing the barrier location passes over
when its kinetic energy in the barrier frame exceeds the height and
otherwise reflects elastically off the moving wall.  Incoming and
outgoing states are labelled (E, t, channel) by the extrapolated free
crossing time of x = 0; channel 0 comes in from the left, channel 1
from the right.

Trajectories are piecewise linear, so the event loop solves each
barrier encounter in closed form; there is no integrator error in the
scattering map.  The map is canonical, which the Jacobian check
verifies, and space-time inversion symmetry of the barrier path gives
the inverse map for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import MaxEventsExceeded, RegionTouchesDiscontinuity
from .quadrature import TWO_PI, midpoint_grid

# central-difference step in E and in t of `liouville_residual`
LIOUVILLE_STEP = 1e-6
# rtol and atol of the DOP853 runs in `classical_battery_shift`
BATTERY_RTOL = 1e-12


@dataclass(frozen=True)
class PlowSpec:
    """Moving thin barrier: height, speed while moving, travel half-time."""

    height: float = 1.0
    speed: float = 0.02
    travel_time: float = 10.0

    def __post_init__(self):
        if self.height <= 0 or self.speed < 0 or self.travel_time <= 0:
            raise ValueError("need height > 0, speed >= 0, travel_time > 0")

    def barrier_position(self, t: float) -> float:
        w = self.travel_time
        return self.speed * min(max(t, -w), w)

    def barrier_velocity(self, t: float) -> float:
        return self.speed if abs(t) < self.travel_time else 0.0

    def _pieces(self):
        w, v0 = self.travel_time, self.speed
        # (start, end, position at start, velocity)
        return ((-math.inf, -w, -v0 * w, 0.0),
                (-w, w, -v0 * w, v0),
                (w, math.inf, v0 * w, 0.0))


@dataclass(frozen=True)
class ScatterResult:
    energy: float
    time: float
    channel: int
    n_events: int


def _first_crossing(spec: PlowSpec, x_ref: float, v: float, t_ref: float,
                    after: float) -> tuple[float, float] | None:
    """Earliest strict future intersection of the free line with the barrier.

    Returns (time, barrier velocity) or None when the particle escapes.
    """
    guard = 1e-12 * max(1.0, abs(after) if math.isfinite(after) else 1.0,
                        spec.travel_time)
    lower = after + guard if math.isfinite(after) else -math.inf
    best = None
    for lo, hi, x_lo, vb in spec._pieces():
        if v == vb:
            continue
        # particle: x_ref + v (s - t_ref); barrier: x_lo + vb (s - lo).
        # both unbounded pieces are parked (vb = 0), so the anchor choice
        # for lo = -inf is immaterial.
        anchor = lo if math.isfinite(lo) else 0.0
        s = (x_lo - vb * anchor - x_ref + v * t_ref) / (v - vb)
        if s <= lower or not (lo <= s <= hi):
            continue
        if best is None or s < best[0]:
            best = (s, vb)
    return best


def classical_scatter(spec: PlowSpec, energy: float, time_in: float,
                      channel: int, max_events: int = 64) -> ScatterResult:
    """Map an incoming asymptotic state through the plow."""
    if energy <= 0.0:
        raise ValueError("incoming energy must be positive")
    if channel not in (0, 1):
        raise ValueError("channel must be 0 (left) or 1 (right)")
    v = math.sqrt(2.0 * energy) * (1.0 if channel == 0 else -1.0)
    x_ref, t_ref, after = 0.0, float(time_in), -math.inf
    events = 0
    while True:
        hit = _first_crossing(spec, x_ref, v, t_ref, after)
        if hit is None:
            break
        s, vb = hit
        events += 1
        if events > max_events:
            raise MaxEventsExceeded("barrier encounters did not terminate")
        x_ref = x_ref + v * (s - t_ref)
        t_ref = s
        after = s
        if 0.5 * (v - vb) ** 2 <= spec.height:
            v = 2.0 * vb - v          # elastic bounce off the moving wall
        # else: passes over the thin barrier with unchanged velocity
    channel_out = 0 if v < 0.0 else 1
    time_out = t_ref - x_ref / v
    return ScatterResult(energy=0.5 * v * v, time=time_out,
                         channel=channel_out, n_events=events)


def _mirror(state: tuple[float, float, int]) -> tuple[float, float, int]:
    e, t, ch = state
    return e, -t, 1 - ch


def inverse_scatter(spec: PlowSpec, energy_out: float, time_out: float,
                    channel_out: int) -> ScatterResult:
    """Incoming state that exits as (energy_out, time_out, channel_out).

    The barrier path is invariant under (t, x) -> (-t, -x), which maps
    outgoing states to incoming ones with the lead swapped, so the
    inverse map is the forward map conjugated by that inversion.
    """
    e, t, ch = _mirror((energy_out, time_out, channel_out))
    r = classical_scatter(spec, e, t, ch)
    e2, t2, ch2 = _mirror((r.energy, r.time, r.channel))
    return ScatterResult(energy=e2, time=t2, channel=ch2, n_events=r.n_events)


# ---------------------------------------------------------------------------
# transmit/reflect partition of the incoming plane

def predicted_transmit(spec: PlowSpec, energy: float, time_in: float,
                       channel: int) -> bool:
    """Closed-form partition of the incoming (E, t) plane.

    A crossing at |t| beyond travel_time * (1 -+ speed / sqrt(2E)) meets
    the barrier parked (threshold E > height); inside, it meets the
    moving wall and the threshold shifts to the barrier frame.
    """
    s = math.sqrt(2.0 * energy)
    v0, w, h = spec.speed, spec.travel_time, spec.height
    if channel == 0:
        if s <= v0:
            return energy > h       # can only ever meet the parked wall
        moving = abs(time_in) < w * (1.0 - v0 / s)
        return 0.5 * (s - v0) ** 2 > h if moving else energy > h
    moving = abs(time_in) < w * (1.0 + v0 / s)
    return 0.5 * (s + v0) ** 2 > h if moving else energy > h


def partition_margin(spec: PlowSpec, energy: float, time_in: float,
                     channel: int) -> float:
    """Distance of an incoming point to the nearest partition boundary."""
    s = math.sqrt(2.0 * energy)
    v0, w, h = spec.speed, spec.travel_time, spec.height
    sign = -1.0 if channel == 0 else 1.0
    e_moving = 0.5 * (math.sqrt(2.0 * h) + sign * (-v0)) ** 2 \
        if channel == 0 else 0.5 * max(math.sqrt(2.0 * h) - v0, 0.0) ** 2
    t_switch = w * (1.0 + sign * v0 / s) if s > 0 else w
    margins = [abs(energy - h), abs(energy - e_moving),
               abs(abs(time_in) - t_switch)]
    return min(margins)


def partition_disagreements(spec: PlowSpec, energies: np.ndarray,
                            times: np.ndarray, channels: np.ndarray,
                            margin: float = 1e-6) -> int:
    """Count simulated outcomes that contradict the closed-form partition.

    Points within `margin` of a boundary are skipped; away from the
    boundaries the two must agree exactly.
    """
    bad = 0
    for e, t, ch in zip(energies, times, channels):
        ch = int(ch)
        if partition_margin(spec, e, t, ch) < margin:
            continue
        sim = classical_scatter(spec, e, t, ch)
        transmitted = sim.channel != ch
        if transmitted != predicted_transmit(spec, e, t, ch):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# pumped charge at zero temperature, two ways

def classical_energy_shift(spec: PlowSpec, energy_out: float, time_out: float,
                           channel_out: int) -> float:
    """Energy gained through the plow by the state exiting at the argument."""
    return energy_out - inverse_scatter(spec, energy_out, time_out,
                                        channel_out).energy


def _outgoing_window(spec: PlowSpec, mu: float) -> tuple[float, float]:
    s = math.sqrt(2.0 * mu)
    pad = spec.travel_time * (1.0 + 6.0 * spec.speed / s) + 4.0 * spec.speed
    return -2.0 * pad, 2.0 * pad


def plow_charge_bpt(spec: PlowSpec, mu: float,
                    n_time: int = 2048) -> np.ndarray:
    """Charge into each lead from the energy shift at the Fermi level.

    Q_j = 1/(2 pi) * integral dt' of the energy gain of the state that
    exits at (mu, t', j); the classical analogue of the frozen-matrix
    charge formula, exact to first order in the barrier speed.
    """
    lo, hi = _outgoing_window(spec, mu)
    times, dt = midpoint_grid(lo, hi, n_time)
    out = np.zeros(2)
    for j in (0, 1):
        out[j] = sum(classical_energy_shift(spec, mu, t, j) for t in times)
    return out * dt / TWO_PI


def plow_charge_direct(spec: PlowSpec, mu: float,
                       n_time: int = 2048) -> np.ndarray:
    """Charge into each lead by counting filled outgoing states.

    The outgoing distribution in lead j at time t' is filled up to the
    energy whose preimage sits exactly at mu; the excess over mu,
    integrated with the phase-space density 1/(2 pi), is the transferred
    charge.  No adiabatic approximation enters.
    """
    lo, hi = _outgoing_window(spec, mu)
    times, dt = midpoint_grid(lo, hi, n_time)
    span = 4.0 * spec.speed * (math.sqrt(2.0 * mu) + spec.speed) + 1e-6
    out = np.zeros(2)
    for j in (0, 1):
        total = 0.0
        for t in times:
            def filled(e_out: float) -> float:
                return inverse_scatter(spec, e_out, t, j).energy - mu
            total += brentq(filled, mu - span, mu + span, xtol=1e-13) - mu
        out[j] = total
    return out * dt / TWO_PI


def liouville_residual(spec: PlowSpec, energy: float, time_in: float,
                       channel: int) -> float:
    """|det of the (E, t) -> (E', t') Jacobian - 1| by central differences.

    The scattering map is canonical, so away from partition boundaries
    the determinant is exactly one.  The map is typically discontinuous
    across those boundaries, so a stencil that straddles one is refused.
    """
    h = LIOUVILLE_STEP
    corners = [(energy + h, time_in), (energy - h, time_in),
               (energy, time_in + h), (energy, time_in - h)]
    outcomes = {classical_scatter(spec, e, t, channel).channel
                for e, t in corners}
    if len(outcomes) > 1 or abs(
            partition_margin(spec, energy, time_in, channel)) < 4.0 * h:
        raise RegionTouchesDiscontinuity(
            "finite-difference stencil straddles a partition boundary")

    def image(e: float, t: float) -> tuple[float, float]:
        r = classical_scatter(spec, e, t, channel)
        return r.energy, r.time

    ep, tp = image(energy + h, time_in)
    em, tm = image(energy - h, time_in)
    de_de, dt_de = (ep - em) / (2 * h), (tp - tm) / (2 * h)
    ep, tp = image(energy, time_in + h)
    em, tm = image(energy, time_in - h)
    de_dt, dt_dt = (ep - em) / (2 * h), (tp - tm) / (2 * h)
    return abs(de_de * dt_dt - de_dt * dt_de - 1.0)


# ---------------------------------------------------------------------------
# classical battery: linearly growing vector potential

def _step_and_slope(u: float) -> tuple[float, float]:
    """C-infinity unit step on [0, 1] and its derivative."""
    if u <= 0.0:
        return 0.0, 0.0
    if u >= 1.0:
        return 1.0, 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    denom = (a + b) ** 2
    slope = a * b * (1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2) / denom
    return a / (a + b), slope


@dataclass(frozen=True)
class BatteryFieldResult:
    energy_in: float
    energy_out: float
    predicted_shift: float
    shift_residual: float
    frozen_speed_change: float


def classical_battery_shift(delta_phi: float, energy: float,
                            half_width: float = 1.0,
                            start_time: float = 0.0) -> BatteryFieldResult:
    """Particle through A(x, t) = t * phi'(x), phi a smooth step of height
    delta_phi supported on [-half_width, half_width].

    The growing vector potential is a constant EMF, so a left-to-right
    passage loses exactly delta_phi of energy whatever the crossing
    time; the frozen (t held fixed) dynamics conserves the velocity and
    is the identity map on asymptotic states.  Both statements are
    verified with a high-order integrator.
    """
    if energy <= max(delta_phi, 0.0):
        raise ValueError("particle too slow to cross the potential drop")
    w = half_width

    def slope(x: float) -> float:
        _, ds = _step_and_slope((x + w) / (2.0 * w))
        return delta_phi * ds / (2.0 * w)

    def curvature(x: float, h: float = 1e-6) -> float:
        return (slope(x + h) - slope(x - h)) / (2.0 * h)

    x0 = -1.5 * w
    v_in = math.sqrt(2.0 * energy)

    def rhs_full(t, y):
        x, p = y
        vel = p - t * slope(x)
        return [vel, vel * t * curvature(x)]

    def crossed(t, y):
        return y[0] - 1.5 * w
    crossed.terminal = True
    crossed.direction = 1.0

    horizon = start_time + 3.0 * w / math.sqrt(2.0 * (energy - delta_phi)) + 10.0
    sol = solve_ivp(rhs_full, (start_time, horizon), [x0, v_in],
                    method="DOP853", rtol=BATTERY_RTOL, atol=BATTERY_RTOL,
                    events=crossed, max_step=0.05 * w)
    if not sol.t_events[0].size:
        raise RuntimeError("trajectory did not cross the field region")
    t_end = sol.t_events[0][0]
    x_end, p_end = sol.y_events[0][0]
    v_out = p_end - t_end * slope(x_end)
    e_out = 0.5 * v_out ** 2

    def rhs_frozen(t, y):
        x, p = y
        vel = p - start_time * slope(x)
        return [vel, vel * start_time * curvature(x)]

    sol_f = solve_ivp(rhs_frozen, (0.0, horizon - start_time),
                      [x0, v_in + start_time * slope(x0)],
                      method="DOP853", rtol=BATTERY_RTOL, atol=BATTERY_RTOL,
                      events=crossed, max_step=0.05 * w)
    if not sol_f.t_events[0].size:
        raise RuntimeError("frozen trajectory did not cross the field region")
    xf, pf = sol_f.y_events[0][0]
    vf = pf - start_time * slope(xf)

    return BatteryFieldResult(
        energy_in=energy,
        energy_out=e_out,
        predicted_shift=-delta_phi,
        shift_residual=abs((e_out - energy) + delta_phi),
        frozen_speed_change=abs(vf - v_in),
    )
