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
barrier encounter exactly; there is no integrator error in the
scattering map.  The map is canonical, which the Jacobian check
verifies, and space-time inversion symmetry of the barrier path gives
the inverse map for free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxEventsExceeded, RegionTouchesDiscontinuity
from .quadrature import TWO_PI, midpoint_grid

# central-difference step in E and in t of `liouville_residual`
LIOUVILLE_STEP = 1e-6
# rtol and atol of the DOP853 runs in `classical_battery_shift`
BATTERY_RTOL = 1e-12
# `partition_disagreements` skips points this close to a boundary
PARTITION_MARGIN = 1e-6
# midpoint nodes of the plow charges (exit times of `plow_charge_bpt`,
# incoming speeds of `plow_charge_direct`); the width to which a boundary
# between two pieces of the Fermi line is bisected
PLOW_NODES = 64
PIECE_TOL = 1e-13
# encounters `classical_scatter` follows
MAX_EVENTS = 64


@dataclass(frozen=True)
class PlowSpec:
    """Moving thin barrier: height, speed while moving, travel half-time."""

    height: float = 1.0
    speed: float = 0.02
    travel_time: float = 10.0

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 < self.height < math.inf and 0.0 <= self.speed < math.inf
                and 0.0 < self.travel_time < math.inf):
            raise ValueError("need finite height > 0, speed >= 0, travel_time > 0")

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


def _check_lead(channel: int) -> None:
    if channel not in (0, 1):
        raise ValueError("channel must be 0 (left) or 1 (right)")


def classical_scatter(spec: PlowSpec, energy: float, time_in: float,
                      channel: int) -> ScatterResult:
    """Map an incoming asymptotic state through the plow."""
    # written so that NaN fails too
    if not (0.0 < energy < math.inf and -math.inf < time_in < math.inf):
        raise ValueError("need a finite incoming time and energy > 0")
    _check_lead(channel)
    speed_in = math.sqrt(2.0 * energy)
    v = speed_in if channel == 0 else -speed_in
    x_ref, t_ref, after = 0.0, float(time_in), -math.inf
    events = 0
    while True:
        hit = _first_crossing(spec, x_ref, v, t_ref, after)
        if hit is None:
            break
        s, vb = hit
        events += 1
        if events > MAX_EVENTS:
            raise MaxEventsExceeded("barrier encounters did not terminate")
        x_ref = x_ref + v * (s - t_ref)
        t_ref = s
        after = s
        if 0.5 * (v - vb) ** 2 <= spec.height:
            v = 2.0 * vb - v          # elastic bounce off the moving wall
        # else: passes over the thin barrier with unchanged velocity
    channel_out = 0 if v < 0.0 else 1
    time_out = t_ref - x_ref / v
    # passing over or bouncing off the parked barrier keeps |v| bit-equal
    energy_out = energy if abs(v) == speed_in else 0.5 * v * v
    return ScatterResult(energy=energy_out, time=time_out,
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

def _partition(spec: PlowSpec, energy: float,
               channel: int) -> tuple[float, float]:
    """Energy threshold at the moving wall and the switch time of |t|.

    A crossing at |t| beyond travel_time * (1 -+ speed / sqrt(2E)) meets
    the barrier parked (threshold E > height); inside, it meets the
    moving wall and the threshold shifts to the barrier frame.
    """
    _check_lead(channel)
    s = math.sqrt(2.0 * energy)
    v0, w, h = spec.speed, spec.travel_time, spec.height
    sign = -1.0 if channel == 0 else 1.0
    e_moving = 0.5 * max(math.sqrt(2.0 * h) - sign * v0, 0.0) ** 2
    t_switch = w * (1.0 + sign * v0 / s) if s > 0 else w
    return e_moving, t_switch


def predicted_transmit(spec: PlowSpec, energy: float, time_in: float,
                       channel: int) -> bool:
    """Closed-form partition of the incoming (E, t) plane."""
    e_moving, t_switch = _partition(spec, energy, channel)
    moving = abs(time_in) < t_switch
    return energy > (e_moving if moving else spec.height)


def partition_margin(spec: PlowSpec, energy: float, time_in: float,
                     channel: int) -> float:
    """Distance of an incoming point to the nearest partition boundary."""
    e_moving, t_switch = _partition(spec, energy, channel)
    margins = [abs(energy - spec.height), abs(energy - e_moving),
               abs(abs(time_in) - t_switch)]
    return min(margins)


def partition_disagreements(spec: PlowSpec, energies: np.ndarray,
                            times: np.ndarray, channels: np.ndarray) -> int:
    """Count simulated outcomes that contradict the predicted partition.

    Points within `PARTITION_MARGIN` of a boundary are skipped; away from
    the boundaries the two must agree exactly.
    """
    bad = 0
    # python scalars: numpy scalar arithmetic is several times slower
    for e, t, ch in zip(*(np.asarray(a).tolist()
                          for a in (energies, times, channels))):
        ch = int(ch)
        if partition_margin(spec, e, t, ch) < PARTITION_MARGIN:
            continue
        sim = classical_scatter(spec, e, t, ch)
        transmitted = sim.channel != ch
        if transmitted != predicted_transmit(spec, e, t, ch):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# pumped charge at zero temperature, two ways

@functools.cache
def _scipy_brentq():
    # loaded on first use, since scipy would be most of `import qpump`;
    # cached, since an import statement per root costs more than a call
    from scipy.optimize import brentq as solver
    return solver


# unused by the package: the benchmark tracer's `classical.root` site reads it
def brentq(f, a: float, b: float, xtol: float) -> float:
    """scipy.optimize.brentq, loaded on the first call."""
    return _scipy_brentq()(f, a, b, xtol=xtol)


def classical_energy_shift(spec: PlowSpec, energy_out: float, time_out: float,
                           channel_out: int) -> float:
    """Energy gained through the plow by the state exiting at the argument."""
    return energy_out - inverse_scatter(spec, energy_out, time_out,
                                        channel_out).energy


def _require_reflection(spec: PlowSpec, mu: float) -> None:
    """Refuse a Fermi level that is not clear below every `_partition`
    threshold, so that every state up to mu reflects whatever its time.

    Between the lowest and the highest threshold some states at mu pass
    and others reflect, and one lead's Fermi line lands in both leads;
    above the highest, states below mu pass too, which the count of
    `plow_charge_direct` does not follow.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError("need a finite Fermi level mu > 0")
    lowest = min(spec.height, *(_partition(spec, mu, ch)[0] for ch in (0, 1)))
    if mu > lowest - PARTITION_MARGIN:
        raise RegionTouchesDiscontinuity(
            f"the plow charges need every state up to mu to reflect: mu = "
            f"{mu:.6g} is not {PARTITION_MARGIN:g} below {lowest:.6g}")


def _reach(spec: PlowSpec, energy: float) -> float:
    """A time beyond which a state at `energy` meets only the parked barrier."""
    s = math.sqrt(2.0 * energy)
    return 2.0 * (spec.travel_time * (1.0 + 6.0 * spec.speed / s)
                  + 4.0 * spec.speed)


def _fermi_line_pieces(outcome, reach: float) -> list:
    """Pieces of [-reach, reach] on which t -> outcome(t) keeps its
    channel, encounter count and energy.

    `PLOW_NODES` midpoint times are scanned, and each cell whose ends
    differ is bisected down to `PIECE_TOL`.  Returns the first and the
    last time seen on each piece and the outcome there, in order.
    """
    def key(point):
        r = point[1]
        return r.channel, r.n_events, r.energy

    def split(a, b):
        if b[0] - a[0] <= PIECE_TOL:
            ends.extend((a, b))
            return
        t = 0.5 * (a[0] + b[0])
        m = (t, outcome(t))
        if key(m) != key(a):
            split(a, m)
        if key(m) != key(b):
            split(m, b)

    times, _ = midpoint_grid(-reach, reach, PLOW_NODES)
    scan = [(t, outcome(t)) for t in times.tolist()]
    ends = [scan[0]]
    for a, b in zip(scan, scan[1:]):
        if key(a) != key(b):
            split(a, b)
    ends.append(scan[-1])
    return [(a[0], b[0], a[1]) for a, b in zip(ends[::2], ends[1::2])]


def plow_charge_bpt(spec: PlowSpec, mu: float) -> np.ndarray:
    """Charge into each lead from the energy shift at the Fermi level.

    Q_j = 1/(2 pi) * integral dt' of the energy gain of the state that
    exits at (mu, t', j); the classical analogue of the frozen-matrix
    charge formula, exact to first order in the barrier speed.  The gain
    is constant on each piece of the exit line, so the integral is a
    finite sum; for v = sqrt(2 mu) > 2 v0 it is
    Q = 2 v0 w / (pi v) * (-(v + v0)^2, (v - v0)^2).
    """
    _require_reflection(spec, mu)
    q = np.zeros(2)
    for lead in (0, 1):
        pieces = _fermi_line_pieces(
            lambda t: inverse_scatter(spec, mu, t, lead), _reach(spec, mu))
        for t0, t1, first in pieces:
            q[lead] += (mu - first.energy) * (t1 - t0)
    return q / TWO_PI


def plow_charge_direct(spec: PlowSpec, mu: float) -> np.ndarray:
    """Charge into each lead by counting filled outgoing states.

    Every incoming state up to mu reflects, and the scattering map keeps
    phase-space area.  So over exit times [-T, T], lead j holds as many
    filled states as there are incoming states of lead j below mu that
    exit inside it.  On the line of incoming energy E these span 2 T
    plus the delay t' - t of the line's early end minus that of its late
    end, where it meets the parked barrier:

        Q_j = 1/(2 pi) * integral_0^mu dE [delay_early - delay_late](E).

    No adiabatic approximation enters.  A parked bounce delays by a
    distance over the speed s = sqrt(2 E), and dE = s ds, so the
    integrand is constant in s and the midpoint rule in s is exact:
    Q = 2 v0 w sqrt(2 mu) / pi * (-1, 1), the states below mu in the
    length 2 v0 w that the barrier moves.
    """
    _require_reflection(spec, mu)
    speeds, ds = midpoint_grid(0.0, math.sqrt(2.0 * mu), PLOW_NODES)
    q = np.zeros(2)
    for lead in (0, 1):
        for s in speeds.tolist():
            e = 0.5 * s * s
            t = _reach(spec, e)
            early = classical_scatter(spec, e, -t, lead).time + t
            late = classical_scatter(spec, e, t, lead).time - t
            q[lead] += (early - late) * s
    return q * ds / TWO_PI


def liouville_residual(spec: PlowSpec, energy: float, time_in: float,
                       channel: int) -> float:
    """|det of the (E, t) -> (E', t') Jacobian - 1| by central differences.

    The scattering map is canonical, so away from partition boundaries
    the determinant is exactly one.  The map is typically discontinuous
    across those boundaries, so a stencil that straddles one is refused.
    """
    h = LIOUVILLE_STEP
    corners = [classical_scatter(spec, e, t, channel)
               for e, t in ((energy + h, time_in), (energy - h, time_in),
                            (energy, time_in + h), (energy, time_in - h))]
    if len({r.channel for r in corners}) > 1 or abs(
            partition_margin(spec, energy, time_in, channel)) < 4.0 * h:
        raise RegionTouchesDiscontinuity(
            "finite-difference stencil straddles a partition boundary")

    e_plus, e_minus, t_plus, t_minus = corners
    de_de = (e_plus.energy - e_minus.energy) / (2 * h)
    dt_de = (e_plus.time - e_minus.time) / (2 * h)
    de_dt = (t_plus.energy - t_minus.energy) / (2 * h)
    dt_dt = (t_plus.time - t_minus.time) / (2 * h)
    return abs(de_de * dt_dt - de_dt * dt_de - 1.0)


# ---------------------------------------------------------------------------
# classical battery: linearly growing vector potential

def _step_slope(u: float) -> float:
    """Derivative of the C-infinity unit step on [0, 1]."""
    if u <= 0.0 or u >= 1.0:
        return 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    denom = (a + b) ** 2
    return a * b * (1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2) / denom


@dataclass(frozen=True)
class BatteryFieldResult:
    energy_in: float
    energy_out: float
    predicted_shift: float
    shift_residual: float
    frozen_speed_change: float


def classical_battery_shift(delta_phi: float, energy: float,
                            start_time: float = 0.0) -> BatteryFieldResult:
    """Particle through A(x, t) = t * phi'(x), phi a smooth step of height
    delta_phi supported on [-1, 1], starting at x = -1.5 at `start_time`.

    The growing vector potential is a constant EMF, so a left-to-right
    passage loses exactly delta_phi of energy whatever the crossing
    time; the frozen (t held fixed) dynamics conserves the velocity and
    is the identity map on asymptotic states.  Both statements are
    verified with a high-order integrator.
    """
    if not all(map(math.isfinite, (delta_phi, energy, start_time))):
        raise ValueError("need finite delta_phi, energy and start_time")
    if energy <= max(delta_phi, 0.0):
        raise ValueError("particle too slow to cross the potential drop")
    from scipy.integrate import solve_ivp

    def slope(x: float) -> float:
        return delta_phi * _step_slope((x + 1.0) / 2.0) / 2.0

    def curvature(x: float, h: float = 1e-6) -> float:
        return (slope(x + h) - slope(x - h)) / (2.0 * h)

    x0 = -1.5
    v_in = math.sqrt(2.0 * energy)

    def crossed(t, y):
        return y[0] - 1.5
    crossed.terminal = True
    crossed.direction = 1.0

    def exit_velocity(clock, t_span, p_start: float, what: str) -> float:
        # velocity where the run from x0 under A = clock(t) phi'(x) leaves
        def rhs(t, y):
            x, p = y
            vel = p - clock(t) * slope(x)
            return [vel, vel * clock(t) * curvature(x)]
        sol = solve_ivp(rhs, t_span, [x0, p_start], method="DOP853",
                        rtol=BATTERY_RTOL, atol=BATTERY_RTOL,
                        events=crossed, max_step=0.05)
        if not sol.t_events[0].size:
            raise RuntimeError(f"{what} did not cross the field region")
        x_end, p_end = sol.y_events[0][0]
        return p_end - clock(sol.t_events[0][0]) * slope(x_end)

    horizon = start_time + 3.0 / math.sqrt(2.0 * (energy - delta_phi)) + 10.0
    v_out = exit_velocity(lambda t: t, (start_time, horizon), v_in,
                          "trajectory")
    e_out = 0.5 * v_out ** 2
    vf = exit_velocity(lambda t: start_time, (0.0, horizon - start_time),
                       v_in + start_time * slope(x0), "frozen trajectory")

    return BatteryFieldResult(
        energy_in=energy,
        energy_out=e_out,
        predicted_shift=-delta_phi,
        shift_residual=abs((e_out - energy) + delta_phi),
        frozen_speed_change=abs(vf - v_in),
    )
