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
# a state of lead 0 at exactly twice the wall's speed bounces to rest
AT_REST = "a bounce leaves the particle at rest: it never leaves the plow"
# refusal of an incoming point by `classical_scatter` and `_as_points`
BAD_POINT = "need a finite incoming time and energy > 0"


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
        # (start, end, x0, velocity vb): the barrier sits at x0 + vb * t
        return ((-math.inf, -w, -v0 * w, 0.0),
                (-w, w, 0.0, v0),
                (w, math.inf, v0 * w, 0.0))


@dataclass(frozen=True)
class ScatterResult:
    energy: float
    time: float
    channel: int
    n_events: int


def _check_lead(channel: int) -> None:
    if channel not in (0, 1):
        raise ValueError("channel must be 0 (left) or 1 (right)")


def classical_scatter(spec: PlowSpec, energy: float, time_in: float,
                      channel: int) -> ScatterResult:
    """Map an incoming asymptotic state through the plow."""
    # written so that NaN fails too
    if not (0.0 < energy < math.inf and -math.inf < time_in < math.inf):
        raise ValueError(BAD_POINT)
    _check_lead(channel)
    speed_in = math.sqrt(2.0 * energy)
    v = speed_in if channel == 0 else -speed_in
    # position and time of the last encounter, a relative guard past it
    x_ref, t_ref, lower = 0.0, float(time_in), -math.inf
    events = 0
    pieces = spec._pieces()
    while True:
        best = None
        for lo, hi, x0, vb in pieces:
            if v == vb:
                continue
            # particle: x_ref + v (s - t_ref); barrier: x0 + vb s
            s = (x0 - x_ref + v * t_ref) / (v - vb)
            if s > lower and lo <= s <= hi and (best is None or s < best[0]):
                best = (s, vb)
        if best is None:
            break
        s, vb = best
        events += 1
        if events > MAX_EVENTS:
            raise MaxEventsExceeded("barrier encounters did not terminate")
        x_ref = x_ref + v * (s - t_ref)
        t_ref = s
        lower = s + 1e-12 * max(1.0, abs(s), spec.travel_time)
        # d * d, not d ** 2: C pow, behind python's **, misrounds the
        # square in about 1e-3 of cases, and `_scatter_many` must agree
        d = v - vb
        if 0.5 * d * d <= spec.height:
            v = 2.0 * vb - v          # elastic bounce off the moving wall
        # else: passes over the thin barrier with unchanged velocity
    if v == 0.0:
        raise RegionTouchesDiscontinuity(AT_REST)
    channel_out = 0 if v < 0.0 else 1
    time_out = t_ref - x_ref / v
    # passing over or bouncing off the parked barrier keeps |v| bit-equal
    energy_out = energy if abs(v) == speed_in else 0.5 * v * v
    return ScatterResult(energy=energy_out, time=time_out,
                         channel=channel_out, n_events=events)


def _as_points(energies, times, channels):
    """Incoming points as arrays, refused with `classical_scatter`'s errors."""
    e, t, ch = np.broadcast_arrays(np.asarray(energies, dtype=float),
                                   np.asarray(times, dtype=float),
                                   np.asarray(channels))
    # written so that NaN fails too
    if not np.all((0.0 < e) & (e < math.inf) & np.isfinite(t)):
        raise ValueError(BAD_POINT)
    # the first bad channel, if any, meets the scalar check
    for lead in ch[(ch != 0) & (ch != 1)][:1].tolist():
        _check_lead(lead)
    return e, t, ch.astype(int)


def _scatter_many(spec: PlowSpec, energies, times, channels):
    """`classical_scatter` over arrays of incoming points, flattened.

    Each pass finds the next encounter of every point in play with the
    scalar loop's operations in its order, so the outgoing energies,
    times, channels and encounter counts are bit-equal to its.  A call
    costs a few hundred microseconds however few its points, so single
    points go to `classical_scatter`.
    """
    energy, time_in, channel = (a.ravel() for a in
                                _as_points(energies, times, channels))
    speed_in = np.sqrt(2.0 * energy)
    # position, time and velocity after each point's last encounter
    x, t = np.zeros_like(energy), time_in.copy()
    v = np.where(channel == 0, speed_in, -speed_in)
    n_events = np.zeros(energy.size, dtype=int)
    # points in play, and the time after which their next crossing lies
    live, lower = np.arange(energy.size), np.full(energy.size, -math.inf)
    while live.size:
        xl, tl, vl = x[live], t[live], v[live]
        best, vb_best = np.full(live.size, math.inf), np.zeros(live.size)
        hit = np.zeros(live.size, dtype=bool)
        for lo, hi, x0, vb in spec._pieces():
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (x0 - xl + vl * tl) / (vl - vb)
            take = ((vl != vb) & (s > lower) & (lo <= s) & (s <= hi)
                    & (~hit | (s < best)))
            best = np.where(take, s, best)
            vb_best = np.where(take, vb, vb_best)
            hit |= take
        live, xl, tl, vl, s, vb = (a[hit] for a in
                                   (live, xl, tl, vl, best, vb_best))
        n_events[live] += 1
        if live.size and n_events[live].max() > MAX_EVENTS:
            raise MaxEventsExceeded("barrier encounters did not terminate")
        x[live] = xl + vl * (s - tl)
        t[live] = s
        lower = s + 1e-12 * np.maximum(np.maximum(1.0, np.abs(s)),
                                       spec.travel_time)
        d = vl - vb
        v[live] = np.where(0.5 * d * d <= spec.height, 2.0 * vb - vl, vl)
    if not v.all():
        raise RegionTouchesDiscontinuity(AT_REST)
    energy_out = np.where(np.abs(v) == speed_in, energy, 0.5 * v * v)
    return energy_out, t - x / v, np.where(v < 0.0, 0, 1), n_events


def inverse_scatter(spec: PlowSpec, energy_out: float, time_out: float,
                    channel_out: int) -> ScatterResult:
    """Incoming state that exits as (energy_out, time_out, channel_out).

    The barrier path is invariant under (t, x) -> (-t, -x), which maps
    outgoing states to incoming ones with the lead swapped, so the
    inverse map is the forward map conjugated by that inversion.
    """
    r = classical_scatter(spec, energy_out, -time_out, 1 - channel_out)
    return ScatterResult(energy=r.energy, time=-r.time, channel=1 - r.channel,
                         n_events=r.n_events)


# ---------------------------------------------------------------------------
# transmit/reflect partition of the incoming plane

def _moving_thresholds(spec: PlowSpec) -> list[float]:
    """Energy above which a state of lead 0, 1 passes the moving wall."""
    return [0.5 * max(math.sqrt(2.0 * spec.height) - sign * spec.speed,
                      0.0) ** 2 for sign in (-1.0, 1.0)]


def _partition(spec: PlowSpec, energy, time_in, channel):
    """Distance of incoming points to the nearest partition boundary, and
    whether they transmit; elementwise over arrays of checked points.

    A crossing at |t| beyond travel_time * (1 -+ speed / sqrt(2E)) meets
    the barrier parked (threshold E > height); inside, it meets the
    moving wall and the threshold shifts to the barrier frame.  There a
    state of lead 0 at E = 2 speed^2 bounces to rest, which is a boundary
    too: the exit times on either side of it diverge.
    """
    left = channel == 0
    e_moving = np.where(left, *_moving_thresholds(spec))
    sign = np.where(left, -1.0, 1.0)
    t_switch = spec.travel_time * (1.0 + sign * spec.speed
                                   / np.sqrt(2.0 * energy))
    t_abs = np.abs(time_in)
    moving = t_abs < t_switch
    rest = np.where(moving & left, np.abs(energy - 2.0 * spec.speed ** 2),
                    math.inf)
    margin = np.minimum(np.minimum(np.abs(energy - spec.height),
                                   np.abs(energy - e_moving)),
                        np.minimum(np.abs(t_abs - t_switch), rest))
    threshold = np.where(moving, e_moving, spec.height)
    return margin, energy > threshold


def predicted_transmit(spec: PlowSpec, energy: float, time_in: float,
                       channel: int) -> bool:
    """Closed-form partition of the incoming (E, t) plane."""
    return bool(_partition(spec, *_as_points(energy, time_in, channel))[1])


def partition_margin(spec: PlowSpec, energy: float, time_in: float,
                     channel: int) -> float:
    """Distance of an incoming point to the nearest partition boundary."""
    return float(_partition(spec, *_as_points(energy, time_in, channel))[0])


def partition_disagreements(spec: PlowSpec, energies: np.ndarray,
                            times: np.ndarray, channels: np.ndarray) -> int:
    """Count simulated outcomes that contradict the predicted partition.

    Points within `PARTITION_MARGIN` of a boundary are skipped; away from
    the boundaries the two must agree exactly.
    """
    e, t, ch = _as_points(energies, times, channels)
    margin, transmit = _partition(spec, e, t, ch)
    keep = margin >= PARTITION_MARGIN
    channel_out = _scatter_many(spec, e[keep], t[keep], ch[keep])[2]
    return int(np.count_nonzero((channel_out != ch[keep]) != transmit[keep]))


# ---------------------------------------------------------------------------
# pumped charge at zero temperature, two ways

# unused by the package: the benchmark tracer's `classical.root` site reads it
def brentq(f, a: float, b: float, xtol: float) -> float:
    """scipy.optimize.brentq, imported at the call, since scipy would be
    most of `import qpump`."""
    from scipy.optimize import brentq as solver
    return solver(f, a, b, xtol=xtol)


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
    lowest = min(spec.height, *_moving_thresholds(spec))
    if mu > lowest - PARTITION_MARGIN:
        raise RegionTouchesDiscontinuity(
            f"the plow charges need every state up to mu to reflect: mu = "
            f"{mu:.6g} is not {PARTITION_MARGIN:g} below {lowest:.6g}")


def _reach(spec: PlowSpec, energy):
    """A time beyond which a state at `energy` meets only the parked barrier."""
    s = np.sqrt(2.0 * energy)
    return 2.0 * (spec.travel_time * (1.0 + 6.0 * spec.speed / s)
                  + 4.0 * spec.speed)


def _fermi_line_pieces(outcome, scan: list) -> list:
    """Pieces of a time line on which t -> outcome(t) stays the same.

    `scan` holds (t, outcome(t)) at increasing times; each cell whose ends
    differ is bisected down to `PIECE_TOL`.  Returns the first and the
    last time seen on each piece and the outcome there, in order.
    """
    def split(a, b):
        if b[0] - a[0] <= PIECE_TOL:
            ends.extend((a, b))
            return
        t = 0.5 * (a[0] + b[0])
        m = (t, outcome(t))
        if m[1] != a[1]:
            split(a, m)
        if m[1] != b[1]:
            split(m, b)

    ends = [scan[0]]
    for a, b in zip(scan, scan[1:]):
        if a[1] != b[1]:
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
    reach = _reach(spec, mu)
    times, _ = midpoint_grid(-reach, reach, PLOW_NODES)
    # the state exiting at (mu, t, lead) mirrors the forward image of
    # (mu, -t, 1 - lead), with its energy and encounter count and the
    # channel relabelled one to one: the pieces are the forward image's
    e, _, ch, n = (a.reshape(2, PLOW_NODES).tolist()
                   for a in _scatter_many(spec, mu, -times, [[1], [0]]))
    q = np.zeros(2)
    for lead in (0, 1):
        def outcome(t):
            r = classical_scatter(spec, mu, -t, 1 - lead)
            return r.channel, r.n_events, r.energy

        scan = list(zip(times.tolist(), zip(ch[lead], n[lead], e[lead])))
        for t0, t1, (_, _, energy) in _fermi_line_pieces(outcome, scan):
            q[lead] += (mu - energy) * (t1 - t0)
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
    e = 0.5 * speeds * speeds
    t = _reach(spec, e)
    # delay of the early and the late end of each line, for each lead
    ends = np.stack((-t, t))
    delays = _scatter_many(spec, e, ends, [[[0]], [[1]]])[1].reshape(
        2, 2, PLOW_NODES) - ends
    terms = (delays[:, 0] - delays[:, 1]) * speeds
    # summed in node order: numpy's pairwise sum rounds differently
    q = np.array([sum(row) for row in terms.tolist()])
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
