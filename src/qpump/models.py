"""Built-in pump models and scattering matrices of 1-d potentials.

Two families are provided.  Phase models act on the two-channel angles
directly: a snowplow shifts the reflection phases by 2 k(E) xi(t) (a
rigid translation of the scatterer), a battery shifts the transmission
phases by phi(t) (a time-dependent flux / EMF), a sink multiplies the
whole matrix by exp(i gamma(t)), and the optimal pump combines snowplow
and battery phases so that the energy-shift matrix is diagonal.
Phase models implement S once, as `evaluate_grid`: each drive is called
once, on the time array (a drive that takes only scalars falls back to
one call per time, see `_values`), the dispersion once, on the energy
array, and the matrices of the whole grid are built by broadcasting;
their point `evaluate` is the 1 x 1 grid.  Potential models build S(E)
for piecewise-constant potentials by a star product of the layers'
S matrices, one kernel, `transfer_matrices`, over a whole stack of
potentials and energies, elementwise on the four entries of S; the
bicycle pump (two valve barriers seesawing around a piston plateau) is
the workhorse example of quantized transport.  Its S, too, is
implemented only as `evaluate_grid`: its path and the kernel each run
once per grid, on arrays.  So are the random cycles and pulses, one
batched `eigh` per grid: every built-in cycle implements S once, as a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EnergyAtBandEdge
from .quadrature import TWO_PI, QuadratureSpec
from .smatrix import (PumpCycle, TwoChannelParams, _check_unitary,
                      build_two_channel, default_dispersion, point_evaluator,
                      two_channel_matrices)
from .transport import ThermalState, bpt_current

# worst |S S^dagger - 1| accepted from a row of `transfer_matrices`
TRANSFER_UNITARITY_TOL = 1e-9
# b scan size, polish grid size and halvings, |r| bound and merge
# distance of `reflectionless_points`
RESONANCE_SCAN = 800
RESONANCE_GRID = 9
RESONANCE_HALVINGS = 48
RESONANCE_TOL = 1e-6
RESONANCE_SEPARATION = 1e-3


# ---------------------------------------------------------------------------
# smooth envelopes for pulse protocols

def smooth_step(t, t0: float, t1: float):
    """C-infinity monotone ramp: exactly 0 for t <= t0, 1 for t >= t1.

    Elementwise on an array of t, with the same shape back; a scalar t
    gives a float.  NaN stays NaN.
    """
    x = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
    outside = (x <= 0.0) | (x >= 1.0)
    x_in = np.where(outside, 0.5, x)        # NaN passes through
    with np.errstate(over="ignore"):        # 1 / x of a subnormal x
        a = np.exp(-1.0 / x_in)
        b = np.exp(-1.0 / (1.0 - x_in))
    out = np.where(outside, np.where(x >= 1.0, 1.0, 0.0), a / (a + b))
    return out if out.ndim else float(out)


def smooth_bump(t, t0: float, t1: float):
    """C-infinity bump supported on (t0, t1), peak value 1 at the centre.

    Elementwise on an array of t, with the same shape back; a scalar t
    gives a float.  NaN stays NaN.
    """
    u = (2.0 * np.asarray(t, dtype=float) - t0 - t1) / (t1 - t0)
    outside = np.abs(u) >= 1.0
    u_in = np.where(outside, 0.0, u)        # NaN passes through
    out = np.where(outside, 0.0, np.exp(1.0 - 1.0 / (1.0 - u_in * u_in)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# piecewise-constant potentials

def transfer_matrices(values: np.ndarray, widths: np.ndarray,
                      energies: np.ndarray) -> np.ndarray:
    """S of P piecewise-constant potentials, one energy each: (P, 2, 2).

    Row p has plateau values `values[p]` (shape (P, L)) over the common
    plateau `widths` (L,), each positive, and is taken at `energies[p]`.
    Wavenumbers are k_i = sqrt(2 (E - V_i)), on the branch Im k >= 0
    (k = i kappa under a plateau).  The S of the stack is grown from the
    left lead by the Redheffer star product, one interface and one
    plateau at a time: a plateau of width w multiplies t and t' by
    p = exp(i k w) and r' by p^2, and |p| <= 1, so no factor grows and an
    opaque barrier goes over to its analytic limit by itself (t
    underflows to 0, |r| -> 1).
    Fiducial points sit at the first and last breakpoints.  Channel 1
    is the left lead, channel 2 the right lead; every energy must exceed
    both lead potentials (zero), else EnergyAtBandEdge.  An energy within
    1e-12 of a plateau of its row is nudged by 1e-10: at k = 0 the two
    plane waves of the plateau coincide.  The stack's S is held as its
    four entries r, t, t', r', each a (P,) array, and every step is
    elementwise arithmetic on them, so a row equals the same potential
    and energy passed alone, as a batch of one row, bit for bit.
    """
    values = np.asarray(values, dtype=float)
    widths = np.asarray(widths, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or widths.ndim != 1 \
            or values.shape != (energies.size, widths.size):
        raise ValueError("need values (P, L), widths (L,) and energies (P,)")
    if not (widths > 0.0).all():            # NaN fails too
        raise ValueError("plateau widths must be positive")
    if (energies <= 0.0).any():
        raise EnergyAtBandEdge("energy must be positive (leads are at V = 0)")
    near = (np.abs(energies[:, None] - values) < 1e-12).any(axis=1)
    if near.any():
        energies = np.where(near, energies + 1e-10, energies)
        if (near & (np.abs(energies[:, None] - values) < 1e-12)
                .any(axis=1)).any():
            raise EnergyAtBandEdge("energy pinned to a plateau value")

    k_lead = np.sqrt(2.0 * energies).astype(np.complex128)
    t = tp = np.ones(energies.size, dtype=np.complex128)
    r = rp = np.zeros(energies.size, dtype=np.complex128)
    k_prev = k_lead
    for v, w in zip(values.T, widths):
        k = np.sqrt((2.0 * (energies - v)).astype(np.complex128))
        r, t, tp, rp = _interface(k_prev, k, r, t, tp, rp)
        p = np.exp(1j * k * w)
        t, tp, rp = p * t, p * tp, p * p * rp
        k_prev = k
    r, t, tp, rp = _interface(k_prev, k_lead, r, t, tp, rp)

    s = np.stack([r, tp, t, rp], axis=-1).reshape(-1, 2, 2)
    _check_unitary(s, TRANSFER_UNITARITY_TOL)
    return s


# uncalled here; benchmarks/tracer.py binds this name (models.transfer)
transfer_matrix_smatrix = transfer_matrices


def _interface(ka, kb, r, t, tp, rp):
    """Star product of a stack's S (entries r, t, t', r') with the step
    from wavenumber ka to kb on its right: the four entries after it."""
    total = ka + kb
    ri, ti, tpi = (ka - kb) / total, 2.0 * ka / total, 2.0 * kb / total
    d = 1.0 - rp * ri
    return (r + tp * ri * t / d, ti * t / d, tp * tpi / d,
            ti * rp * tpi / d - ri)


# ---------------------------------------------------------------------------
# phase models on the two-channel angles

def _values(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f at each point of a 1-d array.

    f is called once, on the whole array.  A drive that takes only
    scalars (it raises TypeError or ValueError on an array) or returns
    something other than one value per point, a constant for instance,
    is called once per point instead, on floats.  A drive that accepts
    arrays must give the values it gives point by point.
    """
    try:
        out = f(xs)
    except (TypeError, ValueError):
        out = None
    if out is None or np.shape(out) != xs.shape:
        return np.array([f(x) for x in xs], dtype=float)
    return np.asarray(out, dtype=float)


def _over_energies(per_time: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Repeat the (N, n, n) matrices of an energy-independent cycle over
    M energies: shape (N, M, n, n), read-only."""
    n_t = per_time.shape[0]
    return np.broadcast_to(per_time[:, None],
                           (n_t, energies.size) + per_time.shape[1:])


def _phase_cycle(label: str, evaluate_grid, period: float | None,
                 window: tuple[float, float] | None) -> PumpCycle:
    """Two-channel cycle whose S is implemented once, as a grid."""
    return PumpCycle(2, point_evaluator(evaluate_grid), period=period,
                     window=window, label=label, evaluate_grid=evaluate_grid)


def make_snowplow_cycle(base: TwoChannelParams, xi: Callable[[float], float],
                        period: float | None = None,
                        window: tuple[float, float] | None = None) -> PumpCycle:
    """Rigid translation by xi(t): r, r' pick up phases e^{+-2 i k(E) xi}."""

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        alpha = base.alpha + 2.0 * default_dispersion(energies) \
            * _values(xi, times)[:, None]
        return two_channel_matrices(base.theta, alpha, base.phi, base.gamma)

    return _phase_cycle("snowplow", evaluate_grid, period, window)


def make_battery_cycle(base: TwoChannelParams, phi: Callable[[float], float],
                       period: float | None = None,
                       window: tuple[float, float] | None = None) -> PumpCycle:
    """EMF pulse or drive: t, t' pick up phases e^{+-i phi(t)}."""

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        phis = base.phi + _values(phi, times)
        return _over_energies(two_channel_matrices(
            base.theta, base.alpha, phis, base.gamma), energies)

    return _phase_cycle("battery", evaluate_grid, period, window)


def make_sink_cycle(base: TwoChannelParams, gamma: Callable[[float], float],
                    period: float | None = None,
                    window: tuple[float, float] | None = None) -> PumpCycle:
    """Global phase drive S -> e^{i gamma(t)} S: equal currents into both
    channels (a source or sink at the scatterer)."""
    s0 = build_two_channel(base)

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        phases = np.exp(1j * _values(gamma, times))
        return _over_energies(phases[:, None, None] * s0, energies)

    return _phase_cycle("sink", evaluate_grid, period, window)


def make_uturn_cycle(ell: float, flux: Callable[[float], float],
                     period: float | None = None,
                     window: tuple[float, float] | None = None) -> PumpCycle:
    """Two decoupled chiral channels threaded by a flux Phi(t):

        S = diag(e^{i(k(E) ell + Phi)}, e^{i(k(E) ell - Phi)}).
    """

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        optical = default_dispersion(energies) * ell
        f = _values(flux, times)[:, None]
        s = np.zeros((times.size, energies.size, 2, 2), dtype=np.complex128)
        s[..., 0, 0] = np.exp(1j * (optical + f))
        s[..., 1, 1] = np.exp(1j * (optical - f))
        return s

    return _phase_cycle("uturn", evaluate_grid, period, window)


def make_optimal_cycle(base: TwoChannelParams, phi: Callable[[float], float],
                       period: float | None = None,
                       window: tuple[float, float] | None = None) -> PumpCycle:
    """Synchronized snowplow + battery with 2 mu dxi/dt = dphi/dt.

    Row 1 of the base matrix is multiplied by e^{-i phi(t)} and row 2 by
    e^{+i phi(t)}, so the energy shift is exactly (dphi/dt) diag(1, -1):
    no off-diagonal energy shift, hence dissipation at the lower bound.
    """
    s0 = build_two_channel(base)

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        f = _values(phi, times)
        rows = np.stack([np.exp(-1j * f), np.exp(1j * f)], axis=-1)
        return _over_energies(rows[:, :, None] * s0, energies)

    return _phase_cycle("optimal", evaluate_grid, period, window)


def make_custom_two_channel(theta: Callable[[float], float],
                            alpha: Callable[[float], float],
                            phi: Callable[[float], float],
                            gamma: Callable[[float], float],
                            period: float | None = None,
                            window: tuple[float, float] | None = None) -> PumpCycle:
    """Arbitrary loop in the two-channel angle space."""

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        angles = [_values(f, times) for f in (theta, alpha, phi, gamma)]
        for end in (angles[0].min(), angles[0].max()):
            TwoChannelParams(theta=end)    # refuses theta outside [0, pi/2]
        return _over_energies(two_channel_matrices(*angles), energies)

    return _phase_cycle("custom", evaluate_grid, period, window)


# ---------------------------------------------------------------------------
# bicycle pump

@dataclass(frozen=True)
class BicycleGeometry:
    """Double-valve pump: valves of height a*M and (1-a)*M, width delta,
    flank a piston plateau 10*b of length L - delta.  Internal units pin
    mu = 1 and k_F = pi, i.e. energies are measured in units of mu and
    the dispersion is k(E) = pi sqrt(E)."""

    length: float = 1.0
    barrier: float = 1e4
    delta: float = 1e-3

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 < self.delta < self.length < math.inf
                and 0.0 < self.barrier < math.inf):
            raise ValueError("need 0 < delta < length and barrier > 0, all finite")

    def smatrix(self, a, b, energy) -> np.ndarray:
        """S at valve setting a, piston level b and energy E.

        The three arguments broadcast against each other; the result has
        their broadcast shape followed by (2, 2).
        """
        # k = pi sqrt(E) in internal units == sqrt(2 E') after rescaling
        # all energies by pi^2 / 2.
        scale = math.pi ** 2 / 2.0
        a, b, energy = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                             for x in (a, b, energy)))
        values = np.stack([scale * (a * self.barrier), scale * (10.0 * b),
                           scale * ((1.0 - a) * self.barrier)], axis=-1)
        widths = np.diff((0.0, self.delta, self.length,
                          self.length + self.delta))
        s = transfer_matrices(values.reshape(-1, 3), widths,
                              (scale * energy).ravel())
        return s.reshape(a.shape + (2, 2))


def bicycle_path(tau):
    """Boundary of the (a, b) unit square at constant speed, period 1,
    elementwise over an array of tau: the arrays a and b.

    Starts at (0, 1): close the right valve only, then b down, a across,
    b up, a back.
    """
    leg, s = np.divmod(4.0 * np.remainder(tau, 1.0), 1.0)
    # a tiny negative tau rounds up to 1.0, leg 4: the start of leg 0
    leg = leg.astype(int) % 4
    return (np.choose(leg, [0.0, s, 1.0, 1.0 - s]),
            np.choose(leg, [1.0 - s, 0.0, s, 1.0]))


def make_bicycle_cycle(geometry: BicycleGeometry = BicycleGeometry(),
                       period: float = 1.0) -> PumpCycle:
    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        a, b = bicycle_path(times / period)
        return geometry.smatrix(a[:, None], b[:, None], energies)

    return PumpCycle(2, point_evaluator(evaluate_grid), period=period,
                     label="bicycle", evaluate_grid=evaluate_grid)


def reflectionless_points(geometry: BicycleGeometry) -> list[tuple[float, float]]:
    """Interior (a, b) points where the pump is reflectionless at the
    Fermi energy (E = mu = 1 in the geometry's units).

    Unit transmission through the double valve needs the piston level on
    resonance and, since the valves have equal widths, equal valve
    heights, so every zero of |r| sits on the symmetric line a = 1/2.
    The piston must also stay below the energy for a propagating
    resonance, which bounds b.  A fine scan in b along that line feeds
    local minima to a polish on the same line: a grid of b around the
    best point so far, +- one scan step at first, recentred and halved
    `RESONANCE_HALVINGS` times, one `smatrix` call per grid.  Only
    polished points with |r| below `RESONANCE_TOL` are returned, each at
    a = 1/2 exactly (the resonances are narrow, width in b of order 1e-4
    for the default geometry).
    """
    b_max = 1.05 / 10.0
    bs = np.linspace(1e-5, b_max, RESONANCE_SCAN)
    refl = np.abs(geometry.smatrix(0.5, bs, 1.0)[:, 0, 0])
    seeds = [bs[i] for i in range(1, RESONANCE_SCAN - 1)
             if refl[i] < refl[i - 1] and refl[i] < refl[i + 1]
             and refl[i] < 0.9]
    offsets = np.linspace(-1.0, 1.0, RESONANCE_GRID)

    found: list[float] = []
    for b in seeds:
        half = bs[1] - bs[0]
        for _ in range(RESONANCE_HALVINGS):
            grid = b + half * offsets
            r = np.abs(geometry.smatrix(0.5, grid, 1.0)[:, 0, 0])
            b, half = grid[np.argmin(r)], half / 2
        if r.min() > RESONANCE_TOL:
            continue
        if all(abs(b - b_) >= RESONANCE_SEPARATION for b_ in found):
            found.append(float(b))
    return [(0.5, b) for b in sorted(found)]


# ---------------------------------------------------------------------------
# random analytic cycles

def _random_hermitian(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def _unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(i H) of a stack of Hermitian matrices, shape (..., n, n)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


class _FourierHermitian:
    """H(t) = C0 + sum_{m = 1, 2} Cm cos(2 pi m t) + Dm sin(2 pi m t)."""

    def __init__(self, rng: np.random.Generator, n: int, amplitude: float):
        self.c0 = _random_hermitian(rng, n, amplitude)
        self.cos = [_random_hermitian(rng, n, amplitude / m ** 2)
                    for m in (1, 2)]
        self.sin = [_random_hermitian(rng, n, amplitude / m ** 2)
                    for m in (1, 2)]

    def at(self, times: np.ndarray) -> np.ndarray:
        """H at each of N times, shape (N, n, n)."""
        h = np.repeat(self.c0[None], times.size, axis=0)
        for m, (c, s) in enumerate(zip(self.cos, self.sin), start=1):
            w = (TWO_PI * m * times)[:, None, None]
            h += c * np.cos(w) + s * np.sin(w)
        return h


def make_random_analytic_cycle(n_channels: int, rng: np.random.Generator,
                               zero_energy_flat: bool = False) -> PumpCycle:
    """Random smooth unitary family S = exp(i H(E, t)) of period 1.

    H mixes two independent Fourier families (amplitudes 0.4 and 0.2,
    modes 1 and 2) with smooth energy profiles.  With `zero_energy_flat`
    both profiles vanish at E = 0, so S(0, t) is the identity and the
    energy shift vanishes at the band bottom (the setting for
    charge-as-curvature integrals).
    """
    h1 = _FourierHermitian(rng, n_channels, 0.4)
    h2 = _FourierHermitian(rng, n_channels, 0.2)
    if zero_energy_flat:
        f1 = lambda e: e / (1.0 + e)
        f2 = lambda e: e / (2.0 + e * e)
    else:
        f1 = np.ones_like
        f2 = lambda e: 0.4 * e / (1.0 + e * e)

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        p1, p2 = (f(energies)[:, None, None] for f in (f1, f2))
        return _unitary_exp(p1 * h1.at(times)[:, None]
                            + p2 * h2.at(times)[:, None])

    return PumpCycle(n_channels, point_evaluator(evaluate_grid), period=1.0,
                     label="random", evaluate_grid=evaluate_grid)


def make_pulse_cycle(n_channels: int, rng: np.random.Generator,
                     window: tuple[float, float] = (0.0, 20.0),
                     amplitude: float = 0.5) -> PumpCycle:
    """Random energy-independent pulse: S = identity outside the window.

    Two constant Hermitian generators under staggered C-infinity bump
    envelopes; all derivatives vanish at the window edges.
    """
    t0, t1 = window
    span = t1 - t0
    g1 = _random_hermitian(rng, n_channels, amplitude)
    g2 = _random_hermitian(rng, n_channels, amplitude / 2.0)
    bumps = ((t0, t1), (t0 + 0.25 * span, t1 - 0.1 * span))

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        w1, w2 = (smooth_bump(times, *b)[:, None, None] for b in bumps)
        return _over_energies(_unitary_exp(w1 * g1 + w2 * g2), energies)

    return PumpCycle(n_channels, point_evaluator(evaluate_grid),
                     window=window, label="pulse", evaluate_grid=evaluate_grid)


# ---------------------------------------------------------------------------
# Galilean cross-check

@dataclass(frozen=True)
class GalileanCheck:
    bpt_value: float
    galilean_value: float
    residual: float


def galilean_check(base: TwoChannelParams, k_f: float, xi_dot: float,
                   q: QuadratureSpec = QuadratureSpec()) -> GalileanCheck:
    """Uniformly translating scatterer: two routes to the left current.

    A scatterer moving at xi_dot boosts the reflected left-channel
    density, removing charge at rate 2 k_F xi_dot |r'(k_F)|^2 / (2 pi)
    (Galilean route).  The adiabatic route evaluates the energy-shift
    current for the snowplow cycle at the Fermi energy.  Both are exact
    to first order in xi_dot; the residual is O(xi_dot^2) plus stencil
    error.
    """
    mu = 0.5 * k_f ** 2
    cycle = make_snowplow_cycle(base, xi=lambda t: xi_dot * t)
    bpt = float(bpt_current(cycle, 0.0, ThermalState(mu=mu), q)[0])
    galilean = -2.0 * k_f * xi_dot * math.cos(base.theta) ** 2 / TWO_PI
    return GalileanCheck(bpt_value=bpt, galilean_value=galilean,
                         residual=abs(bpt - galilean))


# ---------------------------------------------------------------------------
# declarative model specs (CLI-facing)

@dataclass(frozen=True)
class ModelSpec:
    """Serializable description of a built-in pump model."""

    kind: str
    params: dict = field(default_factory=dict)


# the base angles of the snowplow, battery, sink and optimal pumps
_BASE_ANGLES = {"theta": (0.9, 0.0), "alpha0": (0.0, None),
                "phi0": (0.0, None), "gamma0": (0.0, None)}
# kind -> {param: (default, lower bound or None)}
MODEL_KINDS: dict[str, dict[str, tuple[float, float | None]]] = {
    "snowplow": {**_BASE_ANGLES, "k_f": (math.pi, 1e-12),
                 "xi_amplitude": (0.05, 0.0), "period": (1.0, 1e-12)},
    "battery": {**_BASE_ANGLES, "phi_rate": (TWO_PI, 1e-12)},
    "sink": {**_BASE_ANGLES, "gamma_rate": (TWO_PI, 1e-12)},
    "uturn": {"ell": (1.0, 0.0), "flux_quanta": (1.0, None),
              "period": (1.0, 1e-12)},
    "optimal": {**_BASE_ANGLES, "phi_rate": (TWO_PI, 1e-12)},
    "bicycle": {"length": (1.0, 1e-6), "barrier": (1e4, 1e-12),
                "delta": (1e-3, 1e-12), "period": (1.0, 1e-12)},
    "custom-two-channel": {
        "theta_base": (0.9, 0.0), "theta_amp": (0.0, None),
        "alpha_base": (0.0, None), "alpha_amp": (0.0, None),
        "phi_base": (0.0, None), "phi_amp": (0.0, None),
        "gamma_base": (0.0, None), "gamma_amp": (0.0, None),
        "period": (1.0, 1e-12)},
}


def _fill_params(spec: ModelSpec) -> dict[str, float]:
    if spec.kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    table = MODEL_KINDS[spec.kind]
    unknown = set(spec.params) - set(table)
    if unknown:
        raise ValueError(f"unknown parameters for {spec.kind}: {sorted(unknown)}")
    out = {}
    for name, (default, low) in table.items():
        value = spec.params.get(name, default)
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):   # a string, or an int > 1e308
            finite = False
        if not finite:
            raise ValueError(f"{spec.kind}.{name} must be a finite number")
        value = float(value)
        if low is not None and value < low:
            raise ValueError(f"{spec.kind}.{name} must be >= {low}")
        out[name] = value
    return out


# kind -> (maker, swept angle): model key "<angle>_rate", pulse "<angle>_total"
_SWEPT_ANGLE = {"battery": (make_battery_cycle, "phi"),
                "optimal": (make_optimal_cycle, "phi"),
                "sink": (make_sink_cycle, "gamma")}


def make_pump(spec: ModelSpec) -> PumpCycle:
    """Build the PumpCycle described by a ModelSpec."""
    p = _fill_params(spec)
    if spec.kind in ("snowplow", *_SWEPT_ANGLE):
        base = TwoChannelParams(theta=p["theta"], alpha=p["alpha0"],
                                phi=p["phi0"], gamma=p["gamma0"])
    if spec.kind == "snowplow":
        period = p["period"]
        amp = p["xi_amplitude"]
        return make_snowplow_cycle(
            base, xi=lambda t: amp * np.sin(TWO_PI * t / period),
            period=period)
    if spec.kind in _SWEPT_ANGLE:
        maker, angle = _SWEPT_ANGLE[spec.kind]
        rate = p[f"{angle}_rate"]
        return maker(base, lambda t: rate * t, period=TWO_PI / rate)
    if spec.kind == "uturn":
        period = p["period"]
        quanta = p["flux_quanta"]
        if abs(quanta - round(quanta)) > 1e-9:
            raise ValueError("flux_quanta must be an integer for a periodic cycle")
        return make_uturn_cycle(
            ell=p["ell"], flux=lambda t: TWO_PI * quanta * t / period,
            period=period)
    if spec.kind == "bicycle":
        geometry = BicycleGeometry(length=p["length"], barrier=p["barrier"],
                                   delta=p["delta"])
        return make_bicycle_cycle(geometry, period=p["period"])
    # custom-two-channel: theta(t) sweeps theta_base +- theta_amp
    period = p["period"]
    swing = abs(p["theta_amp"])
    for end in (p["theta_base"] - swing, p["theta_base"] + swing):
        try:
            TwoChannelParams(theta=end)
        except ValueError:
            raise ValueError(f"theta_base +- theta_amp reaches {end:g}, "
                             "outside [0, pi/2]") from None

    def angle(bias: float, amp: float) -> Callable[[float], float]:
        return lambda t: bias + amp * np.sin(TWO_PI * t / period)

    return make_custom_two_channel(
        theta=angle(p["theta_base"], p["theta_amp"]),
        alpha=angle(p["alpha_base"], p["alpha_amp"]),
        phi=angle(p["phi_base"], p["phi_amp"]),
        gamma=angle(p["gamma_base"], p["gamma_amp"]),
        period=period)
