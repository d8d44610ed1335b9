"""Built-in pump models and scattering matrices of 1-d potentials.

Two families are provided.  Phase models act on the two-channel angles
directly: a snowplow shifts the reflection phases by 2 k(E) xi(t) (a
rigid translation of the scatterer), a battery shifts the transmission
phases by phi(t) (a time-dependent flux / EMF), a sink multiplies the
whole matrix by exp(i gamma(t)), and the optimal pump combines snowplow
and battery phases so that the energy-shift matrix is diagonal.
Phase models also provide `evaluate_grid`: each drive and the dispersion
are called once per distinct time or energy, on scalars, and the
matrices of the whole grid are built by broadcasting.  Potential models
build S(E) for piecewise-constant potentials by a
transfer-matrix product; the bicycle pump (two valve barriers seesawing
around a piston plateau) is the workhorse example of quantized
transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EnergyAtBandEdge, NonUnitary
from .quadrature import TWO_PI, QuadratureSpec
from .smatrix import (PumpCycle, TwoChannelParams, build_two_channel, stencil,
                      two_channel_matrices)

# worst |S S^dagger - 1| accepted from `transfer_matrix_smatrix`
TRANSFER_UNITARITY_TOL = 1e-9
# b scan size, |r| bound and merge distance of `reflectionless_points`
RESONANCE_SCAN = 800
RESONANCE_TOL = 1e-6
RESONANCE_SEPARATION = 1e-3


def default_dispersion(energy: float) -> float:
    """k(E) = sqrt(2 E) (hbar = m = 1)."""
    return math.sqrt(max(2.0 * energy, 0.0))


# ---------------------------------------------------------------------------
# smooth envelopes for pulse protocols

def smooth_step(t: float, t0: float, t1: float) -> float:
    """C-infinity monotone ramp: exactly 0 for t <= t0, 1 for t >= t1."""
    x = (t - t0) / (t1 - t0)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def smooth_bump(t: float, t0: float, t1: float) -> float:
    """C-infinity bump supported on (t0, t1), peak value 1 at the centre."""
    u = (2.0 * t - t0 - t1) / (t1 - t0)
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u * u))


# ---------------------------------------------------------------------------
# piecewise-constant potentials

@dataclass(frozen=True)
class PiecewisePotential:
    """Plateau values between consecutive breakpoints; V = 0 outside."""

    edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.values) + 1:
            raise ValueError("need len(edges) == len(values) + 1")
        widths = np.diff(self.edges)
        if len(self.values) < 1 or np.any(widths <= 0):
            raise ValueError("breakpoints must be strictly increasing")


def transfer_matrix_smatrix(potential: PiecewisePotential,
                            energy: float) -> np.ndarray:
    """S = [[r, t'], [t, r']] of a piecewise-constant potential at energy E.

    Wavenumbers are k_i = sqrt(2 (E - V_i)); under a plateau the branch
    gives k = i kappa and the growing exponential is controlled by
    rescaling the running transfer matrix, so opaque barriers go over
    smoothly to their analytic limit (t underflows to 0, |r| -> 1).
    Fiducial points sit at the first and last breakpoints.  Channel 1 is
    the left lead, channel 2 the right lead; E must exceed both lead
    potentials (zero).  If E coincides with a plateau to 1e-12 it is
    nudged by 1e-10 to avoid the band-edge singularity of the matching
    conditions.
    """
    if energy <= 0.0:
        raise ValueError("energy must be positive (leads are at V = 0)")
    if any(abs(energy - v) < 1e-12 for v in potential.values):
        energy += 1e-10
        if any(abs(energy - v) < 1e-12 for v in potential.values):
            raise EnergyAtBandEdge("energy pinned to a plateau value")

    k_lead = complex(math.sqrt(2.0 * energy))
    widths = np.diff(potential.edges)
    m = np.eye(2, dtype=np.complex128)
    log_scale = 0.0
    k_prev = k_lead
    for v, w in zip(potential.values, widths):
        k = np.sqrt(complex(2.0 * (energy - v)))
        m = _interface(k_prev, k) @ m
        phase = 1j * k * w
        if phase.real < -700.0:        # opaque segment: clamp the decay
            phase = complex(-700.0, phase.imag)
        m = np.diag([np.exp(phase), np.exp(-phase)]) @ m
        k_prev = k
        top = np.max(np.abs(m))
        if top > 1e100:
            m /= top
            log_scale += math.log(top)
    m = _interface(k_prev, k_lead) @ m

    r = -m[1, 0] / m[1, 1]
    rp = m[0, 1] / m[1, 1]
    t = math.exp(-log_scale) / m[1, 1] if log_scale < 700.0 else 0.0
    s = np.array([[r, t], [t, rp]], dtype=np.complex128)
    defect = np.max(np.abs(s @ s.conj().T - np.eye(2)))
    if defect > TRANSFER_UNITARITY_TOL:
        raise NonUnitary(f"transfer-matrix S unitary only to {defect:.2e}")
    return s


def _interface(k_from: complex, k_to: complex) -> np.ndarray:
    ratio = k_from / k_to
    return 0.5 * np.array([[1.0 + ratio, 1.0 - ratio],
                           [1.0 - ratio, 1.0 + ratio]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# phase models on the two-channel angles

def _values(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """f at each point of a 1-d array, called on scalars."""
    return np.array([f(x) for x in xs], dtype=float)


def _over_energies(per_time: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Repeat the (N, n, n) matrices of an energy-independent cycle over
    M energies: shape (N, M, n, n), read-only."""
    n_t = per_time.shape[0]
    return np.broadcast_to(per_time[:, None],
                           (n_t, energies.size) + per_time.shape[1:])


def make_snowplow_cycle(base: TwoChannelParams, xi: Callable[[float], float],
                        k_of_e: Callable[[float], float] = default_dispersion,
                        period: float | None = None,
                        window: tuple[float, float] | None = None) -> PumpCycle:
    """Rigid translation by xi(t): r, r' pick up phases e^{+-2 i k(E) xi}."""

    def evaluate(e: float, t: float) -> np.ndarray:
        alpha = base.alpha + 2.0 * k_of_e(e) * xi(t)
        return build_two_channel(TwoChannelParams(
            theta=base.theta, alpha=alpha, phi=base.phi, gamma=base.gamma))

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        alpha = base.alpha + 2.0 * _values(k_of_e, energies) \
            * _values(xi, times)[:, None]
        return two_channel_matrices(base.theta, alpha, base.phi, base.gamma)

    return PumpCycle(2, evaluate, period=period, window=window,
                     label="snowplow", evaluate_grid=evaluate_grid)


def make_battery_cycle(base: TwoChannelParams, phi: Callable[[float], float],
                       period: float | None = None,
                       window: tuple[float, float] | None = None) -> PumpCycle:
    """EMF pulse or drive: t, t' pick up phases e^{+-i phi(t)}."""

    def evaluate(e: float, t: float) -> np.ndarray:
        return build_two_channel(TwoChannelParams(
            theta=base.theta, alpha=base.alpha,
            phi=base.phi + phi(t), gamma=base.gamma))

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        phis = base.phi + _values(phi, times)
        return _over_energies(two_channel_matrices(
            base.theta, base.alpha, phis, base.gamma), energies)

    return PumpCycle(2, evaluate, period=period, window=window,
                     label="battery", evaluate_grid=evaluate_grid)


def make_sink_cycle(base: TwoChannelParams, gamma: Callable[[float], float],
                    period: float | None = None,
                    window: tuple[float, float] | None = None) -> PumpCycle:
    """Global phase drive S -> e^{i gamma(t)} S: equal currents into both
    channels (a source or sink at the scatterer)."""
    s0 = build_two_channel(base)

    def evaluate(e: float, t: float) -> np.ndarray:
        return np.exp(1j * gamma(t)) * s0

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        phases = np.exp(1j * _values(gamma, times))
        return _over_energies(phases[:, None, None] * s0, energies)

    return PumpCycle(2, evaluate, period=period, window=window, label="sink",
                     evaluate_grid=evaluate_grid)


def make_uturn_cycle(ell: float, flux: Callable[[float], float],
                     k_of_e: Callable[[float], float] = default_dispersion,
                     period: float | None = None,
                     window: tuple[float, float] | None = None) -> PumpCycle:
    """Two decoupled chiral channels threaded by a flux Phi(t):

        S = diag(e^{i(k(E) ell + Phi)}, e^{i(k(E) ell - Phi)}).
    """

    def evaluate(e: float, t: float) -> np.ndarray:
        optical = k_of_e(e) * ell
        f = flux(t)
        return np.diag([np.exp(1j * (optical + f)),
                        np.exp(1j * (optical - f))]).astype(np.complex128)

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        optical = _values(k_of_e, energies) * ell
        f = _values(flux, times)[:, None]
        s = np.zeros((times.size, energies.size, 2, 2), dtype=np.complex128)
        s[..., 0, 0] = np.exp(1j * (optical + f))
        s[..., 1, 1] = np.exp(1j * (optical - f))
        return s

    return PumpCycle(2, evaluate, period=period, window=window, label="uturn",
                     evaluate_grid=evaluate_grid)


def make_optimal_cycle(base: TwoChannelParams, phi: Callable[[float], float],
                       period: float | None = None,
                       window: tuple[float, float] | None = None) -> PumpCycle:
    """Synchronized snowplow + battery with 2 mu dxi/dt = dphi/dt.

    Row 1 of the base matrix is multiplied by e^{-i phi(t)} and row 2 by
    e^{+i phi(t)}, so the energy shift is exactly (dphi/dt) diag(1, -1):
    no off-diagonal energy shift, hence dissipation at the lower bound.
    """
    s0 = build_two_channel(base)

    def evaluate(e: float, t: float) -> np.ndarray:
        f = phi(t)
        return np.diag([np.exp(-1j * f), np.exp(1j * f)]) @ s0

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        f = _values(phi, times)
        rows = np.stack([np.exp(-1j * f), np.exp(1j * f)], axis=-1)
        return _over_energies(rows[:, :, None] * s0, energies)

    return PumpCycle(2, evaluate, period=period, window=window,
                     label="optimal", evaluate_grid=evaluate_grid)


def make_custom_two_channel(theta: Callable[[float], float],
                            alpha: Callable[[float], float],
                            phi: Callable[[float], float],
                            gamma: Callable[[float], float],
                            period: float | None = None,
                            window: tuple[float, float] | None = None) -> PumpCycle:
    """Arbitrary closed loop in the two-channel angle space."""

    def params(t: float) -> TwoChannelParams:
        return TwoChannelParams(theta=theta(t), alpha=alpha(t), phi=phi(t),
                                gamma=gamma(t))

    def evaluate(e: float, t: float) -> np.ndarray:
        return build_two_channel(params(t))

    def evaluate_grid(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
        angles = np.array([[p.theta, p.alpha, p.phi, p.gamma]
                           for p in map(params, times)], dtype=float)
        return _over_energies(two_channel_matrices(*angles.T), energies)

    return PumpCycle(2, evaluate, period=period, window=window, label="custom",
                     evaluate_grid=evaluate_grid)


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
        if self.length <= self.delta or self.delta <= 0 or self.barrier <= 0:
            raise ValueError("need 0 < delta < length and barrier > 0")

    def potential(self, a: float, b: float) -> PiecewisePotential:
        return PiecewisePotential(
            edges=(0.0, self.delta, self.length, self.length + self.delta),
            values=(a * self.barrier, 10.0 * b, (1.0 - a) * self.barrier))

    def smatrix(self, a: float, b: float, energy: float) -> np.ndarray:
        # k = pi sqrt(E) in internal units == sqrt(2 E') after rescaling
        # all energies by pi^2 / 2.
        scale = math.pi ** 2 / 2.0
        pot = self.potential(a, b)
        scaled = PiecewisePotential(pot.edges,
                                    tuple(scale * v for v in pot.values))
        return transfer_matrix_smatrix(scaled, scale * energy)


def bicycle_path(tau: float) -> tuple[float, float]:
    """Boundary of the (a, b) unit square at constant speed, period 1.

    Starts at (0, 1): close the right valve only, then b down, a across,
    b up, a back.
    """
    tau = tau % 1.0
    leg, s = divmod(4.0 * tau, 1.0)
    if leg == 0:
        return 0.0, 1.0 - s
    if leg == 1:
        return s, 0.0
    if leg == 2:
        return 1.0, s
    return 1.0 - s, 1.0


def make_bicycle_cycle(geometry: BicycleGeometry = BicycleGeometry(),
                       period: float = 1.0) -> PumpCycle:
    def evaluate(e: float, t: float) -> np.ndarray:
        a, b = bicycle_path(t / period)
        return geometry.smatrix(a, b, e)

    return PumpCycle(2, evaluate, period=period, label="bicycle")


def reflectionless_points(geometry: BicycleGeometry,
                          energy: float = 1.0) -> list[tuple[float, float]]:
    """Interior (a, b) points where the pump is reflectionless at `energy`.

    Unit transmission through the double valve needs the piston level on
    resonance and, since the valves have equal widths, equal valve
    heights, so every zero of |r| sits on the symmetric line a = 1/2.
    The piston must also stay below the energy for a propagating
    resonance, which bounds b.  A fine scan in b along that line feeds
    local minima to a two-dimensional polish; only polished points with
    |r| below `RESONANCE_TOL` are returned (the resonances are narrow, width
    in b of order 1e-4 for the default geometry).
    """
    from scipy.optimize import minimize

    b_max = 1.05 * energy / 10.0
    bs = np.linspace(1e-5, b_max, RESONANCE_SCAN)
    refl = np.array([abs(geometry.smatrix(0.5, b, energy)[0, 0]) for b in bs])
    seeds = [bs[i] for i in range(1, RESONANCE_SCAN - 1)
             if refl[i] < refl[i - 1] and refl[i] < refl[i + 1]
             and refl[i] < 0.9]

    def objective(p):
        a, b = p
        if not (0.0 < a < 1.0 and 0.0 < b):
            return 2.0
        return abs(geometry.smatrix(a, b, energy)[0, 0])

    points: list[tuple[float, float]] = []
    for b0 in seeds:
        res = minimize(objective, (0.5, b0), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 400})
        if res.fun > RESONANCE_TOL:
            continue
        a, b = float(res.x[0]), float(res.x[1])
        if all(math.hypot(a - a0, b - b0_) >= RESONANCE_SEPARATION
               for a0, b0_ in points):
            points.append((a, b))
    return sorted(points, key=lambda p: p[1])


# ---------------------------------------------------------------------------
# random analytic cycles

def _random_hermitian(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def _unitary_exp(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


class _FourierHermitian:
    """H(t) = C0 + sum_m Cm cos(2 pi m t / T) + Dm sin(2 pi m t / T)."""

    def __init__(self, rng: np.random.Generator, n: int, period: float,
                 amplitude: float, harmonics: int):
        self.period = period
        self.c0 = _random_hermitian(rng, n, amplitude)
        self.cos = [_random_hermitian(rng, n, amplitude / m ** 2)
                    for m in range(1, harmonics + 1)]
        self.sin = [_random_hermitian(rng, n, amplitude / m ** 2)
                    for m in range(1, harmonics + 1)]

    def __call__(self, t: float) -> np.ndarray:
        h = self.c0.copy()
        for m, (c, s) in enumerate(zip(self.cos, self.sin), start=1):
            w = TWO_PI * m * t / self.period
            h += c * math.cos(w) + s * math.sin(w)
        return h


def make_random_analytic_cycle(n_channels: int, rng: np.random.Generator,
                               period: float = 1.0, amplitude: float = 0.4,
                               harmonics: int = 2,
                               zero_energy_flat: bool = False) -> PumpCycle:
    """Random smooth periodic unitary family S = exp(i H(E, t)).

    H mixes two independent Fourier families with smooth energy
    profiles.  With `zero_energy_flat` both profiles vanish at E = 0, so
    S(0, t) is the identity and the energy shift vanishes at the band
    bottom (the setting for charge-as-curvature integrals).
    """
    h1 = _FourierHermitian(rng, n_channels, period, amplitude, harmonics)
    h2 = _FourierHermitian(rng, n_channels, period, amplitude / 2.0, harmonics)
    if zero_energy_flat:
        f1 = lambda e: e / (1.0 + e)
        f2 = lambda e: e / (2.0 + e * e)
    else:
        f1 = lambda e: 1.0
        f2 = lambda e: 0.4 * e / (1.0 + e * e)

    def evaluate(e: float, t: float) -> np.ndarray:
        return _unitary_exp(f1(e) * h1(t) + f2(e) * h2(t))

    return PumpCycle(n_channels, evaluate, period=period, label="random")


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

    def evaluate(e: float, t: float) -> np.ndarray:
        w1 = smooth_bump(t, t0, t1)
        w2 = smooth_bump(t, t0 + 0.25 * span, t1 - 0.1 * span)
        return _unitary_exp(w1 * g1 + w2 * g2)

    return PumpCycle(n_channels, evaluate, window=window, label="pulse")


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
    shift = stencil(cycle, mu, 0.0, q).shift[0, 0]
    bpt = float(shift[0, 0].real) / TWO_PI
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


# kind -> {param: (default, lower bound or None)}
MODEL_KINDS: dict[str, dict[str, tuple[float, float | None]]] = {
    "snowplow": {"theta": (0.9, 0.0), "alpha0": (0.0, None), "phi0": (0.0, None),
                 "gamma0": (0.0, None), "k_f": (math.pi, 1e-12),
                 "xi_amplitude": (0.05, 0.0), "period": (1.0, 1e-12)},
    "battery": {"theta": (0.9, 0.0), "alpha0": (0.0, None), "phi0": (0.0, None),
                "gamma0": (0.0, None), "phi_rate": (TWO_PI, 1e-12)},
    "sink": {"theta": (0.9, 0.0), "alpha0": (0.0, None), "phi0": (0.0, None),
             "gamma0": (0.0, None), "gamma_rate": (TWO_PI, 1e-12)},
    "uturn": {"ell": (1.0, 0.0), "flux_quanta": (1.0, None),
              "period": (1.0, 1e-12)},
    "optimal": {"theta": (0.9, 0.0), "alpha0": (0.0, None), "phi0": (0.0, None),
                "gamma0": (0.0, None), "phi_rate": (TWO_PI, 1e-12)},
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
        value = float(spec.params.get(name, default))
        if low is not None and value < low:
            raise ValueError(f"{spec.kind}.{name} must be >= {low}")
        out[name] = value
    return out


def make_pump(spec: ModelSpec) -> PumpCycle:
    """Build the PumpCycle described by a ModelSpec."""
    p = _fill_params(spec)
    if spec.kind in ("snowplow", "battery", "sink", "optimal",
                     "custom-two-channel"):
        base = TwoChannelParams(theta=p.get("theta", p.get("theta_base", 0.9)),
                                alpha=p.get("alpha0", p.get("alpha_base", 0.0)),
                                phi=p.get("phi0", p.get("phi_base", 0.0)),
                                gamma=p.get("gamma0", p.get("gamma_base", 0.0)))
    if spec.kind == "snowplow":
        period = p["period"]
        amp = p["xi_amplitude"]
        return make_snowplow_cycle(
            base, xi=lambda t: amp * math.sin(TWO_PI * t / period),
            period=period)
    if spec.kind == "battery":
        rate = p["phi_rate"]
        return make_battery_cycle(base, phi=lambda t: rate * t,
                                  period=TWO_PI / rate)
    if spec.kind == "sink":
        rate = p["gamma_rate"]
        return make_sink_cycle(base, gamma=lambda t: rate * t,
                               period=TWO_PI / rate)
    if spec.kind == "uturn":
        period = p["period"]
        quanta = p["flux_quanta"]
        if abs(quanta - round(quanta)) > 1e-9:
            raise ValueError("flux_quanta must be an integer for a closed cycle")
        return make_uturn_cycle(
            ell=p["ell"], flux=lambda t: TWO_PI * quanta * t / period,
            period=period)
    if spec.kind == "optimal":
        rate = p["phi_rate"]
        return make_optimal_cycle(base, phi=lambda t: rate * t,
                                  period=TWO_PI / rate)
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
        return lambda t: bias + amp * math.sin(TWO_PI * t / period)

    return make_custom_two_channel(
        theta=angle(p["theta_base"], p["theta_amp"]),
        alpha=angle(p["alpha_base"], p["alpha_amp"]),
        phi=angle(p["phi_base"], p["phi_amp"]),
        gamma=angle(p["gamma_base"], p["gamma_amp"]),
        period=period)
