"""Pump model constructors and the piecewise transfer matrix.

The barrier scattering amplitudes are checked against two independent
routes: the textbook closed form for a single rectangular barrier and a
direct integration of the stationary wave equation.
"""
from __future__ import annotations

import cmath
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import qpump as qp
from qpump import cli, models
from qpump.errors import NonUnitary
from qpump.models import bicycle_path, smooth_bump, smooth_step
from qpump.quadrature import UNITARITY_TOL
from qpump.smatrix import _check_unitary

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()


def _rect_barrier_amplitudes(v: float, width: float, e: float):
    """Closed-form r, t for one rectangular barrier starting at x = 0.

    Referenced to plane waves exp(+-ikx); the r sign convention is fixed
    by the hard-wall limit r -> -1.
    """
    k = math.sqrt(2.0 * e)
    q = cmath.sqrt(complex(2.0 * (e - v), 0.0))
    den = cmath.cos(q * width) - 0.5j * (q / k + k / q) * cmath.sin(q * width)
    t = cmath.exp(-1j * k * width) / den
    r = 0.5j * (q / k - k / q) * cmath.sin(q * width) / den
    return r, t


def _ode_amplitudes(v: float, width: float, e: float):
    """r, t by integrating psi'' = 2 (V - E) psi across the barrier.

    Start from the transmitted wave on the right and read the incident
    and reflected amplitudes off the left boundary values.
    """
    k = math.sqrt(2.0 * e)

    def rhs(x, y):
        return [y[1], 2.0 * (v - e) * y[0]]

    psi_right = cmath.exp(1j * k * width)
    sol = solve_ivp(rhs, (width, 0.0),
                    [psi_right, 1j * k * psi_right],
                    rtol=1e-12, atol=1e-12, dense_output=False)
    psi0, dpsi0 = sol.y[0][-1], sol.y[1][-1]
    a = 0.5 * (psi0 + dpsi0 / (1j * k))   # incident amplitude at x=0
    b = 0.5 * (psi0 - dpsi0 / (1j * k))   # reflected amplitude
    return b / a, 1.0 / a


def _one_row(edges, values, energy) -> np.ndarray:
    """S of one piecewise-constant potential at one energy: a batch of
    one row of `transfer_matrices`."""
    return qp.transfer_matrices(np.array([values], dtype=float),
                                np.diff(edges), np.array([energy]))[0]


def test_transfer_matrix_against_textbook_form():
    # the returned matrix puts its outgoing reference plane at the far
    # edge, so the plane-wave t picks up exp(i k width)
    for v, width, e in ((2.0, 1.0, 1.0), (2.0, 1.0, 3.5), (0.7, 2.3, 1.9),
                        (5.0, 0.6, 0.4)):
        s = _one_row([0.0, width], [v], e)
        r_ref, t_ref = _rect_barrier_amplitudes(v, width, e)
        k = math.sqrt(2.0 * e)
        assert abs(s[0, 0] - r_ref) < 1e-10
        assert abs(s[1, 0] - t_ref * cmath.exp(1j * k * width)) < 1e-10
        assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-10


def test_transfer_matrix_against_wave_integration():
    v, width, e = 2.0, 1.0, 1.0
    s = _one_row([0.0, width], [v], e)
    r_ode, t_ode = _ode_amplitudes(v, width, e)
    k = math.sqrt(2.0 * e)
    assert abs(s[0, 0] - r_ode) < 1e-8
    assert abs(s[1, 0] - t_ode * cmath.exp(1j * k * width)) < 1e-8


def test_transfer_matrix_two_piece_composition():
    # a double barrier must equal the closed two-interface composition
    # computed here with independent 2x2 products
    edges = np.array([0.0, 0.8, 1.5, 2.1])
    values = np.array([1.4, 0.2, 2.6])
    e = 1.1
    s = _one_row(edges, values, e)
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-9

    # reference: total transfer matrix assembled from scratch
    ks = [math.sqrt(2.0 * e)] + \
        [cmath.sqrt(complex(2.0 * (e - v), 0.0)) for v in values] + \
        [math.sqrt(2.0 * e)]
    xs = [edges[0]] + list(edges) + [edges[-1]]
    m = np.eye(2, dtype=complex)
    for i in range(len(ks) - 1):
        ka, kb = ks[i], ks[i + 1]
        x = xs[i + 1]
        # plane-wave matching psi, psi' at x
        ma = np.array([[cmath.exp(1j * ka * x), cmath.exp(-1j * ka * x)],
                       [1j * ka * cmath.exp(1j * ka * x),
                        -1j * ka * cmath.exp(-1j * ka * x)]])
        mb = np.array([[cmath.exp(1j * kb * x), cmath.exp(-1j * kb * x)],
                       [1j * kb * cmath.exp(1j * kb * x),
                        -1j * kb * cmath.exp(-1j * kb * x)]])
        m = np.linalg.solve(mb, ma) @ m
    # incident from the left: coefficients (1, r) -> (t, 0); with all
    # edges starting at zero only t needs the far-edge reference factor
    r_ref = -m[1, 0] / m[1, 1]
    t_tot = m[0, 0] + m[0, 1] * r_ref
    k = math.sqrt(2.0 * e)
    assert abs(s[0, 0] - r_ref) < 1e-9
    assert abs(s[1, 0] - t_tot * cmath.exp(1j * k * edges[-1])) < 1e-9


def test_transfer_matrix_opaque_and_band_edge():
    s = _one_row([0.0, 4.0], [400.0], 1.0)
    assert abs(s[1, 0]) < 1e-30           # deep tunnelling underflows to 0
    assert abs(abs(s[0, 0]) - 1.0) < 1e-10
    with pytest.raises(qp.EnergyAtBandEdge):
        _one_row([0.0, 4.0], [400.0], 0.0)   # below the lead band
    # an energy pinned between two plateau values cannot be nudged free
    with pytest.raises(qp.EnergyAtBandEdge):
        _one_row([0.0, 1.0, 2.0], [1.0, 1.0 + 1e-10], 1.0)


def test_opaque_plateau_after_a_growing_one_stays_unitary():
    # a barrier of decay about 14 is followed by an opaque one (decay
    # about 1450, far past the underflow of exp): S must come out
    # unitary, with no overflow and no NaN.  No wave passes, and the
    # left reflection is that of the stack cut after the opaque plateau
    values = np.array([[5.78382073, 1e5, 3.51219368]])
    widths = np.array([4.24346314, 3.23527756, 4.6612327])
    energy = np.array([0.6725027136810481])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = qp.transfer_matrices(values, widths, energy)[0]
    assert s[0, 1] == s[1, 0] == 0.0
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-12
    cut = qp.transfer_matrices(values[:, :2], widths[:2], energy)[0]
    assert abs(s[0, 0] - cut[0, 0]) < 1e-14


def test_tracer_alias_is_the_batched_kernel():
    assert models.transfer_matrix_smatrix is models.transfer_matrices


def test_transfer_matrix_batch_rows_match_point_calls():
    # one batch over every input regime: an ordinary row, a tall row
    # (total decay about 280, t > 0 but tiny), an opaque row (total
    # decay about 1130, t = 0) and a row nudged off a plateau
    edges = (0.0, 10.0, 40.0)
    rows = [((2.0, 0.5), 3.0), ((400.0, 0.0), 1.0), ((400.0, 400.0), 1.0),
            ((2.0, 0.5), 2.0)]
    values = np.array([v for v, _ in rows])
    energies = np.array([e for _, e in rows])
    s = qp.transfer_matrices(values, np.diff(edges), energies)
    assert s.shape == (4, 2, 2)
    for row, (v, e) in zip(s, rows):
        assert np.array_equal(row, _one_row(edges, v, e))
        assert np.max(np.abs(row @ row.conj().T - np.eye(2))) < 1e-9
    assert 0.0 < abs(s[1, 1, 0]) < 1e-100
    assert s[2, 1, 0] == 0.0 and abs(abs(s[2, 0, 0]) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="widths"):
        qp.transfer_matrices(values, np.diff(edges)[:1], energies)
    # a pinned row fails the whole batch
    pinned = np.vstack([values, [1.0, 1.0 + 1e-10]])
    with pytest.raises(qp.EnergyAtBandEdge):
        qp.transfer_matrices(pinned, np.diff(edges), np.append(energies, 1.0))


def _matmul_chain(values, widths, energy: float) -> np.ndarray:
    """S of one potential as a plain chain of 2 x 2 transfer matrices
    multiplied with `@`: the independent reference.  It nudges the
    energy off a plateau as the kernel does; so that the chain itself
    stays finite, it clamps the decay of an opaque plateau at exp(-700)
    and rescales the running matrix past 1e100."""
    if np.any(np.abs(energy - values) < 1e-12):
        energy += 1e-10

    def step(k_from, k_to):
        r = k_from / k_to
        return 0.5 * np.array([[1 + r, 1 - r], [1 - r, 1 + r]])

    k_lead = np.sqrt(complex(2.0 * energy))
    m, log_scale, k_prev = np.eye(2, dtype=complex), 0.0, k_lead
    for v, w in zip(values, widths):
        k = np.sqrt(complex(2.0 * (energy - v)))
        phase = 1j * k * w
        phase = complex(max(phase.real, -700.0), phase.imag)
        m = step(k_prev, k) @ m
        m = np.diag([np.exp(phase), np.exp(-phase)]) @ m
        k_prev = k
        top = np.abs(m).max()
        if top > 1e100:
            m, log_scale = m / top, log_scale + math.log(top)
    m = step(k_prev, k_lead) @ m
    t = math.exp(-log_scale) / m[1, 1] if log_scale < 700.0 else 0.0
    return np.array([[-m[1, 0] / m[1, 1], t], [t, m[0, 1] / m[1, 1]]])


def test_transfer_matrices_match_a_plain_matmul_chain():
    # 200 seeded random potentials of 1 to 4 plateaus; some rows are
    # opaque (a decay past 700), some tall (a total decay past
    # log 1e100) and some sit on a plateau (nudged).
    # Rounding enters the matching steps amplified by their largest
    # ratio r = |k_from / k_to|, about 1e5 past a nudge, so the bound is
    # 1e-12 or 10 eps r, whichever is larger.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261019)
    kinds = {"opaque": 0, "tall": 0, "nudged": 0}
    for _ in range(200):
        n = int(rng.integers(1, 5))
        widths = rng.uniform(0.05, 3.0, n)
        values = rng.uniform(-2.0, 6.0, n)
        energy = float(rng.uniform(0.05, 5.0))
        pick = rng.integers(4)
        if pick == 1:                     # an opaque first barrier
            # (an opaque barrier after a growing plateau would
            # overflow the reference chain)
            values[0] = 1e5
            widths[:] = rng.uniform(3.0, 5.0, n)
        elif pick == 2:                   # tall but not opaque barriers
            values[:] = rng.uniform(50.0, 400.0, n)
            widths[:] = rng.uniform(4.0, 12.0, n)
        elif pick == 3:                   # the energy on a plateau
            values[rng.integers(n)] = energy
        s = qp.transfer_matrices(values[None], widths,
                                 np.array([energy]))[0]
        ref = _matmul_chain(values, widths, energy)
        nudge = 1e-10 if pick == 3 else 0.0
        k = np.abs(np.sqrt(2.0 * (energy + nudge - np.pad(values, 1))
                           + 0j))
        r = np.max(np.maximum(k[1:] / k[:-1], k[:-1] / k[1:]))
        assert np.max(np.abs(s - ref)) < max(1e-12, 10.0 * eps * r)
        decay = np.sqrt(2.0 * np.maximum(values - energy, 0.0)) * widths
        kinds["opaque"] += bool(np.any(decay > 700.0))
        kinds["tall"] += bool(np.sum(decay) > math.log(1e100))
        kinds["nudged"] += bool(pick == 3)
    assert min(kinds.values()) >= 20


def test_opaque_barrier_after_a_tall_one_gives_the_step_reflection():
    # decay 228, a low barrier, then decay 690: together they are far
    # past the underflow of exp, yet each alone is not.  No wave
    # passes, and each lead sees the reflection of a semi-infinite step
    # of the same height, to rounding; S must come out with no overflow
    # and no NaN
    kappa = math.sqrt(118.0)
    s = qp.transfer_matrices([[60.0, 1.5, 60.0]],
                             [228.0 / kappa, 0.3, 690.0 / kappa], [1.0])[0]
    assert s[0, 1] == s[1, 0] == 0.0
    step = (math.sqrt(2.0) - 1j * kappa) / (math.sqrt(2.0) + 1j * kappa)
    assert abs(s[0, 0] - step) < 1e-14
    assert abs(s[1, 1] - step) < 1e-14


def _mp_chain(values, widths, energy: float, mp) -> np.ndarray:
    """S of one potential from a chain of 2 x 2 transfer matrices in
    the working precision of `mp` (mpmath); inputs are taken exactly."""
    k_lead = mp.sqrt(2 * mp.mpf(energy))
    ks = [k_lead] + [mp.sqrt(mp.mpc(2 * (mp.mpf(energy) - mp.mpf(v))))
                     for v in values] + [k_lead]
    m = mp.eye(2)
    for i in range(len(ks) - 1):
        ratio = ks[i] / ks[i + 1]
        m = mp.matrix([[1 + ratio, 1 - ratio], [1 - ratio, 1 + ratio]]) \
            * m / 2
        if i < len(widths):
            phase = 1j * ks[i + 1] * mp.mpf(widths[i])
            m = mp.diag([mp.exp(phase), mp.exp(-phase)]) * m
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[complex(-m[1, 0] / m[1, 1]), complex(1 / m[1, 1])],
                     [complex(det / m[1, 1]), complex(m[0, 1] / m[1, 1])]])


def test_bicycle_rows_match_a_50_digit_transfer_chain():
    # 60 seeded points of the default bicycle path at E = mu: thin tall
    # valves around a propagating or evanescent piston (decay up to 9)
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    geometry = qp.BicycleGeometry()
    a, b = bicycle_path(np.random.default_rng(27).uniform(0.0, 1.0, 60))
    scale = math.pi ** 2 / 2.0
    values = scale * np.stack([a * geometry.barrier, 10.0 * b,
                               (1.0 - a) * geometry.barrier], axis=-1)
    widths = np.diff((0.0, geometry.delta, geometry.length,
                      geometry.length + geometry.delta))
    s = geometry.smatrix(a, b, 1.0)
    for row, v in zip(s, values):
        assert np.max(np.abs(row - _mp_chain(v, widths, scale, mp))) < 2e-15


def test_uturn_matrix_form():
    ell = 1.3
    cyc = qp.make_uturn_cycle(ell, flux=lambda t: 0.7, period=1.0)
    e0 = 2.2
    k = math.sqrt(2.0 * e0)
    s = cyc.evaluate(e0, 0.0)
    want = np.diag([cmath.exp(1j * (k * ell + 0.7)),
                    cmath.exp(1j * (k * ell - 0.7))])
    assert np.max(np.abs(s - want)) < 1e-12


def test_static_snowplow_has_no_shift():
    cyc = qp.make_snowplow_cycle(qp.TwoChannelParams(theta=0.5),
                                 xi=lambda t: 0.02, period=1.0)
    d = qp.differential_data(cyc, 1.0, 0.3, Q)
    assert np.max(np.abs(d.energy_shift)) < 1e-9


def test_optimal_cycle_shift_is_diagonal():
    rate = TWO_PI
    cyc = qp.make_optimal_cycle(qp.TwoChannelParams(theta=0.8),
                                phi=lambda t: rate * t, period=1.0)
    d = qp.differential_data(cyc, 1.7, 0.4, Q)
    assert np.max(np.abs(d.energy_shift - np.diag([rate, -rate]))) < 1e-8


def test_make_pump_registry():
    assert set(qp.MODEL_KINDS) == {"snowplow", "battery", "sink", "uturn",
                                   "optimal", "bicycle", "custom-two-channel"}
    cyc = qp.make_pump(qp.ModelSpec(kind="battery", params={"theta": 0.5}))
    assert cyc.n_channels == 2
    with pytest.raises(ValueError):
        qp.make_pump(qp.ModelSpec(kind="windmill", params={}))
    with pytest.raises(ValueError):
        qp.make_pump(qp.ModelSpec(kind="bicycle", params={"barrier": -1.0}))
    with pytest.raises(ValueError):
        qp.make_pump(qp.ModelSpec(kind="battery", params={"frequency": 2.0}))
    with pytest.raises(ValueError):
        qp.make_pump(qp.ModelSpec(kind="uturn", params={"flux_quanta": 0.5}))
    # parameters follow the number rules of every other config section
    for theta in (np.float32(0.5), np.int64(1)):
        cyc = qp.make_pump(qp.ModelSpec("battery", {"theta": theta}))
        assert cyc.n_channels == 2
    for bad in (True, "0.5", float("nan"), float("inf"), 10 ** 400, 1j):
        with pytest.raises(ValueError, match="finite number"):
            qp.make_pump(qp.ModelSpec(kind="battery", params={"phi0": bad}))


def test_bicycle_edge_midpoints_block_one_channel():
    # on edge midpoints one barrier of the pair is fully raised, so the
    # transmission is tiny away from resonance
    geo = qp.BicycleGeometry()
    cyc = qp.make_bicycle_cycle(geo)
    s = cyc.evaluate(1.0, 0.125)   # path point (0.5, 1): both up
    assert abs(s[1, 0]) ** 2 < 1e-6
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-8


def test_bicycle_corner_approaches_hard_wall():
    # corner (0, 1): left barrier down, right barrier at full height; the
    # reflection tends to the hard-wall value -1 as the height grows
    geos = [qp.BicycleGeometry(barrier=m) for m in (1e4, 1e6, 1e8)]
    gaps = []
    for geo in geos:
        s = geo.smatrix(1.0, 0.0, 1.0)
        gaps.append(abs(s[0, 0] + 1.0))
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    assert gaps[2] < 1e-2


def _scalar_bicycle_path(tau: float) -> tuple[float, float]:
    """The path leg by leg on one scalar, as a reference."""
    tau = tau % 1.0
    leg, s = divmod(4.0 * tau, 1.0)
    if leg == 0:
        return 0.0, 1.0 - s
    if leg == 1:
        return s, 0.0
    if leg == 2:
        return 1.0, s
    return 1.0 - s, 1.0


def test_bicycle_path_on_arrays():
    quarters = np.array([0.0, 0.25, 0.5, 0.75])
    corners = ([0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0])
    for shift in (-2.0, -1.0, 0.0, 1.0, 3.0):
        a, b = bicycle_path(quarters + shift)
        assert a.tolist() == corners[0] and b.tolist() == corners[1]
    taus = np.random.default_rng(5).uniform(-3.0, 3.0, 20000)
    a, b = bicycle_path(taus)
    want = np.array([_scalar_bicycle_path(t) for t in taus])
    assert np.array_equal(a, want[:, 0]) and np.array_equal(b, want[:, 1])
    a1, b1 = bicycle_path(taus + 1.0)
    assert np.max(np.abs(a1 - a)) < 1e-14 and np.max(np.abs(b1 - b)) < 1e-14


def test_bicycle_is_continuous_across_the_start():
    # -1e-18 % 1.0 rounds up to 1.0, which must be the start (0, 1) of
    # the path, not the end of its last leg
    a, b = bicycle_path(np.array([-1e-18, 1e-18]))
    assert a.tolist() == [0.0, 0.0] and b.tolist() == [1.0, 1.0]
    s = qp.make_bicycle_cycle().sample_grid([1.0], [-1e-18, 1e-18])
    assert np.max(np.abs(s[0] - s[1])) < 1e-12


def test_default_dispersion_on_arrays_matches_scalar_calls():
    energies = np.concatenate([[-1.0, 0.0, 1e-300],
                               np.random.default_rng(3).uniform(0, 50, 1000)])
    k = qp.default_dispersion(energies)
    assert np.array_equal(k, [qp.default_dispersion(e) for e in energies])
    assert np.array_equal(k, [math.sqrt(max(2.0 * e, 0.0)) for e in energies])


def test_bicycle_cycle_period_and_charge_sign():
    cyc = qp.make_bicycle_cycle(qp.BicycleGeometry())
    state = qp.ThermalState(mu=1.0, temperature=0.0)
    charge = qp.cycle_charge(cyc, state, Q)
    assert charge[0] < 0.0 < charge[1]
    assert abs(charge[0] + charge[1]) < 1e-6


def test_reflectionless_points_lie_on_symmetric_line():
    t0 = time.monotonic()
    pts = qp.reflectionless_points(qp.BicycleGeometry(length=1.0))
    assert time.monotonic() - t0 < 20.0
    assert len(pts) >= 1
    geo = qp.BicycleGeometry(length=1.0)
    for a, b in pts:
        assert a == 0.5
        assert 0.0 < b < 1.0
        s = geo.smatrix(a, b, 1.0)
        assert abs(s[0, 0]) < 1e-6


def test_reflectionless_points_drop_seeds_above_the_bound(monkeypatch):
    # with a zero |r| bound no polished seed qualifies
    monkeypatch.setattr(models, "RESONANCE_TOL", 0.0)
    assert qp.reflectionless_points(qp.BicycleGeometry(length=1.0)) == []


def test_pulse_cycle_settles_to_identity():
    rng = np.random.default_rng(53)
    cyc = qp.make_pulse_cycle(3, rng, window=(0.0, 20.0))
    for t in (-5.0, -0.5, 20.5, 30.0):
        assert np.max(np.abs(cyc.evaluate(1.0, t) - np.eye(3))) < 1e-12
    mid = cyc.evaluate(1.0, 10.0)
    assert np.max(np.abs(mid - np.eye(3))) > 1e-3


@pytest.mark.parametrize("amplitude", [1e308, -1e200, math.nan])
def test_pulse_amplitude_that_overflows_the_generators_is_refused(amplitude):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows the generators"):
            qp.make_pulse_cycle(2, np.random.default_rng(1),
                                amplitude=amplitude)


@pytest.mark.parametrize("amplitude", [1e18, 1e20])
def test_pulse_past_double_precision_is_refused_without_warnings(amplitude):
    # exp(i H) has no correct digit here: squaring takes entries to 1e144
    # (1e18), whose squares overflow in the unitarity check, or past the
    # double range (1e20)
    cycle = qp.make_pulse_cycle(2, np.random.default_rng(1),
                                amplitude=amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = cycle.sample_grid([1.0], np.linspace(0.0, 20.0, 33))
        with pytest.raises(NonUnitary):
            _check_unitary(s, UNITARITY_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unitary_exp_matches_expm_and_is_unitary(n):
    from scipy.linalg import expm

    rng = np.random.default_rng(100 + n)
    scales = np.array([0.0, 1e-9, 1e-3, 0.3, 1.0, 7.0, 60.0, 1e3])
    for shape in [(len(scales),), (len(scales), 3)]:
        a = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
        h = 0.5 * (a + a.conj().swapaxes(-1, -2))
        h /= np.linalg.norm(h, 2, axis=(-2, -1))[..., None, None]
        h *= scales.reshape((-1,) + (1,) * (h.ndim - 1))
        s = models._unitary_exp(h)
        assert s.shape == h.shape
        bound = 1e-14 * (1.0 + np.linalg.norm(h, 2, axis=(-2, -1)))
        ref = np.array([expm(1j * m) for m in h.reshape(-1, n, n)])
        err = np.abs(s - ref.reshape(h.shape)).max(axis=(-2, -1))
        assert (err <= bound).all(), (err / bound).max()
        gram = s @ s.conj().swapaxes(-1, -2) - np.eye(n)
        assert (np.abs(gram).max(axis=(-2, -1)) <= bound).all()
        # H = 0 gives the identity exactly (zero_energy_flat relies on it)
        assert np.array_equal(s[0], np.broadcast_to(np.eye(n), s[0].shape))


def _step_reference(t: float, t0: float, t1: float) -> float:
    x = (t - t0) / (t1 - t0)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a, b = math.exp(-1.0 / x), math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def _bump_reference(t: float, t0: float, t1: float) -> float:
    u = (2.0 * t - t0 - t1) / (t1 - t0)
    return 0.0 if abs(u) >= 1.0 else math.exp(1.0 - 1.0 / (1.0 - u * u))


@pytest.mark.parametrize("t0, t1", [(2.0, 7.0), (0.0, 0.5)])
def test_envelopes_on_arrays_match_the_scalar_formula(t0, t1):
    span = t1 - t0
    edges = [t0, t1, math.nextafter(t0, math.inf), math.nextafter(t1, 0.0),
             t0 + 5e-324, t0 + 1e-3 * span, t1 - 1e-3 * span]
    ts = np.concatenate([np.linspace(t0 - 0.3 * span, t1 + 0.3 * span, 4001),
                         edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, ref in ((smooth_step, _step_reference),
                       (smooth_bump, _bump_reference)):
            got = f(ts, t0, t1)
            want = np.array([ref(float(t), t0, t1) for t in ts])
            assert isinstance(got, np.ndarray) and got.shape == ts.shape
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
            assert np.array_equal(f(ts.reshape(-1, 2), t0, t1),
                                  got.reshape(-1, 2))
            for t in (t0, 0.5 * (t0 + t1), t1 + 1.0, 3):
                assert type(f(t, t0, t1)) is float
                assert type(f(np.float64(t), t0, t1)) is float
        outside = (ts <= t0) | (ts >= t1)
        step, bump = smooth_step(ts, t0, t1), smooth_bump(ts, t0, t1)
        assert np.all(step[ts <= t0] == 0.0) and np.all(step[ts >= t1] == 1.0)
        assert np.all(bump[outside] == 0.0)
        assert np.all((step[~outside] >= 0.0) & (step[~outside] <= 1.0))
        assert np.all((bump >= 0.0) & (bump <= 1.0))
        odd = np.array([math.nan, -math.inf, math.inf])
        assert np.array_equal(smooth_step(odd, t0, t1), [math.nan, 0.0, 1.0],
                              equal_nan=True)
        assert np.array_equal(smooth_bump(odd, t0, t1), [math.nan, 0.0, 0.0],
                              equal_nan=True)
        assert math.isnan(smooth_step(math.nan, t0, t1))
        assert math.isnan(smooth_bump(math.nan, t0, t1))
        assert smooth_step(-math.inf, t0, t1) == 0.0
        assert smooth_step(math.inf, t0, t1) == 1.0
        assert smooth_bump(math.inf, t0, t1) == 0.0
        assert smooth_bump(-math.inf, t0, t1) == 0.0


def _drives(monkeypatch) -> list:
    """The drives the CLI builds: a battery pulse's swept angle, the
    snowplow's xi and the four angles of the custom model."""
    drives = []
    capture = lambda *args, **kwargs: drives.extend(
        a for a in (*args, *kwargs.values()) if callable(a))
    monkeypatch.setitem(models._SWEPT_ANGLE, "battery", (capture, "phi"))
    monkeypatch.setattr(models, "make_snowplow_cycle", capture)
    monkeypatch.setattr(models, "make_custom_two_channel", capture)
    cli.build_pulse({"pulse": {"kind": "battery", "window": [0.0, 10.0]}}, 0)
    models.make_pump(qp.ModelSpec("snowplow"))
    models.make_pump(qp.ModelSpec("custom-two-channel",
                                  {"theta_amp": 0.3, "phi_amp": 1.0}))
    return drives


def test_cli_drives_run_on_arrays(monkeypatch):
    drives = _drives(monkeypatch)
    assert len(drives) == 6
    ts = np.linspace(-1.0, 11.0, 24).reshape(4, 6)
    for drive in drives:
        got = drive(ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        want = [drive(float(t)) for t in ts.ravel()]
        assert np.allclose(got.ravel(), want, rtol=1e-15, atol=1e-15)


def test_random_cycle_flat_bottom_option():
    rng = np.random.default_rng(59)
    cyc = qp.make_random_analytic_cycle(2, rng, zero_energy_flat=True)
    s_lo_a = cyc.evaluate(1e-9, 0.2)
    s_lo_b = cyc.evaluate(1e-9, 0.7)
    assert np.max(np.abs(s_lo_a - s_lo_b)) < 1e-7


def test_galilean_frame_change_matches_direct_current():
    chk = qp.galilean_check(qp.TwoChannelParams(theta=0.6),
                            k_f=math.pi, xi_dot=1e-3 * math.pi, q=Q)
    assert chk.residual < 1e-5
