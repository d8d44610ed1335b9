"""Charge cumulants of pump pulses."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import qpump as qp
from qpump import counting

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()
THETA = 0.7
WINDOW = (0.0, 10.0)


def _phi(t: float) -> float:
    return TWO_PI * qp.smooth_step(t, *WINDOW)


def _phi_dot(t: float, h: float = 1e-6) -> float:
    return (_phi(t + h) - _phi(t - h)) / (2.0 * h)


def _battery_pulse() -> qp.PumpCycle:
    return qp.make_battery_cycle(qp.TwoChannelParams(theta=THETA), phi=_phi,
                                 window=WINDOW)


def test_mean_is_the_integrated_current():
    cyc = _battery_pulse()
    cold = qp.ThermalState(mu=1.0)
    mean = qp.mean_transferred_charge(cyc, cold)
    # one full phase winding moves sin^2(th) across, opposite signs
    assert abs(mean[0] - math.sin(THETA) ** 2) < 1e-8
    assert abs(mean[0] + mean[1]) < 1e-10
    np.testing.assert_allclose(mean, qp.cycle_charge(cyc, cold), atol=0.0)


def test_zero_t_shot_noise_against_closed_kernel():
    # for the battery row the overlap depends only on the phase lag, so
    # B(t, t') = sin^2(2 th) sin^2((phi(t) - phi(t')) / 2) exactly and the
    # double integral can be rebuilt from scratch: Simpson on the window,
    # the diagonal patched with the analytic limit (phi_dot / 2)^2, and
    # the constant tails folded to single integrals against 1/(t - edge).
    cyc = _battery_pulse()
    got = qp.shot_noise_zero_t(cyc, 0, 1.0)

    t0, t1 = WINDOW
    n = 2001
    ts = np.linspace(t0, t1, n)
    h = (t1 - t0) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    s2 = math.sin(2.0 * THETA) ** 2
    ph = np.array([_phi(t) for t in ts])
    b = s2 * np.sin(0.5 * (ph[:, None] - ph[None, :])) ** 2
    dt = ts[:, None] - ts[None, :]
    kern = np.zeros_like(b)
    far = np.abs(dt) > 1e-12
    kern[far] = b[far] / dt[far] ** 2
    np.fill_diagonal(kern, [s2 * (0.5 * _phi_dot(t)) ** 2 for t in ts])
    interior = float(w @ kern @ w)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(ts > t0, s2 * np.sin(0.5 * ph) ** 2 / (ts - t0), 0.0)
        right = np.where(ts < t1,
                         s2 * np.sin(0.5 * (ph - TWO_PI)) ** 2 / (t1 - ts),
                         0.0)
    tails = float(w @ left) + float(w @ right)
    oracle = (interior + 2.0 * tails) / (4.0 * math.pi ** 2)

    assert abs(got / oracle - 1.0) < 1e-6
    # pinned against drift; 8,192 nodes with lag 0 alone read
    # 0.2663712537024389
    assert abs(got - 0.266371253695161) < 1e-9


@pytest.mark.parametrize("theta, turns", [(THETA, 1), (1.1, -2)])
def test_zero_t_shot_noise_against_the_spectrum(theta, turns):
    # for a battery pulse B(t, t') = c^2 s^2 |g(t) - g(t')|^2 with
    # g = e^{i phi} - 1, which vanishes outside the window, so the variance
    # is c^2 s^2 / (4 pi^2) times the integral of |w| |g^(w)|^2 dw
    # (Levitov, Lee & Lesovik 1996).  A plain FFT of g, zero-padded to
    # 640 windows, shares no code with the kernel; its periodic images
    # bias it low by about 1e-7 at this length
    phase = lambda t: turns * TWO_PI * qp.smooth_step(t, *WINDOW)
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta), phi=phase,
                                window=WINDOW)
    got = qp.shot_noise_zero_t(cyc, 0, 1.0)

    h = (WINDOW[1] - WINDOW[0]) / 1024
    t = WINDOW[0] + h * np.arange(640 * 1024)
    g_hat = h * np.fft.fft(np.exp(1j * phase(t)) - 1.0)
    omega = TWO_PI * np.fft.fftfreq(t.size, d=h)
    d_omega = TWO_PI / (t.size * h)
    c2s2 = (math.cos(theta) * math.sin(theta)) ** 2
    spectral = c2s2 * float(np.abs(omega) @ np.abs(g_hat) ** 2) * d_omega \
        / (4.0 * math.pi ** 2)
    assert abs(got / spectral - 1.0) < 1e-6


def test_diagonal_limit_matches_finite_ratio():
    # B(t, t + d) / d^2 approaches the off-diagonal shift weight; sample
    # the cycle directly so the check is independent of the integrator
    cyc = _battery_pulse()
    t, d = 4.2, 1e-4
    row_a = cyc.sample(1.0, t)[0]
    row_b = cyc.sample(1.0, t + d)[0]
    b = 1.0 - abs(np.vdot(row_a, row_b)) ** 2
    limit = (math.sin(THETA) * math.cos(THETA) * _phi_dot(t)) ** 2
    assert abs(b / d ** 2 - limit) / (4.0 * math.pi ** 2) < 1e-6


def test_quiet_pumps_have_no_zero_t_shot_noise():
    # diagonal energy shift (optimal) or a pure overall phase (sink)
    # leaves the row direction fixed, so the kernel vanishes identically
    base = qp.TwoChannelParams(theta=THETA)
    opt = qp.make_optimal_cycle(base, phi=_phi, window=WINDOW)
    snk = qp.make_sink_cycle(base, gamma=_phi, window=WINDOW)
    assert qp.shot_noise_zero_t(opt, 0, 1.0) < 1e-8
    assert qp.shot_noise_zero_t(snk, 0, 1.0) < 1e-8


def test_zero_t_shot_noise_is_grid_stable():
    cyc = _battery_pulse()
    ref = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=1024))
    fine = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=2048))
    wide = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, eps_diag_rel=3e-3))
    assert abs(fine / ref - 1.0) < 1e-6
    assert abs(wide / ref - 1.0) < 1e-6


def test_zero_t_shot_noise_memory_grows_linearly():
    # a dense kernel on 8193 nodes would hold 537 MB in one float array;
    # the Toeplitz forms keep a few arrays of length 2N
    cyc = _battery_pulse()
    coarse = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=4096))
    tracemalloc.start()
    try:
        fine = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert abs(fine / coarse - 1.0) < 1e-6


def test_random_pulse_regression():
    # 8,192 nodes with lag 0 alone read 0.0447319952113681
    rng = np.random.default_rng(7)
    cyc = qp.make_pulse_cycle(3, rng)
    assert abs(qp.shot_noise_zero_t(cyc, 1, 0.9) - 0.0447319951993651) < 1e-9


@pytest.mark.parametrize("pulse, channel, mu", [
    (_battery_pulse, 0, 1.0),
    (lambda: qp.make_pulse_cycle(3, np.random.default_rng(7)), 1, 0.9)])
def test_default_zero_t_grid_matches_a_fine_one(pulse, channel, mu):
    # B vanishes to second order on the diagonal, so only coincident
    # nodes take the limit; a band reaching lag 1 costs about 3e-8 here,
    # and at 32,768 nodes, where a band of 1e-4 does reach it, 3.5e-12
    assert Q.eps_diag_rel * (Q.n_shot_time + Q.n_shot_time % 2) < 1.0
    assert Q.eps_diag_rel * 2 ** 20 < 1.0
    cyc = pulse()
    got = qp.shot_noise_zero_t(cyc, channel, mu)
    want = qp.shot_noise_zero_t(cyc, channel, mu, replace(Q, n_shot_time=8192))
    assert abs(got / want - 1.0) < 1e-9
    dense = qp.shot_noise_zero_t(cyc, channel, mu,
                                 replace(Q, n_shot_time=32768))
    assert abs(dense - want) < 2e-12


def test_finite_t_shot_noise_closed_form():
    # beta / (12 pi) sin^2 cos^2 th * integral phi_dot^2, by scipy quad
    cyc = _battery_pulse()
    state = qp.ThermalState(mu=1.0, temperature=12.0)
    got = qp.shot_noise_finite_t(cyc, 0, state)
    intg, err = quad(lambda t: _phi_dot(t) ** 2, *WINDOW, limit=200)
    assert err < 1e-6  # flat C-infinity edges make quad conservative
    want = state.beta / (12.0 * math.pi) \
        * (math.sin(THETA) * math.cos(THETA)) ** 2 * intg
    assert abs(got / want - 1.0) < 1e-7


def test_finite_t_shot_noise_integrates_the_noise_current():
    cyc = _battery_pulse()
    state = qp.ThermalState(mu=1.0, temperature=12.0)
    got = qp.shot_noise_finite_t(cyc, 0, state)
    times, dt = qp.midpoint_grid(*WINDOW, Q.n_time)
    summed = sum(qp.noise_current(cyc, t, state)[0] for t in times) * dt
    assert abs(got - summed) < 1e-10


def test_thermal_noise_closed_form_and_scaling():
    # battery: 1 - |S_00|^2 = sin^2 th at every time, so the exchange
    # part is T / pi * sin^2 th * span and is linear in T
    cyc = _battery_pulse()
    span = WINDOW[1] - WINDOW[0]
    for temp in (3.0, 12.0):
        state = qp.ThermalState(mu=1.0, temperature=temp)
        want = temp / math.pi * math.sin(THETA) ** 2 * span
        assert abs(qp.thermal_noise(cyc, 0, state) - want) < 1e-10
    assert qp.thermal_noise(cyc, 0, qp.ThermalState(mu=1.0)) == 0.0


def test_direct_cumulant_matches_thermal_plus_shot():
    cyc = _battery_pulse()
    state = qp.ThermalState(mu=1.0, temperature=12.0)
    rep = qp.noise_report(cyc, 0, state, include_direct=True)
    assert rep.direct is not None
    assert abs(rep.direct / rep.total - 1.0) < 1e-6
    assert abs(rep.total - rep.thermal - rep.shot) < 1e-14


@pytest.mark.parametrize("make", [_battery_pulse,
                                  lambda: qp.make_pulse_cycle(
                                      3, np.random.default_rng(7), WINDOW)])
def test_noise_report_matches_the_standalone_cumulants(make):
    # the report takes the mean, the thermal and the shot part from one
    # stencil, and adds the direct cumulant's two-time term to that
    # thermal part
    cyc = make()
    state = qp.ThermalState(mu=1.0, temperature=12.0)
    rep = qp.noise_report(cyc, 1, state, include_direct=True)
    assert rep.mean == qp.mean_transferred_charge(cyc, state)[1]
    assert rep.thermal == qp.thermal_noise(cyc, 1, state)
    assert rep.shot == qp.shot_noise_finite_t(cyc, 1, state)
    assert rep.direct == qp.second_cumulant_direct(cyc, 1, state)


def test_noise_report_zero_t_is_pure_shot():
    cyc = _battery_pulse()
    rep = qp.noise_report(cyc, 0, qp.ThermalState(mu=1.0))
    assert rep.thermal == 0.0
    assert rep.total == rep.shot
    assert abs(rep.shot - qp.shot_noise_zero_t(cyc, 0, 1.0)) < 1e-15
    assert rep.direct is None


def test_cumulants_reject_cycles_without_a_window():
    periodic = qp.make_battery_cycle(qp.TwoChannelParams(theta=THETA),
                                     phi=lambda t: TWO_PI * t, period=1.0)
    cold = qp.ThermalState(mu=1.0)
    with pytest.raises(qp.NonPulseCycle, match="with a window"):
        qp.shot_noise_zero_t(periodic, 0, 1.0)
    with pytest.raises(qp.NonPulseCycle, match="with a window"):
        qp.thermal_noise(periodic, 0, qp.ThermalState(mu=1.0, temperature=2.0))
    with pytest.raises(qp.NonPulseCycle, match="with a window"):
        qp.thermal_noise(periodic, 0, cold)
    with pytest.raises(qp.NonPulseCycle, match="with a window"):
        qp.mean_transferred_charge(periodic, cold)


def test_noise_report_has_one_time_domain():
    # a period next to the window used to put the mean on [0, period]
    # and the variance on the window
    with pytest.raises(ValueError, match="not both"):
        qp.make_battery_cycle(qp.TwoChannelParams(theta=THETA), phi=_phi,
                              period=5.0, window=WINDOW)


COLD = qp.ThermalState(mu=1.0)
HOT = qp.ThermalState(mu=1.0, temperature=0.5)
# every counting entry point, at each temperature that it accepts
GATED = {
    "mean_transferred_charge": (
        lambda cyc, st: qp.mean_transferred_charge(cyc, st), (COLD, HOT)),
    "thermal_noise": (lambda cyc, st: qp.thermal_noise(cyc, 0, st),
                      (COLD, HOT)),
    "shot_noise_finite_t": (
        lambda cyc, st: qp.shot_noise_finite_t(cyc, 0, st), (HOT,)),
    "shot_noise_zero_t": (
        lambda cyc, st: qp.shot_noise_zero_t(cyc, 0, st.mu), (COLD,)),
    "second_cumulant_direct": (
        lambda cyc, st: qp.second_cumulant_direct(cyc, 0, st), (HOT,)),
    "noise_report": (lambda cyc, st: qp.noise_report(cyc, 0, st),
                     (COLD, HOT)),
    "noise_report-direct": (
        lambda cyc, st: qp.noise_report(cyc, 0, st, include_direct=True),
        (HOT,)),
}


def test_non_settling_pulses_are_rejected():
    base = qp.TwoChannelParams(theta=THETA)
    # half a winding leaves different matrices on the two sides
    torn = qp.make_battery_cycle(
        base, phi=lambda t: math.pi * qp.smooth_step(t, *WINDOW),
        window=WINDOW)
    # still ramping past the declared window
    drifting = qp.make_battery_cycle(base, phi=lambda t: 0.1 * t,
                                     window=WINDOW)
    for cyc, why in ((torn, "does not settle"), (drifting, "still moving")):
        for name, (call, states) in GATED.items():
            for state in states:
                with pytest.raises(qp.NonPulseCycle, match=why):
                    call(cyc, state)


def test_every_counting_entry_checks_the_pulse_once(monkeypatch):
    calls = []
    check = counting._check_pulse

    def counted(cyc, mu):
        calls.append(mu)
        return check(cyc, mu)

    monkeypatch.setattr(counting, "_check_pulse", counted)
    cyc = _battery_pulse()
    for name, (call, states) in GATED.items():
        for state in states:
            calls.clear()
            call(cyc, state)
            assert calls == [state.mu], (name, state)


def test_finite_t_paths_demand_a_temperature():
    cyc = _battery_pulse()
    cold = qp.ThermalState(mu=1.0)
    with pytest.raises(qp.ZeroTemperature):
        qp.shot_noise_finite_t(cyc, 0, cold)
    with pytest.raises(qp.ZeroTemperature):
        qp.second_cumulant_direct(cyc, 0, cold)
    with pytest.raises(qp.ZeroTemperature):
        qp.noise_report(cyc, 0, cold, include_direct=True)
    # refused before any work: a cycle without a window would fail later
    periodic = qp.make_battery_cycle(qp.TwoChannelParams(theta=THETA),
                                     phi=lambda t: TWO_PI * t, period=1.0)
    with pytest.raises(qp.ZeroTemperature):
        qp.noise_report(periodic, 0, cold, include_direct=True)


WARM = qp.ThermalState(mu=1.0, temperature=2.0)
CHANNEL_READERS = {
    "thermal_noise": lambda cyc, ch: qp.thermal_noise(cyc, ch, WARM),
    "shot_noise_finite_t": lambda cyc, ch: qp.shot_noise_finite_t(cyc, ch,
                                                                  WARM),
    "shot_noise_zero_t": lambda cyc, ch: qp.shot_noise_zero_t(cyc, ch, 1.0),
    "second_cumulant_direct": lambda cyc, ch: qp.second_cumulant_direct(
        cyc, ch, WARM),
    "noise_report": lambda cyc, ch: qp.noise_report(cyc, ch, WARM),
    "amplitude_winding": lambda _, ch: qp.amplitude_winding(
        qp.make_pump(qp.ModelSpec("uturn")), ch, 1.0),
}


@pytest.mark.parametrize("channel", [-1, 2])
@pytest.mark.parametrize("reader", sorted(CHANNEL_READERS))
def test_channel_out_of_range_is_rejected(reader, channel):
    with pytest.raises(ValueError, match="channel"):
        CHANNEL_READERS[reader](_battery_pulse(), channel)
