"""Release gate: every promised numerical guarantee at its stated bound.

One test per guarantee; `pytest -v` then reads as the checklist.  The
tolerances here are contractual, do not loosen them to make a failure
go away.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

import qpump as qp

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()
COLD = qp.ThermalState(mu=TWO_PI ** 2 / 8.0, temperature=0.0)  # k_F = pi/2


def _battery_pulse(theta: float = 0.7,
                   window: tuple = (0.0, 10.0)) -> qp.PumpCycle:
    return qp.make_battery_cycle(
        qp.TwoChannelParams(theta=theta),
        phi=lambda t: TWO_PI * qp.smooth_step(t, *window), window=window)


def test_c01_uturn_charge_is_quantized_and_winding_matches():
    tic = time.monotonic()
    for sign in (1.0, -1.0):
        cyc = qp.make_uturn_cycle(ell=1.0,
                                  flux=lambda t, s=sign: s * TWO_PI * t,
                                  period=1.0)
        charge = qp.cycle_charge(cyc, qp.ThermalState(mu=1.0), Q)
        assert abs(charge[0] + sign) < 1e-6
        assert abs(charge[1] - sign) < 1e-6
        assert qp.amplitude_winding(cyc, 0, 1.0, Q) == int(sign)
    assert time.monotonic() - tic < 1.0


def test_c02_two_channel_currents_match_closed_forms():
    k_mu = math.sqrt(2.0 * COLD.mu)
    theta = 0.6
    plow = qp.make_snowplow_cycle(qp.TwoChannelParams(theta=theta),
                                  xi=lambda t: 0.04 * math.sin(TWO_PI * t),
                                  period=1.0)
    battery = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta),
                                    phi=lambda t: TWO_PI * t, period=1.0)
    sink = qp.make_sink_cycle(qp.TwoChannelParams(theta=theta),
                              gamma=lambda t: TWO_PI * t, period=1.0)
    for t0 in (0.11, 0.42, 0.83):
        alpha_dot = 2.0 * k_mu * 0.04 * TWO_PI * math.cos(TWO_PI * t0)
        got = qp.bpt_current(plow, t0, COLD, Q)
        assert abs(got[0] + math.cos(theta) ** 2 * alpha_dot / TWO_PI) < 1e-8
        assert abs(got[1] - math.cos(theta) ** 2 * alpha_dot / TWO_PI) < 1e-8
        got = qp.bpt_current(battery, t0, COLD, Q)
        assert abs(got[0] - math.sin(theta) ** 2) < 1e-8
        assert abs(got[1] + math.sin(theta) ** 2) < 1e-8
        got = qp.bpt_current(sink, t0, COLD, Q)
        assert np.max(np.abs(got + 1.0)) < 1e-8


def test_c03_bicycle_pumps_near_integer_charge_with_resonances():
    tic = time.monotonic()
    for length, n in ((1.0, 1), (2.0, 2)):
        geo = qp.BicycleGeometry(length=length)
        charge = qp.cycle_charge(qp.make_bicycle_cycle(geo),
                                 qp.ThermalState(mu=1.0), Q)
        assert abs(abs(charge[0]) - n) / n < 0.05
        assert abs(charge[0] + charge[1]) < 1e-6
        assert len(qp.reflectionless_points(geo)) >= n
    assert time.monotonic() - tic < 30.0


def test_c04_spectral_flow_sum_rule_on_random_cycles():
    rng = np.random.default_rng(101)
    state = qp.ThermalState(mu=1.3)
    for n_ch, reps in ((2, 7), (3, 7), (4, 6)):
        for _ in range(reps):
            cyc = qp.make_random_analytic_cycle(n_ch, rng)
            assert qp.birman_krein_residual(cyc, state, Q) < 1e-8


def test_c05_curvature_identity_and_second_order_convergence():
    rng = np.random.default_rng(7)
    for n_ch in (2, 3):
        cyc = qp.make_random_analytic_cycle(n_ch, rng)
        ident = qp.curvature_identity(cyc, 1.3, 0.4, Q)
        assert ident.residual < 1e-6
        assert ident.residual_mixed < 1e-6
    # step halving above the roundoff floor cuts the residual ~4x
    cyc = qp.make_random_analytic_cycle(2, np.random.default_rng(11))
    coarse = qp.curvature_identity(
        cyc, 1.1, 0.3, replace(Q, h_e_rel=8e-3, h_t_rel=8e-3)).residual
    fine = qp.curvature_identity(
        cyc, 1.1, 0.3, replace(Q, h_e_rel=4e-3, h_t_rel=4e-3)).residual
    assert 3.0 < coarse / fine < 5.5


def test_c06_dissipation_bounds_current_and_optimal_pump_saturates():
    rng = np.random.default_rng(17)
    state = qp.ThermalState(mu=1.1)
    for _ in range(50):
        cyc = qp.make_random_analytic_cycle(2, rng)
        t0 = rng.uniform(0.0, 1.0)
        cur = qp.bpt_current(cyc, t0, state, Q)
        dis = qp.dissipation_current(cyc, t0, state, Q)
        assert np.all(dis >= math.pi * cur ** 2 - 1e-10)
    opt = qp.make_optimal_cycle(qp.TwoChannelParams(theta=0.8),
                                phi=lambda t: TWO_PI * t, period=1.0)
    cur = qp.bpt_current(opt, 0.35, state, Q)
    dis = qp.dissipation_current(opt, 0.35, state, Q)
    assert np.max(np.abs(dis - math.pi * cur ** 2)) < 1e-8


def test_c07_patch_flux_telescopes_and_cylinder_matches_line_integral():
    rng = np.random.default_rng(31)
    for _ in range(10):
        assert qp.stokes_residual(qp.random_smooth_patch(rng, dim=2)) < 1e-6
    for seed in (2, 5, 11):
        cyc = qp.make_random_analytic_cycle(
            2, np.random.default_rng(seed), zero_energy_flat=True)
        direct = qp.cycle_charge(cyc, qp.ThermalState(mu=0.8), Q)[0]
        assert abs(qp.cylinder_charge(cyc, 0, 0.8, Q) - direct) < 1e-4


def test_c08_entropy_and_noise_currents_with_exact_weights():
    val_h, _ = quad(qp.entropy_weight, 0.0, 1.0)
    val_n, _ = quad(qp.noise_weight, 0.0, 1.0)
    assert abs(val_h - 0.5) < 1e-10
    assert abs(val_n - 1.0 / 6.0) < 1e-10
    theta = 0.7
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta),
                                phi=lambda t: TWO_PI * t, period=1.0)
    state = qp.ThermalState(mu=1.0, temperature=2.0)
    off_sq = (TWO_PI * math.sin(theta) * math.cos(theta)) ** 2
    fine = replace(Q, richardson=True)
    ent = qp.entropy_current(cyc, 0.3, state, fine)
    noi = qp.noise_current(cyc, 0.3, state, fine)
    assert abs(ent[0] - state.beta / (2.0 * TWO_PI) * off_sq) < 1e-10
    assert abs(noi[0] - state.beta / (6.0 * TWO_PI) * off_sq) < 1e-10


def test_c09_finite_t_noise_split_closes_and_matches_direct():
    cyc = _battery_pulse()
    state = qp.ThermalState(mu=1.0, temperature=12.0)
    shot = qp.shot_noise_finite_t(cyc, 0, state)
    times, dt = qp.midpoint_grid(0.0, 10.0, Q.n_time)
    summed = sum(qp.noise_current(cyc, t, state)[0] for t in times) * dt
    assert abs(shot - summed) < 1e-10
    rep = qp.noise_report(cyc, 0, state, include_direct=True)
    assert abs(rep.direct / rep.total - 1.0) < 1e-6


def test_c10_zero_t_shot_noise_kernel_limits_and_stability():
    tic = time.monotonic()
    base = qp.TwoChannelParams(theta=0.7)
    window = (0.0, 10.0)
    ramp = lambda t: TWO_PI * qp.smooth_step(t, *window)
    opt = qp.make_optimal_cycle(base, phi=ramp, window=window)
    snk = qp.make_sink_cycle(base, gamma=ramp, window=window)
    assert qp.shot_noise_zero_t(opt, 0, 1.0) < 1e-8
    assert qp.shot_noise_zero_t(snk, 0, 1.0) < 1e-8

    cyc = _battery_pulse()
    t0, d = 4.2, 1e-4
    row_a = cyc.sample(1.0, t0)[0]
    row_b = cyc.sample(1.0, t0 + d)[0]
    b = 1.0 - abs(np.vdot(row_a, row_b)) ** 2
    phi_dot = (TWO_PI * (qp.smooth_step(t0 + 5e-7, *window)
                         - qp.smooth_step(t0 - 5e-7, *window)) / 1e-6)
    limit = (math.sin(0.7) * math.cos(0.7) * phi_dot) ** 2
    assert abs(b / d ** 2 - limit) / (4.0 * math.pi ** 2) < 1e-6

    ref = qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=1024))
    assert abs(qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, n_shot_time=2048))
               / ref - 1.0) < 1e-6
    assert abs(qp.shot_noise_zero_t(cyc, 0, 1.0, replace(Q, eps_diag_rel=3e-3))
               / ref - 1.0) < 1e-6
    assert time.monotonic() - tic < 60.0


def test_c11_classical_partition_and_charge_routes():
    spec = qp.PlowSpec(height=1.0, speed=0.01, travel_time=10.0)
    rng = np.random.default_rng(5)
    n = 10_000
    energies = rng.uniform(0.2, 3.0, size=n)
    times = rng.uniform(-20.0, 20.0, size=n)
    channels = rng.integers(0, 2, size=n)
    assert qp.partition_disagreements(spec, energies, times, channels) == 0
    # piston regime: everything at the Fermi level reflects on both sides
    mu = 0.5
    q_bpt = qp.plow_charge_bpt(spec, mu)
    q_direct = qp.plow_charge_direct(spec, mu)
    assert float(np.max(np.abs(q_bpt - q_direct) / np.abs(q_direct))) < 0.05
    assert q_direct[0] < 0.0 < q_direct[1]
    for dphi in (0.1, -0.25):
        res = qp.classical_battery_shift(dphi, 0.9)
        assert abs((res.energy_out - res.energy_in) + dphi) < 1e-8


def test_c12_galilean_frame_change_reproduces_the_current():
    chk = qp.galilean_check(qp.TwoChannelParams(theta=0.6),
                            k_f=math.pi, xi_dot=1e-3 * math.pi, q=Q)
    assert chk.residual < 1e-5
