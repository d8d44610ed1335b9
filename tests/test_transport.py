"""Thermally weighted currents and cycle integrals."""
from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

import qpump as qp
from qpump.models import ModelSpec, make_pump
from qpump.transport import _thermal_average

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()
COLD = qp.ThermalState(mu=TWO_PI ** 2 / 8.0, temperature=0.0)  # k_F = pi/2


def test_weight_functions_integrate_to_known_constants():
    val_h, err_h = quad(qp.entropy_weight, 0.0, 1.0)
    val_n, err_n = quad(qp.noise_weight, 0.0, 1.0)
    assert err_h < 1e-11 and err_n < 1e-11
    assert abs(val_h - 0.5) < 1e-10
    assert abs(val_n - 1.0 / 6.0) < 1e-10


def test_fermi_weight_limits():
    cold = qp.ThermalState(mu=1.0, temperature=0.0)
    assert qp.fermi_weight(0.5, cold) == 1.0
    assert qp.fermi_weight(1.5, cold) == 0.0
    assert qp.fermi_weight(1.0, cold) == 0.5
    warm = qp.ThermalState(mu=1.0, temperature=0.25)
    assert abs(qp.fermi_weight(1.5, warm) - expit(-2.0)) < 1e-14
    with pytest.raises(qp.ZeroTemperature):
        qp.fermi_derivative(1.0, cold)


def test_fermi_weight_matches_expit_where_exp_overflows():
    # (E - mu) beta spans [-800, 800]; exp overflows past 709.8
    warm = qp.ThermalState(mu=1.0, temperature=0.25)
    energies = np.linspace(-199.0, 201.0, 400_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qp.fermi_weight(energies, warm)
    want = expit(-(energies - warm.mu) * warm.beta)
    assert np.max(np.abs(got - want)) <= 2.3e-16
    assert got[0] == 1.0 and got[-1] == 0.0
    assert qp.fermi_weight(warm.mu, warm) == 0.5


def test_snowplow_current_closed_form():
    # moving the scatterer adds 2 k xi to the reflection phase; at T=0
    # channel 0 carries -cos^2(th) alpha_dot / 2 pi and channel 1 the
    # opposite.
    theta = 0.6
    xi_amp = 0.04
    cyc = qp.make_snowplow_cycle(qp.TwoChannelParams(theta=theta),
                                 xi=lambda t: xi_amp * math.sin(TWO_PI * t),
                                 period=1.0)
    k_mu = math.sqrt(2.0 * COLD.mu)
    for t0 in (0.08, 0.31, 0.77):
        alpha_dot = 2.0 * k_mu * xi_amp * TWO_PI * math.cos(TWO_PI * t0)
        want = math.cos(theta) ** 2 * alpha_dot / TWO_PI
        got = qp.bpt_current(cyc, t0, COLD, Q)
        assert abs(got[0] + want) < 1e-8
        assert abs(got[1] - want) < 1e-8


def test_battery_current_closed_form():
    theta = 0.7
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta),
                                phi=lambda t: TWO_PI * t, period=1.0)
    want = math.sin(theta) ** 2 * TWO_PI / TWO_PI
    got = qp.bpt_current(cyc, 0.4, COLD, Q)
    assert abs(got[0] - want) < 1e-8
    assert abs(got[1] + want) < 1e-8


def test_sink_current_closed_form():
    # a pure overall phase drains both channels at the same rate
    cyc = qp.make_sink_cycle(qp.TwoChannelParams(theta=0.9),
                             gamma=lambda t: TWO_PI * t, period=1.0)
    got = qp.bpt_current(cyc, 0.2, COLD, Q)
    assert np.max(np.abs(got + 1.0)) < 1e-8


def test_entropy_and_noise_currents_analytic():
    """Both are (beta / 2 pi k) |shift_01|^2 with k = 2 and 6."""
    theta = 0.7
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta),
                                phi=lambda t: TWO_PI * t, period=1.0)
    state = qp.ThermalState(mu=1.0, temperature=2.0)
    beta = 1.0 / state.temperature
    off_sq = (TWO_PI * math.sin(theta) * math.cos(theta)) ** 2
    fine = replace(Q, richardson=True)
    ent = qp.entropy_current(cyc, 0.3, state, fine)
    noi = qp.noise_current(cyc, 0.3, state, fine)
    assert abs(ent[0] - beta / (2.0 * TWO_PI) * off_sq) < 1e-10
    assert abs(noi[0] - beta / (6.0 * TWO_PI) * off_sq) < 1e-10
    # and they require an actual temperature
    with pytest.raises(qp.ZeroTemperature):
        qp.entropy_current(cyc, 0.3, COLD, Q)
    with pytest.raises(qp.ZeroTemperature):
        qp.noise_current(cyc, 0.3, COLD, Q)


def test_dissipation_dominates_square_of_current():
    rng = np.random.default_rng(17)
    state = qp.ThermalState(mu=1.1, temperature=0.0)
    for _ in range(10):
        cyc = qp.make_random_analytic_cycle(2, rng)
        for t0 in (0.1, 0.6):
            cur = qp.bpt_current(cyc, t0, state, Q)
            dis = qp.dissipation_current(cyc, t0, state, Q)
            assert np.all(dis >= math.pi * cur ** 2 - 1e-10)


def test_optimal_cycle_saturates_dissipation():
    rate = TWO_PI
    cyc = qp.make_optimal_cycle(qp.TwoChannelParams(theta=0.8),
                                phi=lambda t: rate * t, period=1.0)
    state = qp.ThermalState(mu=2.0, temperature=0.0)
    cur = qp.bpt_current(cyc, 0.35, state, Q)
    dis = qp.dissipation_current(cyc, 0.35, state, Q)
    assert np.max(np.abs(dis - math.pi * cur ** 2)) < 1e-8
    assert np.max(np.abs(np.abs(cur) - rate / TWO_PI)) < 1e-8


def test_thermal_nodes_honor_odd_counts():
    state = qp.ThermalState(mu=1.0, temperature=0.1)
    for n in (16, 17):
        nodes, weights = qp.thermal_energy_nodes(state,
                                                 replace(Q, n_energy=n))
        assert nodes.size == weights.size == n


@pytest.mark.parametrize("mu, h_e_rel", [(1e-3, 1e-3), (1e-5, 1e-5)])
def test_thermal_lower_panel_never_reaches_above_mu(mu, h_e_rel):
    # the band-bottom floor 10 h_e lies above mu here: the lower panel
    # loses its weight instead of running from the floor back down to mu
    state = qp.ThermalState(mu=mu, temperature=0.1)
    q = replace(Q, h_e_rel=h_e_rel)
    nodes, weights = qp.thermal_energy_nodes(state, q)
    assert np.all(nodes[:q.n_energy // 2] <= mu)
    assert np.all(-qp.fermi_derivative(nodes, state) * weights >= 0.0)


def test_thermal_average_loses_weight_below_band_bottom():
    # with T comparable to mu the Fermi derivative sticks out below the
    # band bottom; the missing weight is f(floor) - f(top), not 1.
    theta = 0.7
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta),
                                phi=lambda t: TWO_PI * t, period=1.0)
    state = qp.ThermalState(mu=1.0, temperature=8.0)
    charge = qp.cycle_charge(cyc, state, Q)
    nodes, weights = qp.thermal_energy_nodes(state, Q)
    covered = float(np.sum(weights * (-np.array(
        [qp.fermi_derivative(e, state) for e in nodes]))))
    assert covered < 0.6  # most of the derivative is cut off here
    assert abs(charge[0] - math.sin(theta) ** 2 * covered) < 1e-9
    cold_charge = qp.cycle_charge(cyc, COLD, Q)
    assert abs(cold_charge[0] - math.sin(theta) ** 2) < 1e-8


def _thermal_average_loop(values, mass):
    # the reference order: start from +0.0, add node after node
    total = np.zeros(values.shape[:1] + values.shape[2:])
    for k in range(mass.size):
        total += mass[k] * values[:, k]
    return total


@pytest.mark.parametrize("shape", [(1, 64), (8, 64), (64, 64), (5, 1),
                                   (1, 64, 1), (64, 64, 2), (3, 17, 3),
                                   (0, 64)])
@pytest.mark.parametrize("zero_stride", [False, True])
def test_thermal_average_adds_node_by_node(shape, zero_stride):
    # bit-equal to the loop for one time and one channel too, where
    # numpy's sum(axis=0) would switch to pairwise summation
    rng = np.random.default_rng(sum(shape) + zero_stride)
    mass = rng.random(shape[1])
    for _ in range(20):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -8, 8, size=shape)
        if zero_stride:     # an energy-independent S, broadcast over energy
            values = np.broadcast_to(values[:, :1], shape)
        got = _thermal_average(values, mass)
        ref = _thermal_average_loop(values, mass)
        assert got.shape == ref.shape and np.array_equal(got, ref)
        assert np.array_equal(got, _thermal_average(np.array(values), mass))
    zeros = np.broadcast_to(-0.0, shape) if zero_stride else np.full(shape,
                                                                     -0.0)
    got = _thermal_average(zeros, mass)
    assert np.array_equal(np.signbit(got), np.signbit(
        _thermal_average_loop(zeros, mass)))
    assert not np.any(np.signbit(got))


def test_sum_rule_on_sink():
    # total charge rate equals the determinant phase rate over -2 pi:
    # for a pure sink both sides are -gamma_dot / pi.
    cyc = qp.make_sink_cycle(qp.TwoChannelParams(theta=0.4),
                             gamma=lambda t: TWO_PI * t, period=1.0)
    state = qp.ThermalState(mu=1.5, temperature=0.0)
    assert qp.birman_krein_residual(cyc, state, Q) < 1e-10
    rate = qp.det_phase_rate(cyc, state.mu, 0.3, replace(Q, richardson=True))
    assert abs(rate - 2.0 * TWO_PI) < 1e-8


def test_sum_rule_on_random_cycles():
    rng = np.random.default_rng(23)
    state = qp.ThermalState(mu=1.3, temperature=0.0)
    for n in (2, 3):
        cyc = qp.make_random_analytic_cycle(n, rng)
        assert qp.birman_krein_residual(cyc, state, Q) < 1e-8


def test_transport_report_is_consistent():
    rng = np.random.default_rng(29)
    cyc = qp.make_random_analytic_cycle(2, rng)
    state = qp.ThermalState(mu=1.0, temperature=0.0)
    rep = qp.transport_report(cyc, state, Q)
    assert np.max(np.abs(rep.charges - qp.cycle_charge(cyc, state, Q))) < 1e-12
    assert np.all(rep.heat >= -1e-12)
    assert rep.bk_residual < 1e-8
    assert rep.charges.shape == (2,)


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("temperature", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["snowplow", "battery", "sink",
                                  "custom-two-channel", "bicycle"])
def test_report_sum_rule_equals_birman_krein_residual_bit_for_bit(
        kind, temperature, richardson):
    # the report reads the sum rule off its sweep's samples (mu appended
    # at finite temperature, half steps added at eight of its times) and
    # must give the standalone residual's number at those times
    params = {"custom-two-channel": {"theta_base": 0.7, "theta_amp": 0.3,
                                     "alpha_amp": 0.4, "phi_amp": 1.0,
                                     "gamma_amp": 0.2}}.get(kind, {})
    cyc = make_pump(ModelSpec(kind, params))
    state = qp.ThermalState(mu=1.0, temperature=temperature)
    q = replace(Q, n_time=32, n_energy=16, richardson=richardson)
    rep = qp.transport_report(cyc, state, q)
    every = q.n_time // 8
    want = qp.birman_krein_residual(cyc, state, q, rep.times[::every])
    assert rep.bk_residual == want
    assert 0.0 <= want < 1e-8


@pytest.mark.parametrize("temperature", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["random", "battery"])
def test_point_currents_equal_the_report_rates_bit_for_bit(kind, temperature):
    # every current reads the same kind of sweep of the shift, so a point
    # function at a node of the report's grid gives the report's numbers
    if kind == "random":
        cyc = qp.make_random_analytic_cycle(2, np.random.default_rng(31))
    else:
        cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=0.9),
                                    phi=lambda t: TWO_PI * t, period=1.0)
    state = qp.ThermalState(mu=1.0, temperature=temperature)
    q = replace(Q, n_time=16)
    rep = qp.transport_report(cyc, state, q)
    assert np.array_equal(qp.cycle_charge(cyc, state, q), rep.charges)
    for k in (0, 5, 15):
        t = rep.times[k]
        assert np.array_equal(qp.bpt_current(cyc, t, state, q),
                              rep.charge_rate[k])
        assert np.array_equal(qp.dissipation_current(cyc, t, state, q),
                              rep.dissipation_rate[k])
        if temperature > 0.0:
            assert np.array_equal(qp.entropy_current(cyc, t, state, q),
                                  rep.entropy_rate[k])
            assert np.array_equal(qp.noise_current(cyc, t, state, q),
                                  rep.noise_rate[k])
