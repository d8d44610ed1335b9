"""Grid sampling and the stencil kernel.

`PumpCycle.sample_grid` must reproduce the per-point `evaluate` whether a
cycle brings its own `evaluate_grid` or falls back to the point loop, and
the grid kernel must agree with the per-point differential data.  A
cycle whose grid broadcasts one matrix per time over the energies is
differenced at one energy, bit-equal to the same cycle sampled densely.
"""
from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import qpump as qp
from qpump.cli import build_pulse
from qpump.models import MODEL_KINDS, ModelSpec, make_pump
from qpump.smatrix import stencil, two_channel_matrices

Q = qp.QuadratureSpec()
ENERGIES = np.array([0.4, 1.0, 2.5])
TIMES = np.array([0.05, 0.3, 0.61, 0.9])

# non-default drives where the defaults leave a model static in some angle
PARAMS = {"custom-two-channel": {"theta_base": 0.7, "theta_amp": 0.3,
                                 "alpha_amp": 0.4, "phi_amp": 1.0,
                                 "gamma_amp": 0.2}}


def _pointwise(cycle: qp.PumpCycle, energies, times) -> np.ndarray:
    return np.array([[cycle.evaluate(e, t) for e in energies] for t in times])


def _random_unitary(e: float, t: float) -> np.ndarray:
    h = np.array([[math.cos(t), e + 1j * math.sin(2.0 * t)],
                  [e - 1j * math.sin(2.0 * t), -math.cos(t)]])
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_sample_grid_matches_pointwise_evaluate(kind):
    cycle = make_pump(ModelSpec(kind, PARAMS.get(kind, {})))
    assert cycle.evaluate_grid is not None
    grid = cycle.sample_grid(ENERGIES, TIMES)
    assert grid.shape == (TIMES.size, ENERGIES.size, 2, 2)
    assert np.max(np.abs(grid - _pointwise(cycle, ENERGIES, TIMES))) <= 1e-15
    assert cycle.evaluate(1.0, 0.3).flags.writeable


def test_bicycle_grid_equals_point_loop_bitwise():
    # times straddle the corners of the (a, b) path, 1e-6 on either side
    cycle = qp.make_bicycle_cycle(qp.BicycleGeometry(length=1.37),
                                  period=0.7)
    assert cycle.evaluate_grid is not None
    corners = 0.7 * np.array([0.25, 0.5, 0.75])
    times = np.concatenate([corners - 1e-6, corners + 1e-6, [0.7 - 1e-6]])
    energies = np.array([0.3, 0.7, 1.0, 1.4, 2.0])
    grid = cycle.sample_grid(energies, times)
    assert grid.shape == (7, 5, 2, 2)
    assert np.array_equal(grid, _pointwise(cycle, energies, times))


def test_random_cycles_take_the_grid_path():
    rng = np.random.default_rng(5)
    cycles = [qp.make_random_analytic_cycle(n, rng, zero_energy_flat=flat)
              for n in (1, 2, 3, 4) for flat in (False, True)]
    cycles += [qp.make_pulse_cycle(n, rng, window=(0.0, 1.0))
               for n in (1, 2, 3)]
    energies = np.array([0.0, 0.4, 1.0, 2.5])
    for cycle in cycles:
        assert cycle.evaluate_grid is not None
        grid = cycle.sample_grid(energies, TIMES)
        assert np.array_equal(grid, _pointwise(cycle, energies, TIMES))


def _built_in_cycles() -> dict[str, qp.PumpCycle]:
    rng = np.random.default_rng(5)
    cycles = {kind: make_pump(ModelSpec(kind, PARAMS.get(kind, {})))
              for kind in MODEL_KINDS}
    cycles["random-analytic"] = qp.make_random_analytic_cycle(3, rng)
    cycles["pulse"] = qp.make_pulse_cycle(3, rng, window=(0.0, 1.0))
    return cycles


@pytest.mark.parametrize("name", ["snowplow", "battery", "sink", "optimal",
                                  "custom-two-channel", "uturn", "bicycle",
                                  "random-analytic", "pulse"])
def test_grid_entries_do_not_depend_on_the_rest_of_the_grid(name):
    # transport_report takes the sum rule from its sweep's samples, which
    # carry more times and one more energy than birman_krein_residual
    # asks for; the two agree bit for bit only because S at (t, E) is
    # the same whatever else the grid holds
    cycle = _built_in_cycles()[name]
    assert cycle.evaluate_grid is not None
    rng = np.random.default_rng(17)
    t0, t1 = cycle.window or (0.0, cycle.period)
    times = t0 + (t1 - t0) * rng.uniform(size=37)
    times = np.concatenate([times, times[:8] + 1e-5, times[:8] - 1e-5])
    energies = np.sort(rng.uniform(0.3, 2.5, size=11))
    full = np.asarray(cycle.evaluate_grid(energies, times))
    for rows, cols in [(slice(None, None, 5), slice(None)),
                       (slice(3, 4), slice(None)),
                       (slice(None), slice(2, 3)),
                       (slice(7, 8), slice(4, 5)),
                       (slice(None, None, -1), slice(None, None, -1)),
                       (slice(40, 50), slice(0, 10))]:
        part = cycle.evaluate_grid(energies[cols], times[rows])
        assert np.array_equal(part, full[rows][:, cols]), (rows, cols)


@pytest.mark.parametrize("kind", ["battery", "snowplow"])
def test_gauged_phase_models_keep_the_grid_path(kind):
    cycle = make_pump(ModelSpec(kind))
    gauged = qp.apply_gauge_and_fiducial(cycle, shifts=np.array([0.3, -0.1]),
                                         phases=np.array([1.0, -2.0]))
    assert gauged.evaluate_grid is not None
    grid = gauged.sample_grid(ENERGIES, TIMES)
    assert np.max(np.abs(grid - _pointwise(gauged, ENERGIES, TIMES))) <= 1e-15
    state = qp.ThermalState(mu=1.2)
    assert np.max(np.abs(qp.cycle_charge(gauged, state, Q)
                         - qp.cycle_charge(cycle, state, Q))) < 1e-9


def test_fallback_loop_for_plain_cycles():
    cycle = qp.PumpCycle(n_channels=2, evaluate=_random_unitary, period=1.0)
    assert cycle.evaluate_grid is None
    grid = cycle.sample_grid(ENERGIES, TIMES)
    assert np.max(np.abs(grid - _pointwise(cycle, ENERGIES, TIMES))) <= 1e-15


def test_array_drives_are_called_once_on_the_time_array():
    calls = []

    def phi(t):
        calls.append(t)
        return 2.0 * t

    cycle = qp.make_battery_cycle(qp.TwoChannelParams(theta=0.6), phi=phi,
                                  period=1.0)
    grid = cycle.sample_grid(np.linspace(0.5, 2.0, 9), TIMES)
    assert len(calls) == 1 and np.array_equal(calls[0], TIMES)
    want = two_channel_matrices(0.6, 0.0, 2.0 * TIMES, 0.0)
    assert np.array_equal(grid[:, 0], want)


def _scalar_only(t: float) -> float:
    if not isinstance(t, float):
        raise TypeError("scalars only")
    return 2.0 * t


@pytest.mark.parametrize("drive", [
    _scalar_only,
    lambda t: 2.0 * t if t > 0.5 else 0.25,    # ValueError on an array
    lambda t: 0.25,                            # a constant
], ids=["type-error", "value-error", "constant"])
def test_scalar_drives_are_called_once_per_distinct_time(drive):
    calls = []

    def phi(t):
        calls.append(t)
        return drive(t)

    cycle = qp.make_battery_cycle(qp.TwoChannelParams(theta=0.6), phi=phi,
                                  period=1.0)
    grid = cycle.sample_grid(np.linspace(0.5, 2.0, 9), TIMES)
    # one try on the whole array, then one call per time, on floats
    assert np.array_equal(calls[0], TIMES)
    assert all(isinstance(t, float) for t in calls[1:])
    assert calls[1:] == list(TIMES)
    phis = np.array([drive(float(t)) for t in TIMES])
    assert np.array_equal(grid[:, 0],
                          two_channel_matrices(0.6, 0.0, phis, 0.0))


def test_wrong_grid_shape_is_rejected():
    def transposed(energies, times):
        return np.array([[_random_unitary(e, t) for t in times]
                         for e in energies])

    cycle = qp.PumpCycle(n_channels=2, evaluate=_random_unitary, period=1.0,
                         evaluate_grid=transposed)
    with pytest.raises(ValueError, match="evaluate_grid returned shape"):
        cycle.sample_grid(ENERGIES, TIMES)
    with pytest.raises(ValueError, match="evaluate_grid returned shape"):
        qp.bpt_current(cycle, 0.3, qp.ThermalState(mu=1.0, temperature=0.1))


@pytest.mark.parametrize("richardson", [False, True])
def test_kernel_matches_differential_data(richardson):
    q = replace(Q, richardson=richardson)
    rng = np.random.default_rng(21)
    cycles = [qp.make_random_analytic_cycle(3, rng),
              make_pump(ModelSpec("snowplow")),
              make_pump(ModelSpec("custom-two-channel",
                                  PARAMS["custom-two-channel"]))]
    for cycle in cycles:
        st = stencil(cycle, ENERGIES, TIMES, q, delay=True)
        for k, t in enumerate(TIMES):
            for m, e in enumerate(ENERGIES):
                dd = qp.differential_data(cycle, e, t, q)
                assert np.max(np.abs(st.shift[k, m] - dd.energy_shift)) < 1e-12
                assert np.max(np.abs(st.delay[k, m] - dd.time_delay)) < 1e-12
                assert st.residual >= dd.hermitization_residual


def test_stencil_refuses_the_band_bottom_at_any_energy_node():
    # the delay at 5e-6 would need S at E - h_e = -5e-6; the shift alone
    # takes no energy step, so it is refused only with the delay
    cycle = qp.make_random_analytic_cycle(2, np.random.default_rng(3))
    with pytest.raises(qp.StencilOutOfDomain, match="5.000e-06 within"):
        stencil(cycle, [1.0, 5e-6], TIMES, Q, delay=True)
    assert stencil(cycle, [1.0, 5e-6], TIMES, Q).delay is None


@pytest.mark.parametrize("temperature", [0.0, 0.05])
def test_non_unitary_stencil_samples_are_caught(temperature):
    # unitary exactly at t0, scaled by 1.001 everywhere else: the centre
    # sample passes and only the samples at t0 +- h_t reveal the defect
    t0 = 0.3

    def evaluate(e: float, t: float) -> np.ndarray:
        s = np.diag(np.exp(1j * np.array([t, -t])))
        return s if t == t0 else 1.001 * s

    cycle = qp.PumpCycle(n_channels=2, evaluate=evaluate, period=1.0)
    s0 = cycle.sample(1.0, t0)
    assert np.max(np.abs(s0 @ s0.conj().T - np.eye(2))) < 1e-15
    # NaN compares false with every tolerance, so a NaN defect must
    # not slip through as a small one
    lost = qp.PumpCycle(n_channels=2, period=1.0,
                        evaluate=lambda e, t: np.full((2, 2), np.nan))
    state = qp.ThermalState(mu=1.0, temperature=temperature)
    for bad in (cycle, lost):
        with pytest.raises(qp.NonUnitary):
            qp.bpt_current(bad, t0, state)
    with pytest.raises(qp.NonUnitary):
        qp.cycle_charge(lost, state, replace(Q, n_time=16))


def test_custom_grid_is_no_more_permissive_than_evaluate():
    # theta(t) = 0.8 + 0.9 sin(2 pi t) leaves [0, pi/2]
    cycle = qp.make_custom_two_channel(
        theta=lambda t: 0.8 + 0.9 * math.sin(2.0 * math.pi * t),
        alpha=lambda t: 0.0, phi=lambda t: 0.0, gamma=lambda t: 0.0,
        period=1.0)
    with pytest.raises(ValueError, match="theta must lie in"):
        cycle.evaluate(1.0, 0.25)
    with pytest.raises(ValueError, match="theta must lie in"):
        cycle.sample_grid(ENERGIES, [0.1, 0.25])
    for params in ({"theta_base": 0.8, "theta_amp": 0.9}, {"theta_base": 2.0}):
        with pytest.raises(ValueError, match="theta_base"):
            make_pump(ModelSpec("custom-two-channel", params))


def _energy_free_cycle(name: str) -> qp.PumpCycle:
    if name == "battery-pulse":
        return build_pulse({"pulse": {"kind": "battery", "theta": 0.7,
                                      "window": [0.0, 10.0]}}, 0)
    return make_pump(ModelSpec(name, PARAMS.get(name, {})))


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


@pytest.mark.parametrize("name", ["battery", "optimal", "sink",
                                  "custom-two-channel", "battery-pulse"])
def test_energy_independent_cycles_take_the_broadcast_path(name):
    cycle = _energy_free_cycle(name)
    grid = cycle.evaluate_grid
    # the same S as a writable copy with no zero strides
    dense = replace(cycle, evaluate_grid=lambda e, t: np.array(grid(e, t)))
    t0, t1 = cycle.window or (0.0, cycle.period)
    times = t0 + (t1 - t0) * TIMES
    assert 0 not in dense.sample_grid(ENERGIES, times).strides
    for richardson in (False, True):
        q = replace(Q, richardson=richardson)
        for delay in (False, True):
            got = stencil(cycle, ENERGIES, times, q, delay=delay)
            want = stencil(dense, ENERGIES, times, q, delay=delay)
            assert got.shift.strides[1] == 0 and want.shift.strides[1] != 0
            for attr in ("shift", "ds_dt", "delay", "ds_de"):
                assert _same(getattr(got, attr), getattr(want, attr)), attr
            assert got.residual == want.residual
    q = replace(Q, n_time=32)
    for state in (qp.ThermalState(mu=1.0),
                  qp.ThermalState(mu=1.0, temperature=0.2)):
        got = qp.transport_report(cycle, state, q)
        want = qp.transport_report(dense, state, q)
        for f in fields(got):
            assert _same(getattr(got, f.name), getattr(want, f.name)), f.name
        assert (qp.birman_krein_residual(cycle, state, Q)
                == qp.birman_krein_residual(dense, state, Q))
