"""Differential data from frozen scattering matrices.

Every analytic reference here is derived by hand from the two-channel
parameterization; nothing is compared against the code's own stencils.
"""
from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import qpump as qp
from qpump import classical
from qpump.quadrature import HERMITIZATION_FLOOR, UNITARITY_TOL
from qpump.smatrix import _check_unitary, _mul_h, _unitarity_defect

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()


def test_build_two_channel_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = qp.TwoChannelParams(theta=rng.uniform(0.0, math.pi / 2),
                                alpha=rng.uniform(-4.0, 4.0),
                                phi=rng.uniform(-4.0, 4.0),
                                gamma=rng.uniform(-4.0, 4.0))
        s = qp.build_two_channel(p)
        assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-14


def test_decompose_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = qp.TwoChannelParams(theta=rng.uniform(0.05, math.pi / 2 - 0.05),
                                alpha=rng.uniform(-math.pi, math.pi),
                                phi=rng.uniform(-math.pi, math.pi),
                                gamma=rng.uniform(0.0, math.pi))
        s = qp.build_two_channel(p)
        back = qp.build_two_channel(qp.decompose_two_channel(s))
        assert np.max(np.abs(back - s)) < 1e-10


def test_decompose_degenerate_corners():
    # theta = 0 leaves phi undefined, theta = pi/2 leaves alpha undefined;
    # the reconstruction must still reproduce the matrix.
    # arccos near 1 costs half the digits, so the gate is looser here
    for theta in (0.0, math.pi / 2):
        p = qp.TwoChannelParams(theta=theta, alpha=0.3, phi=-0.8, gamma=1.1)
        s = qp.build_two_channel(p)
        back = qp.build_two_channel(qp.decompose_two_channel(s))
        assert np.max(np.abs(back - s)) < 1e-7


def test_battery_energy_shift_analytic():
    """Linear phase ramp on the transmission amplitudes.

    With t, t' carrying exp(-i phi) and exp(+i phi), the shift matrix is
    phi_dot * [[sin^2 th, i sc e^{i(alpha-phi)}], [-i sc e^{-i(alpha-phi)},
    -sin^2 th]] with sc = sin th cos th.
    """
    theta, alpha, rate = 0.7, 0.4, TWO_PI
    cyc = qp.make_battery_cycle(qp.TwoChannelParams(theta=theta, alpha=alpha),
                                phi=lambda t: rate * t, period=1.0)
    t0 = 0.37
    d = qp.differential_data(cyc, 2.0, t0, Q)
    sc = math.sin(theta) * math.cos(theta)
    off = 1j * sc * np.exp(1j * (alpha - rate * t0))
    want = rate * np.array([[math.sin(theta) ** 2, off],
                            [np.conj(off), -math.sin(theta) ** 2]])
    assert np.max(np.abs(d.energy_shift - want)) < 1e-8
    # the shift is Hermitian by construction
    assert np.max(np.abs(d.energy_shift - d.energy_shift.conj().T)) < 1e-12


def test_uturn_time_delay_is_optical():
    # diag(e^{i(k ell + Phi)}, e^{i(k ell - Phi)}) with k = sqrt(2E):
    # the Wigner delay is ell / sqrt(2E) times the identity.
    ell = 1.7
    cyc = qp.make_uturn_cycle(ell, flux=lambda t: TWO_PI * t, period=1.0)
    e0 = 1.9
    d = qp.differential_data(cyc, e0, 0.21, Q)
    want = ell / math.sqrt(2.0 * e0) * np.eye(2)
    assert np.max(np.abs(d.time_delay - want)) < 1e-7
    # flux sweep moves the channels in opposite directions
    assert np.max(np.abs(d.energy_shift
                         - np.diag([-TWO_PI, TWO_PI]))) < 1e-7


def test_curvature_three_routes_agree():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        cyc = qp.make_random_analytic_cycle(n, rng)
        ident = qp.curvature_identity(cyc, 1.3, 0.4, Q)
        assert ident.residual < 1e-6
        assert ident.residual_mixed < 1e-6


def test_curvature_identity_second_order():
    # halving the steps must cut the divergence-form residual by about 4;
    # run above the roundoff floor so the truncation term dominates.
    rng = np.random.default_rng(11)
    cyc = qp.make_random_analytic_cycle(2, rng)
    coarse = replace(Q, h_e_rel=8e-3, h_t_rel=8e-3)
    fine = replace(Q, h_e_rel=4e-3, h_t_rel=4e-3)
    r_coarse = qp.curvature_identity(cyc, 1.1, 0.3, coarse).residual
    r_fine = qp.curvature_identity(cyc, 1.1, 0.3, fine).residual
    assert 3.0 < r_coarse / r_fine < 5.5


def test_cycle_has_a_period_or_a_window_not_both():
    with pytest.raises(ValueError, match="not both"):
        qp.PumpCycle(2, lambda e, t: np.eye(2), period=1.0,
                     window=(0.0, 1.0))


def _identity(e, t):
    return np.eye(2)


def _with_plow_nodes(n, charge):
    """Run a plow charge with its node count set to n."""
    with mock.patch.object(classical, "PLOW_NODES", n):
        return charge(qp.PlowSpec(), 0.3)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: qp.QuadratureSpec(n_time=16.5), id="n_time-16.5"),
    pytest.param(lambda: qp.QuadratureSpec(n_energy=64.0), id="n_energy-float"),
    pytest.param(lambda: qp.QuadratureSpec(n_shot_time=1024.0),
                 id="n_shot_time-float"),
    pytest.param(lambda: qp.QuadratureSpec(h_t_rel=math.nan), id="h_t_rel-nan"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, period=math.nan),
                 id="period-nan"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, period=math.inf),
                 id="period-inf"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, window=(0.0, math.inf)),
                 id="window-inf"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, window=(-math.inf, 0.0)),
                 id="window-minus-inf"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, window=(math.nan, 1.0)),
                 id="window-nan"),
    pytest.param(lambda: qp.PumpCycle(2, _identity,
                                      window=(-0.9e308, 0.9e308)),
                 id="window-length-overflow"),
    pytest.param(lambda: qp.ThermalState(mu=1.0, temperature=1e307),
                 id="thermal-window-overflow"),
    pytest.param(lambda: qp.PumpCycle(2.5, _identity, period=1.0),
                 id="n_channels-2.5"),
    pytest.param(lambda: qp.PumpCycle(True, _identity, period=1.0),
                 id="n_channels-bool"),
    *(pytest.param(lambda f=f, v=v: qp.PlowSpec(**{f: v}), id=f"plow-{f}-{v}")
      for f in ("height", "speed", "travel_time") for v in (math.nan, math.inf)),
    *(pytest.param(lambda f=f, v=v: qp.BicycleGeometry(**{f: v}),
                   id=f"bicycle-{f}-{v}")
      for f in ("length", "barrier", "delta") for v in (math.nan, math.inf)),
    pytest.param(lambda: qp.classical_scatter(qp.PlowSpec(), math.nan, 0.0, 0),
                 id="scatter-energy-nan"),
    pytest.param(lambda: qp.classical_scatter(qp.PlowSpec(), math.inf, 0.0, 0),
                 id="scatter-energy-inf"),
    pytest.param(lambda: qp.classical_scatter(qp.PlowSpec(), 0.5, math.nan, 1),
                 id="scatter-time-nan"),
    pytest.param(lambda: qp.plow_charge_bpt(qp.PlowSpec(), math.nan),
                 id="plow-mu-nan"),
    pytest.param(lambda: qp.PumpCycle(2, _identity, period=1.0)
                 .time_grid(16.5), id="time_grid-16.5"),
    *(pytest.param(lambda f=f, n=n: _with_plow_nodes(n, f),
                   id=f"{f.__name__}-n_time-{n}")
      for f in (qp.plow_charge_bpt, qp.plow_charge_direct)
      for n in (16.5, -4, True, 0)),
])
def test_non_finite_or_fractional_inputs_are_refused(make):
    # each would give a wrong or NaN answer if accepted (n_time = 16.5
    # puts 17 midpoint nodes at weight span / 16.5; 0 divides by zero)
    with pytest.raises(ValueError):
        make()


# a plaquette whose overlap product is -1/4: its loop phase is a half turn
_R = math.sqrt(0.5)
_HALF_TURN = np.array([[[1.0, 0.0], [_R, -_R]], [[_R, _R], [0.0, 1.0]]])


@pytest.mark.parametrize("make, error, match", [
    pytest.param(lambda: qp.global_angle(np.ones((1, 2))), ValueError,
                 r"need a \(n_samples, dim\) array", id="global_angle-shape"),
    pytest.param(lambda: qp.plaquette_phases(_HALF_TURN), qp.GridTooCoarse,
                 "half a turn", id="plaquette-half-turn"),
    pytest.param(lambda: qp.plaquette_phases(np.ones((4, 2))), ValueError,
                 r"need a \(nu, nv, dim\) array", id="plaquette-ndim"),
    pytest.param(lambda: qp.winding_number(np.array([1.0, 1j])), ValueError,
                 ">= 3 samples", id="winding-two-samples"),
    pytest.param(lambda: qp.spherical_polygon_area(np.ones((3, 2))),
                 ValueError, r"need a \(n, 3\) path", id="sphere-shape"),
    pytest.param(lambda: qp.spherical_polygon_area(2.0 * np.eye(3)),
                 ValueError, "unit sphere", id="sphere-off"),
    pytest.param(lambda: qp.transfer_matrices(np.ones((1, 2)), np.ones(1),
                                              np.ones(1)),
                 ValueError, r"need values \(P, L\), widths \(L,\)",
                 id="transfer-shape"),
    *(pytest.param(lambda w=w: qp.transfer_matrices(
        np.ones((1, 2)), np.array([1.0, w]), np.ones(1)), ValueError,
        "plateau widths must be positive", id=f"transfer-width-{w}")
      for w in (0.0, -1.0, math.nan)),
    pytest.param(lambda: qp.PumpCycle(2, lambda e, t: np.eye(3), period=1.0)
                 .sample(1.0, 0.0), ValueError,
                 r"evaluate returned shape \(3, 3\), expected \(2, 2\)",
                 id="sample-shape"),
    pytest.param(lambda: qp.decompose_two_channel(np.eye(3)), ValueError,
                 "expected a 2x2 matrix", id="decompose-shape"),
    pytest.param(lambda: qp.entropy_weight(1.5), ValueError,
                 r"filling factor must lie in \[0, 1\]", id="entropy-filling"),
    pytest.param(lambda: qp.noise_weight(-0.1), ValueError,
                 r"filling factor must lie in \[0, 1\]", id="noise-filling"),
    pytest.param(lambda: qp.thermal_energy_nodes(qp.ThermalState(mu=1.0),
                                                 qp.QuadratureSpec()),
                 qp.ZeroTemperature, "no thermal window", id="thermal-nodes-T0"),
    pytest.param(lambda: qp.classical_battery_shift(1.0, 1.0), ValueError,
                 "too slow", id="battery-shift-slow"),
])
def test_malformed_inputs_are_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_numpy_integer_counts_are_accepted():
    q = qp.QuadratureSpec(n_time=np.int64(32), n_energy=np.int32(16))
    cycle = qp.PumpCycle(np.int64(2), _identity, period=1.0)
    assert cycle.time_grid(q.n_time)[0].size == 32


def test_time_grid_is_the_midpoint_rule_of_the_time_domain():
    periodic = qp.PumpCycle(2, lambda e, t: np.eye(2), period=2.5)
    pulse = qp.PumpCycle(2, lambda e, t: np.eye(2), window=(-1.0, 3.0))
    for cycle, span in ((periodic, (0.0, 2.5)), (pulse, (-1.0, 3.0))):
        times, weights = cycle.time_grid(37)
        want, want_dt = qp.midpoint_grid(*span, 37)
        assert np.array_equal(times, want)
        assert np.array_equal(weights, np.full(37, want_dt))
    with pytest.raises(qp.NoTimeDomain, match="neither a period nor a window"):
        qp.PumpCycle(2, lambda e, t: np.eye(2)).time_grid(16)


def test_nonunitary_cycle_is_rejected():
    def bad(e, t):
        return 1.02 * np.eye(2, dtype=complex)

    cyc = qp.PumpCycle(n_channels=2, evaluate=bad, period=1.0)
    with pytest.raises(qp.NonUnitary):
        qp.differential_data(cyc, 1.0, 0.0, Q)


def test_stencil_needs_room_above_band_bottom():
    rng = np.random.default_rng(3)
    cyc = qp.make_random_analytic_cycle(2, rng)
    with pytest.raises(qp.StencilOutOfDomain):
        qp.curvature_identity(cyc, 1e-9, 0.2, Q)


def test_gauge_and_fiducial_leave_charges_alone():
    rng = np.random.default_rng(5)
    cyc = qp.make_random_analytic_cycle(3, rng)
    state = qp.ThermalState(mu=1.2, temperature=0.0)
    base = qp.cycle_charge(cyc, state, Q)
    moved = qp.apply_gauge_and_fiducial(cyc, shifts=np.array([0.3, -0.1, 0.7]),
                                        phases=np.array([1.0, -2.0, 0.4]))
    assert np.max(np.abs(qp.cycle_charge(moved, state, Q) - base)) < 1e-9
    with pytest.raises(ValueError):
        qp.apply_gauge_and_fiducial(cyc, shifts=np.zeros(2), phases=np.zeros(3))


def test_verify_cycle_on_analytic_family():
    rng = np.random.default_rng(9)
    cyc = qp.make_random_analytic_cycle(2, rng)
    report = qp.verify_cycle(cyc, np.array([0.5, 1.0, 2.0]),
                             np.linspace(0.0, 1.0, 7))
    assert report["unitarity"] < 1e-12
    assert report["periodicity"] < 1e-12


def test_hermitization_budget_rejects_path_corners():
    # the bicycle path turns corners at t = 1/4 and 1/2; a stencil across
    # the kink leaves a residual of 3.9e-2 against a budget of 2.5e-3
    cyc = qp.make_bicycle_cycle()
    for corner in (0.25, 0.5):
        with pytest.raises(qp.NonUnitary, match="Hermitization correction"):
            qp.differential_data(cyc, 1.0, corner, Q)
    # on a straight leg the residual is 3.6e-9
    d = qp.differential_data(cyc, 1.0, 0.3, Q)
    assert d.hermitization_residual < 1e-7


@pytest.mark.parametrize("n_time", [18, 66])
def test_charge_over_a_path_corner_raises(n_time):
    # both grids put a midpoint node on the corner at t = 1/4; the two
    # leads' charges used to come out unbalanced, with no error.  At 66
    # nodes the kink fits a budget scaled by the largest shift on the
    # grid, but not its own node's budget.
    state = qp.ThermalState(mu=1.0)
    with pytest.raises(qp.NonUnitary, match="Hermitization correction"):
        qp.cycle_charge(qp.make_bicycle_cycle(), state, replace(Q, n_time=n_time))


def test_hermitization_budget_scales_with_step():
    # a coarse step on a smooth cycle produces an O(h^2) anti-Hermitian
    # defect; that must be absorbed, not flagged as a broken matrix.
    rng = np.random.default_rng(13)
    cyc = qp.make_random_analytic_cycle(2, rng)
    coarse = replace(Q, h_e_rel=8e-3, h_t_rel=8e-3)
    d = qp.differential_data(cyc, 1.0, 0.3, coarse)
    assert d.hermitization_residual > HERMITIZATION_FLOOR


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_entrywise_product_matches_matmul(n):
    rng = np.random.default_rng(40 + n)
    a, b = _complex(rng, (6, 5, n, n)), _complex(rng, (6, 5, n, n))
    cases = [
        (a, b),
        (a[0, 0], b[0, 0]),                           # one matrix
        (a[:, :1], b),                                # broadcast axis
        (a[0], b),                                    # fewer stack axes
        (np.broadcast_to(a[:, :1], a.shape), b),      # zero-stride axis
        (a, np.broadcast_to(b[:1], b.shape)),
        (a[::2, ::-1], b[1::2]),                      # negative strides
        (a.swapaxes(-1, -2), b),                      # transposed entries
    ]
    for x, y in cases:
        want = x @ y.conj().swapaxes(-1, -2)
        got = _mul_h(x, y)
        assert got.shape == want.shape
        scale = np.max(np.abs(x)) * np.max(np.abs(y))
        assert np.max(np.abs(got - want)) <= 1e-15 * n * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitarity_defect_matches_the_broadcast_sum(n):
    rng = np.random.default_rng(50 + n)
    h = _complex(rng, (7, 3, n, n))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    s = (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    for stack in (s, 1.0001 * s, s + 1e-9 * h,
                  np.broadcast_to(s[:, :1], s.shape),
                  (s + 1e-9 * h)[::-2, ::-1, ::-1]):    # negative strides
        # reference: S S^dagger as a broadcast sum over the inner index
        ssh = sum(stack[..., :, k, None] * stack[..., None, :, k].conj()
                  for k in range(n))
        want = np.max(np.abs(ssh - np.eye(n)))
        scale = np.max(np.abs(stack)) ** 2
        assert abs(_unitarity_defect(stack) - want) <= 1e-15 * n * scale


def _unitaries(rng, count, n):
    h = _complex(rng, (count, n, n))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_rows_that_are_not_orthogonal_are_refused(n):
    # every row keeps unit norm, so only the entries off the diagonal of
    # S S^dagger see the overlap
    stack = _unitaries(np.random.default_rng(60 + n), 9, n)
    for a, b in np.ndindex(n, n):
        if a == b:
            continue
        s = stack.copy()
        row = s[4, b] + 1e-6 * s[4, a]
        s[4, b] = row / np.linalg.norm(row)
        assert np.max(np.abs(np.linalg.norm(s, axis=-1) - 1.0)) < 1e-14
        with pytest.raises(qp.NonUnitary, match="unitarity defect 1.0"):
            _check_unitary(s, UNITARITY_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_is_refused(n, bad):
    # the identity's zeros would meet an inf in the products above the
    # diagonal; the pytest settings turn a RuntimeWarning into an error
    for unitary in (_unitaries(np.random.default_rng(70 + n), 5, n),
                    np.broadcast_to(np.eye(n, dtype=complex), (5, n, n))):
        for i, j in np.ndindex(n, n):
            s = unitary.copy()
            s[2, i, j] = bad
            with pytest.raises(qp.NonUnitary):
                _check_unitary(s, UNITARITY_TOL)
