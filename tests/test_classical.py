"""Event-driven scattering off the moving thin barrier.

Single-bounce kinematics have closed forms (reflect v -> 2 v_b - v off a
wall moving at v_b), and every comparison below is against those, never
against the event loop itself.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

import qpump as qp
from qpump import classical, cli
from qpump.quadrature import midpoint_grid

SPEC = qp.PlowSpec(height=1.0, speed=0.01, travel_time=10.0)


def test_transmission_keeps_energy():
    # far above the barrier the particle passes with its speed unchanged
    res = qp.classical_scatter(SPEC, 4.0, -3.0, 0)
    assert res.channel == 1
    assert abs(res.energy - 4.0) < 1e-12
    assert res.n_events == 1


def test_single_bounce_closed_form():
    # channel 0 entering during the sweep, below the relative-energy
    # threshold: one reflection off the receding wall
    e_in, t_in = 0.5, 2.0
    s_in = math.sqrt(2.0 * e_in)
    res = qp.classical_scatter(SPEC, e_in, t_in, 0)
    v_out = 2.0 * SPEC.speed - s_in
    assert res.channel == 0
    assert abs(res.energy - 0.5 * v_out ** 2) < 1e-12
    assert res.n_events == 1

    # head-on collision in channel 1 gains 2 v0 per unit speed
    res1 = qp.classical_scatter(SPEC, e_in, t_in, 1)
    v_out1 = 2.0 * SPEC.speed + s_in
    assert res1.channel == 1
    assert abs(res1.energy - 0.5 * v_out1 ** 2) < 1e-12


def test_bounce_time_against_hand_solution():
    # particle from channel 0 at the fiducial x=0 when the barrier sits
    # at v0 t_in + is receding; meeting point solves x = v0 t
    e_in, t_in = 0.3, 1.0
    s = math.sqrt(2.0 * e_in)
    t_hit = s * t_in / (s - SPEC.speed)   # from  s (t - t_in) = v0 t
    x_hit = SPEC.speed * t_hit
    v_out = 2.0 * SPEC.speed - s
    # outgoing time label: straight line back to x = 0
    t_label = t_hit - x_hit / v_out
    res = qp.classical_scatter(SPEC, e_in, t_in, 0)
    assert abs(res.time - t_label) < 1e-10


def test_inverse_scatter_round_trip():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(300):
        e = rng.uniform(0.05, 3.0)
        t = rng.uniform(-25.0, 25.0)
        ch = int(rng.integers(0, 2))
        if abs(qp.partition_margin(SPEC, e, t, ch)) < 1e-6:
            continue
        out = qp.classical_scatter(SPEC, e, t, ch)
        back = qp.inverse_scatter(SPEC, out.energy, out.time, out.channel)
        assert abs(back.energy - e) < 1e-9
        assert abs(back.time - t) < 1e-8
        assert back.channel == ch
        checked += 1
    assert checked > 250


def test_prediction_matches_simulation():
    rng = np.random.default_rng(67)
    energies = rng.uniform(0.2, 3.0, 4000)
    times = rng.uniform(-20.0, 20.0, 4000)
    channels = rng.integers(0, 2, 4000)
    assert qp.partition_disagreements(SPEC, energies, times,
                                      channels) == 0


def test_partition_margin_vanishes_on_critical_energy():
    # channel 1 reflects off the approaching wall below
    # (sqrt(2V) - v0)^2 / 2; the margin must vanish right there
    e_crit = 0.5 * (math.sqrt(2.0 * SPEC.height) - SPEC.speed) ** 2
    assert abs(qp.partition_margin(SPEC, e_crit, 2.0, 1)) < 1e-12
    assert qp.predicted_transmit(SPEC, e_crit - 1e-4, 2.0, 1) is False
    assert qp.predicted_transmit(SPEC, e_crit + 1e-4, 2.0, 1) is True


def test_partition_rejects_unknown_channels():
    for channel in (2, -1):
        with pytest.raises(ValueError, match="channel must be 0"):
            qp.partition_margin(SPEC, 0.8, 0.3, channel)
        with pytest.raises(ValueError, match="channel must be 0"):
            qp.predicted_transmit(SPEC, 0.8, 0.3, channel)


def test_energy_shift_closed_form_in_sweep():
    # exit at the Fermi level during the sweep; inverting the bounce map
    # s_out = s_in +- 2 v0 gives asymmetric gains for the two leads
    mu = 0.5
    s = math.sqrt(2.0 * mu)
    gain_r = 2.0 * SPEC.speed * s - 2.0 * SPEC.speed ** 2
    loss_l = 2.0 * SPEC.speed * s + 2.0 * SPEC.speed ** 2
    assert abs(qp.classical_energy_shift(SPEC, mu, 0.0, 1) - gain_r) < 1e-12
    assert abs(qp.classical_energy_shift(SPEC, mu, 0.0, 0) + loss_l) < 1e-12
    # parked barrier: no shift
    assert qp.classical_energy_shift(SPEC, mu, 40.0, 1) == 0.0


def test_charge_routes_agree_below_barrier_top():
    mu = 0.5
    spec = qp.PlowSpec(height=1.0, speed=0.01 * math.sqrt(2.0 * mu),
                       travel_time=10.0)
    q_bpt = qp.plow_charge_bpt(spec, mu)
    q_direct = qp.plow_charge_direct(spec, mu)
    assert np.max(np.abs(q_direct - q_bpt) / np.abs(q_bpt)) < 0.05
    # the plow moves charge from the left lead to the right one
    assert q_bpt[0] < 0.0 < q_bpt[1]
    assert abs(q_direct[0] + q_direct[1]) < 5e-3


def _plow_draws(n: int, seed: int):
    # the benchmark's classical regime: slow barrier, mu at most height / 2
    rng = np.random.default_rng(seed)
    for _ in range(n):
        height = rng.uniform(0.5, 2.0)
        spec = qp.PlowSpec(height=height, speed=rng.uniform(0.004, 0.01),
                           travel_time=rng.uniform(5.0, 15.0))
        yield spec, rng.uniform(0.25, 0.5) * height


def test_plow_charges_match_their_closed_forms():
    # every encounter is solved exactly, so both charges are exact; with
    # v = sqrt(2 mu) > 2 v0 each bounce changes the speed once, by 2 v0
    for spec, mu in _plow_draws(6, 71):
        v, v0, w = math.sqrt(2.0 * mu), spec.speed, spec.travel_time
        direct = 2.0 * v0 * w * v / math.pi * np.array([-1.0, 1.0])
        bpt = 2.0 * v0 * w / (math.pi * v) * np.array([-(v + v0) ** 2,
                                                       (v - v0) ** 2])
        q_direct = qp.plow_charge_direct(spec, mu)
        assert np.max(np.abs(q_direct / direct - 1.0)) < 1e-12
        assert abs(q_direct.sum()) < 1e-12 * abs(direct[0])
        assert np.max(np.abs(qp.plow_charge_bpt(spec, mu) / bpt - 1.0)) < 1e-12


def _bisected_charge(spec, mu):
    """`plow_charge_bpt` through `inverse_scatter` alone: the outcome
    (channel, encounters, energy) of each exit state's preimage at the
    midpoint exit times, each cell whose ends differ bisected to
    `PIECE_TOL`, and the gain summed over the pieces in order."""
    reach = classical._reach(spec, mu)
    times, _ = midpoint_grid(-reach, reach, classical.PLOW_NODES)
    q = np.zeros(2)
    for lead in (0, 1):
        def at(t):
            r = qp.inverse_scatter(spec, mu, t, lead)
            return t, (r.channel, r.n_events, r.energy)

        def split(a, b):
            if b[0] - a[0] <= classical.PIECE_TOL:
                ends.extend((a, b))
                return
            m = at(0.5 * (a[0] + b[0]))
            if m[1] != a[1]:
                split(a, m)
            if m[1] != b[1]:
                split(m, b)

        scan = [at(t) for t in times.tolist()]
        ends = [scan[0]]
        for a, b in zip(scan, scan[1:]):
            if a[1] != b[1]:
                split(a, b)
        ends.append(scan[-1])
        for (t0, (_, _, energy)), (t1, _) in zip(ends[::2], ends[1::2]):
            q[lead] += (mu - energy) * (t1 - t0)
    return q / (2.0 * math.pi)


def test_plow_charge_is_the_bisected_inverse_map_bit_for_bit():
    # the charge reads the forward map and its array scan; mirroring and
    # the bit-equal array loop leave every float as the inverse map has it
    for spec, mu in _plow_draws(24, 83):
        assert np.array_equal(qp.plow_charge_bpt(spec, mu),
                              _bisected_charge(spec, mu))


def _filled_excess(spec, mu, t_out, lead, span):
    """Integral over E' of filled minus Fermi sea at one exit time.

    A state is filled when its preimage lies below mu; only energies
    within `span` of mu can change.  Cells of the energy grid whose ends
    differ are bisected to the boundary.
    """
    def filled(e):
        return qp.inverse_scatter(spec, e, t_out, lead).energy < mu

    grid = np.linspace(mu - span, mu + span, 401)
    marks = [filled(e) for e in grid]
    edges = [grid[0]]
    for a, b, mark, next_mark in zip(grid, grid[1:], marks, marks[1:]):
        if mark != next_mark:
            for _ in range(50):
                m = 0.5 * (a + b)
                a, b = (m, b) if filled(m) == mark else (a, m)
            edges.append(0.5 * (a + b))
    edges.append(grid[-1])
    excess, state = grid[0] - mu, marks[0]
    for lo, hi in zip(edges, edges[1:]):
        excess += (hi - lo) * state
        state = not state
    return excess


def test_direct_charge_counts_the_filled_outgoing_states():
    # brute force: at each exit time, measure the filled energies by
    # bisecting on the preimage, then integrate over exit times with
    # Gauss-Legendre between the times where the outgoing energy jumps.
    # Where two pieces of one lead's Fermi line exit at the same times,
    # the states between them are empty, so a sum of (E' - mu) dt' along
    # that image would be off by about v0^2 / v^2 relative.
    mu = 0.5
    v, v0, w = math.sqrt(2.0 * mu), SPEC.speed, SPEC.travel_time
    span = 4.0 * v0 * (v + v0)
    jumps = ((w * (v - v0) / (v - 2 * v0), w * (v + v0) / v),
             (w * (v + v0) / (v + 2 * v0), w * (v - v0) / v))
    x, weights = np.polynomial.legendre.leggauss(16)
    q = qp.plow_charge_direct(SPEC, mu)
    for lead in (0, 1):
        edges = sorted({-12.0, 12.0, *jumps[lead], *(-t for t in jumps[lead])})
        count = 0.0
        for a, b in zip(edges, edges[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            count += half * sum(
                wt * _filled_excess(SPEC, mu, mid + half * xi, lead, span)
                for xi, wt in zip(x, weights))
        assert abs(count / (2.0 * math.pi) / q[lead] - 1.0) < 1e-7


def _thresholds(spec):
    return sorted(0.5 * (math.sqrt(2.0 * spec.height) + sign * spec.speed) ** 2
                  for sign in (-1.0, 1.0))


@pytest.mark.parametrize("where", [
    "lower-edge", "inside-0.995", "inside-1.005", "upper-edge", "above"])
@pytest.mark.parametrize("charge", [qp.plow_charge_bpt, qp.plow_charge_direct])
def test_plow_charges_refuse_fermi_levels_where_states_pass(charge, where):
    # from (sqrt(2 h) - v0)^2 / 2 up to (sqrt(2 h) + v0)^2 / 2 some states
    # at mu pass and others reflect, so one lead's Fermi line lands in
    # both leads; above that, states below mu pass, which the count of
    # filled states does not follow
    lowest, highest = _thresholds(SPEC)
    mu = {"lower-edge": lowest - 0.5 * classical.PARTITION_MARGIN,
          "inside-0.995": 0.995, "inside-1.005": 1.005,
          "upper-edge": highest + 0.5 * classical.PARTITION_MARGIN,
          "above": 1.2}[where]
    with pytest.raises(qp.RegionTouchesDiscontinuity, match="reflect"):
        charge(SPEC, mu)


def test_plow_charges_run_just_below_the_lowest_threshold():
    mu = _thresholds(SPEC)[0] - 2.0 * classical.PARTITION_MARGIN
    for charge in (qp.plow_charge_bpt, qp.plow_charge_direct):
        q = charge(SPEC, mu)
        assert q[0] < 0.0 < q[1]


def test_liouville_determinant_is_one_off_boundaries():
    assert qp.liouville_residual(SPEC, 0.4, 2.0, 0) < 1e-6
    assert qp.liouville_residual(SPEC, 2.5, -14.0, 1) < 1e-6


def test_liouville_refuses_partition_boundaries():
    e_crit = 0.5 * (math.sqrt(2.0 * SPEC.height) + SPEC.speed) ** 2
    with pytest.raises(qp.RegionTouchesDiscontinuity):
        qp.liouville_residual(SPEC, e_crit, 2.0, 0)
    s = math.sqrt(2.0 * 0.4)
    t_edge = SPEC.travel_time * (1.0 - SPEC.speed / s)
    with pytest.raises(qp.RegionTouchesDiscontinuity):
        qp.liouville_residual(SPEC, 0.4, t_edge, 0)


def test_event_budget_is_enforced(monkeypatch):
    # a single thin barrier bounds the encounter count (each bounce flips
    # the relative speed for good), so the cap is exercised by shrinking
    # the budget below a known one-bounce history
    blocked = qp.classical_scatter(SPEC, 0.5, 2.0, 0)
    assert blocked.n_events >= 1
    monkeypatch.setattr(classical, "MAX_EVENTS", 0)
    with pytest.raises(qp.MaxEventsExceeded):
        qp.classical_scatter(SPEC, 0.5, 2.0, 0)


def test_event_budget_is_enforced_on_arrays(monkeypatch):
    # the array loop reads the budget at call time, as the scalar one does:
    # a budget at the largest encounter count passes, one below it raises
    rng = np.random.default_rng(73)
    energies = rng.uniform(0.2, 3.0, 500)
    times = rng.uniform(-20.0, 20.0, 500)
    channels = rng.integers(0, 2, 500)
    counts = classical._scatter_many(SPEC, energies, times, channels)[3]
    most = int(counts.max())
    assert most >= 1
    monkeypatch.setattr(classical, "MAX_EVENTS", most)
    classical._scatter_many(SPEC, energies, times, channels)
    monkeypatch.setattr(classical, "MAX_EVENTS", most - 1)
    with pytest.raises(qp.MaxEventsExceeded):
        classical._scatter_many(SPEC, energies, times, channels)
    monkeypatch.setattr(classical, "MAX_EVENTS", 0)
    with pytest.raises(qp.MaxEventsExceeded):
        qp.partition_disagreements(SPEC, energies, times, channels)


@pytest.mark.parametrize("energy, time_in, channel", [
    pytest.param(-0.5, 0.3, 0, id="negative-energy"),
    pytest.param(0.0, 0.3, 0, id="zero-energy"),
    pytest.param(math.nan, 0.3, 0, id="nan-energy"),
    pytest.param(math.inf, 10.0, 0, id="infinite-energy"),
    pytest.param(0.8, math.nan, 1, id="nan-time"),
    pytest.param(0.8, -math.inf, 1, id="infinite-time"),
    pytest.param(0.8, 0.3, 2, id="channel-2"),
    pytest.param(0.8, 0.3, -1, id="channel-minus-1"),
    pytest.param(0.8, 0.3, 0.5, id="channel-half"),
])
def test_partition_refuses_bad_points_with_the_scatter_message(
        energy, time_in, channel):
    # a negative energy used to fail with a bare "math domain error" from
    # the closed forms, and an infinite one at |t| = travel_time was
    # skipped as a boundary point; now every point is checked first
    with pytest.raises(ValueError) as scalar:
        qp.classical_scatter(SPEC, energy, time_in, channel)
    for call in (qp.partition_margin, qp.predicted_transmit):
        with pytest.raises(ValueError) as refused:
            call(SPEC, energy, time_in, channel)
        assert str(refused.value) == str(scalar.value)
    with pytest.raises(ValueError) as refused:
        qp.partition_disagreements(SPEC, np.array([0.8, energy]),
                                   np.array([0.3, time_in]),
                                   np.array([1, channel]))
    assert str(refused.value) == str(scalar.value)


def test_partition_takes_empty_input_and_float_channels():
    assert qp.partition_disagreements(SPEC, [], [], []) == 0
    rng = np.random.default_rng(79)
    energies = rng.uniform(0.2, 3.0, 300)
    times = rng.uniform(-20.0, 20.0, 300)
    channels = rng.integers(0, 2, 300)
    as_int = classical._scatter_many(SPEC, energies, times, channels)
    as_float = classical._scatter_many(SPEC, energies, times,
                                       channels.astype(float))
    for a, b in zip(as_int, as_float):
        assert np.array_equal(a, b)
    assert qp.partition_disagreements(SPEC, energies, times,
                                      channels.astype(float)) == 0


def test_a_bounce_to_rest_is_refused_and_is_a_partition_boundary():
    # lead 0 at speed 2 v0 meets the receding wall and leaves at
    # 2 v0 - 2 v0 = 0: it stays on the plow, so no outgoing state exists
    e_rest = 2.0 * SPEC.speed ** 2
    assert math.sqrt(2.0 * e_rest) == 2.0 * SPEC.speed
    with pytest.raises(qp.RegionTouchesDiscontinuity) as scalar:
        qp.classical_scatter(SPEC, e_rest, 0.0, 0)
    with pytest.raises(qp.RegionTouchesDiscontinuity) as many:
        classical._scatter_many(SPEC, [0.5, e_rest], [0.0, 0.0], [0, 0])
    assert str(many.value) == str(scalar.value) == classical.AT_REST
    with pytest.raises(qp.RegionTouchesDiscontinuity):
        qp.inverse_scatter(SPEC, e_rest, 0.0, 1)
    with pytest.raises(qp.RegionTouchesDiscontinuity, match="at rest"):
        qp.plow_charge_bpt(SPEC, e_rest)    # its lead 1 line, mirrored
    # inside the moving window the point is a boundary and is skipped;
    # the parked barrier and lead 1 bounce it back as usual
    assert qp.partition_margin(SPEC, e_rest, 0.0, 0) == 0.0
    assert qp.partition_disagreements(SPEC, [e_rest], [0.0], [0]) == 0
    t_parked = SPEC.travel_time
    assert qp.partition_margin(SPEC, e_rest, t_parked, 0) > 1e-3
    assert qp.classical_scatter(SPEC, e_rest, t_parked, 0).channel == 0
    assert qp.partition_margin(SPEC, e_rest, 0.0, 1) > 1e-5
    assert qp.classical_scatter(SPEC, e_rest, 0.0, 1).channel == 1
    near = e_rest * (1.0 + np.array([-1e-2, 1e-2]))
    assert qp.partition_disagreements(SPEC, near, [0.0, 0.0], [0, 0]) == 0


def test_classical_command_scatters_points_one_by_one_only_to_bisect(
        tmp_path, monkeypatch):
    # the partition check and both charge scans run on arrays; only the
    # bisection of the Fermi-line pieces calls the scalar scatter.  The
    # count does not depend on the machine; a change that lowers it
    # lowers the pin
    calls = []
    scatter = classical.classical_scatter

    def counted(*args):
        calls.append(args)
        return scatter(*args)

    monkeypatch.setattr(classical, "classical_scatter", counted)
    config = tmp_path / "plow.json"
    config.write_text(json.dumps({
        "classical": {"height": 1.0, "speed": 0.01, "travel_time": 10.0},
        "state": {"mu": 0.5}}))
    assert cli.main(["classical", "--config", str(config), "--points",
                     "2000", "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 172


def test_battery_crossing_shift():
    """Constant-EMF gauge: crossing shifts the energy by -delta_phi."""
    for dphi in (0.0, 0.1, -0.25):
        res = qp.classical_battery_shift(dphi, 2.0)
        shift = res.energy_out - res.energy_in
        assert abs(shift + dphi) < 1e-8
        assert abs(res.shift_residual) < 1e-8
        # frozen dynamics at any fixed time is the identity map
        assert res.frozen_speed_change == 0.0
    # at start_time 0 the frozen potential t phi'(x) vanishes; later and
    # earlier starts make the frozen check exercise the integrator
    for start in (3.0, -5.0):
        for dphi in (0.1, -0.25):
            res = qp.classical_battery_shift(dphi, 2.0, start_time=start)
            assert res.shift_residual < 1e-8
            assert res.frozen_speed_change < 1e-8


@pytest.mark.parametrize("kwargs", [
    pytest.param({"delta_phi": math.nan}, id="delta_phi-nan"),
    pytest.param({"energy": math.nan}, id="energy-nan"),
    pytest.param({"start_time": math.nan}, id="start_time-nan"),
    pytest.param({"delta_phi": math.inf}, id="delta_phi-inf"),
    pytest.param({"energy": math.inf}, id="energy-inf"),
    pytest.param({"start_time": -math.inf}, id="start_time-minus-inf"),
])
def test_battery_shift_refuses_non_finite_input(monkeypatch, kwargs):
    # a NaN drop used to slip past the energy guard and run the
    # integrator on a NaN field without end; now nothing is integrated
    def no_integration(*args, **options):
        raise AssertionError("the integrator ran")
    monkeypatch.setattr("scipy.integrate.solve_ivp", no_integration)
    args = {"delta_phi": 0.1, "energy": 2.0, "start_time": 0.0, **kwargs}
    with pytest.raises(ValueError, match="finite"):
        qp.classical_battery_shift(**args)
