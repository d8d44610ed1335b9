"""Physical invariants over randomly drawn cycles and patches.

The acceptance gates check each invariant on a few fixed seeds; here
hypothesis draws the random analytic cycle (seed, 1-4 channels, either
energy profile), the Fermi energy and the temperature (zero or
0.02-0.3), and each invariant is held to the bound of its gate; the
charge sum rule also draws whole turns of a global phase.  Stacks of
up to five plateaus, barriers of decay up to 1000 among wells, must
give a unitary, reciprocal S whose left reflection stops at the first
opaque barrier.  The zero-temperature shot noise is held to a dense
O(N^2) copy of its double sum on random and battery pulses, on drawn
grids and on the default one, and to zero on the noiseless pumps; on
battery pulses whose phase turns n whole times, ramping and turning
back, it stays above the minimal-excitation bound.  The array event
loop of the classical plow must give the scalar loop's outgoing states
bit for bit, on random plows (speed 0 included) and at points within
1e-9 of each partition boundary.  The draws are derandomized, so a run
is reproducible and a failure names its example.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import qpump as qp
from qpump import classical
from qpump.counting import _simpson
from qpump.models import smooth_bump
from qpump.quadrature import TWO_PI
from qpump.smatrix import point_evaluator, stencil
from qpump.transport import _row_weights

Q = qp.QuadratureSpec()
# the invariants below hold node by node, so a coarse time grid suffices
COARSE = replace(Q, n_time=16)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
seeds = st.integers(0, 2 ** 32 - 1)
cycles = st.builds(
    lambda seed, n, flat: qp.make_random_analytic_cycle(
        n, np.random.default_rng(seed), zero_energy_flat=flat),
    seeds, st.integers(1, 4), st.booleans())
states = st.builds(
    lambda mu, temperature: qp.ThermalState(mu=mu, temperature=temperature),
    st.floats(0.3, 3.0),
    st.one_of(st.just(0.0), st.floats(0.02, 0.3)))


@SETTINGS
@given(cycles, states)
def test_spectral_flow_sum_rule(cycle, state):
    # c04
    times, _ = cycle.time_grid(4)
    assert qp.birman_krein_residual(cycle, state, Q, times) < 1e-8


@SETTINGS
@given(cycles, states, st.floats(0.0, 1.0, exclude_max=True))
def test_dissipation_bounds_the_current(cycle, state, time):
    # c06
    current = qp.bpt_current(cycle, time, state, Q)
    dissipation = qp.dissipation_current(cycle, time, state, Q)
    assert np.all(dissipation >= math.pi * current ** 2 - 1e-10)


@SETTINGS
@given(cycles, states, seeds)
def test_charge_is_gauge_and_fiducial_invariant(cycle, state, seed):
    rng = np.random.default_rng(seed)
    n = cycle.n_channels
    moved = qp.apply_gauge_and_fiducial(
        cycle, shifts=rng.uniform(-1.0, 1.0, n),
        phases=rng.uniform(-math.pi, math.pi, n))
    base = qp.cycle_charge(cycle, state, COARSE)
    assert np.max(np.abs(qp.cycle_charge(moved, state, COARSE) - base)) < 1e-9


def _turned(cycle: qp.PumpCycle, turns: int) -> qp.PumpCycle:
    """The cycle times e^{2 pi i turns t / period}: det S winds
    n_channels * turns more times."""
    def evaluate_grid(energies, times):
        phase = np.exp(1j * TWO_PI * turns * times / cycle.period)
        return phase[:, None, None, None] * cycle.sample_grid(energies, times)

    return qp.PumpCycle(cycle.n_channels, point_evaluator(evaluate_grid),
                        period=cycle.period, label=cycle.label + "+turns",
                        evaluate_grid=evaluate_grid)


@SETTINGS
@given(seeds, st.integers(1, 3), st.booleans(), st.integers(-2, 2),
       st.floats(0.3, 3.0))
def test_total_charge_is_minus_det_winding(seed, n, flat, turns, mu):
    # zero temperature only: at T > 0 the thermal window is clipped at
    # the band bottom, and the weight lost there is missing from the sum
    base = qp.make_random_analytic_cycle(n, np.random.default_rng(seed),
                                         zero_energy_flat=flat)
    cycle = _turned(base, turns)
    times, _ = cycle.time_grid(Q.n_time)
    winding = qp.winding_number(
        np.linalg.det(cycle.sample_grid(mu, times)[:, 0]))
    assert winding == n * turns   # det exp(i H) = exp(i tr H) never winds
    total = np.sum(qp.cycle_charge(cycle, qp.ThermalState(mu=mu), Q))
    assert abs(total + winding) < 1e-6


def _slowed(cycle: qp.PumpCycle, factor: float) -> qp.PumpCycle:
    """S(E, t / factor) over the period factor * period: the same cycle
    run `factor` times slower."""
    def evaluate_grid(energies, times):
        return cycle.sample_grid(energies, np.asarray(times) / factor)

    return qp.PumpCycle(cycle.n_channels, point_evaluator(evaluate_grid),
                        period=factor * cycle.period,
                        label=cycle.label + "+slowed",
                        evaluate_grid=evaluate_grid)


@SETTINGS
@given(cycles, st.floats(0.3, 3.0),
       st.floats(math.log(0.05), math.log(200.0)).map(math.exp))
def test_charge_does_not_change_when_the_cycle_is_slowed(cycle, mu, factor):
    # the stencil's budget is stated in absolute steps, so no time scale
    # makes a smooth cycle look kinked
    for temperature in (0.0, 0.2):
        state = qp.ThermalState(mu=mu, temperature=temperature)
        base = qp.cycle_charge(cycle, state, COARSE)
        slow = qp.cycle_charge(_slowed(cycle, factor), state, COARSE)
        assert np.max(np.abs(slow - base)) < 1e-9


def test_long_battery_pulse_pumps_its_charge():
    # 40 turns of the battery phase over a 120-long window pump
    # 40 sin^2 theta; the budget must not mistake the fast sweep for a kink
    total = 40 * TWO_PI
    pulse = qp.make_battery_cycle(
        qp.TwoChannelParams(theta=0.7),
        lambda t: total * qp.smooth_step(t, 0.0, 120.0), window=(0.0, 120.0))
    charge = qp.cycle_charge(pulse, qp.ThermalState(mu=1.0), Q)
    want = 40 * math.sin(0.7) ** 2
    assert np.max(np.abs(charge - [want, -want])) < 1e-4


@SETTINGS
@given(seeds, st.integers(1, 4))
def test_patch_flux_telescopes(seed, dim):
    # c07
    patch = qp.random_smooth_patch(np.random.default_rng(seed), dim=dim)
    assert qp.stokes_residual(patch) < 1e-6


def test_unresolved_patches_are_drawn_again():
    # these first draws wind around a zero between the nodes: a plaquette
    # phase wraps to a small value and the residual would be 2 pi
    for seed, dim in ((578, 1), (51, 2)):
        patch = qp.random_smooth_patch(np.random.default_rng(seed), dim=dim)
        assert qp.stokes_residual(patch) < 1e-6


def _plateau_stack(seed: int, n: int):
    """n random plateaus and an energy: about 70% barriers, each drawn
    by its decay kappa w in [0, 1000], the rest wells.  Returns the
    values, widths, energy and decays (0 for a well)."""
    rng = np.random.default_rng(seed)
    energy = rng.uniform(0.05, 5.0)
    widths = rng.uniform(0.05, 3.0, n)
    barrier = rng.random(n) < 0.7
    decays = np.where(barrier, rng.uniform(0.0, 1000.0, n), 0.0)
    values = np.where(barrier, energy + 0.5 * (decays / widths) ** 2,
                      energy - rng.uniform(0.0, 6.0, n))
    return values, widths, energy, decays


@SETTINGS
@given(seeds, st.integers(1, 5))
def test_barrier_stacks_are_unitary_and_reciprocal(seed, n):
    values, widths, energy, decays = _plateau_stack(seed, n)
    energies = np.array([energy])
    s = qp.transfer_matrices(values[None], widths, energies)[0]
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-12
    assert abs(s[0, 1] - s[1, 0]) <= 1e-14
    # no wave passes an opaque plateau, so what lies beyond it leaves
    # the left reflection as it is, to the last bit
    for j in np.flatnonzero(decays > 750.0):
        cut = qp.transfer_matrices(values[None, :j + 1], widths[:j + 1],
                                   energies)[0]
        assert s[0, 0] == cut[0, 0]


def _dense_zero_t_shot(cycle: qp.PumpCycle, channel: int, mu: float,
                       q: qp.QuadratureSpec) -> float:
    """`shot_noise_zero_t` as one dense N x N kernel: B(t, t') over
    (t - t')^2 off the near band, the mean of the two nodes' limits on
    it, and the constant tails folded to single integrals."""
    t0, t1 = cycle.window
    times, weights = _simpson(t0, t1, q.n_shot_time)
    st = stencil(cycle, mu, times, q)
    rows = st.samples[0][:, 0, channel]
    off = _row_weights(st.shift)[2][:, 0, channel]
    bmat = np.clip(1.0 - np.abs(rows @ rows.conj().T) ** 2, 0.0, None)
    lag = times[:, None] - times[None, :]
    far = np.abs(lag) >= q.eps_diag_rel * (t1 - t0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(far, bmat / lag ** 2,
                          0.5 * (off[:, None] + off[None, :]))
        left = np.where(times > t0, bmat[0] / (times - t0), 0.0)
        right = np.where(times < t1, bmat[-1] / (t1 - times), 0.0)
    tails = weights @ left + weights @ right
    return float(weights @ kernel @ weights + 2.0 * tails) / (4.0 * math.pi ** 2)


def _near_band_draws(n_shot_time: int, eps: float) -> bool:
    """No node spacing sits on the near band's edge, where rounding in
    the node differences would decide which side a pair falls on."""
    lags = eps * (n_shot_time - n_shot_time % 2)    # Simpson intervals
    return abs(lags - round(lags)) > 1e-6


def _swept_pulse(maker, theta: float, turns: int) -> qp.PumpCycle:
    window = (0.0, 10.0)
    return maker(qp.TwoChannelParams(theta=theta),
                 lambda t: turns * TWO_PI * qp.smooth_step(t, *window),
                 window=window)


shot_specs = st.builds(
    lambda n, eps: replace(Q, n_shot_time=n, eps_diag_rel=eps),
    st.integers(128, 256), st.floats(1e-3, 3e-2)).filter(
        lambda q: _near_band_draws(q.n_shot_time, q.eps_diag_rel))
random_pulses = st.builds(
    lambda seed, n, amplitude: qp.make_pulse_cycle(
        n, np.random.default_rng(seed), window=(0.0, 8.0),
        amplitude=amplitude),
    seeds, st.integers(2, 4), st.floats(0.2, 0.8))
battery_pulses = st.builds(
    lambda theta, turns: _swept_pulse(qp.make_battery_cycle, theta, turns),
    st.floats(0.2, 1.4), st.sampled_from([-1, 1]))
noiseless_pulses = st.builds(
    _swept_pulse, st.sampled_from([qp.make_optimal_cycle, qp.make_sink_cycle]),
    st.floats(0.2, 1.4), st.sampled_from([-1, 1]))


@SETTINGS
@given(st.one_of(random_pulses, battery_pulses), st.integers(0, 1),
       st.floats(0.5, 2.0), shot_specs)
def test_zero_t_shot_noise_matches_the_dense_double_sum(cycle, channel, mu,
                                                       q):
    got = qp.shot_noise_zero_t(cycle, channel, mu, q)
    want = _dense_zero_t_shot(cycle, channel, mu, q)
    assert abs(got - want) <= max(1e-12 * abs(want), 1e-13)


def test_default_zero_t_shot_noise_matches_the_dense_double_sum():
    # the drawn specs stay under 257 nodes; this covers the default grid
    for cycle, channel in (
            (_swept_pulse(qp.make_battery_cycle, 0.9, 1), 0),
            (qp.make_pulse_cycle(3, np.random.default_rng(5),
                                 window=(0.0, 8.0), amplitude=0.6), 1)):
        got = qp.shot_noise_zero_t(cycle, channel, 1.0)
        want = _dense_zero_t_shot(cycle, channel, 1.0, Q)
        assert abs(got - want) <= max(1e-12 * abs(want), 1e-13)


@SETTINGS
@given(noiseless_pulses, st.integers(0, 1), shot_specs)
def test_noiseless_pumps_have_no_zero_t_shot_noise(cycle, channel, q):
    # the row of each channel only turns its phase, so B vanishes
    # identically and what is left is rounding
    for spec in (q, Q):
        assert abs(qp.shot_noise_zero_t(cycle, channel, 1.0, spec)) <= 1e-13


def _turning_phase(turns: int, ramp: tuple[float, float], bumps: list):
    """2 pi turns smooth_step(t, *ramp) plus amplitude x smooth_bump(t, a, b)
    for each (amplitude, a, b) of `bumps`: it may turn back, and it ends
    at 2 pi turns."""
    def phase(t):
        return turns * TWO_PI * qp.smooth_step(t, *ramp) + sum(
            amp * smooth_bump(t, a, b) for amp, a, b in bumps)
    return phase


# (amplitude, start, end) of up to three bumps: centre and half-width
# drawn, clipped to the window (0, 10)
bump_lists = st.lists(
    st.tuples(st.floats(-math.pi, math.pi), st.floats(1.0, 9.0),
              st.floats(0.5, 2.0)).map(
        lambda b: (b[0], max(0.0, b[1] - b[2]), min(10.0, b[1] + b[2]))),
    max_size=3)


@settings(SETTINGS, max_examples=20)
@given(st.floats(0.2, 1.4), st.sampled_from([-2, -1, 1, 2]),
       st.floats(0.0, 4.0), st.floats(2.0, 6.0), bump_lists)
def test_zero_t_shot_noise_obeys_the_minimal_excitation_bound(
        theta, turns, start, width, bumps):
    # the battery row gives B(t, t') = c^2 s^2 |f(t) - f(t')|^2 with
    # f = e^{i phi}, so the variance is c^2 s^2 times the number of
    # electrons plus holes the phase excites, and electrons minus holes
    # is the winding: at least |n| c^2 s^2, reached only by Lorentzian
    # pulses (Levitov, Lee & Lesovik 1996; Keeling, Klich & Levitov 2006)
    window = (0.0, 10.0)
    cycle = qp.make_battery_cycle(
        qp.TwoChannelParams(theta=theta),
        _turning_phase(turns, (start, start + width), bumps), window=window)
    bound = abs(turns) * (math.cos(theta) * math.sin(theta)) ** 2
    # a tenth of the default time step: at the default, the Hermitization
    # budget refuses some draws where a bump turns the ramp back
    q = replace(Q, h_t_rel=1e-6)
    assert qp.shot_noise_zero_t(cycle, 0, 1.0, q) >= bound * (1.0 - 1e-9)


plows = st.builds(qp.PlowSpec, st.floats(0.05, 3.0),
                  st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                  st.floats(0.5, 20.0))


@st.composite
def plow_points(draw, spec):
    """An incoming (E, t, channel), drawn free or within 1e-9 of a
    partition boundary (E = height, E = the moving-wall threshold,
    |t| = the switch time), or at |t| = travel_time."""
    h, v0, w = spec.height, spec.speed, spec.travel_time
    channel = draw(st.integers(0, 1))
    sign = -1.0 if channel == 0 else 1.0
    energy = draw(st.floats(1e-3, 4.0 * h))
    time = draw(st.floats(-2.0 * w, 2.0 * w))
    where = draw(st.sampled_from(["free", "height", "moving", "switch",
                                  "travel"]))

    def near(value):
        # within 1e-9, or a few ulps: at |t| = the switch time the
        # crossing lands on a corner of the barrier path
        return value + draw(st.one_of(
            st.floats(-1e-9, 1e-9),
            st.integers(-3, 3).map(lambda k: k * math.ulp(value))))

    if where == "height":
        energy = near(h)
    elif where == "moving":
        energy = near(0.5 * max(math.sqrt(2.0 * h) - sign * v0, 0.0) ** 2)
    energy = energy if energy > 0.0 else 1e-3
    if where == "switch":
        time = near(w * (1.0 + sign * v0 / math.sqrt(2.0 * energy)))
    elif where == "travel":
        time = w
    return energy, time * draw(st.sampled_from([-1.0, 1.0])), channel


@SETTINGS
@given(st.data(), plows)
def test_array_event_loop_is_the_scalar_loop_bit_for_bit(data, spec):
    points = data.draw(st.lists(plow_points(spec), min_size=1, max_size=30))
    energies, times, channels = map(np.array, zip(*points))
    got = classical._scatter_many(spec, energies, times, channels)
    want = [qp.classical_scatter(spec, *point) for point in points]
    for field, column in zip(("energy", "time", "channel", "n_events"), got):
        assert column.tolist() == [getattr(r, field) for r in want], field
