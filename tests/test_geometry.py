"""Parallel transport, plaquette flux, windings and the unit sphere.

The sphere-cap oracles are classical solid-angle formulas: a polar cap
at angle theta subtends 2 pi (1 - cos theta), so the transported charge
around its rim is sin^2(theta / 2) up to orientation.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import qpump as qp
from qpump import geometry

TWO_PI = 2.0 * math.pi
Q = qp.QuadratureSpec()


def _spinor_loop(polar: float, n: int) -> np.ndarray:
    """Spinors tracing the circle at polar angle `polar`, azimuth 0..2pi."""
    az = np.linspace(0.0, TWO_PI, n, endpoint=False)
    states = np.empty((n, 2), dtype=complex)
    states[:, 0] = math.cos(polar / 2.0)
    states[:, 1] = np.exp(1j * az) * math.sin(polar / 2.0)
    return states


def test_global_angle_of_polar_cap():
    # transported charge is the enclosed solid angle over 4 pi; with the
    # orientation fixed by the sink anchor below, increasing azimuth
    # around the north pole counts negative.
    for polar in (0.4, math.pi / 2, 2.2):
        states = _spinor_loop(polar, 600)
        charge = -qp.global_angle(states) / TWO_PI
        want = -math.sin(polar / 2.0) ** 2
        assert abs(charge - want) < 1e-5


def test_global_angle_needs_resolved_overlaps():
    # consecutive states nearly orthogonal: the link phase is undefined
    states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(qp.GridTooCoarse):
        qp.global_angle(states)


def test_plaquette_flux_telescopes_to_boundary():
    # summing plaquette phases and transporting around the rim are the
    # same sum arranged differently, so they agree to roundoff.
    rng = np.random.default_rng(31)
    for _ in range(5):
        grid = qp.random_smooth_patch(rng, dim=2)
        assert qp.stokes_residual(grid) < 1e-10


def test_plaquette_flux_on_wrapped_torus_is_quantized():
    """Closed surfaces carry integer flux; a two-band lattice map has C=1.

    Lower eigenvector of h . sigma with h = (sin u, sin v,
    m - cos u - cos v); for 0 < m < 2 the texture wraps the sphere once.
    """
    n, m = 40, 1.0
    u = TWO_PI * np.arange(n) / n
    grid = np.empty((n, n, 2), dtype=complex)
    for i, ui in enumerate(u):
        for j, vj in enumerate(u):
            h = np.array([math.sin(ui), math.sin(vj),
                          m - math.cos(ui) - math.cos(vj)])
            hs = h[0] * np.array([[0, 1], [1, 0]], dtype=complex) \
                + h[1] * np.array([[0, -1j], [1j, 0]]) \
                + h[2] * np.array([[1, 0], [0, -1]], dtype=complex)
            vals, vecs = np.linalg.eigh(hs)
            grid[i, j] = vecs[:, 0]
    total = qp.surface_flux(grid, wrap_u=True, wrap_v=True)
    chern = total / TWO_PI
    assert abs(chern - round(chern)) < 1e-9
    assert abs(round(chern)) == 1


def test_plaquette_rejects_large_phases():
    th = np.linspace(0.0, math.pi, 2)
    grid = np.empty((2, 2, 2), dtype=complex)
    # antipodal jump inside one plaquette
    grid[0, 0] = [1.0, 0.0]
    grid[1, 0] = [0.0, 1.0]
    grid[0, 1] = [0.0, 1.0]
    grid[1, 1] = [1.0, 0.0]
    with pytest.raises(qp.GridTooCoarse):
        qp.plaquette_phases(grid)
    del th


def test_winding_number_basics():
    t = np.linspace(0.0, 1.0, 300, endpoint=False)
    for k in (-2, -1, 0, 1, 3):
        values = np.exp(1j * TWO_PI * k * t)
        assert qp.winding_number(values) == k
    with pytest.raises(qp.PhaseUnwrapFailure):
        qp.winding_number(np.exp(1j * np.array([0.0, 3.0, 0.2, 5.9])))
    with pytest.raises(qp.PhaseUnwrapFailure, match="through zero"):
        qp.winding_number(np.array([1.0, 0.0, 1.0], dtype=complex))


def test_uturn_amplitude_winding():
    cyc = qp.make_uturn_cycle(1.0, flux=lambda t: TWO_PI * t, period=1.0)
    mu = TWO_PI ** 2 / 2.0
    assert qp.amplitude_winding(cyc, 0, mu, Q) == 1
    assert qp.amplitude_winding(cyc, 1, mu, Q) == -1


def test_sink_transported_charge_is_minus_one():
    # gamma advancing by 2 pi parallel-transports each row once around;
    # the convention is fixed so the transported charge matches the
    # Fermi-level cycle charge of the same model.
    cyc = qp.make_sink_cycle(qp.TwoChannelParams(theta=0.5),
                             gamma=lambda t: TWO_PI * t, period=1.0)
    charge = qp.charge_from_global_angle(cyc, 0, 1.0, Q)
    assert abs(charge + 1.0) < 1e-9
    state = qp.ThermalState(mu=1.0, temperature=0.0)
    assert abs(charge - qp.cycle_charge(cyc, state, Q)[0]) < 1e-8


def test_loop_formulas_refuse_a_pulse_as_a_configuration_error():
    pulse = qp.make_sink_cycle(qp.TwoChannelParams(theta=0.5),
                               gamma=lambda t: TWO_PI * t, window=(0.0, 1.0))
    for formula in (qp.charge_from_global_angle, qp.amplitude_winding,
                    qp.fractional_charge):
        with pytest.raises(qp.NoTimeDomain, match="periodic cycle") as err:
            formula(pulse, 0, 1.0, Q)
        assert err.value.exit_code == 2


def test_spherical_polygon_area_matches_caps():
    # solid angles live mod 4 pi: a southern rim may come back as the
    # negatively oriented complement.
    four_pi = 2.0 * TWO_PI
    for polar in (0.5, 1.2, 2.4):
        az = np.linspace(0.0, TWO_PI, 3000, endpoint=False)
        pts = np.stack([np.sin(polar) * np.cos(az),
                        np.sin(polar) * np.sin(az),
                        np.full_like(az, math.cos(polar))], axis=1)
        area = qp.spherical_polygon_area(pts)
        gap = (area - TWO_PI * (1.0 - math.cos(polar))) % four_pi
        assert min(gap, four_pi - gap) < 1e-5
    with pytest.raises(qp.GridTooCoarse):
        qp.spherical_polygon_area(np.array([[1.0, 0.0, 0.0],
                                            [-1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]]))


def test_fractional_charge_on_equator_cycle():
    # constant theta = pi/4 puts row 0 on the hopf equator; sweeping
    # alpha once moves it around the full great circle.
    cyc = qp.make_custom_two_channel(theta=lambda t: math.pi / 4,
                                     alpha=lambda t: TWO_PI * t,
                                     phi=lambda t: 0.0,
                                     gamma=lambda t: 0.0, period=1.0)
    frac = qp.fractional_charge(cyc, 0, 1.0, Q)
    assert abs(abs(frac) - 0.5) < 1e-6


def test_hopf_vector_is_unit_length():
    rng = np.random.default_rng(41)
    z = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    v = np.array([qp.hopf_vector(row) for row in z])
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12


def test_hopf_vector_on_a_stack_of_rows():
    rng = np.random.default_rng(42)
    z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    stacked = qp.hopf_vector(z)
    assert stacked.shape == (40, 3)
    assert np.array_equal(stacked, np.array([qp.hopf_vector(r) for r in z]))
    assert qp.hopf_vector(z.reshape(4, 10, 2)).shape == (4, 10, 3)
    z[17] *= 1.001
    with pytest.raises(ValueError, match="unit vector"):
        qp.hopf_vector(z)
    with pytest.raises(ValueError, match="length 2"):
        qp.hopf_vector(np.ones((5, 3)))


def test_cylinder_charge_matches_cycle_charge():
    rng = np.random.default_rng(43)
    cyc = qp.make_random_analytic_cycle(2, rng, zero_energy_flat=True)
    state = qp.ThermalState(mu=0.8, temperature=0.0)
    direct = qp.cycle_charge(cyc, state, Q)[0]
    surface = qp.cylinder_charge(cyc, 0, 0.8, Q)
    assert abs(direct - surface) < 1e-4


def test_cylinder_charge_requires_flat_bottom():
    rng = np.random.default_rng(47)
    cyc = qp.make_random_analytic_cycle(2, rng)  # moves at E = 0
    with pytest.raises(qp.RegionTouchesDiscontinuity,
                       match="moves at zero energy"):
        qp.cylinder_charge(cyc, 0, 0.8, Q)


def test_cylinder_charge_band_edge_and_channel_errors():
    def evaluate(energy, time):
        if abs(energy - 0.5) < 1e-9:
            raise qp.EnergyAtBandEdge("plateau at E = 0.5")
        return np.eye(2)

    cyc = qp.PumpCycle(2, evaluate, period=1.0)
    q = replace(Q, n_time=16)
    with pytest.raises(qp.RegionTouchesDiscontinuity):
        qp.cylinder_charge(cyc, 0, 1.0, q)
    for channel in (-1, 2):
        with pytest.raises(ValueError, match="channel"):
            qp.cylinder_charge(cyc, channel, 1.0, q)


def test_cylinder_charge_on_the_bicycle_refuses_the_band_bottom():
    # the bicycle's S is undefined at E = 0, where the sweep starts
    with pytest.raises(qp.RegionTouchesDiscontinuity):
        qp.cylinder_charge(qp.make_bicycle_cycle(), 0, 1.0, Q)


def _torus_rows(n: int) -> np.ndarray:
    """Rows of channel 0 at E = 1 of three plateaus, widths 0.7, 1.3 and
    0.7, heights 1.5 + 3 cos u, 1.5 + 3 sin(u + v) and 1.5 + 3 cos v,
    on an n x n grid of the (u, v) torus."""
    u, v = np.meshgrid(TWO_PI * np.arange(n) / n, TWO_PI * np.arange(n) / n,
                       indexing="ij")
    heights = 1.5 + 3.0 * np.stack([np.cos(u), np.sin(u + v), np.cos(v)],
                                   axis=-1)
    s = qp.transfer_matrices(heights.reshape(-1, 3), np.array([0.7, 1.3, 0.7]),
                             np.ones(n * n))
    return s[:, 0, :].reshape(n, n, 2)


@pytest.mark.parametrize("n", [64, 128])
def test_admissibility_refuses_a_winding_the_overlaps_hide(n):
    # S_00 has an isolated zero on the torus; on these grids its phase
    # winds by 2 pi inside one plaquette, which the gauge-invariant
    # overlaps cannot see: they read a Chern number of -1
    rows = _torus_rows(n)
    assert abs(qp.surface_flux(rows, wrap_u=True, wrap_v=True) / TWO_PI
               + 1.0) < 1e-9
    with pytest.raises(qp.GridTooCoarse):
        geometry._check_admissible(rows, wrap_u=True, wrap_v=True)


def test_rows_over_a_closed_surface_carry_no_chern_number():
    # the row of S is a smooth single-valued section over the torus, so
    # its Chern number vanishes once the grid resolves it
    rows = _torus_rows(256)
    geometry._check_admissible(rows, wrap_u=True, wrap_v=True)
    assert abs(qp.surface_flux(rows, wrap_u=True, wrap_v=True)) < 1e-12


class _StubRng:
    """`normal` of `default_rng(seed)`, with the first `zeros` calls
    returning zeros; `calls` counts them all."""

    def __init__(self, seed: int, zeros: int = 0):
        self._rng = np.random.default_rng(seed)
        self.zeros = zeros
        self.calls = 0

    def normal(self, size):
        self.calls += 1
        if self.calls <= self.zeros:
            return np.zeros(size)
        return self._rng.normal(size=size)


# `normal` calls per `random_smooth_patch` draw: the offset and 16
# Fourier terms, real and imaginary parts each
_NORMALS_PER_DRAW = 34


def test_each_lattice_formula_reads_the_links_once(monkeypatch):
    # one pass along u and one along v, shared by the plaquette flux,
    # the admissibility rule and the Stokes rim
    patch = qp.random_smooth_patch(np.random.default_rng(31), dim=2)
    cyc = qp.make_random_analytic_cycle(2, np.random.default_rng(43),
                                        zero_energy_flat=True)
    links = geometry._links
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return links(a, b)

    monkeypatch.setattr(geometry, "_links", counted)
    rng = _StubRng(31)
    runs = {"plaquette_phases": lambda: qp.plaquette_phases(patch),
            "stokes_residual": lambda: qp.stokes_residual(patch),
            "cylinder_charge": lambda: qp.cylinder_charge(cyc, 0, 0.8, Q),
            "random_smooth_patch": lambda: qp.random_smooth_patch(rng, 2)}
    passes = {}
    for name, run in runs.items():
        calls.clear()
        run()
        passes[name] = len(calls)
    assert rng.calls == _NORMALS_PER_DRAW    # one draw, accepted
    assert passes == dict.fromkeys(runs, 2)


def test_random_smooth_patch_redraws_a_field_near_zero():
    # the whole first draw is zero, so its norm is below 1e-3 everywhere
    rng = _StubRng(31, zeros=_NORMALS_PER_DRAW)
    patch = qp.random_smooth_patch(rng, dim=2)
    assert rng.calls >= 2 * _NORMALS_PER_DRAW
    assert np.allclose(np.linalg.norm(patch, axis=-1), 1.0, atol=1e-14)
    geometry._check_admissible(patch)
