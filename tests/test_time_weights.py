"""Every time integral takes its rule from the cycle's `time_grid`.

A cycle that keeps the midpoint nodes but weighs them unevenly must move
every cycle and window integral to `weights @` its own rate series; a
module that still assumed equal weights would give the uniform answer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

import qpump as qp
from qpump import cli

Q = qp.QuadratureSpec()
N_NODES = 12
WARM = qp.ThermalState(mu=1.0, temperature=0.4)
CHANNEL = 1


@dataclass(frozen=True)
class _OnGrid(qp.PumpCycle):
    """A cycle whose time integrals run on the nodes and weights given."""

    grid: tuple = ()

    def time_grid(self, n):
        return self.grid


def _on_grid(cycle: qp.PumpCycle, nodes, weights) -> _OnGrid:
    base = {f.name: getattr(cycle, f.name) for f in fields(qp.PumpCycle)}
    return _OnGrid(**base, grid=(np.asarray(nodes, dtype=float),
                                 np.asarray(weights, dtype=float)))


def _reweighted(cycle: qp.PumpCycle) -> _OnGrid:
    """The cycle's own midpoint nodes, with positive uneven weights."""
    nodes, weights = qp.PumpCycle.time_grid(cycle, N_NODES)
    return _on_grid(cycle, nodes, weights * np.linspace(0.2, 1.8, N_NODES))


def _series(f, cycle: _OnGrid) -> np.ndarray:
    """f at each node of the cycle's grid alone, with weight one."""
    return np.array([f(_on_grid(cycle, [t], [1.0])) for t in cycle.grid[0]])


def _battery_pulse() -> qp.PumpCycle:
    window = (0.0, 10.0)
    return qp.make_battery_cycle(
        qp.TwoChannelParams(theta=0.7),
        phi=lambda t: 2.0 * np.pi * qp.smooth_step(t, *window), window=window)


def test_transport_integrals_read_the_cycle_weights():
    cyc = _reweighted(
        qp.make_random_analytic_cycle(2, np.random.default_rng(31)))
    w = cyc.grid[1]
    rep = qp.transport_report(cyc, WARM, Q)
    assert np.array_equal(rep.charges, w @ rep.charge_rate)
    assert np.array_equal(rep.heat, w @ rep.dissipation_rate)
    assert np.array_equal(rep.entropy, w @ rep.entropy_rate)
    assert np.array_equal(rep.noise, w @ rep.noise_rate)
    assert np.array_equal(qp.cycle_charge(cyc, WARM, Q), rep.charges)


def test_geometry_command_reads_the_cycle_weights(tmp_path, capsys,
                                                  monkeypatch):
    build = cli.build_model
    monkeypatch.setattr(cli, "build_model",
                        lambda cfg: _reweighted(build(cfg)))
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(
        {"model": {"kind": "battery", "params": {"theta": 0.9}}}))
    assert cli.main(["geometry", "--config", str(path),
                     "--channel", str(CHANNEL)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    cyc = cli.build_model({"model": {"kind": "battery",
                                     "params": {"theta": 0.9}}})
    rep = qp.transport_report(cyc, qp.ThermalState(mu=summary["mu"]), Q)
    assert summary["bpt_charge"] == float(
        (cyc.grid[1] @ rep.charge_rate)[CHANNEL])


def test_pulse_cumulants_read_the_cycle_weights():
    cyc = _reweighted(_battery_pulse())
    w = cyc.grid[1]
    rep = qp.transport_report(cyc, WARM, Q)
    shot = w @ rep.noise_rate[:, CHANNEL]
    thermal = w @ _series(
        lambda c: qp.thermal_noise(c, CHANNEL, WARM, Q), cyc)
    direct = w @ _series(
        lambda c: qp.second_cumulant_direct(c, CHANNEL, WARM, Q), cyc)

    out = qp.noise_report(cyc, CHANNEL, WARM, Q, include_direct=True)
    assert out.mean == float((w @ rep.charge_rate)[CHANNEL])
    np.testing.assert_allclose(
        [out.thermal, out.shot, out.direct,
         qp.thermal_noise(cyc, CHANNEL, WARM, Q),
         qp.shot_noise_finite_t(cyc, CHANNEL, WARM, Q),
         qp.second_cumulant_direct(cyc, CHANNEL, WARM, Q)],
        [thermal, shot, direct, thermal, shot, direct], rtol=1e-12)
