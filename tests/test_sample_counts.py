"""S matrices each CLI command asks of its cycle, as upper bounds.

Counts are deterministic, so they pin a cost that wall time on a busy
host cannot resolve.  Every `PumpCycle.sample_grid` call is counted as
N x M matrices for N times and M energies; the distinct count takes one
energy per time when the returned energy axis has stride 0, as for the
energy-independent models whose S the stencil differences once per time.
A change that lowers a count lowers its bound here too.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from qpump import QuadratureSpec, ThermalState, cli, transport_report
from qpump.models import ModelSpec, make_pump
from qpump.smatrix import PumpCycle

BATTERY = {"kind": "battery", "params": {"theta": 0.9}}
BICYCLE = {"kind": "bicycle"}
PULSE = {"kind": "battery", "theta": 0.7, "window": [0.0, 10.0]}

# (command, config, flags, matrices, distinct or None)
CASES = {
    # 64 x 3 for the sweep and 8 x 2 for the sum rule's half steps, over
    # 64 thermal nodes and mu
    "transport-battery-warm": (
        "transport", {"model": BATTERY, "state": {"mu": 1.0,
                                                  "temperature": 0.1}},
        ["--grid", "64"], 13_520, 208),
    # 512 x 3 for the sweep and 16 x 2 for the sum rule's half steps,
    # at one energy
    "transport-bicycle-cold": (
        "transport", {"model": BICYCLE, "state": {"mu": 1.0}}, [],
        1_552, None),
    "geometry-bicycle": (
        "geometry", {"model": BICYCLE, "state": {"mu": 1.0}}, [],
        1_536, None),
    # 513 x 3 for the shot sweep, 64 x 3 for the mean, 4 for the pulse gate
    "noise-zero-t": (
        "noise", {"pulse": PULSE, "state": {"mu": 1.0}},
        ["--grid", "64", "--zero-t"], 1_735, None),
    # the split's sweep 12,480 (192 distinct), the kernel's 64 x 16 pairs
    # and the pulse gate's 4
    "noise-direct": (
        "noise", {"pulse": PULSE, "state": {"mu": 1.0, "temperature": 12.0}},
        ["--grid", "64", "--direct"], 13_508, 1_220),
    # the sweep's 12,480 and the pulse gate's 4
    "noise-split": (
        "noise", {"pulse": PULSE, "state": {"mu": 1.0, "temperature": 12.0}},
        ["--grid", "64"], 12_484, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_count_stays_within_its_bound(case, tmp_path, monkeypatch):
    command, config, flags, most, most_distinct = CASES[case]
    counts = {"matrices": 0, "distinct": 0}
    sample_grid = PumpCycle.sample_grid

    def counted(self, energies, times):
        s = sample_grid(self, energies, times)
        n_t, n_e = s.shape[:2]
        counts["matrices"] += n_t * n_e
        counts["distinct"] += n_t * (1 if s.strides[1] == 0 else n_e)
        return s

    monkeypatch.setattr(PumpCycle, "sample_grid", counted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     *flags]) == 0
    assert 0 < counts["matrices"] <= most
    if most_distinct is not None:
        assert counts["distinct"] <= most_distinct


@pytest.mark.parametrize("temperature", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["snowplow", "battery"])
def test_transport_report_samples_s_once(kind, temperature, monkeypatch):
    # the sweep and the sum rule share one sample pass, hence one
    # unitarity check
    calls = []
    sample_grid = PumpCycle.sample_grid

    def counted(self, energies, times):
        calls.append(np.size(times))
        return sample_grid(self, energies, times)

    monkeypatch.setattr(PumpCycle, "sample_grid", counted)
    cycle = make_pump(ModelSpec(kind))
    q = QuadratureSpec(n_time=32, n_energy=16)
    transport_report(cycle, ThermalState(mu=1.0, temperature=temperature), q)
    assert calls == [32 * 3 + 8 * 2]


@pytest.mark.parametrize("temperature", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["snowplow", "battery"])
def test_richardson_report_samples_each_time_once(kind, temperature,
                                                  monkeypatch):
    # under Richardson the sweep already samples t +- h_t / 2, so the sum
    # rule reads those and asks for no second copy
    calls = []
    sample_grid = PumpCycle.sample_grid

    def counted(self, energies, times):
        calls.append(np.array(times))
        return sample_grid(self, energies, times)

    monkeypatch.setattr(PumpCycle, "sample_grid", counted)
    cycle = make_pump(ModelSpec(kind))
    q = QuadratureSpec(n_time=32, n_energy=16, richardson=True)
    transport_report(cycle, ThermalState(mu=1.0, temperature=temperature), q)
    assert len(calls) == 1
    assert calls[0].size == 32 * 5
    assert np.unique(calls[0]).size == calls[0].size
