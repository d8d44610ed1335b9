"""End-to-end checks of the command line front end."""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpump import cli, errors, geometry, models
from qpump.errors import PumpError
from qpump.models import MODEL_KINDS
from qpump.quadrature import QuadratureSpec


def _write(tmp_path, name: str, cfg: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _battery_cfg(tmp_path) -> str:
    return _write(tmp_path, "battery.json",
                  {"model": {"kind": "battery", "params": {"theta": 0.9}}})


def _pulse_cfg(tmp_path) -> str:
    return _write(tmp_path, "pulse.json",
                  {"pulse": {"kind": "battery", "theta": 0.7,
                             "window": [0.0, 10.0]},
                   "state": {"mu": 1.0}})


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_transport_json_summary(tmp_path, capsys):
    code = cli.main(["transport", "--config", _battery_cfg(tmp_path),
                     "--grid", "64"])
    assert code == 0
    payload = _json_out(capsys)
    summary = payload["summary"]
    want = math.sin(0.9) ** 2
    assert abs(summary["charges"][0] - want) < 1e-6
    assert abs(summary["charges"][1] + want) < 1e-6
    assert summary["bk_residual"] < 1e-8
    assert "entropy" not in summary  # cold run has no entropy columns
    assert len(payload["series"]["time"]) == 64


def test_transport_warm_run_adds_entropy_columns(tmp_path, capsys):
    code = cli.main(["transport", "--config", _battery_cfg(tmp_path),
                     "--grid", "32", "--temperature", "2.0"])
    assert code == 0
    payload = _json_out(capsys)
    assert "entropy" in payload["summary"]
    assert "noise_rate_1" in payload["series"]


def test_transport_csv_is_deterministic(tmp_path):
    cfg = _battery_cfg(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(["transport", "--config", cfg, "--grid", "32",
                         "--format", "csv", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# charges = [") for ln in meta)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[:2] == ["time", "charge_rate_0"]


def test_geometry_routes_agree_on_quantized_charge(tmp_path, capsys):
    cfg = _write(tmp_path, "uturn.json",
                 {"model": {"kind": "uturn", "params": {"flux_quanta": 1.0}}})
    code = cli.main(["geometry", "--config", cfg, "--mu", "1.0"])
    assert code == 0
    summary = _json_out(capsys)["summary"]
    assert abs(summary["bpt_charge"] + 1.0) < 1e-6
    assert abs(summary["global_angle_charge"] + 1.0) < 1e-9
    assert summary["winding"] == 1
    assert summary["fractional_charge"] == 0.0


def test_wide_valve_bicycle_answers(tmp_path, capsys):
    # valves 2 wide and 1e4 tall decay by up to about 630 each; while
    # both are partly closed the two together decay past the range of
    # a double, and S must stay finite and unitary there
    cfg = _write(tmp_path, "bicycle.json",
                 {"model": {"kind": "bicycle",
                            "params": {"length": 5, "delta": 2}}})
    assert cli.main(["transport", "--config", cfg]) == 0
    summary = _json_out(capsys)["summary"]
    q0, q1 = summary["charges"]
    assert abs(q0 + q1) < 1e-6
    assert summary["bk_residual"] < 1e-8
    assert cli.main(["geometry", "--config", cfg]) == 0
    summary = _json_out(capsys)["summary"]
    gap = (summary["fractional_charge"] - summary["global_angle_charge"]) % 1.0
    assert min(gap, 1.0 - gap) < 1e-6


@pytest.mark.parametrize("channel", [0, 1])
@pytest.mark.parametrize("model", [
    pytest.param({"kind": "bicycle"}, id="bicycle-L1"),
    pytest.param({"kind": "bicycle", "params": {"length": 1.37}},
                 id="bicycle-L1.37"),
    pytest.param({"kind": "battery", "params": {"theta": 0.9}},
                 id="battery"),
])
def test_geometry_prints_the_library_answers(tmp_path, capsys, model,
                                             channel):
    # the command takes its rows from the charge's stencil; the library
    # samples them on their own, and the answers are equal bit for bit
    cfg = _write(tmp_path, "model.json", {"model": model})
    assert cli.main(["geometry", "--config", cfg,
                     "--channel", str(channel)]) == 0
    summary = _json_out(capsys)["summary"]
    cycle, q = cli.build_model({"model": model}), QuadratureSpec()
    mu = summary["mu"]
    assert summary["bpt_charge"] == float(
        cli.cycle_charge(cycle, cli.ThermalState(mu=mu), q)[channel])
    assert summary["global_angle_charge"] == \
        geometry.charge_from_global_angle(cycle, channel, mu, q)
    try:
        winding = geometry.amplitude_winding(cycle, channel, mu, q)
    except errors.PhaseUnwrapFailure:
        winding = None
    assert summary["winding"] == winding
    assert summary["fractional_charge"] == \
        geometry.fractional_charge(cycle, channel, mu, q)


def test_noise_zero_t_reports_the_shot_integral(tmp_path, capsys):
    code = cli.main(["noise", "--config", _pulse_cfg(tmp_path), "--zero-t"])
    assert code == 0
    summary = _json_out(capsys)["summary"]
    assert abs(summary["shot_noise"] - 0.266371253695161) < 1e-9
    assert summary["thermal_noise"] == 0.0
    assert abs(summary["mean"] - math.sin(0.7) ** 2) < 1e-6


def test_noise_direct_cross_check(tmp_path, capsys):
    code = cli.main(["noise", "--config", _pulse_cfg(tmp_path),
                     "--temperature", "12.0", "--direct"])
    assert code == 0
    summary = _json_out(capsys)["summary"]
    assert abs(summary["split_vs_direct"]) < 1e-4 * summary["total_noise"]


def test_classical_partition_and_charges(tmp_path, capsys):
    cfg = _write(tmp_path, "plow.json",
                 {"classical": {"height": 1.0, "speed": 0.0141421356,
                                "travel_time": 10.0},
                  "state": {"mu": 0.5}})
    code = cli.main(["classical", "--config", cfg, "--points", "300"])
    assert code == 0
    summary = _json_out(capsys)["summary"]
    assert summary["partition_disagreements"] == 0
    assert summary["charge_direct"][0] < 0.0 < summary["charge_direct"][1]
    assert summary["max_relative_gap"] < 0.05


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "typo.json",
                 {"model": {"kind": "battery", "params": {"thetaa": 0.9}}})
    assert cli.main(["transport", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "thetaa" in err


def test_config_file_problems_exit_2(tmp_path, capsys):
    assert cli.main(["transport", "--config",
                     str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["transport", "--config", str(bad)]) == 2
    cfg = _write(tmp_path, "badpulse.json", {"pulse": {"kind": "laser"}})
    assert cli.main(["noise", "--config", cfg]) == 2
    capsys.readouterr()


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert cli.main(["transport", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: {tmp_path}: cannot read (Is a directory)\n"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"model": {"kind": "café"}}'.encode("latin-1"))
    assert cli.main(["transport", "--config", str(latin1)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {latin1}: not UTF-8 text (invalid "
        "continuation byte)\n")


def test_unopenable_out_exits_2(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["models-list", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: --out: "
                                       "cannot write (")


# one refused configuration per refusal kind, and one library refusal per
# section, with the exact line it prints
@pytest.mark.parametrize("command, cfg, line", [
    pytest.param("transport", {"state": {"mux": 1.0}},
                 "state: unknown keys ['mux']", id="unknown-key"),
    # the stencil's budgets and the thermal reach are constants: no
    # configuration can loosen them
    *(pytest.param("transport", {"quadrature": {key: 1000.0}},
                   f"quadrature: unknown keys ['{key}']", id=f"unknown-{key}")
      for key in ("hermiticity_tol", "unitarity_tol", "energy_window")),
    pytest.param("classical", {"classical": {"height": "1"}},
                 "classical.height: expected a number", id="not-a-number"),
    pytest.param("noise", {"pulse": {"kind": "random", "n_channels": 2.5}},
                 "pulse.n_channels: expected an integer",
                 id="not-an-integer"),
    pytest.param("transport", {"quadrature": {"richardson": 1}},
                 "quadrature.richardson: expected true/false",
                 id="not-a-bool"),
    pytest.param("transport", {"state": {"mu": -1.0}},
                 "state: chemical potential must be positive and finite",
                 id="state"),
    pytest.param("transport", {"quadrature": {"n_energy": 8}},
                 "quadrature: n_energy must be an integer >= 16",
                 id="quadrature"),
    pytest.param("transport", {"model": {"kind": "bicycle",
                                         "params": {"length": 0}}},
                 "model.params: bicycle.length must be >= 1e-06",
                 id="model"),
    pytest.param("classical", {"classical": {"speed": -1}},
                 "classical: need finite height > 0, speed >= 0, "
                 "travel_time > 0", id="classical"),
    pytest.param("noise", {"pulse": {"kind": "sink", "theta": 2.0}},
                 "pulse.theta: theta must lie in [0, pi/2]", id="pulse"),
    pytest.param("noise", {"pulse": {"kind": "battery",
                                     "window": [-0.9e308, 0.9e308]}},
                 "pulse.window: expected [start, end] with start < end and "
                 "a finite length", id="pulse-window-overflow"),
    pytest.param("noise", {"pulse": {"kind": "random", "amplitude": 1e308}},
                 "pulse.amplitude: amplitude 1e+308 overflows the generators",
                 id="pulse-amplitude-overflow"),
])
def test_refusal_lines_are_pinned(tmp_path, capsys, command, cfg, line):
    path = _write(tmp_path, "cfg.json", {"model": {"kind": "battery"}, **cfg})
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err == f"configuration error: {line}\n"


def test_quadrature_keys_are_read_as_their_field_types():
    args = cli.build_parser().parse_args(["transport", "--config", "-"])
    cfg = {"quadrature": {"richardson": True, "n_energy": 32.0}}
    q = cli.build_quadrature(cfg, args)
    assert q == QuadratureSpec(richardson=True, n_energy=32)
    assert type(q.n_energy) is int


@pytest.mark.parametrize("key", ["omega_identity_tol", "stokes_tol",
                                 "numeric_tol", "max_events"])
def test_removed_quadrature_keys_are_unknown(tmp_path, capsys, key):
    cfg = _write(tmp_path, "quad.json",
                 {"model": {"kind": "battery"}, "quadrature": {key: 5}})
    assert cli.main(["transport", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "quadrature" in err and key in err


def _battery(section: str) -> str:
    return '{"model": {"kind": "battery"}, %s}' % section


@pytest.mark.parametrize("command, text", [
    pytest.param("transport", _battery('"state": {"mu": NaN}'), id="mu-nan"),
    pytest.param("transport", _battery('"quadrature": {"h_t_rel": NaN}'),
                 id="h_t_rel-nan"),
    pytest.param("transport",
                 '{"model": {"kind": "battery", "params": {"phi_rate": NaN}}}',
                 id="phi_rate-nan"),
    pytest.param("noise",
                 '{"pulse": {"kind": "battery", "window": [0, Infinity]}}',
                 id="window-inf"),
    pytest.param("transport", _battery('"quadrature": {"n_time": Infinity}'),
                 id="n_time-inf"),
    pytest.param("transport", _battery('"quadrature": {"n_time": -Infinity}'),
                 id="n_time-minus-inf"),
    pytest.param("transport", _battery('"quadrature": {"n_time": NaN}'),
                 id="n_time-nan"),
    pytest.param("transport", _battery('"state": {"mu": 1e400}'),
                 id="mu-1e400"),
    pytest.param("transport", _battery('"state": {"mu": 1%s}' % ("0" * 400)),
                 id="mu-int-1e400"),
    pytest.param("transport", _battery('"quadrature": {"n_time": 16.5}'),
                 id="n_time-16.5"),
    pytest.param("transport",
                 '{"model": {"kind": "battery", "params": {"theta": true}}}',
                 id="theta-bool"),
    pytest.param("transport",
                 '{"model": {"kind": "battery", "params": {"theta": "0.5"}}}',
                 id="theta-string"),
    pytest.param("transport",
                 '{"model": {"kind": "battery", "params": {"phi0": "nan"}}}',
                 id="phi0-string-nan"),
])
def test_non_finite_or_non_integral_numbers_exit_2(tmp_path, capsys,
                                                    command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    pytest.param("transport", ["--mu", "nan"], id="mu-nan"),
    pytest.param("transport", ["--mu", "inf"], id="mu-inf"),
    pytest.param("transport", ["--temperature", "inf"], id="temperature-inf"),
    pytest.param("transport", ["--temperature", "nan"], id="temperature-nan"),
    pytest.param("transport", ["--temperature", "1e307"],
                 id="temperature-window-overflow"),
    pytest.param("noise", ["--direct", "--temperature", "1e307"],
                 id="noise-temperature-window-overflow"),
    pytest.param("classical", ["--points", "-5"], id="points-negative"),
    pytest.param("classical", ["--seed", "-1"], id="classical-seed-negative"),
    pytest.param("noise", ["--seed", "-1"], id="noise-seed-negative"),
    pytest.param("geometry", ["--channel", "2"], id="geometry-channel-2"),
    pytest.param("noise", ["--channel", "2"], id="noise-channel-2"),
])
def test_bad_flag_values_exit_2(tmp_path, capsys, command, flags):
    cfg = _write(tmp_path, "cfg.json",
                 {"model": {"kind": "battery"},
                  "pulse": {"kind": "random", "window": [0.0, 10.0]}})
    assert cli.main([command, "--config", cfg, *flags]) == 2
    assert "configuration error" in capsys.readouterr().err


# a bad flag is refused under its own name, whatever the file holds; a
# bad file value is refused under its section unless a flag replaces it
@pytest.mark.parametrize("cfg, flags, line", [
    pytest.param({}, ["--grid", "8"],
                 "--grid: n_time must be an integer >= 16", id="grid"),
    pytest.param({}, ["--mu", "-1"],
                 "--mu: chemical potential must be positive and finite",
                 id="mu"),
    pytest.param({"state": {"mu": 2.0}}, ["--temperature", "-1"],
                 "--temperature: temperature must be non-negative and "
                 "finite", id="temperature"),
    pytest.param({"state": {"temperature": -1.0}}, ["--mu", "2"],
                 "state: temperature must be non-negative and finite",
                 id="file-temperature"),
    pytest.param({"quadrature": {"n_time": 8}}, ["--mu", "2"],
                 "quadrature: n_time must be an integer >= 16",
                 id="file-n_time"),
    pytest.param({}, ["--temperature", "1e307"],
                 "--temperature: thermal window mu + 30 T overflows",
                 id="temperature-window"),
    pytest.param({"state": {"temperature": 1e307}}, ["--mu", "2"],
                 "state: thermal window mu + 30 T overflows",
                 id="file-temperature-window"),
])
def test_flag_refusal_lines_are_pinned(tmp_path, capsys, cfg, flags, line):
    path = _write(tmp_path, "cfg.json", {"model": {"kind": "battery"}, **cfg})
    assert cli.main(["transport", "--config", path, *flags]) == 2
    assert capsys.readouterr().err == f"configuration error: {line}\n"


@pytest.mark.parametrize("command", ["geometry", "noise"])
def test_channel_refusal_line_is_pinned(tmp_path, capsys, command):
    path = _write(tmp_path, "cfg.json",
                  {"model": {"kind": "battery"},
                   "pulse": {"kind": "battery", "window": [0.0, 10.0]}})
    assert cli.main([command, "--config", path, "--channel", "5"]) == 2
    assert capsys.readouterr().err == \
        "configuration error: --channel: channel index out of range\n"


def test_valid_flags_replace_bad_file_values(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json",
                  {"model": {"kind": "battery"},
                   "state": {"mu": -1.0, "temperature": -1.0},
                   "quadrature": {"n_time": 8}})
    assert cli.main(["transport", "--config", path, "--grid", "16",
                     "--mu", "2", "--temperature", "0.1"]) == 0
    summary = _json_out(capsys)["summary"]
    assert (summary["mu"], summary["temperature"]) == (2.0, 0.1)


@pytest.mark.parametrize("pulse", [
    pytest.param({"kind": "battery", "gamma_total": 3}, id="battery-gamma"),
    pytest.param({"kind": "battery", "amplitude": 9}, id="battery-amplitude"),
    pytest.param({"kind": "battery", "seed": 4}, id="battery-seed"),
    pytest.param({"kind": "optimal", "n_channels": 7}, id="optimal-channels"),
    pytest.param({"kind": "sink", "phi_total": 3}, id="sink-phi"),
    pytest.param({"kind": "random", "theta": 0.5}, id="random-theta"),
    pytest.param({"kind": "random", "n_channels": 2.7}, id="channels-2.7"),
    pytest.param({"kind": "random", "seed": 3.9}, id="seed-3.9"),
    pytest.param({"kind": "random", "seed": -4}, id="seed-negative"),
    pytest.param({"kind": "battery", "window": [False, True]},
                 id="window-bools"),
])
def test_bad_pulse_keys_exit_2(tmp_path, capsys, pulse):
    cfg = _write(tmp_path, "pulse.json", {"pulse": pulse})
    assert cli.main(["noise", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_theta_range_violation_exits_2(tmp_path, capsys):
    # theta(t) = 0.8 + 0.9 sin(...) leaves [0, pi/2]: a configuration
    # error, caught when the model is built rather than when it is sampled
    cfg = _write(tmp_path, "wild.json",
                 {"model": {"kind": "custom-two-channel",
                            "params": {"theta_base": 0.8, "theta_amp": 0.9}}})
    for command in ("geometry", "transport"):
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "model.params" in err


def test_unitarity_budget_violation_exits_3(tmp_path, capsys, monkeypatch):
    # S scaled by 1.001 misses unitarity by 2e-3, far past the 1e-8 budget
    exact = models.two_channel_matrices
    monkeypatch.setattr(models, "two_channel_matrices",
                        lambda *angles: 1.001 * exact(*angles))
    cfg = _write(tmp_path, "battery.json", {"model": {"kind": "battery"}})
    assert cli.main(["transport", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "invariant violated" in err and "unitarity defect" in err


def test_kink_under_the_stencil_exits_3(tmp_path, capsys):
    # 18 midpoint nodes put one on the bicycle's path corner at t = 1/4
    cfg = _write(tmp_path, "bicycle.json", {"model": {"kind": "bicycle"}})
    assert cli.main(["transport", "--config", cfg, "--grid", "18"]) == 3
    err = capsys.readouterr().err
    assert "invariant violated" in err and "Hermitization correction" in err


def test_zero_temperature_direct_request_exits_4(tmp_path, capsys):
    assert cli.main(["noise", "--config", _pulse_cfg(tmp_path),
                     "--direct"]) == 4
    assert "outside validity region" in capsys.readouterr().err


# every error class of the package -> its exit code and stderr heading
EXIT_CODES = {
    "SchemaError": (2, "configuration error"),
    "NoTimeDomain": (2, "configuration error"),
    "NonUnitary": (3, "invariant violated"),
    "StencilOutOfDomain": (3, "invariant violated"),
    "PhaseUnwrapFailure": (3, "invariant violated"),
    "GridTooCoarse": (3, "invariant violated"),
    "ZeroTemperature": (4, "outside validity region"),
    "NonPulseCycle": (4, "outside validity region"),
    "RegionTouchesDiscontinuity": (4, "outside validity region"),
    "EnergyAtBandEdge": (4, "outside validity region"),
    "MaxEventsExceeded": (5, "resource cap"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_states_its_exit_code():
    found = {cls.__name__: cls.exit_code for cls in _subclasses(PumpError)
             if cls.__module__ == "qpump.errors"}
    assert found == {name: code for name, (code, _) in EXIT_CODES.items()}


def _raise_in_transport(monkeypatch, exc):
    def transport_report(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "transport_report", transport_report)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_returns_the_code_of_each_error_class(tmp_path, capsys,
                                                   monkeypatch, name):
    code, heading = EXIT_CODES[name]
    _raise_in_transport(monkeypatch, getattr(errors, name)("boom"))
    assert cli.main(["transport", "--config", _battery_cfg(tmp_path)]) == code
    assert capsys.readouterr().err == f"{heading}: boom\n"


def test_main_needs_no_edit_for_a_new_error_class(tmp_path, capsys,
                                                   monkeypatch):
    class Unlisted(PumpError, exit_code=5):
        """An error class that the CLI module does not name."""

    _raise_in_transport(monkeypatch, Unlisted("boom"))
    assert cli.main(["transport", "--config", _battery_cfg(tmp_path)]) == 5
    assert capsys.readouterr().err == "resource cap: boom\n"


def test_bare_value_error_exits_3(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError
    _raise_in_transport(monkeypatch, np.linalg.LinAlgError("singular"))
    assert cli.main(["transport", "--config", _battery_cfg(tmp_path)]) == 3
    assert capsys.readouterr().err == "invariant violated: singular\n"


def test_only_a_winding_failure_gives_a_null_winding(tmp_path, capsys,
                                                     monkeypatch):
    cfg = _battery_cfg(tmp_path)

    def failing(exc):
        def winding_number(values):
            raise exc
        return winding_number

    monkeypatch.setattr(geometry, "winding_number",
                        failing(errors.PhaseUnwrapFailure("no winding")))
    assert cli.main(["geometry", "--config", cfg]) == 0
    assert _json_out(capsys)["summary"]["winding"] is None

    monkeypatch.setattr(geometry, "winding_number",
                        failing(ValueError("a fault in the winding code")))
    assert cli.main(["geometry", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violated: a fault in the winding code\n"


def test_models_list_covers_all_kinds(capsys):
    assert cli.main(["models-list", "--format", "json"]) == 0
    listed = _json_out(capsys)
    assert set(listed) == set(MODEL_KINDS)
    assert cli.main(["models-list"]) == 0
    assert "bicycle" in capsys.readouterr().out
    assert cli.main(["models-list", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,parameter,default,lower_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == sum(map(len, MODEL_KINDS.values()))
    assert {row[0] for row in rows} == set(MODEL_KINDS)
    assert ["uturn", "flux_quanta", "1", ""] in rows
    assert ["bicycle", "length", "1", "1e-06"] in rows


WRITER_CASES = [
    {"floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                0.1, -2.5e-300, 1.7976931348623157e308]},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0,
     "tiny": 5e-324, "big": 1e16},
    {"ints": [0, -1, 2 ** 70], "bools": [True, False], "none": None,
     "mixed": [1, 2.0, "three", None, True, np.float64(0.1)],
     "n": 3, "t": True, "f": False},
    {"empty_list": [], "empty_dict": {}, "empty_tuple": ()},
    {"nested": [[1.0, [2.0, []]], {"b": [3.0], "a": {}}, [], 4.0],
     "deep": {"z": {"y": {"x": [[[]]]}}}},
    {"np": [np.float64(1.5), np.float64(-0.0), np.float64(np.nan)],
     "np_scalar": np.float64(2.0 / 3.0), "tuple": (1.0, 2.0)},
    {"unicode ü": "naïve — ∂S/∂t ✓ 😀", "esc": "quote \" back \\ tab \t "
     "nl \n cr \r nul \x00 del \x7f nel \x85 ls \u2028 ff \x0c",
     "\x1e key\n": ["a\nb", " "]},
    {},
    [],
    [1.0, 2.0],
    "top-level string",
    1e-7,
]


@pytest.mark.parametrize("payload", WRITER_CASES)
def test_json_writer_matches_json_dump(tmp_path, payload):
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    out = tmp_path / "out.json"
    cli.write_json(payload, argparse.Namespace(out=str(out)))
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("length", [8191, 8192, 8193, 2 * 8192 + 4096])
def test_json_writer_slices_keep_json_dump_bytes(tmp_path, capsys, length):
    # the writer cuts its text into 8 KiB slices; these texts end just
    # before, at and just past one slice, and the last spans three
    series = np.linspace(-1.0, 1.0, 600).tolist() if length > 8193 else []
    pad = json.dumps({"pad": "", "series": series}, sort_keys=True, indent=2)
    payload = {"pad": "x" * (length - len(pad) - 1), "series": series}
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    want = ref.read_bytes()
    assert len(want) == length
    out = tmp_path / "out.json"
    cli.write_json(payload, argparse.Namespace(out=str(out)))
    assert out.read_bytes() == want
    cli.write_json(payload, argparse.Namespace(out="-"))
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize("argv", [
    ["models-list", "--format", "json"],
    ["transport", "--grid", "16", "--temperature", "0.1"],
    ["noise", "--zero-t"],
])
def test_cli_json_output_is_json_dump_of_itself(tmp_path, capsys, argv):
    # parsing keeps every float and int, so re-dumping the parsed output
    # gives json.dump's bytes for the payload the command wrote
    if argv[0] == "transport":
        argv = argv + ["--config", _battery_cfg(tmp_path)]
    elif argv[0] == "noise":
        argv = argv + ["--config", _pulse_cfg(tmp_path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_json_writer_refuses_what_json_refuses(tmp_path):
    # and keys that are not strings, which json would turn into strings
    args = argparse.Namespace(out=str(tmp_path / "out.json"))
    for bad in ({"a": [np.float32(1.0)]}, {"a": {1, 2}}, {"a": [object()]},
                {"a": np.float32(1.0)}, {1: 2.0}):
        with pytest.raises(TypeError):
            cli.write_json(bad, args)


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.skipif(shutil.which("qpump") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["qpump", "models-list", "--format", "json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "uturn" in json.loads(proc.stdout)


def test_console_script_resolves_to_main(capsys):
    # the [project.scripts] entry, checked without an installed script;
    # tomllib is in the standard library from Python 3.11
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qpump"]
    module, _, name = target.partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main is cli.main
    assert main(["models-list", "--format", "json"]) == 0
    assert "uturn" in json.loads(capsys.readouterr().out)


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # 4096 nodes print ~0.5 MB of JSON, far more than a 64 KiB pipe holds,
    # so the writer is still writing when the reader goes away
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpump.cli", "transport",
         "--config", _battery_cfg(tmp_path), "--grid", "4096"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    stderr = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


IMPORT_PROBE = """
import json, sys
import qpump, qpump.cli
from qpump import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(scipy_modules()))
qpump.plow_charge_direct(qpump.PlowSpec(), 0.3)
print(json.dumps(scipy_modules()))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy takes most of a fresh interpreter's start-up; only the
    # classical battery shift loads it
    battery = _write(tmp_path, "warm.json",
                     {"model": {"kind": "battery"},
                      "state": {"mu": 1.0, "temperature": 0.1}})
    plow = _write(tmp_path, "plow.json", {"state": {"mu": 0.5}})
    runs = [["transport", "--config", battery, "--grid", "16",
             "--out", str(tmp_path / "transport.json")],
            ["noise", "--config", _pulse_cfg(tmp_path), "--zero-t",
             "--out", str(tmp_path / "noise.json")],
            ["classical", "--config", plow, "--points", "50",
             "--out", str(tmp_path / "classical.json")]]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    before, after = map(json.loads, proc.stdout.splitlines())
    assert before == after == []


def _run_cli(argv: list, out: Path) -> bytes:
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_cached_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    pulse = _write(tmp_path, "pulse.json",
                   {"pulse": {"kind": "battery", "theta": 0.7,
                              "window": [0.0, 10.0]},
                    "state": {"mu": 1.0, "temperature": 12.0}})
    battery = _battery_cfg(tmp_path)
    # each call sets a flag the next one leaves at its default
    calls = [["noise", "--config", pulse, "--zero-t"],
             ["noise", "--config", pulse, "--direct"],
             ["transport", "--config", battery, "--grid", "16"],
             ["transport", "--config", battery]]
    assert cli.build_parser() is cli.build_parser()
    cached = [_run_cli(argv, tmp_path / f"cached{i}.json")
              for i, argv in enumerate(calls)]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run_cli(argv, tmp_path / f"fresh{i}.json")
             for i, argv in enumerate(calls)]
    assert cached == fresh
    noise_zero_t, noise_direct, coarse, default = map(json.loads, cached)
    assert noise_zero_t["summary"]["temperature"] == 0.0
    assert "direct_second_cumulant" not in noise_zero_t["summary"]
    assert noise_direct["summary"]["temperature"] == 12.0
    assert "direct_second_cumulant" in noise_direct["summary"]
    assert len(coarse["series"]["time"]) == 16
    assert len(default["series"]["time"]) == QuadratureSpec().n_time
