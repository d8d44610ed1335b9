"""End-to-end checks of the command line front end."""
from __future__ import annotations

import json
import math
import shutil
import subprocess

import pytest

from qpump import cli
from qpump.models import MODEL_KINDS


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


def test_noise_zero_t_reports_the_shot_integral(tmp_path, capsys):
    code = cli.main(["noise", "--config", _pulse_cfg(tmp_path), "--zero-t"])
    assert code == 0
    summary = _json_out(capsys)["summary"]
    assert abs(summary["shot_noise"] - 0.2663712615665627) < 1e-9
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
])
def test_non_finite_or_non_integral_numbers_exit_2(tmp_path, capsys,
                                                    command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main([command, "--config", str(cfg)]) == 2
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


def test_zero_temperature_direct_request_exits_4(tmp_path, capsys):
    assert cli.main(["noise", "--config", _pulse_cfg(tmp_path),
                     "--direct"]) == 4
    assert "outside validity region" in capsys.readouterr().err


def test_models_list_covers_all_kinds(capsys):
    assert cli.main(["models-list", "--format", "json"]) == 0
    listed = _json_out(capsys)
    assert set(listed) == set(MODEL_KINDS)
    assert cli.main(["models-list"]) == 0
    assert "bicycle" in capsys.readouterr().out


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
