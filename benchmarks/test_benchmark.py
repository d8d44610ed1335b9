"""Self-test of the benchmark: valid generated configs, checks that bite.

    python3 -m pytest benchmarks/test_benchmark.py -q

Runs from the repository root in about ten seconds.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qpump.cli as cli  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import make_job  # noqa: E402

SEEDS = (1, 2)


def _jobs(workload: str, seed: int) -> list:
    return [make_job(workload, seed, i)
            for i in range(-1, 2 * workloads.ROUND[workload])]


def _cli_args(job: workloads.Job) -> argparse.Namespace:
    parser = cli.build_parser()
    return parser.parse_args(job.argv("config.json", "out.json"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_configs_are_valid(workload, seed, tmp_path):
    for job in _jobs(workload, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(job.config))
        cfg = cli.load_config(str(path))
        args = _cli_args(job)
        state = cli.build_state(cfg, args)
        if job.command == "classical":
            plow = cli.build_plow(cfg)
            assert plow.speed <= 0.01 and state.mu <= plow.height / 2
            continue
        cli.build_quadrature(cfg, args)
        if job.command == "noise":
            pulse = cli.build_pulse(cfg, args.seed)
            assert pulse.window == (0.0, 10.0)
            assert args.zero_t or 8.0 <= state.temperature <= 16.0
            continue
        cycle = cli.build_model(cfg)
        assert cycle.period == pytest.approx(job.facts["period"])
        params = job.config["model"]["params"]
        if "theta_amp" in params:
            lo = params["theta_base"] - params["theta_amp"]
            hi = params["theta_base"] + params["theta_amp"]
            assert 0.0 <= lo and hi <= math.pi / 2
        if workload == "transport-warm":
            assert 0.02 <= state.temperature <= 0.3 and state.mu == 1.0
        else:
            assert state.temperature == 0.0
            assert 1.0 <= params["length"] <= 2.0


def test_jobs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert _jobs(workload, 1) == _jobs(workload, 1)
        assert _jobs(workload, 1) != _jobs(workload, 2)


def _run(job: workloads.Job, tmp_path) -> dict:
    config, out = tmp_path / "config.json", tmp_path / "out.json"
    config.write_text(json.dumps(job.config))
    assert cli.main(job.argv(str(config), str(out))) == 0
    output = json.loads(out.read_text())
    assert workloads.check(job, output) == []
    return output


def _set(output: dict, **changes) -> dict:
    bad = copy.deepcopy(output)
    bad["summary"].update(changes)
    return bad


def _rejects(job, bad):
    assert workloads.check(job, bad), "corrupted output passed the check"


def test_transport_checks_reject_corruption(tmp_path):
    battery = make_job("transport-warm", 1, 0)
    sink = make_job("transport-warm", 1, 3)
    assert battery.facts["kind"] == "battery" and sink.facts["kind"] == "sink"
    for job in (battery, sink):
        good = _run(job, tmp_path)
        q = good["summary"]["charges"]
        _rejects(job, _set(good, charges=[-q[0], q[1]]))
        _rejects(job, _set(good, heat=[0.0, 0.0]))
        _rejects(job, _set(good, bk_residual=1e-7))
    del good["series"]["charge_rate_0"]
    _rejects(sink, good)


def test_bicycle_checks_reject_corruption(tmp_path):
    transport, geometry = make_job("charge-cold", 1, 0), make_job("charge-cold", 1, 1)
    assert transport.facts["length"] == 1.0 and geometry.command == "geometry"
    good = _run(transport, tmp_path)
    q = good["summary"]["charges"]
    _rejects(transport, _set(good, charges=[-q[0], q[1]]))
    _rejects(transport, _set(good, charges=[0.9 * q[0], 0.9 * q[1]]))
    good = _run(geometry, tmp_path)
    s = good["summary"]
    _rejects(geometry, _set(good, bpt_charge=-s["bpt_charge"]))
    _rejects(geometry, _set(good, fractional_charge=s["fractional_charge"] + 0.01))
    _rejects(geometry, _set(good, winding=s["winding"] + 1))


def test_noise_checks_reject_corruption(tmp_path):
    direct = make_job("pulse-noise", 1, 1)
    zero_t = make_job("pulse-noise", 1, 2)
    assert "--direct" in direct.flags and zero_t.facts["kind"] == "optimal"
    good = _run(direct, tmp_path)
    s = good["summary"]
    cumulant = s["direct_second_cumulant"] * (1.0 + 1e-5)
    _rejects(direct, _set(good, direct_second_cumulant=cumulant,
                          split_vs_direct=s["total_noise"] - cumulant))
    _rejects(direct, _set(good, direct_second_cumulant=cumulant))
    good = _run(zero_t, tmp_path)
    _rejects(zero_t, _set(good, shot_noise=1e-6, total_noise=1e-6))


def test_classical_checks_reject_corruption(tmp_path):
    job = make_job("classical", 1, 0)
    good = _run(job, tmp_path)
    q = good["summary"]["charge_direct"]
    _rejects(job, _set(good, partition_disagreements=1))
    _rejects(job, _set(good, max_relative_gap=0.06))
    _rejects(job, _set(good, charge_direct=[-q[0], -q[1]]))
    _rejects(job, {"summary": {}})


def test_tracer_restores_bindings_and_skips_missing_ones(monkeypatch, tmp_path):
    original = cli.transport_report
    sites = [s for s in tracing.SPAN_SITES if s[2] != "geometry.angle"]
    sites.append(("qpump.geometry", "no_such_function", "geometry.angle"))
    monkeypatch.setattr(tracing, "SPAN_SITES", tuple(sites))
    tr = tracing.Tracer()
    tr.install()
    assert cli.transport_report is not original
    job = make_job("charge-cold", 1, 1)
    tr.begin_job(0, "bicycle")
    try:
        _run(job, tmp_path)
    finally:
        tr.end_job()
        tr.uninstall()
    assert cli.transport_report is original
    assert tr.missing == ["qpump.geometry.no_such_function"]
    metrics = tracing.per_layer(tr)
    assert "geometry.angle_s" not in metrics
    assert metrics["geometry.winding_s"][0] > 0.0
    assert metrics["models.evals"][0] == metrics["smatrix.samples"][0] > 0
