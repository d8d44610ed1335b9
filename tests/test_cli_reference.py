"""CLI output pinned against stored reference numbers.

A refactor must leave every printed number where it was.  Each run of
`tests/data/cli_reference.json` is replayed through `cli.main` and every
number of its JSON output is compared at relative 1e-9 with an absolute
floor of 1e-12: the 1e-5 stencil steps amplify last-bit differences
between CPUs, so bit equality would be fragile.

A change that moves answers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_reference.py

and says in its description which numbers moved and why.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from qpump import cli

REFERENCE = Path(__file__).parent / "data" / "cli_reference.json"
RTOL = 1e-9
ATOL = 1e-12

_PULSE = {"kind": "battery", "theta": 0.7, "window": [0.0, 10.0]}
_RANDOM_PULSE = {"kind": "random", "n_channels": 3, "seed": 7,
                 "window": [0.0, 10.0]}
# energy-independent (its stencil works on one energy) and, as the
# control, energy-dependent cycles at finite temperature
_CUSTOM = {"theta_base": 0.7, "theta_amp": 0.3, "alpha_amp": 0.4,
           "phi_amp": 1.0, "gamma_amp": 0.2}
RUNS = {
    "transport-battery-cold": (
        "transport", {"model": {"kind": "battery"}, "state": {"mu": 1.0}},
        ["--grid", "32"]),
    "transport-battery-warm": (
        "transport", {"model": {"kind": "battery"},
                      "state": {"mu": 1.0, "temperature": 0.1}},
        ["--grid", "32"]),
    "transport-custom-warm": (
        "transport", {"model": {"kind": "custom-two-channel",
                                "params": _CUSTOM},
                      "state": {"mu": 1.0, "temperature": 0.2}},
        ["--grid", "32"]),
    "transport-snowplow-warm": (
        "transport", {"model": {"kind": "snowplow"},
                      "state": {"mu": 1.0, "temperature": 0.2}},
        ["--grid", "32"]),
    "transport-sink-warm": (
        "transport", {"model": {"kind": "sink"},
                      "state": {"mu": 1.0, "temperature": 0.1}},
        ["--grid", "32"]),
    "transport-optimal-cold": (
        "transport", {"model": {"kind": "optimal"}, "state": {"mu": 1.0}},
        ["--grid", "32"]),
    "geometry-bicycle": (
        "geometry", {"model": {"kind": "bicycle", "params": {"length": 1.0}},
                     "state": {"mu": 1.0}},
        ["--grid", "64"]),
    "noise-battery-zero-t": (
        "noise", {"pulse": _PULSE, "state": {"mu": 1.0}},
        ["--grid", "32", "--zero-t"]),
    "noise-battery-direct": (
        "noise", {"pulse": _PULSE, "state": {"mu": 1.0, "temperature": 12.0}},
        ["--grid", "32", "--direct"]),
    "noise-random-zero-t": (
        "noise", {"pulse": _RANDOM_PULSE, "state": {"mu": 1.0}},
        ["--grid", "32", "--zero-t"]),
    "noise-random-direct": (
        "noise", {"pulse": _RANDOM_PULSE,
                  "state": {"mu": 1.0, "temperature": 12.0}},
        ["--grid", "32", "--direct"]),
    "classical-plow": (
        "classical", {"classical": {"height": 1.0, "speed": 0.0141421356,
                                    "travel_time": 10.0},
                      "state": {"mu": 0.5}},
        ["--points", "50"]),
}


def _run(name: str, workdir: Path) -> dict:
    command, config, flags = RUNS[name]
    cfg, out = workdir / f"{name}.json", workdir / f"{name}.out.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     *flags]) == 0
    return json.loads(out.read_text())


def _mismatches(got, want, path: str = "") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in sorted(want)
                for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{k}]")]
    number = (int, float)
    if (isinstance(want, number) and not isinstance(want, bool)
            and isinstance(got, number) and not isinstance(got, bool)):
        if abs(got - want) <= max(RTOL * abs(want), ATOL):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_reference(tmp_path, name):
    want = json.loads(REFERENCE.read_text())[name]
    problems = _mismatches(_run(name, tmp_path), want)
    assert not problems, "\n".join(problems[:10])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: _run(name, Path(tmp)) for name in sorted(RUNS)}
    REFERENCE.write_text(json.dumps(outputs, sort_keys=True, indent=1) + "\n")
