"""Command-line front end.

Subcommands:

    transport    currents and per-cycle totals for a configured model
    geometry     pumped charge by the geometric routes
    noise        counting statistics of a pulse
    classical    moving-barrier partition and charge comparison
    models-list  built-in model kinds and their parameters
    selfcheck    fast internal consistency checks

Configuration is a JSON file; unknown keys are rejected with their full
path so typos cannot silently fall back to defaults.  Output (JSON or
CSV with '#' metadata lines) is deterministic for fixed inputs: no
timestamps, sorted keys, explicit seeds.

Exit codes: 0 success, 2 configuration error, 3 violated numerical or
unitarity invariant, 4 request outside the validity region of a formula
(zero temperature, non-settling pulse, band-edge crossing), 5 resource
cap hit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import geometry, models
from .counting import noise_report
from .errors import (EnergyAtBandEdge, GridTooCoarse, MaxEventsExceeded,
                     NonPulseCycle, NonUnitary, PhaseUnwrapFailure,
                     RegionTouchesDiscontinuity, SchemaError,
                     StencilOutOfDomain, ZeroTemperature)
from .classical import (PlowSpec, partition_disagreements, plow_charge_bpt,
                        plow_charge_direct)
from .models import MODEL_KINDS, ModelSpec, make_pump
from .quadrature import TWO_PI, QuadratureSpec
from .smatrix import PumpCycle, TwoChannelParams
from .transport import (ThermalState, birman_krein_residual, bpt_current,
                        cycle_charge, dissipation_current, transport_report)


# ---------------------------------------------------------------------------
# configuration loading

_TOP_KEYS = {"model", "state", "quadrature", "classical", "pulse"}
_STATE_KEYS = {"mu", "temperature"}
_CLASSICAL_KEYS = {"height", "speed", "travel_time"}
_PULSE_KINDS = {"battery", "sink", "optimal", "random"}
_PULSE_KEYS = {"kind", "window", "theta", "phi_total", "gamma_total",
               "amplitude", "n_channels", "seed"}
_QUAD_KEYS = {f.name for f in dataclasses.fields(QuadratureSpec)}


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def _check_keys(section: dict, allowed: set, path: str):
    _require(isinstance(section, dict), "expected an object", path)
    unknown = sorted(set(section) - allowed)
    _require(not unknown, f"unknown keys {unknown}", path)


def _number(section: dict, key: str, path: str, default=None):
    if key not in section:
        _require(default is not None, f"missing required key {key!r}", path)
        return default
    value = section[key]
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             "expected a number", f"{path}.{key}")
    return float(value)


def load_config(path: str) -> dict:
    # NaN, +-Infinity and literals beyond the double range are refused
    # here, before any section reads them
    def finite(kind):
        def parse(text: str):
            if not math.isfinite(float(text)):
                raise SchemaError(f"number {text} is not finite", path)
            return kind(text)
        return parse

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=finite(float),
                            parse_float=finite(float), parse_int=finite(int))
    except FileNotFoundError:
        raise SchemaError("file not found", path)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON ({exc})", path)
    _check_keys(cfg, _TOP_KEYS, "<top level>")
    return cfg


def build_state(cfg: dict, args) -> ThermalState:
    section = cfg.get("state", {})
    _check_keys(section, _STATE_KEYS, "state")
    mu = _number(section, "mu", "state", default=1.0)
    temp = _number(section, "temperature", "state", default=0.0)
    if getattr(args, "mu", None) is not None:
        mu = args.mu
    if getattr(args, "temperature", None) is not None:
        temp = args.temperature
    try:
        return ThermalState(mu=mu, temperature=temp)
    except ValueError as exc:
        raise SchemaError(str(exc), "state")


def build_quadrature(cfg: dict, args) -> QuadratureSpec:
    section = cfg.get("quadrature", {})
    _check_keys(section, _QUAD_KEYS, "quadrature")
    fields = {}
    for key, value in section.items():
        if key == "richardson":
            _require(isinstance(value, bool), "expected true/false",
                     f"quadrature.{key}")
            fields[key] = value
        else:
            fields[key] = _number(section, key, "quadrature")
            if key.startswith("n_"):
                _require(fields[key].is_integer(), "expected an integer",
                         f"quadrature.{key}")
                fields[key] = int(fields[key])
    if getattr(args, "grid", None) is not None:
        fields["n_time"] = args.grid
    try:
        return QuadratureSpec(**fields)
    except ValueError as exc:
        raise SchemaError(str(exc), "quadrature")


def build_model(cfg: dict) -> PumpCycle:
    _require("model" in cfg, "missing required section", "model")
    section = cfg["model"]
    _check_keys(section, {"kind", "params"}, "model")
    kind = section.get("kind")
    _require(isinstance(kind, str) and kind in MODEL_KINDS,
             f"kind must be one of {sorted(MODEL_KINDS)}", "model.kind")
    params = section.get("params", {})
    _require(isinstance(params, dict), "expected an object", "model.params")
    try:
        return make_pump(ModelSpec(kind=kind, params=params))
    except ValueError as exc:
        raise SchemaError(str(exc), "model.params")


def build_plow(cfg: dict) -> PlowSpec:
    section = cfg.get("classical", {})
    _check_keys(section, _CLASSICAL_KEYS, "classical")
    try:
        return PlowSpec(
            height=_number(section, "height", "classical", default=1.0),
            speed=_number(section, "speed", "classical", default=0.02),
            travel_time=_number(section, "travel_time", "classical",
                                default=10.0))
    except ValueError as exc:
        raise SchemaError(str(exc), "classical")


def build_pulse(cfg: dict, seed: int) -> PumpCycle:
    _require("pulse" in cfg, "missing required section", "pulse")
    section = cfg["pulse"]
    _check_keys(section, _PULSE_KEYS, "pulse")
    kind = section.get("kind")
    _require(kind in _PULSE_KINDS,
             f"kind must be one of {sorted(_PULSE_KINDS)}", "pulse.kind")
    window = section.get("window", [0.0, 20.0])
    _require(isinstance(window, list) and len(window) == 2
             and all(isinstance(v, (int, float)) for v in window)
             and window[0] < window[1],
             "expected [start, end] with start < end", "pulse.window")
    t0, t1 = float(window[0]), float(window[1])

    if kind == "random":
        n_ch = int(_number(section, "n_channels", "pulse", default=2.0))
        _require(n_ch >= 1, "need at least one channel", "pulse.n_channels")
        amp = _number(section, "amplitude", "pulse", default=0.5)
        rng = np.random.default_rng(int(_number(section, "seed", "pulse",
                                                default=float(seed))))
        return models.make_pulse_cycle(n_ch, rng, window=(t0, t1),
                                       amplitude=amp)

    theta = _number(section, "theta", "pulse", default=0.9)
    try:
        base = TwoChannelParams(theta=theta)
    except ValueError as exc:
        raise SchemaError(str(exc), "pulse.theta")
    if kind == "battery":
        total = _number(section, "phi_total", "pulse", default=TWO_PI)
        return models.make_battery_cycle(
            base, phi=lambda t: total * models.smooth_step(t, t0, t1),
            window=(t0, t1))
    if kind == "optimal":
        total = _number(section, "phi_total", "pulse", default=TWO_PI)
        return models.make_optimal_cycle(
            base, phi=lambda t: total * models.smooth_step(t, t0, t1),
            window=(t0, t1))
    total = _number(section, "gamma_total", "pulse", default=TWO_PI)
    return models.make_sink_cycle(
        base, gamma=lambda t: total * models.smooth_step(t, t0, t1),
        window=(t0, t1))


# ---------------------------------------------------------------------------
# output

def _open_out(args):
    if args.out in (None, "-"):
        return sys.stdout, False
    return open(args.out, "w"), True


def write_json(payload: dict, args):
    fh, owned = _open_out(args)
    json.dump(payload, fh, sort_keys=True, indent=2)
    fh.write("\n")
    if owned:
        fh.close()


def write_csv(meta: dict, header: list, rows, args):
    fh, owned = _open_out(args)
    for key in sorted(meta):
        fh.write(f"# {key} = {_fmt(meta[key])}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")
    if owned:
        fh.close()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _emit(args, payload: dict, header: list, rows, meta: dict):
    if args.format == "csv":
        write_csv(meta, header, rows, args)
    else:
        write_json(payload, args)


# ---------------------------------------------------------------------------
# subcommands

def cmd_transport(args) -> int:
    cfg = load_config(args.config)
    cycle = build_model(cfg)
    state = build_state(cfg, args)
    q = build_quadrature(cfg, args)
    report = transport_report(cycle, state, q)

    n_ch = cycle.n_channels
    summary = {
        "model": cycle.label,
        "mu": state.mu,
        "temperature": state.temperature,
        "charges": list(report.charges),
        "heat": list(report.heat),
        "bk_residual": report.bk_residual,
    }
    if report.entropy is not None:
        summary["entropy"] = list(report.entropy)
        summary["noise"] = list(report.noise)

    header = ["time"]
    header += [f"charge_rate_{j}" for j in range(n_ch)]
    header += [f"dissipation_rate_{j}" for j in range(n_ch)]
    columns = [report.times, *report.charge_rate.T, *report.dissipation_rate.T]
    if report.entropy_rate is not None:
        header += [f"entropy_rate_{j}" for j in range(n_ch)]
        header += [f"noise_rate_{j}" for j in range(n_ch)]
        columns += [*report.entropy_rate.T, *report.noise_rate.T]
    rows = zip(*[list(map(float, c)) for c in columns])

    payload = {"summary": summary,
               "series": {name: list(map(float, col))
                          for name, col in zip(header, columns)}}
    meta = {k: v for k, v in summary.items()}
    _emit(args, payload, header, rows, meta)
    return 0


def cmd_geometry(args) -> int:
    cfg = load_config(args.config)
    cycle = build_model(cfg)
    state = build_state(cfg, args)
    q = build_quadrature(cfg, args)
    channel = args.channel
    if not 0 <= channel < cycle.n_channels:
        raise SchemaError("channel out of range", "channel")

    bpt = cycle_charge(cycle, ThermalState(mu=state.mu), q)
    angle_charge = geometry.charge_from_global_angle(cycle, channel,
                                                     state.mu, q)
    results = {
        "model": cycle.label,
        "mu": state.mu,
        "channel": channel,
        "bpt_charge": float(bpt[channel]),
        "global_angle_charge": angle_charge,
    }
    try:
        results["winding"] = geometry.amplitude_winding(cycle, channel,
                                                        state.mu, q)
    except (PhaseUnwrapFailure, ValueError):
        results["winding"] = None   # amplitude wanders or vanishes
    if cycle.n_channels == 2:
        results["fractional_charge"] = geometry.fractional_charge(
            cycle, channel, state.mu, q)

    header = ["quantity", "value"]
    rows = [(k, results[k]) for k in sorted(results)]
    _emit(args, {"summary": results}, header, rows,
          {"model": cycle.label, "mu": state.mu, "channel": channel})
    return 0


def cmd_noise(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg, args)
    q = build_quadrature(cfg, args)
    pulse = build_pulse(cfg, args.seed)
    channel = args.channel
    if not 0 <= channel < pulse.n_channels:
        raise SchemaError("channel out of range", "channel")

    if args.zero_t:
        state = ThermalState(mu=state.mu, temperature=0.0)
    report = noise_report(pulse, channel, state, q,
                          include_direct=args.direct)
    results = {
        "model": pulse.label,
        "mu": state.mu,
        "temperature": report.temperature,
        "channel": report.channel,
        "mean": report.mean,
        "thermal_noise": report.thermal,
        "shot_noise": report.shot,
        "total_noise": report.total,
    }
    if report.direct is not None:
        results["direct_second_cumulant"] = report.direct
        results["split_vs_direct"] = report.total - report.direct

    header = ["quantity", "value"]
    rows = [(k, results[k]) for k in sorted(results)]
    _emit(args, {"summary": results}, header, rows,
          {"model": pulse.label, "channel": channel})
    return 0


def cmd_classical(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg, args)
    plow = build_plow(cfg)
    rng = np.random.default_rng(args.seed)

    n = args.points
    energies = rng.uniform(0.2 * plow.height, 3.0 * plow.height, size=n)
    times = rng.uniform(-2.0 * plow.travel_time, 2.0 * plow.travel_time,
                        size=n)
    channels = rng.integers(0, 2, size=n)
    bad = partition_disagreements(plow, energies, times, channels)

    q_bpt = plow_charge_bpt(plow, state.mu)
    q_direct = plow_charge_direct(plow, state.mu)
    gap = float(np.max(np.abs(q_bpt - q_direct)
                       / np.maximum(np.abs(q_direct), 1e-12)))

    results = {
        "height": plow.height,
        "speed": plow.speed,
        "travel_time": plow.travel_time,
        "mu": state.mu,
        "partition_points": n,
        "partition_disagreements": bad,
        "charge_bpt": list(map(float, q_bpt)),
        "charge_direct": list(map(float, q_direct)),
        "max_relative_gap": gap,
    }
    header = ["quantity", "value"]
    rows = [(k, results[k]) for k in sorted(results)]
    _emit(args, {"summary": results}, header, rows,
          {"mu": state.mu, "points": n})
    return 0


def cmd_models_list(args) -> int:
    if args.format == "json":
        payload = {kind: {name: default
                          for name, (default, _) in table.items()}
                   for kind, table in MODEL_KINDS.items()}
        write_json(payload, args)
        return 0
    fh, owned = _open_out(args)
    for kind in sorted(MODEL_KINDS):
        fh.write(f"{kind}\n")
        for name, (default, low) in MODEL_KINDS[kind].items():
            bound = f" (>= {low:g})" if low is not None else ""
            fh.write(f"    {name} = {default:g}{bound}\n")
    if owned:
        fh.close()
    return 0


def cmd_selfcheck(args) -> int:
    q = QuadratureSpec()
    failures = 0

    def check(name: str, ok: bool, detail: str):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failures += 0 if ok else 1

    uturn = models.make_uturn_cycle(ell=1.0, flux=lambda t: TWO_PI * t,
                                    period=1.0)
    charges = cycle_charge(uturn, ThermalState(mu=1.0),
                           dataclasses.replace(q, n_time=128))
    check("uturn quantized charge",
          abs(charges[0] + 1.0) < 1e-6 and abs(charges[1] - 1.0) < 1e-6,
          f"charges {charges[0]:.9f}, {charges[1]:.9f}")

    base = TwoChannelParams(theta=0.7)
    plow_cycle = models.make_snowplow_cycle(
        base, xi=lambda t: 0.05 * math.sin(TWO_PI * t), period=1.0)
    got = bpt_current(plow_cycle, 0.3, ThermalState(mu=2.0), q)[0]
    k = math.sqrt(4.0)
    want = -(math.cos(0.7) ** 2) * 2.0 * k * 0.05 * TWO_PI \
        * math.cos(TWO_PI * 0.3) / TWO_PI
    check("snowplow closed form", abs(got - want) < 1e-7,
          f"current {got:.9f} vs {want:.9f}")

    rng = np.random.default_rng(7)
    cycle = models.make_random_analytic_cycle(3, rng)
    res = birman_krein_residual(cycle, ThermalState(mu=1.3), q,
                                times=np.linspace(0.05, 0.95, 5))
    check("spectral-flow sum rule", res < 1e-8, f"residual {res:.2e}")

    t_probe = 0.37
    cur = bpt_current(cycle, t_probe, ThermalState(mu=1.3), q)
    dis = dissipation_current(cycle, t_probe, ThermalState(mu=1.3), q)
    margin = float(np.min(dis - math.pi * cur ** 2))
    check("dissipation bound", margin > -1e-10, f"worst margin {margin:.2e}")

    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser and entry point

def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    if config_required:
        p.add_argument("--config", required=True,
                       help="path to the JSON configuration")
    p.add_argument("--out", default="-",
                   help="output file, '-' for stdout (default)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpump",
        description="adiabatic pump transport from frozen scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="currents and per-cycle totals")
    _add_common(p)
    p.add_argument("--grid", type=int, help="time samples per cycle")
    p.add_argument("--mu", type=float, help="override state.mu")
    p.add_argument("--temperature", type=float,
                   help="override state.temperature")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("geometry", help="geometric charge formulas")
    _add_common(p)
    p.add_argument("--grid", type=int, help="time samples per cycle")
    p.add_argument("--mu", type=float, help="override state.mu")
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("noise", help="counting statistics of a pulse")
    _add_common(p)
    p.add_argument("--grid", type=int, help="time samples across the window")
    p.add_argument("--mu", type=float, help="override state.mu")
    p.add_argument("--temperature", type=float,
                   help="override state.temperature")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--zero-t", action="store_true", dest="zero_t",
                   help="zero-temperature shot noise instead of the split")
    p.add_argument("--direct", action="store_true",
                   help="also evaluate the unsplit second cumulant")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("classical", help="moving-barrier checks")
    _add_common(p)
    p.add_argument("--mu", type=float, help="override state.mu")
    p.add_argument("--points", type=int, default=2000,
                   help="partition sample size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("models-list", help="built-in models and parameters")
    _add_common(p, config_required=False)
    p.set_defaults(func=cmd_models_list)

    p = sub.add_parser("selfcheck", help="fast internal consistency checks")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonUnitary, PhaseUnwrapFailure, GridTooCoarse,
            StencilOutOfDomain, ValueError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ZeroTemperature, NonPulseCycle, RegionTouchesDiscontinuity,
            EnergyAtBandEdge) as exc:
        print(f"outside validity region: {exc}", file=sys.stderr)
        return 4
    except MaxEventsExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
