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

Exit codes: 0 success, 1 standard output closed by its reader (as with
`| head`), else the code its error class states in `errors.py`:
2 configuration error, 3 invariant violated, 4 outside validity region
(zero temperature, non-settling pulse, band-edge crossing), 5 resource cap.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import geometry, models
from .counting import noise_report
from .errors import HEADINGS, PhaseUnwrapFailure, PumpError, SchemaError
from .classical import (PlowSpec, partition_disagreements, plow_charge_bpt,
                        plow_charge_direct)
from .models import MODEL_KINDS, ModelSpec, make_pump
from .quadrature import TWO_PI, QuadratureSpec
from .smatrix import PumpCycle, TwoChannelParams
from .transport import (ThermalState, _sweep, birman_krein_residual,
                        bpt_current, cycle_charge, dissipation_current,
                        transport_report)


# ---------------------------------------------------------------------------
# configuration loading

_TOP_KEYS = {"model", "state", "quadrature", "classical", "pulse"}
# section -> {key: the type its value is read as}
_STATE_KINDS = {"mu": float, "temperature": float}
_QUAD_KINDS, _PLOW_KINDS = ({f.name: type(f.default)
                             for f in dataclasses.fields(spec)}
                            for spec in (QuadratureSpec, PlowSpec))
# pulse kind -> the keys it takes besides "kind" and "window"
_PULSE_KINDS = {"random": {"amplitude": float, "n_channels": int, "seed": int},
                **{kind: {"theta": float, f"{angle}_total": float}
                   for kind, (_, angle) in models._SWEPT_ANGLE.items()}}


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def _check_keys(section: dict, allowed, path: str):
    _require(isinstance(section, dict), "expected an object", path)
    unknown = sorted(section.keys() - allowed)
    _require(not unknown, f"unknown keys {unknown}", path)


def _read(section: dict, path: str, kinds: dict, **defaults) -> dict:
    """The defaults updated with the section's values, each read as the
    float, int or bool its kind gives; an int may be written as 32.0."""
    _check_keys(section, kinds, path)
    values = dict(defaults)
    for key, value in section.items():
        kind, where = kinds[key], f"{path}.{key}"
        if kind is bool:
            _require(isinstance(value, bool), "expected true/false", where)
        else:
            _require(type(value) in (int, float), "expected a number", where)
            _require(kind is float or float(value).is_integer(),
                     "expected an integer", where)
        values[key] = kind(value)
    return values


def _make(make, path: str, values: dict):
    """make(**values), with a library ValueError reported at path."""
    try:
        return make(**values)
    except ValueError as exc:
        raise SchemaError(str(exc), path)


def _flags(args, make, defaults: dict, **fields) -> dict:
    """{field: value} of each given flag (an args attribute) that is set,
    refused under the flag's name unless make(**defaults, field=value)."""
    values = {}
    for flag, field in fields.items():
        value = getattr(args, flag, None)
        if value is not None:
            _make(make, f"--{flag}", {**defaults, field: value})
            values[field] = value
    return values


def _count(value: int, path: str) -> int:
    _require(value >= 0, "expected a non-negative integer", path)
    return value


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
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=finite(float),
                            parse_float=finite(float), parse_int=finite(int))
    except FileNotFoundError:
        raise SchemaError("file not found", path)
    except OSError as exc:
        raise SchemaError(f"cannot read ({exc.strerror})", path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text ({exc.reason})", path)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON ({exc})", path)
    _check_keys(cfg, _TOP_KEYS, "<top level>")
    return cfg


def build_state(cfg: dict, args) -> ThermalState:
    defaults = {"mu": 1.0}
    values = _read(cfg.get("state", {}), "state", _STATE_KINDS, **defaults)
    values.update(_flags(args, ThermalState, defaults, mu="mu",
                         temperature="temperature"))
    return _make(ThermalState, "state", values)


def build_quadrature(cfg: dict, args) -> QuadratureSpec:
    values = _read(cfg.get("quadrature", {}), "quadrature", _QUAD_KINDS)
    values.update(_flags(args, QuadratureSpec, {}, grid="n_time"))
    return _make(QuadratureSpec, "quadrature", values)


def build_model(cfg: dict) -> PumpCycle:
    _require("model" in cfg, "missing required section", "model")
    section = cfg["model"]
    _check_keys(section, {"kind", "params"}, "model")
    kind = section.get("kind")
    _require(isinstance(kind, str) and kind in MODEL_KINDS,
             f"kind must be one of {sorted(MODEL_KINDS)}", "model.kind")
    params = section.get("params", {})
    _require(isinstance(params, dict), "expected an object", "model.params")
    return _make(make_pump, "model.params",
                 {"spec": ModelSpec(kind=kind, params=params)})


def build_plow(cfg: dict) -> PlowSpec:
    values = _read(cfg.get("classical", {}), "classical", _PLOW_KINDS)
    return _make(PlowSpec, "classical", values)


def build_pulse(cfg: dict, seed: int) -> PumpCycle:
    _require("pulse" in cfg, "missing required section", "pulse")
    section = cfg["pulse"]
    _require(isinstance(section, dict), "expected an object", "pulse")
    kind = section.get("kind")
    _require(isinstance(kind, str) and kind in _PULSE_KINDS,
             f"kind must be one of {sorted(_PULSE_KINDS)}", "pulse.kind")
    window = section.get("window", [0.0, 20.0])
    _require(isinstance(window, list) and len(window) == 2
             and all(type(v) in (int, float) for v in window)
             and 0.0 < float(window[1]) - float(window[0]) < math.inf,
             "expected [start, end] with start < end and a finite length",
             "pulse.window")
    t0, t1 = float(window[0]), float(window[1])

    params = {k: v for k, v in section.items() if k not in ("kind", "window")}
    if kind == "random":
        p = _read(params, "pulse", _PULSE_KINDS[kind], n_channels=2,
                  amplitude=0.5, seed=seed)
        _require(p["n_channels"] >= 1, "need at least one channel",
                 "pulse.n_channels")
        _count(p["seed"], "pulse.seed")
        return models.make_pulse_cycle(
            p["n_channels"], np.random.default_rng(p["seed"]),
            window=(t0, t1), amplitude=p["amplitude"])

    maker, angle = models._SWEPT_ANGLE[kind]
    p = _read(params, "pulse", _PULSE_KINDS[kind], theta=0.9,
              **{f"{angle}_total": TWO_PI})
    base = _make(TwoChannelParams, "pulse.theta", {"theta": p["theta"]})
    total = p[f"{angle}_total"]
    return maker(base, lambda t: total * models.smooth_step(t, t0, t1),
                 window=(t0, t1))


# ---------------------------------------------------------------------------
# output

@contextlib.contextmanager
def _output(args):
    """Standard output for --out '-', else the file, closed on leaving."""
    if args.out in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise SchemaError(f"cannot write ({exc.strerror})", "--out")
    with fh:
        yield fh


def _json_pieces(value, pad: str = ""):
    """`json.dumps(value, sort_keys=True, indent=2)` in pieces, string keys
    only.  Dicts are laid out here; a scalar or a list of scalars goes to
    the C encoder in one call, its item separator carrying the newline and
    indent.  A list that holds containers, which no command writes, is
    json's own layout, indented by `pad` (no string holds a raw newline)."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{"
        for key in sorted(value):
            name = json.encoder.encode_basestring_ascii(key)
            yield f"{sep}\n{inner}{name}: "
            yield from _json_pieces(value[key], inner)
            sep = ","
        yield f"\n{pad}}}"
    elif not isinstance(value, (list, tuple)) or not value:
        yield json.dumps(value)
    elif any(issubclass(kind, (list, tuple, dict))
             for kind in set(map(type, value))):
        yield json.dumps(value, sort_keys=True,
                         indent=2).replace("\n", "\n" + pad)
    else:
        flat = json.dumps(value, separators=(",\n" + inner, ": "))
        yield f"[\n{inner}{flat[1:-1]}\n{pad}]"


def write_json(payload: dict, args):
    """`json.dump(payload, sort_keys=True, indent=2)` and a newline, written
    a line at a time: a reader that closes early then fails a write."""
    text = "".join(_json_pieces(payload)) + "\n"
    with _output(args) as fh:
        fh.writelines(text.splitlines(keepends=True))


def write_csv(meta: dict, header: list, rows, args):
    with _output(args) as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {_fmt(meta[key])}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _emit_summary(args, results: dict, meta: dict):
    """A summary-only result: {"summary": ...} JSON or quantity,value CSV."""
    rows = [(k, results[k]) for k in sorted(results)]
    _emit(args, {"summary": results}, ["quantity", "value"], rows, meta)


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
    columns = [list(map(float, c)) for c in columns]
    rows = zip(*columns)

    payload = {"summary": summary, "series": dict(zip(header, columns))}
    _emit(args, payload, header, rows, summary)
    return 0


def cmd_geometry(args) -> int:
    cfg = load_config(args.config)
    cycle = build_model(cfg)
    state = build_state(cfg, args)
    q = build_quadrature(cfg, args)
    channel = args.channel
    _flags(args, geometry._check_channel, {"cycle": cycle}, channel="channel")

    geometry._period_times(cycle, q)    # the loop formulas need a period
    # the rows of the loop are the centre samples of the charge's sweep
    sw = _sweep(cycle, ThermalState(mu=state.mu), q)
    rows = sw.s_mu[:, channel]
    results = {
        "model": cycle.label,
        "mu": state.mu,
        "channel": channel,
        "bpt_charge": float((sw.weights @ sw.charge)[channel]),
        "global_angle_charge": geometry._loop_charge(rows),
    }
    try:
        results["winding"] = geometry._loop_winding(rows, channel)
    except PhaseUnwrapFailure:
        results["winding"] = None   # amplitude wanders or vanishes
    if cycle.n_channels == 2:
        results["fractional_charge"] = geometry._loop_fraction(rows)

    _emit_summary(args, results,
                  {"model": cycle.label, "mu": state.mu, "channel": channel})
    return 0


def cmd_noise(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg, args)
    q = build_quadrature(cfg, args)
    pulse = build_pulse(cfg, _count(args.seed, "--seed"))
    channel = args.channel
    _flags(args, geometry._check_channel, {"cycle": pulse}, channel="channel")

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

    _emit_summary(args, results, {"model": pulse.label, "channel": channel})
    return 0


def cmd_classical(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg, args)
    plow = build_plow(cfg)
    rng = np.random.default_rng(_count(args.seed, "--seed"))

    n = _count(args.points, "--points")
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
    _emit_summary(args, results, {"mu": state.mu, "points": n})
    return 0


def cmd_models_list(args) -> int:
    payload = {kind: {name: default for name, (default, _) in table.items()}
               for kind, table in MODEL_KINDS.items()}
    rows = [(kind, name, default, low)
            for kind in sorted(MODEL_KINDS)
            for name, (default, low) in MODEL_KINDS[kind].items()]
    _emit(args, payload, ["kind", "parameter", "default", "lower_bound"],
          rows, {})
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

# flags that several subcommands take -> their add_argument keywords
_SHARED_FLAGS = {
    "--grid": {"type": int, "help": "time samples per cycle or pulse window"},
    "--mu": {"type": float, "help": "override state.mu"},
    "--temperature": {"type": float, "help": "override state.temperature"},
    "--channel": {"type": int, "default": 0},
    "--seed": {"type": int, "default": 0},
}


def _add_common(p: argparse.ArgumentParser, *flags: str,
                config_required: bool = True):
    if config_required:
        p.add_argument("--config", required=True,
                       help="path to the JSON configuration")
    p.add_argument("--out", default="-",
                   help="output file, '-' for stdout (default)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args makes a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="qpump",
        description="adiabatic pump transport from frozen scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="currents and per-cycle totals")
    _add_common(p, "--grid", "--mu", "--temperature")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("geometry", help="geometric charge formulas")
    _add_common(p, "--grid", "--mu", "--channel")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("noise", help="counting statistics of a pulse")
    _add_common(p, "--grid", "--mu", "--temperature", "--channel", "--seed")
    p.add_argument("--zero-t", action="store_true", dest="zero_t",
                   help="zero-temperature shot noise instead of the split")
    p.add_argument("--direct", action="store_true",
                   help="also evaluate the unsplit second cumulant")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("classical", help="moving-barrier checks")
    _add_common(p, "--mu", "--seed")
    p.add_argument("--points", type=int, default=2000,
                   help="partition sample size")
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
        code = args.func(args)
        sys.stdout.flush()    # a closed reader raises here, not at exit
        return code
    except BrokenPipeError:   # so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PumpError as exc:
        print(f"{HEADINGS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:   # numpy's LinAlgError
        print(f"{HEADINGS[PumpError.exit_code]}: {exc}", file=sys.stderr)
        return PumpError.exit_code


if __name__ == "__main__":
    sys.exit(main())
