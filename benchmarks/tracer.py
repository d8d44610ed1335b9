"""Layer tracing for the benchmark's traced run, applied from outside.

The tracer patches the public callables of the qpump layers where their
callers look them up (`qpump.cli.transport_report` and
`qpump.transport.gauss_legendre` are separate bindings) and restores
them on `uninstall`; it edits no file of the package.

Two kinds of boundary:

* spans, at layer entry points called a few hundred times per job or
  less.  Each records (name, start, end, parent, job).  A span's self
  time is its duration minus its child spans and the per-point time
  spent directly under it.
* per-point boundaries (S evaluations, samples, transfer matrices,
  classical scatters and root finds), called up to ~30k times per job.
  They emit no span: they add a count and busy time to the enclosing
  span, which keeps the traced run within a small factor of the
  untraced one.

A binding that no longer exists is reported through `missing`, and the
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, span name); `build_model` / `build_pulse` also
# wrap `evaluate` on the cycle they return
SPAN_SITES = (
    ("qpump.cli", "load_config", "cli.parse"),
    ("qpump.cli", "build_state", "cli.parse"),
    ("qpump.cli", "build_quadrature", "cli.parse"),
    ("qpump.cli", "build_plow", "cli.parse"),
    ("qpump.cli", "build_model", "cli.parse"),
    ("qpump.cli", "build_pulse", "cli.parse"),
    ("qpump.cli", "write_json", "cli.emit"),
    ("qpump.cli", "write_csv", "cli.emit"),
    ("qpump.cli", "transport_report", "transport.report"),
    ("qpump.cli", "cycle_charge", "transport.cycle_charge"),
    ("qpump.counting", "cycle_charge", "transport.cycle_charge"),
    ("qpump.transport", "bpt_current", "transport.current"),
    ("qpump.transport", "dissipation_current", "transport.current"),
    ("qpump.transport", "birman_krein_residual", "transport.bk"),
    ("qpump.transport", "gauss_legendre", "quadrature.gl"),
    ("qpump.counting", "gauss_legendre", "quadrature.gl"),
    ("qpump.cli", "noise_report", "counting.report"),
    ("qpump.counting", "mean_transferred_charge", "counting.mean"),
    ("qpump.counting", "thermal_noise", "counting.split"),
    ("qpump.counting", "shot_noise_finite_t", "counting.split"),
    ("qpump.counting", "shot_noise_zero_t", "counting.zero_t"),
    ("qpump.counting", "second_cumulant_direct", "counting.direct"),
    ("qpump.geometry", "charge_from_global_angle", "geometry.angle"),
    ("qpump.geometry", "amplitude_winding", "geometry.winding"),
    ("qpump.geometry", "fractional_charge", "geometry.fractional"),
    ("qpump.cli", "partition_disagreements", "classical.partition"),
    ("qpump.cli", "plow_charge_bpt", "classical.charge_bpt"),
    ("qpump.cli", "plow_charge_direct", "classical.charge_direct"),
)

POINT_SITES = (
    ("qpump.smatrix", "PumpCycle.sample", "smatrix.sample"),
    ("qpump.models", "transfer_matrix_smatrix", "models.transfer"),
    ("qpump.classical", "classical_scatter", "classical.scatter"),
    ("qpump.classical", "inverse_scatter", "classical.inverse"),
    ("qpump.classical", "brentq", "classical.root"),
)

EVALUATE = "models.evaluate"
CYCLE_BUILDERS = ("build_model", "build_pulse")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_s", "points")

    def __init__(self, name: str, start: float, parent: int, job: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child_s = 0.0
        self.points = {}      # point name -> [count, busy seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans and per-point counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.jobs = 0
        self._stack: list[int] = []
        self._depth = 0               # nesting of per-point calls
        self._patches = []
        self.present: set[str] = set()
        self._seen: set = set()       # (E, t) evaluated for the current model
        self._model = None
        self._distinct = 0

    # -- job boundaries ----------------------------------------------------

    def begin_job(self, job_id: int, model_key: str):
        if model_key != self._model:
            self._distinct += len(self._seen)
            self._seen = set()
            self._model = model_key
        self.jobs += 1
        self._push("job", job_id)

    def end_job(self):
        self._pop()

    def distinct_points(self) -> int:
        return self._distinct + len(self._seen)

    # -- wrappers ------------------------------------------------------------

    def _push(self, name: str, job: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        if job is None:
            job = self.spans[parent].job
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, perf(), parent, job))

    def _pop(self):
        span = self.spans[self._stack.pop()]
        span.end = perf()
        if self._stack:
            self.spans[self._stack[-1]].child_s += span.duration

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            self._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()
        return traced

    def _point(self, name: str, fn, seen: bool = False):
        def traced(*args, **kwargs):
            if seen:
                self._seen.add(args[:2])
            t0 = perf()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                busy = perf() - t0
                top = self.spans[self._stack[-1]]
                rec = top.points.get(name)
                if rec is None:
                    top.points[name] = [1, busy]
                else:
                    rec[0] += 1
                    rec[1] += busy
                if self._depth == 0:
                    top.child_s += busy
        return traced

    def _cycle_builder(self, fn):
        def build(*args, **kwargs):
            cycle = fn(*args, **kwargs)
            try:
                return dataclasses.replace(
                    cycle, evaluate=self._point(EVALUATE, cycle.evaluate, True))
            except (TypeError, AttributeError):   # no evaluate field any more
                self.present.discard(EVALUATE)
                return cycle
        return build

    # -- patching ------------------------------------------------------------

    def install(self):
        self.missing = []
        self.present = set()
        for module, attr, name in SPAN_SITES:
            if attr in CYCLE_BUILDERS:
                self._patch(module, attr, name, lambda fn, n=name:
                            self._span(n, self._cycle_builder(fn)))
            else:
                self._patch(module, attr, name,
                            lambda fn, n=name: self._span(n, fn))
        for module, attr, name in POINT_SITES:
            self._patch(module, attr, name,
                        lambda fn, n=name: self._point(n, fn))
        if any(attr in CYCLE_BUILDERS for _, attr, _ in self._patches):
            self.present.add(EVALUATE)

    def _patch(self, module: str, path: str, name: str, wrap):
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        self._patches.append((owner, attr, original))
        self.present.add(name)
        setattr(owner, attr, wrap(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def dump(self, path: str):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "job": s.job,
                    "points": s.points}) + "\n")


def per_layer(tracer: Tracer, speed: float = 1.0) -> dict:
    """Per-job layer metrics: {name: (value, unit)}.

    Times are seconds per traced job, multiplied by `speed` (the factor
    that takes wall time to reference host speed).  A metric whose
    bindings were all missing is left out.
    """
    n = max(tracer.jobs, 1)
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    pts = defaultdict(lambda: [0, 0.0])
    split_s = 0.0
    root_scatters = 0
    for s in tracer.spans:
        dur[s.name] += s.duration
        own[s.name] += s.self_s
        calls[s.name] += 1
        for name, (count, busy) in s.points.items():
            pts[name][0] += count
            pts[name][1] += busy
        if s.name == "counting.split" and s.parent >= 0 \
                and tracer.spans[s.parent].name == "counting.report":
            split_s += s.duration
        if s.name == "classical.charge_direct":
            root_scatters += s.points.get("classical.inverse", [0])[0]
    evals, eval_s = pts[EVALUATE]
    roots = pts["classical.root"][0]

    table = (
        ("models.evals", "count", (EVALUATE,), evals / n),
        ("models.eval_s", "s", (EVALUATE,), eval_s / n),
        ("models.transfer_s", "s", ("models.transfer",),
         pts["models.transfer"][1] / n),
        ("models.distinct_frac", "1", (EVALUATE,),
         tracer.distinct_points() / evals if evals else 0.0),
        ("smatrix.samples", "count", ("smatrix.sample",),
         pts["smatrix.sample"][0] / n),
        ("smatrix.sample_self_s", "s", ("smatrix.sample", EVALUATE),
         (pts["smatrix.sample"][1] - eval_s) / n),
        ("quadrature.gl_calls", "count", ("quadrature.gl",),
         calls["quadrature.gl"] / n),
        ("quadrature.gl_s", "s", ("quadrature.gl",), dur["quadrature.gl"] / n),
        ("transport.current_calls", "count", ("transport.current",),
         calls["transport.current"] / n),
        ("transport.current_self_s", "s", ("transport.current",),
         own["transport.current"] / n),
        ("transport.bk_s", "s", ("transport.bk",), dur["transport.bk"] / n),
        ("transport.integral_self_s", "s",
         ("transport.report", "transport.cycle_charge"),
         (own["transport.report"] + own["transport.cycle_charge"]) / n),
        ("counting.zero_t_s", "s", ("counting.zero_t",),
         dur["counting.zero_t"] / n),
        ("counting.zero_t_self_s", "s", ("counting.zero_t",),
         own["counting.zero_t"] / n),
        ("counting.direct_s", "s", ("counting.direct",),
         dur["counting.direct"] / n),
        ("counting.direct_self_s", "s", ("counting.direct",),
         own["counting.direct"] / n),
        ("counting.mean_s", "s", ("counting.mean",), dur["counting.mean"] / n),
        ("counting.split_s", "s", ("counting.split", "counting.report"),
         split_s / n),
        ("geometry.angle_s", "s", ("geometry.angle",),
         dur["geometry.angle"] / n),
        ("geometry.winding_s", "s", ("geometry.winding",),
         dur["geometry.winding"] / n),
        ("geometry.fractional_s", "s", ("geometry.fractional",),
         dur["geometry.fractional"] / n),
        ("classical.scatter_calls", "count", ("classical.scatter",),
         pts["classical.scatter"][0] / n),
        ("classical.scatter_s", "s", ("classical.scatter",),
         pts["classical.scatter"][1] / n),
        ("classical.partition_s", "s", ("classical.partition",),
         dur["classical.partition"] / n),
        ("classical.charge_bpt_s", "s", ("classical.charge_bpt",),
         dur["classical.charge_bpt"] / n),
        ("classical.charge_direct_s", "s", ("classical.charge_direct",),
         dur["classical.charge_direct"] / n),
        ("classical.scatters_per_root", "1",
         ("classical.root", "classical.inverse", "classical.charge_direct"),
         root_scatters / roots if roots else 0.0),
        ("cli.parse_s", "s", ("cli.parse",), dur["cli.parse"] / n),
        ("cli.emit_s", "s", ("cli.emit",), dur["cli.emit"] / n),
    )
    return {name: (value * speed if unit == "s" else value, unit)
            for name, unit, needs, value in table
            if all(x in tracer.present for x in needs)}
