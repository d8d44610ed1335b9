"""The benchmark tracer's bindings resolve in the package.

`benchmarks/tracer.py` patches qpump callables by (module, attribute)
and drops the metrics of any binding it cannot find, so a rename in the
package would silently empty the traced run's per-layer numbers.  The
tracer is loaded by path and only read.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from qpump.smatrix import PumpCycle

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("qpump_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_tracer_site_resolves():
    tracer = _tracer()
    sites = [(module, path) for module, path, _ in
             tracer.SPAN_SITES + tracer.POINT_SITES]
    assert len(sites) > 30
    missing = [f"{m}.{p}" for m, p in sites if not _resolves(m, p)]
    assert missing == []


def test_evaluate_is_a_pump_cycle_field():
    # the tracer wraps it with dataclasses.replace(cycle, evaluate=...)
    assert "evaluate" in {f.name for f in dataclasses.fields(PumpCycle)}
