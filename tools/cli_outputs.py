"""Write the CLI outputs of the benchmark's first jobs, for byte comparison.

For each workload in `benchmarks/workloads.py`, seeds 1 and 2, the
warm-up job and the first round are run through `qpump.cli.main`
in-process, once with JSON and once with CSV output; `qpump selfcheck`
is run once, and `qpump models-list` once in each format, both writing
to standard output.  Five refused runs follow: one per exit code 2, 3
and 4, the `--channel` refusal, and a classical plow whose Fermi level
lies where states both pass and reflect; each of their files holds the
stderr line and `exit N`.  Each output lands in its own file under DEST
(112 files), so two trees compare with `diff -r`:

    python3 tools/cli_outputs.py /tmp/before    # in one checkout
    python3 tools/cli_outputs.py /tmp/after     # in the other
    diff -r /tmp/before /tmp/after

A change that moves answers in the last digits compares numerically:

    python3 tools/cli_outputs.py --compare /tmp/before /tmp/after

accepts a float that moved by at most 1e-14 relative to itself,
|a - b| / max(|a|, |b|), or by at most 1e-14 of the largest magnitude
among the floats of its file (both sides), so that a value which is zero
up to roundoff, say a charge of -8e-13 summed from rates of order 0.1,
may move in its last digits too.  Each differing file is listed with
its worst float: the one that misses its better rule by most.  The line
gives its relative difference, the line where it sits, the two floats
there, their absolute difference and that difference over the file's
largest magnitude, and which rule it passes.  The tool exits 1 when a
file is missing on one side, a file's lines or tokens do not pair up,
any token other than a float differs, or a float passes neither rule.

The package and the workloads are imported from the tree this file sits
in, so a checkout older than this file can run a copy of it placed in
its own `tools/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
FORMATS = ("json", "csv")
# (file, configuration, command and flags) of each refused run
REFUSALS = (
    ("refused-exit2-state-key.txt",
     {"model": {"kind": "battery"}, "state": {"nu": 1.0}}, ["transport"]),
    ("refused-exit2-channel.txt",
     {"model": {"kind": "battery"}}, ["geometry", "--channel", "5"]),
    ("refused-exit3-bicycle-grid18.txt",
     {"model": {"kind": "bicycle"}}, ["transport", "--grid", "18"]),
    ("refused-exit4-zero-t-direct.txt",
     {"pulse": {"kind": "battery", "window": [0.0, 10.0]}},
     ["noise", "--zero-t", "--direct"]),
    ("refused-exit4-classical-mixed.txt",
     {"classical": {"height": 1.0, "speed": 0.01}, "state": {"mu": 0.995}},
     ["classical", "--points", "50"]),
)
# largest difference of a float that --compare accepts, relative to the
# float or to the largest float magnitude of its file
FLOAT_RTOL = 1e-14
# splits JSON, CSV and selfcheck text into value tokens
SEPARATORS = re.compile(r"""[\s,:=\[\]{}()"]+""")
INTEGER = re.compile(r"[-+]?\d+")


def _float(token: str) -> float | None:
    """The value of a float token; None for integers and non-numbers."""
    if INTEGER.fullmatch(token):
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _relative(a: float, b: float, scale: float) -> float:
    """|a - b| / scale; 0 for equal floats, inf when one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(scale, 1e-300)


def compare_file(before: Path, after: Path) \
        -> tuple[float, float, int, float, float, float] | str:
    """(relative difference, difference over the file's largest
    magnitude, line, the float before and after, that magnitude) of the
    float that misses its better rule by most, or what does not pair."""
    old, new = (p.read_text().splitlines() for p in (before, after))
    if len(old) != len(new):
        return f"{len(old)} lines against {len(new)}"
    values = (_float(token) for line in old + new
              for token in SEPARATORS.split(line))
    scale = max((abs(v) for v in values if v is not None and math.isfinite(v)),
                default=0.0)
    worst = (0.0, 0.0, 0, 0.0, 0.0, scale)
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            continue
        ta, tb = SEPARATORS.split(a), SEPARATORS.split(b)
        if len(ta) != len(tb):
            return f"line {number}: tokens do not pair up"
        for x, y in zip(ta, tb):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                return f"line {number}: {x!r} against {y!r}"
            found = (_relative(fx, fy, max(abs(fx), abs(fy))),
                     _relative(fx, fy, scale), number, fx, fy, scale)
            worst = max(worst, found, key=lambda w: min(w[:2]))
    return worst


def compare(before: Path, after: Path) -> int:
    names = sorted({p.relative_to(root).as_posix()
                    for root in (before, after)
                    for p in root.rglob("*") if p.is_file()})
    failed, differing = False, 0
    for name in names:
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file()):
            result = f"only in {before if a.is_file() else after}"
        elif a.read_bytes() == b.read_bytes():
            continue
        else:
            result = compare_file(a, b)
        differing += 1
        if isinstance(result, str):
            failed = True
            print(f"{name}: structure differs: {result}")
            continue
        rel, of_scale, line, x, y, scale = result
        if rel <= FLOAT_RTOL:
            verdict = "passes the relative rule"
        elif of_scale <= FLOAT_RTOL:
            verdict = "passes the absolute rule"
        else:
            verdict, failed = "passes neither rule", True
        print(f"{name}: worst relative difference {rel:.3g} "
              f"(line {line}: {x!r} against {y!r}, absolute "
              f"{abs(x - y):.3g}, {of_scale:.3g} of the file's largest "
              f"magnitude {scale:.3g}): {verdict}")
    print(f"{differing} of {len(names)} files differ; "
          f"{'FAIL' if failed else 'ok'} at {FLOAT_RTOL:g} relative to the "
          f"float or to its file's largest magnitude")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
    if len(args) != 1:
        print("usage: cli_outputs.py DEST\n"
              "       cli_outputs.py --compare BEFORE AFTER", file=sys.stderr)
        return 2
    dest = Path(args[0])
    dest.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from qpump import cli

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for index in range(-1, workloads.ROUND[workload]):
                    job = workloads.make_job(workload, seed, index)
                    config.write_text(json.dumps(job.config))
                    for fmt in FORMATS:
                        out = dest / f"{workload}-s{seed}-j{index + 1}.{fmt}"
                        argv = [*job.argv(str(config), str(out)),
                                "--format", fmt]
                        code = cli.main(argv)
                        if code != 0:
                            print(f"exit {code}: {' '.join(argv)}",
                                  file=sys.stderr)
                            return 1
        runs = [("selfcheck.txt", ["selfcheck"]),
                *((f"models-list.{fmt}", ["models-list", "--format", fmt])
                  for fmt in FORMATS)]
        for name, cfg, (command, *flags) in REFUSALS:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            runs.append((name, [command, "--config", str(path), *flags]))
        for name, argv in runs:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), \
                    contextlib.redirect_stderr(text):
                code = cli.main(argv)
            (dest / name).write_text(f"{text.getvalue()}exit {code}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
