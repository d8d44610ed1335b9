"""qpump benchmark: time-to-solution of the CLI on seeded workloads.

    python3 benchmarks/run.py --workload transport-warm --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  One client drives `qpump.cli.main(argv)`
in-process in a closed loop: jobs run back to back, each one CLI
invocation on a generated config with `--out` to a scratch file, and the
next starts when the previous answer has been read and checked.  One
untimed warm-up job runs first.  The harness starts no threads and
leaves BLAS at its default.

Host speed: on small shared VMs the CPU speed drifts by up to 2x over
minutes with no steal time, which swamps any change worth measuring.
So a fixed probe (small numpy operations, the same mix as the package's
per-point work) runs between consecutive jobs, and every time is
reported at reference speed: wall time x PROBE_REF_S / (mean of the two
probes around it).  Raw wall times and the probe median are printed too.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
jobs in untraced/traced pairs and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the lines before it give every metric by name with its unit, the answer
digest and the environment.  Spans of a traced run are written to
`benchmarks/out/`.

Exit code 2 when the package cannot be imported, 1 on a harness error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
PROBE_REF_S = 0.010     # probe() time that counts as reference speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe() -> float:
    """Wall time of a fixed run of 2x2 complex numpy operations."""
    t0 = time.perf_counter()
    m = np.eye(2, dtype=np.complex128)
    for k in range(1500):
        c, s = math.cos(k * 1e-3), math.sin(k * 1e-3)
        m = np.array([[c, -s], [s, c]], dtype=np.complex128) @ m
        float(np.max(np.abs(m)))
    return time.perf_counter() - t0


class Clock:
    """Scales wall times to reference speed with the probes around them."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def scale(self) -> float:
        """Call right after the timed step: the factor for that step."""
        nxt = probe()
        self.probes.append(nxt)
        factor = PROBE_REF_S / (0.5 * (self.last + nxt))
        self.last = nxt
        return factor


# ---------------------------------------------------------------------------
# one job

class Runner:
    """Runs jobs through `qpump.cli.main` and checks their answers."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.config_path = str(workdir / "config.json")
        self.out_path = str(workdir / "out.json")
        self.attempted = 0
        self.failed = 0

    def run(self, job: workloads.Job) -> tuple[float, dict | None]:
        """Wall time of the CLI call and its output (None if it failed)."""
        with open(self.config_path, "w") as fh:
            json.dump(job.config, fh)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = job.argv(self.config_path, self.out_path)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:          # a crash is a failed job, not a failed run
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        problems = [f"exit code {code}"] if code != 0 else []
        output = None
        if not problems:
            with open(self.out_path) as fh:
                output = json.load(fh)
            problems = workloads.check(job, output)
        if problems:
            self.failed += 1
            print(f"job failed: {' '.join(argv)}: {problems}", file=sys.stderr)
            output = None
        return elapsed, output


def rounds(workload: str, seed: int, seconds: float):
    """Whole rounds of jobs, until `seconds` have passed."""
    size = workloads.ROUND[workload]
    t_start = time.perf_counter()
    index = 0
    while True:
        yield [workloads.make_job(workload, seed, index + i)
               for i in range(size)]
        index += size
        if time.perf_counter() - t_start >= seconds:
            return


def digest(answers: list) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# end-to-end run

# the child times its own import and then probes its own speed: it may
# run on the other CPU, whose speed the parent's probes do not see
SETUP_CODE = ("import time; t0 = time.perf_counter(); import qpump.cli; "
              "t1 = time.perf_counter(); import run; "
              "print(t1 - t0, run.probe())")


def measure_setup() -> tuple[list, list]:
    """Scaled and raw import times of qpump.cli in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                               cwd=ROOT, check=True, capture_output=True,
                               text=True)
        elapsed, probe_s = map(float, child.stdout.split())
        if i:                       # the first one warms the page cache
            scaled.append(elapsed * PROBE_REF_S / probe_s)
            raw.append(elapsed)
    return scaled, raw


def untraced(runner: Runner, args) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup()
    runner.run(workloads.make_job(args.workload, args.seed, -1))
    clock = Clock()
    solve, solve_raw, busy, answers = [], [], 0.0, []
    for round_jobs in rounds(args.workload, args.seed, args.seconds):
        for job in round_jobs:
            t0 = time.perf_counter()
            elapsed, output = runner.run(job)
            turnaround = time.perf_counter() - t0
            factor = clock.scale()
            solve.append(elapsed * factor)
            solve_raw.append(elapsed)
            busy += turnaround * factor
            if len(answers) < len(round_jobs):
                answers.append(output and workloads.answer(output))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s.p50": (statistics.median(solve), "s"),
        "jobs_per_s": (len(solve) / busy, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "1"),
    }
    notes = {"jobs_timed": len(solve),
             "solve_s.p25_p75": statistics.quantiles(solve, n=4)[::2]
             if len(solve) > 1 else None,
             "raw_solve_s.p50": statistics.median(solve_raw),
             "raw_setup_s": statistics.median(setup_raw),
             "probe_s.p50": statistics.median(clock.probes),
             "answer_digest": digest(answers)}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run

def traced(runner: Runner, args) -> tuple[dict, dict]:
    tr = tracing.Tracer()
    runner.run(workloads.make_job(args.workload, args.seed, -1))
    clock = Clock()
    plain_s = traced_s = 0.0
    job_id = 0
    for round_jobs in rounds(args.workload, args.seed, args.seconds):
        for job in round_jobs:
            key = json.dumps(job.config, sort_keys=True)
            # alternate which side goes first so drift cancels
            for traced_side in ((False, True) if job_id % 2 == 0
                                else (True, False)):
                if not traced_side:
                    plain_s += runner.run(job)[0]
                    continue
                tr.install()
                tr.begin_job(job_id, key)
                try:
                    traced_s += runner.run(job)[0]
                finally:
                    tr.end_job()
                    tr.uninstall()
            clock.scale()
            job_id += 1
    factor = PROBE_REF_S / statistics.median(clock.probes)
    metrics = tracing.per_layer(tr, factor)
    metrics["trace.overhead"] = (traced_s / plain_s, "1")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.dump(str(spans_path))
    notes = {"jobs_traced": tr.jobs, "spans": len(tr.spans),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "probe_s.p50": statistics.median(clock.probes),
             "missing_bindings": tr.missing}
    return metrics, notes


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"commit": _commit(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0))}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import qpump.cli as cli
    except ImportError as exc:
        print(f"cannot import qpump from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="jobs-", dir=OUT))
    try:
        runner = Runner(cli, workdir)
        measure = traced if args.trace else untraced
        metrics, notes = measure(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} 1")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **notes,
                      "environment": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
