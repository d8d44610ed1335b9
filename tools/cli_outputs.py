"""Write the CLI outputs of the benchmark's first jobs, for byte comparison.

For each workload in `benchmarks/workloads.py`, seeds 1 and 2, the
warm-up job and the first round are run through `qpump.cli.main`
in-process, once with JSON and once with CSV output; `qpump selfcheck`
is run once.  Each output lands in its own file under DEST (105 files),
so two trees compare with `diff -r`:

    python3 tools/cli_outputs.py /tmp/before    # in one checkout
    python3 tools/cli_outputs.py /tmp/after     # in the other
    diff -r /tmp/before /tmp/after

The package and the workloads are imported from the tree this file sits
in, so a checkout older than this file can run a copy of it placed in
its own `tools/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
FORMATS = ("json", "csv")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cli_outputs.py DEST", file=sys.stderr)
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
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["selfcheck"])
    (dest / "selfcheck.txt").write_text(f"{text.getvalue()}exit {code}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
