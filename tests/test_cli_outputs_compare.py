"""`tools/cli_outputs.py --compare` on two small output trees."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_prints_the_worst_pair_and_keeps_the_relative_gate(
        tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    for root, charge in ((before, "5.386597388170055e-14"),
                         (after, "5.3892654228171466e-14")):
        root.mkdir()
        (root / "run.json").write_text(
            f'{{"mean": 1.0,\n "charges": [{charge}, 0.5]}}\n')
    tool = _tool()
    assert tool.FLOAT_RTOL == 1e-14
    assert tool.main(["--compare", str(before), str(after)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "run.json: worst relative difference 0.000495 (line 2: "
        "5.386597388170055e-14 against 5.3892654228171466e-14, "
        "absolute 2.67e-17)")
    assert out[1] == "1 of 1 files differ; FAIL at relative 1e-14"
