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


def _trees(tmp_path, before: str, after: str) -> tuple[Path, Path]:
    trees = tmp_path / "before", tmp_path / "after"
    for root, text in zip(trees, (before, after)):
        root.mkdir()
        (root / "run.json").write_text(text)
    return trees


def test_compare_prints_the_worst_pair_and_keeps_the_relative_gate(
        tmp_path, capsys):
    # the largest float of the file is the one that moved, so the
    # absolute rule is no looser than the relative one
    before, after = _trees(
        tmp_path,
        '{"mean": 5e-14,\n "charges": [5.386597388170055e-14, 0]}\n',
        '{"mean": 5e-14,\n "charges": [5.3892654228171466e-14, 0]}\n')
    tool = _tool()
    assert tool.FLOAT_RTOL == 1e-14
    assert tool.main(["--compare", str(before), str(after)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "run.json: worst relative difference 0.000495 (line 2: "
        "5.386597388170055e-14 against 5.3892654228171466e-14, "
        "absolute 2.67e-17, 0.000495 of the file's largest magnitude "
        "5.39e-14): passes neither rule")
    assert out[1] == ("1 of 1 files differ; FAIL at 1e-14 relative to the "
                      "float or to its file's largest magnitude")


def test_compare_accepts_a_near_zero_sum_that_moved_by_roundoff(
        tmp_path, capsys):
    # a summed charge that cancels to -8.4e-13 among rates of order 0.1
    # moved by 6.9e-18: 8.2e-6 relative, 3.5e-17 of the largest rate
    before, after = _trees(
        tmp_path,
        '{"charges": [-8.4198e-13, 0.1],\n "rates": [0.19731, -0.2]}\n',
        '{"charges": [-8.419731e-13, 0.1],\n "rates": [0.19731, -0.2]}\n')
    assert _tool().main(["--compare", str(before), str(after)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "run.json: worst relative difference 8.19e-06 (line 1: "
        "-8.4198e-13 against -8.419731e-13, absolute 6.9e-18, "
        "3.45e-17 of the file's largest magnitude 0.2): "
        "passes the absolute rule")
    assert out[1].startswith("1 of 1 files differ; ok at 1e-14")


def test_compare_names_the_relative_rule_for_a_last_digit_move(
        tmp_path, capsys):
    before, after = _trees(tmp_path, '{"mean": 0.30000000000000004}\n',
                           '{"mean": 0.3}\n')
    assert _tool().main(["--compare", str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(
        "passes the relative rule")
