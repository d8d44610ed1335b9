"""Which modules of the package may reach which kernel.

The stencil kernel is named only where it is defined, in `smatrix`,
and in `transport`, which wraps it in `_sweep` for every other module;
a third module that named it would be a second route to the kernel,
and fails here.  Every counting cumulant passes its cycle through
`counting._check_pulse`, so that is the one function there that reads
a cycle's window.
"""
from __future__ import annotations

import ast
from pathlib import Path

import qpump

PACKAGE = Path(qpump.__file__).parent


def _names(tree: ast.AST) -> set[str]:
    """Every name a module reads or imports, attributes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_smatrix_and_transport_name_the_stencil():
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "stencil" in _names(ast.parse(path.read_text())))
    assert users == ["smatrix.py", "transport.py"]


def test_only_the_pulse_gate_reads_a_window_in_counting():
    # a later entry point that read the window itself could skip the gate
    tree = ast.parse((PACKAGE / "counting.py").read_text())
    readers = {getattr(node, "name", "<module>") for node in tree.body
               if any(isinstance(n, ast.Attribute) and n.attr == "window"
                      for n in ast.walk(node))}
    assert readers == {"_check_pulse"}
