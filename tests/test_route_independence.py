"""The three routes to delta must not share normalization code.

The catalog, the splitting engine (``seifert.delta_engine``) and the
plumbing route agree on every tested input, and that agreement is the
correctness argument only while none of them borrows another's
arrangement of the data.  These checks read the package sources.
"""

import ast
import sys
from pathlib import Path

import spindefect

_SRC = Path(spindefect.__file__).parent


def _imports(module: str) -> set[str]:
    """Package modules ``module`` imports, and the names it takes from them.

    ``from .seifert import LensSpace`` gives {"seifert", "seifert.LensSpace"}.
    """
    tree = ast.parse((_SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.removeprefix("spindefect.") for a in node.names
                         if a.name.startswith("spindefect."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("spindefect"):
                source = node.module.removeprefix("spindefect").removeprefix(".") or None
            else:
                continue
            for alias in node.names:
                if source is None:  # from . import catalog
                    found.add(alias.name)
                else:
                    found.update({source, f"{source}.{alias.name}"})
    return found


def test_imports_are_read():
    # guards the negative checks below against a parser that sees nothing
    assert {"seifert", "seifert.delta_engine", "sigma._sigma"} <= _imports("catalog")


def test_engine_imports_neither_catalog_nor_plumbing():
    assert not _imports("seifert") & {"catalog", "plumbing"}


def test_plumbing_imports_neither_catalog_nor_the_engine():
    found = _imports("plumbing")
    assert "catalog" not in found
    assert not any(name.endswith(".delta_engine") for name in found)


def test_catalog_never_names_the_engine_arrangement():
    source = (_SRC / "catalog.py").read_text(encoding="utf-8")
    assert "_arrangement" not in source


def test_runtime_imports_only_the_standard_library():
    found = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    assert {"fractions", "math"} <= found  # the walk sees the imports
    assert found <= sys.stdlib_module_names, found - sys.stdlib_module_names
