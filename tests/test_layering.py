"""Each gridforge module keeps its underscore names to itself.

A module may import another's public names only: no `from gridforge.x
import _name`, and no `x._name` read through an imported module, class
or function.  A rule that two modules need lives in one public place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gridforge"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dotted(node):
    """The dotted name of a chain of attribute reads on a name, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def foreign_private_names(source, module):
    """The underscore names of other gridforge modules that the source
    of gridforge.<module> imports or reads, as sorted (line, name)."""
    tree = ast.parse(source)
    me = f"gridforge.{module}"
    bound = {}  # local name -> the gridforge module or name it binds
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gridforge":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "gridforge":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = name
                if _private(alias.name) and node.module != me:
                    found.add((node.lineno, name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            head, _, rest = (base or "").partition(".")
            target = bound.get(head)
            if target is None:
                continue
            target = f"{target}.{rest}" if rest else target
            if target != me and not target.startswith(f"{me}."):
                found.add((node.lineno, f"{target}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_another_modules_underscore_names(path):
    source = path.read_text(encoding="utf-8")
    assert foreign_private_names(source, path.stem) == []


@pytest.mark.parametrize("source,found", [
    ("from gridforge.lattice import GriddedComplex, _all_ints",
     [(1, "gridforge.lattice._all_ints")]),
    ("from gridforge import lattice\nlattice._steps(k, a, 1)",
     [(2, "gridforge.lattice._steps")]),
    ("from gridforge import lattice as L\nL._steps",
     [(2, "gridforge.lattice._steps")]),
    ("import gridforge.coxeter\ngridforge.coxeter._mat_mul(a, b)",
     [(2, "gridforge.coxeter._mat_mul")]),
    ("import gridforge.coxeter as cx\ncx._mat_mul(a, b)",
     [(2, "gridforge.coxeter._mat_mul")]),
    ("def f():\n    from gridforge.coxeter import _identity",
     [(2, "gridforge.coxeter._identity")]),
    ("from gridforge.lattice import Frozen\nFrozen._set(x, 1)",
     [(2, "gridforge.lattice.Frozen._set")]),
    ("from gridforge.surface import AbstractSquareComplex as A\n"
     "A.from_squares._x", [(2, "gridforge.surface.AbstractSquareComplex."
                             "from_squares._x")]),
    ("from gridforge.formats import _require\n_require(1, 'x')", []),
    ("from gridforge.formats import _field\n_field._x", []),
    ("from gridforge import lattice\nlattice.faces\nself._set(1)", []),
    ("from gridforge.coxeter import build_system\n"
     "build_system('{4,3,5}')._square_form", []),
    ("import json\njson._default_encoder", []),
], ids=["from import", "module read", "aliased module", "dotted import",
        "aliased import", "local import", "class attribute",
        "aliased class", "own module", "own name", "public and self",
        "object attribute", "not gridforge"])
def test_the_fence_sees_each_way_in(source, found):
    assert foreign_private_names(source, "formats") == found
