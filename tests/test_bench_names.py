"""The library names the benchmark scripts depend on still resolve.

bench/traced.py patches the functions listed in SPANNED and COUNTED by
name, and bench/seed_input.py imports from the library, so a rename in
src/ would otherwise only show when the benchmark runs.  Both scripts
are loaded by path, as they are, and every name they use is looked up.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_traced_spans_and_counters_resolve():
    traced = _load("traced")
    names = [(f"gridforge.{m}", attr)
             for m, attr, *_ in traced.SPANNED + traced.COUNTED]
    assert names
    assert [n for n in names if not _resolves(*n)] == []


def test_seed_input_imports_resolve():
    seed_input = _load("seed_input")
    tree = ast.parse((BENCH / "seed_input.py").read_text(encoding="utf-8"))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module.startswith("gridforge")
             for alias in node.names]
    assert names
    assert [n for n in names if not _resolves(*n)] == []
    assert callable(seed_input.moved)
