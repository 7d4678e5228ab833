"""Run one gridforge command with span wrappers on the library's layers.

    PYTHONPATH=src python3 bench/traced.py SPANS.json -- COMMAND [ARGS..]

The command is the same argv `python -m gridforge.cli` takes.  Before
calling gridforge.cli.main, every function in SPANNED is replaced, on its
own module and on every gridforge module that imported it by name, with a
wrapper that records a span: name, parent span, start and end.  The
functions in COUNTED only get a call counter, because they run millions
of times.  Spans stay in memory and are written to SPANS.json once, when
the command returns; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

_clock = time.perf_counter

# (module, attribute) in gridforge; "Class.method" patches the class.
SPANNED = (
    ("coxeter", "_mat_mul"),
    ("coxeter", "CosetKey.__init__"),
    ("coxeter", "CosetKey.min_rep"),
    ("coxeter", "cell_faces"),
    ("coxeter", "neighbor"),
    ("coxeter", "enumerate_parabolic"),
    ("coxeter", "square_vertex_cycle"),
    ("coxeter", "build_system"),
    ("surface", "square_cycles"),
    ("surface", "validate_surface"),
    ("surface", "classify"),
    ("surface", "declared_vertices"),
    ("lattice", "corners_cyclic"),
    ("lattice", "faces"),
    ("lattice", "cube_union_boundary"),
    ("constructors", "tree_of_life"),
    ("honeycombs", "union_boundary"),
    ("honeycombs", "opposite_face"),
    ("honeycombs", "tree_of_life_435"),
    ("honeycombs", "surface_4335"),
    ("formats", "dumps_complex"),
    ("formats", "jsonable_to_complex"),
    ("export", "vertex_coordinates"),
    ("export", "to_off"),
    ("cli", "main"),
)
COUNTED = (
    ("coxeter", "CosetKey.__hash__", "coxeter.CosetKey.hash_calls"),
    ("field", "qf_from_ring", "field.qf_from_ring.calls"),
)


def span_name(module, attr):
    """Metric prefix of a spanned function; a constructor is its class."""
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []        # [name index, parent span or -1, start, end]
        self.stack = [-1]
        self.counts = Counter()
        self.parabolics = set()

    def span(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name_id, stack[-1], _clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = _clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observe(self, attr, fn):
        """Counters that need the arguments or the result of a call."""
        if attr == "enumerate_parabolic":
            def wrapper(system, gens):
                result = fn(system, gens)
                key = (system.name, frozenset(gens))
                if key not in self.parabolics:
                    self.parabolics.add(key)
                    self.counts["coxeter.enumerate_parabolic.elements"] += \
                        len(result)
                return result
            return wrapper
        if attr == "dumps_complex":
            def wrapper(obj):
                text = fn(obj)
                self.counts["formats.dumps_complex.bytes"] += \
                    len(text.encode("utf-8"))
                return text
            return wrapper
        return fn

    def dump(self, path, argv, code):
        self.counts["coxeter.parabolic.distinct"] = len(self.parabolics)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "exit_code": code, "names": self.names,
                       "spans": self.spans, "counts": self.counts}, fh)


def _replace_everywhere(modules, old, new):
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)


def install(tracer):
    import importlib

    modules = [importlib.import_module(f"gridforge.{m}") for m in
               ("field", "lattice", "coxeter", "surface", "constructors",
                "honeycombs", "formats", "export", "cli")]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}

    def patch(module, attr, make):
        owner = by_name[module]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
        else:
            old = getattr(owner, attr)
            _replace_everywhere(modules, old, make(old))

    for module, attr in SPANNED:
        patch(module, attr, lambda fn, m=module, a=attr: tracer.span(
            span_name(m, a), tracer.observe(a, fn)))
    for module, attr, metric in COUNTED:
        patch(module, attr, lambda fn, metric=metric: tracer.count(metric, fn))
    return by_name["cli"]


def main():
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    path, command = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    code = 1
    try:
        code = cli.main(command)
    finally:
        tracer.dump(path, command, code)
    sys.exit(code)


if __name__ == "__main__":
    main()
