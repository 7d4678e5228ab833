"""Command line front end.

Subcommands: build (catalogue of constructions), validate, classify,
sum (embedded connected sum), stats (incidence numbers of the honeycombs
against their catalogued values) and export (OFF/OBJ/JSON).

Exit codes: 0 on success, 1 when a build collides or a complex fails to
be a surface, 2 for usage errors and malformed input files.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from gridforge.constructors import (
    EndDecoration, closed_surface, crosscap_z4, frame_torus, klein_bottle,
    prune_and_decorate, sphere_cube, spiral_tree, tree_of_life,
)
from gridforge.coxeter import CLAIMED_INCIDENCE, build_system, incidence_counts
from gridforge.export import to_obj, to_off
from gridforge.formats import dumps_complex, load_complex
from gridforge.honeycombs import (
    closed_orientable_435, crosscap_abstract_34, hyperbolic_pants_435,
    hyperbolic_torus_435, pants_4335, surface_4335, torus_4335,
    tree_of_life_435,
)
from gridforge.surface import (
    GridCollisionError, classify, connected_sum_embedded, validate_surface,
)


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _genus_or_crosscaps(args):
    if (args.genus is None) == (args.crosscaps is None):
        raise ValueError(
            f"{args.id} needs exactly one of --genus/--crosscaps")
    if args.genus is not None:
        return True, args.genus
    return False, args.crosscaps


def _parse_ends(specs):
    ends = []
    for spec in specs:
        kind, sep, length = spec.partition(":")
        try:
            length = int(length) if sep else 1
        except ValueError:
            raise ValueError(
                f"--end {spec!r}: length must be an integer") from None
        ends.append(EndDecoration(kind, length))
    return ends


def _spiral_document(depth):
    tree = spiral_tree(depth)
    data = {
        "format": "plane_tree",
        "depth": tree.depth,
        "segments": sorted([a[0], a[1], b[0], b[1]]
                           for a, b in tree.segments),
        "leaves": sorted([x, y] for x, y in tree.leaves),
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# The catalogue, in the order `build --help` lists it: each id maps the
# build options it reads, with their values when not given, and a
# function from the parsed options to a complex or, for tree-spiral, to
# the text of its plane-tree document.  Any other build option is
# refused; the build options are those some id reads, and the parser
# leaves each None unless it is given.
BUILDERS = {
    "sphere": ({}, lambda a: sphere_cube()),
    "torus-paper": ({}, lambda a: frame_torus()),
    "torus-32": ({}, lambda a: frame_torus()),
    "crosscap-r4": ({}, lambda a: crosscap_z4()),
    "crosscap-30": ({}, lambda a: crosscap_z4()),
    "klein-bottle": ({}, lambda a: klein_bottle()),
    "closed-surface": ({"genus": None, "crosscaps": None},
                       lambda a: closed_surface(*_genus_or_crosscaps(a))),
    "tree-spiral": ({"depth": 1}, lambda a: _spiral_document(a.depth)),
    "tree-of-life": ({"depth": 1}, lambda a: tree_of_life(a.depth)),
    "pruned-tree": (
        {"depth": 1, "prune": 0, "handles": 0, "crosscaps": 0, "end": []},
        lambda a: prune_and_decorate(
            spiral_tree(a.depth), prune=a.prune, handles=a.handles,
            crosscaps=a.crosscaps, ends=_parse_ends(a.end))),
    "hyp-torus": ({}, lambda a: hyperbolic_torus_435()),
    "hyp-pants": ({}, lambda a: hyperbolic_pants_435()),
    "hyp-tree": ({"depth": 1}, lambda a: tree_of_life_435(a.depth)),
    "hyp-closed": ({"genus": 1}, lambda a: closed_orientable_435(a.genus)),
    "h4-torus": ({}, lambda a: torus_4335()),
    "h4-pants": ({}, lambda a: pants_4335()),
    "h4-crosscap": ({}, lambda a: crosscap_abstract_34()),
    "h4-surface": (
        {"genus": None, "crosscaps": None, "boundary_circles": 0},
        lambda a: surface_4335(*_genus_or_crosscaps(a), a.boundary_circles)),
}


def _cmd_build(args):
    reads, build = BUILDERS[args.id]
    for option in {o for other, _ in BUILDERS.values() for o in other}:
        if getattr(args, option) is None:
            setattr(args, option, reads.get(option))
        elif option not in reads:
            flags = ", ".join("--" + o.replace("_", "-") for o in reads)
            raise ValueError(f"{args.id} takes {flags} only" if flags
                             else f"{args.id} takes no options but -o")
    built = build(args)
    _write(args.output,
           built if isinstance(built, str) else dumps_complex(built))
    return 0


def _yesno(flag):
    return "yes" if flag else "no"


def _cmd_validate(args):
    report = validate_surface(load_complex(args.path))
    lines = [
        f"surface: {_yesno(report.is_surface)}",
        f"closed: {_yesno(report.is_closed)}",
        f"vertices: {report.vertex_count}",
        f"edges: {report.edge_count}",
        f"squares: {report.square_count}",
        f"euler characteristic: {report.euler_characteristic}",
    ]
    lines += [f"failure: {f}" for f in report.failures]
    _write(None, "\n".join(lines) + "\n")
    return 0 if report.is_surface else 1


def _cmd_classify(args):
    report = classify(load_complex(args.path))
    lines = [report.class_name]
    if report.is_surface:
        lines += [
            f"components: {len(report.components)}",
            f"euler characteristic: {report.euler_characteristic}",
            f"orientable: {_yesno(report.orientable)}",
            f"boundary circles: {report.boundary_circles}",
            f"closed: {_yesno(report.is_closed)}",
        ]
    else:
        lines += [f"failure: {f}" for f in report.failures]
    _write(None, "\n".join(lines) + "\n")
    return 0 if report.is_surface else 1


def _parse_cell(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _cmd_sum(args):
    a = load_complex(args.first)
    b = load_complex(args.second)
    out = connected_sum_embedded(a, _parse_cell(args.face_a),
                                 b, _parse_cell(args.face_b), axis=args.axis)
    _write(args.output, dumps_complex(out))
    return 0


_DIM_NAMES = {0: "vertex", 1: "edge", 2: "square", 3: "3-cell", 4: "4-cell"}


def _cmd_stats(args):
    names = args.systems or sorted(CLAIMED_INCIDENCE)
    unknown = [n for n in names if n not in CLAIMED_INCIDENCE]
    if unknown:
        raise ValueError(f"unknown honeycomb {unknown[0]!r}; known: "
                         + ", ".join(sorted(CLAIMED_INCIDENCE)))
    lines = []
    for name in names:
        system = build_system(name)
        for d in sorted(CLAIMED_INCIDENCE[name]):
            computed = incidence_counts(system, d)
            claimed = CLAIMED_INCIDENCE[name][d]
            mark = "" if computed == claimed else "  DIFF"
            lines.append(
                f"{name} {_DIM_NAMES[d]}: computed "
                + " ".join(map(str, computed))
                + " | catalogued " + " ".join(map(str, claimed)) + mark)
    _write(None, "\n".join(lines) + "\n")
    return 0


def _cmd_export(args):
    obj = load_complex(args.path)
    if args.format == "json":
        text = dumps_complex(obj)
    elif args.format == "off":
        text = to_off(obj)
    else:
        text = to_obj(obj)
    _write(args.output, text)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gridforge",
        description="build, validate and classify gridded surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a catalogued surface")
    p.add_argument("id", choices=BUILDERS)
    p.add_argument("--depth", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--crosscaps", type=int)
    p.add_argument("--boundary-circles", type=int)
    p.add_argument("--prune", type=int)
    p.add_argument("--handles", type=int)
    p.add_argument("--end", action="append",
                   metavar="KIND[:LENGTH]",
                   help="truncated end for pruned-tree (cylinder, ladder "
                        "or crosscap_chain); repeatable")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="check the surface conditions")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="topological type of a complex")
    p.add_argument("path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sum", help="embedded connected sum of two complexes")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--face-a", required=True,
                   help="square of the first complex, e.g. 1,1,2")
    p.add_argument("--face-b", required=True)
    p.add_argument("--axis", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("stats", help="incidence numbers vs the catalogue")
    p.add_argument("systems", nargs="*",
                   help="honeycombs to report on (default: all)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export", help="write OFF, OBJ or normalized JSON")
    p.add_argument("path")
    p.add_argument("--format", choices=("off", "obj", "json"),
                   default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # Apart from a few hundred argparse objects, a command's data form no
    # reference cycles, and they live until it returns: the cyclic
    # collector would only rescan them, again and again as they grow.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except GridCollisionError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        for cell in exc.cells:
            print(f"  collision at {cell}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
