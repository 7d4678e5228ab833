"""Reading and writing square complexes as JSON.

Three document shapes, told apart by their "format" key:

- gridded lattice:  {"format": "gridded", "ambient": "Z3",
                     "squares": [[1, 1, 0], ...]}
- gridded honeycomb: same but the ambient is a Schlafli symbol and each
  square is {"mask": <parabolic generator bitmask>, "rep": <ring matrix
  as nested [p, q, r, s] integer quadruples>}
- abstract:         {"format": "abstract", "vertices": ["a", ...],
                     "squares": [["a", "b", "c", "d"], ...]}

Output is deterministic.  complex_to_jsonable sorts the squares and
vertices and writes each coset square as the least matrix of its coset;
dumps_complex writes the text json.dumps(..., sort_keys=True, indent=2)
gives for it and one newline, a gridded document from one template per
square.  Abstract vertex labels are stringified on write and stay
strings on load.  In-memory `meta` annotations are not serialized.

Loading checks JSON shape only, with JSON true and false rejected where
an integer is expected.  A honeycomb square must carry a square's mask
(it leaves out generator 2 alone), and its representative m must
preserve the bilinear form, m^T 4B m = 4B (compared on and above the
diagonal, as both sides are symmetric), keep the time orientation as the
elements of the reflection group W do (coxeter.keeps_time_orientation),
which its negation does not, and pass the twist test, which every
element of W passes: an entry in row 0 or column 0, but not both, is
sqrt2 times an element of Z[phi], and every other entry lies in Z[phi].
The twist test is necessary only: a matrix outside W that passes all
three still loads.

ValueError names the first bad entry by position.  Entries are tested in
bulk: lattice keys by one set of the entry types and one of the types of
all their coordinates; coset squares by set tests of the entry types,
the masks, the types and lengths of each rep, its rows and entries, and
the coordinate types, then by one batch of coxeter.square_keys over the
flat list of all their coordinates (the twist test, an exact Gram check
over Z[phi] modulo an integer chosen from the largest coordinate, and
the time orientation), which checks only the first representative that
fails again, by coxeter.preserves_form, to name its fault.  Only when a
set test fails are the entries walked one by one, each checked as it is
drawn, so GriddedComplex and AbstractSquareComplex, which check each
square and then look for repeats, still name the first bad one.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from operator import itemgetter

from gridforge.coxeter import build_system, square_keys
from gridforge.lattice import GriddedComplex, is_lattice_ambient
from gridforge.surface import AbstractSquareComplex, cycle_key


_INT = frozenset([int])
_LIST = frozenset([list])
_DICT = frozenset([dict])


def _all_ints(items):
    """Whether every item is an int proper, of type int: a float, even
    1.0, is not, and nor are JSON true and false, which load as bools
    and which isinstance(x, int) would let through."""
    return _INT.issuperset(map(type, items))


def _square_mask(system):
    """The "mask" every coset square of the system carries in a
    document: one bit per generator of a square's parabolic, all but 2."""
    return sum(1 << i for i in system.parabolic_gens(2))


def complex_to_jsonable(obj):
    """The document of a complex as lists and dicts, in document order:
    lattice keys sorted, coset squares as the sorted least matrices of
    their cosets, abstract squares by cycle_key.  dumps_complex writes
    its text, a gridded one without building it."""
    if isinstance(obj, GriddedComplex):
        if is_lattice_ambient(obj.ambient):
            squares = [list(s) for s in sorted(obj.squares)]
        else:
            mask = _square_mask(build_system(obj.ambient))
            squares = [{"mask": mask,
                        "rep": [[list(e) for e in row] for row in rep]}
                       for rep in sorted(k.min_rep() for k in obj.squares)]
        return {"format": "gridded", "ambient": obj.ambient,
                "squares": squares}
    if isinstance(obj, AbstractSquareComplex):
        names = {v: str(v) for v in obj.vertices}
        if len(set(names.values())) != len(names):
            raise ValueError("vertex labels collide when stringified")
        squares = sorted(cycle_key(tuple(names[v] for v in s))
                         for s in obj.squares)
        return {"format": "abstract",
                "vertices": sorted(names.values()),
                "squares": squares}
    raise TypeError(f"not a square complex: {type(obj).__name__}")


def _layout(shape, depth):
    """The text json.dumps(indent=2) writes for a nested list of integers
    with the given length per level, at the given depth, each integer
    left as a %d."""
    if not shape:
        return "%d"
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join([_layout(shape[1:], depth + 1)] * shape[0])
    return "[" + inner + body + "\n" + "  " * depth + "]"


def dumps_complex(obj):
    """The text of json.dumps(complex_to_jsonable(obj), sort_keys=True,
    indent=2) plus a newline.

    A gridded document is written with one % template per square: a
    lattice key of n coordinates, or a mask and a rank x rank matrix of
    quadruples.  An abstract one, whose labels need escaping, goes
    through json.dumps.
    """
    if not isinstance(obj, GriddedComplex):
        return json.dumps(complex_to_jsonable(obj), sort_keys=True,
                          indent=2) + "\n"
    if not obj.squares:
        texts = ()
    elif is_lattice_ambient(obj.ambient):
        squares = sorted(obj.squares)
        template = _layout((len(squares[0]),), 2)
        texts = [template % s for s in squares]
    else:
        reps = sorted(k.min_rep() for k in obj.squares)
        rank = len(reps[0])
        mask = _square_mask(build_system(obj.ambient))
        template = ('{\n      "mask": %d,\n      "rep": ' % mask
                    + _layout((rank, rank, 4), 3) + "\n    }")
        texts = [template % tuple([t for row in rep for e in row for t in e])
                 for rep in reps]
    body = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    return ('{\n  "ambient": ' + json.dumps(obj.ambient)
            + ',\n  "format": "gridded",\n  "squares": ' + body + "\n}\n")


def save_complex(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(obj))


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _load_lattice_squares(raw):
    """A document's lattice keys: a list of tuples when every entry is a
    list of ints, which two set tests over the whole document tell, and
    otherwise _walk_lattice_squares."""
    if (_LIST.issuperset(map(type, raw))
            and _all_ints(chain.from_iterable(raw))):
        return list(map(tuple, raw))
    return _walk_lattice_squares(raw)


def _walk_lattice_squares(raw):
    """A document's lattice keys, each checked as it is drawn, so that
    GriddedComplex, which checks the keys drawn before a refused one,
    names the first bad entry."""
    for i, s in enumerate(raw):
        _require(isinstance(s, list) and _all_ints(s),
                 f"squares[{i}]: expected a list of integers")
        yield tuple(s)


def _load_coset_squares(ambient, raw):
    """A document's coset squares, drawn once GriddedComplex has checked
    the ambient: coxeter.square_keys checks and keys the representatives
    in one batch when _coset_coords lists their coordinates, and one at
    a time, each as _walk_coset_reps draws it, when it does not."""
    system = build_system(ambient)
    coords = _coset_coords(system, raw)
    if coords is not None:
        yield from square_keys(system, coords)
        return
    for i, coords in enumerate(_walk_coset_reps(system, raw)):
        yield from square_keys(system, coords, i)


def _coset_coords(system, raw):
    """The integer coordinates of a document's coset representatives, in
    order, when set tests over the whole document find every entry an
    object with the square's mask and a rank x rank matrix of integer
    quadruples, and otherwise None."""
    rank, mask = system.rank, _square_mask(system)
    if not _DICT.issuperset(map(type, raw)):
        return None
    try:
        masks = list(map(itemgetter("mask"), raw))
        level = list(map(itemgetter("rep"), raw))
    except KeyError:
        return None
    for size in (rank, rank, 4):
        if not (_LIST.issuperset(map(type, level))
                and {size}.issuperset(map(len, level))):
            return None
        level = list(chain.from_iterable(level))
    if _all_ints(masks) and {mask}.issuperset(masks) and _all_ints(level):
        return level
    return None


def _walk_coset_reps(system, raw):
    """The integer coordinates of each of a document's coset
    representatives, its shape checked as it is drawn, so that the entry
    before a bad one is checked first and the first bad entry is named."""
    rank, mask = system.rank, _square_mask(system)
    for i, entry in enumerate(raw):
        where = f"squares[{i}]"
        _require(isinstance(entry, dict) and {"mask", "rep"} <= set(entry),
                 f"{where}: expected an object with mask and rep")
        _require(type(entry["mask"]) is int and entry["mask"] == mask,
                 f"{where}: mask must be {mask}, every generator but 2 "
                 "(a square)")
        rep = entry["rep"]
        _require(isinstance(rep, list) and len(rep) == rank
                 and all(isinstance(row, list) and len(row) == rank
                         for row in rep),
                 f"{where}: rep must be a {rank}x{rank} matrix")
        _require(all(isinstance(e, list) and len(e) == 4 and _all_ints(e)
                     for row in rep for e in row),
                 f"{where}: entries must be integer quadruples")
        yield [t for row in rep for e in row for t in e]


def _abstract_squares(raw):
    """A document's abstract squares, each checked as it is drawn."""
    for i, s in enumerate(raw):
        _require(isinstance(s, list) and len(s) == 4
                 and all(isinstance(v, str) for v in s),
                 f"squares[{i}]: expected 4 vertex labels")
        yield s


def _field(data, name, kind, what):
    _require(name in data, f"missing {name}")
    _require(isinstance(data[name], kind), f"{name} must be {what}")
    return data[name]


def jsonable_to_complex(data):
    _require(isinstance(data, dict), "top level must be an object")
    fmt = data.get("format")
    if fmt == "gridded":
        ambient = _field(data, "ambient", str, "a string")
        raw = _field(data, "squares", list, "a list")
        return GriddedComplex(ambient, (
            _load_lattice_squares(raw) if is_lattice_ambient(ambient)
            else _load_coset_squares(ambient, raw)))
    if fmt == "abstract":
        verts = data.get("vertices")
        _require(isinstance(verts, list)
                 and all(isinstance(v, str) for v in verts),
                 "abstract vertices must be strings")
        raw = _field(data, "squares", list, "a list")
        return AbstractSquareComplex(verts, _abstract_squares(raw))
    raise ValueError(f"unknown format {fmt!r}")


def load_complex(path):
    """The complex in the JSON file at path, checked by
    jsonable_to_complex.  Two faults the decoder reports with no position
    get a ValueError of their own: nesting too deep for it, and an
    integer with more digits than sys.get_int_max_str_digits() allows.
    Every other decoding error passes through unchanged."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nests too deeply to read") from None
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:
            raise ValueError("a JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits, too "
                             "many to read") from None
    return jsonable_to_complex(data)
