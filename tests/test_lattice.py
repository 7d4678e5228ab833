import copy
import json
import pickle
import random
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_cofaces, brute_faces, coface_count
from gridforge import honeycombs
from gridforge.coxeter import build_system, cell_faces, identity_cell, neighbor
from gridforge.lattice import (
    GriddedComplex, all_ints, ambient_dim, cell_codes, cell_dim,
    check_squares, cofaces, corners_cyclic, cube_union_boundary,
    embed_higher, faces, is_lattice_ambient, translate,
)
from gridforge.formats import dumps_complex, jsonable_to_complex
from gridforge.surface import classify


def test_cell_dim_by_parity():
    assert cell_dim((0, 0, 0)) == 0
    assert cell_dim((1, 0, 0)) == 1
    assert cell_dim((1, 1, 0)) == 2
    assert cell_dim((1, 1, 1)) == 3
    assert cell_dim((1, 1, 1, 1)) == 4


def test_faces_of_unit_cube():
    cube = (1, 1, 1)
    assert len(faces(cube, 2)) == 6
    assert len(faces(cube, 1)) == 12
    assert len(faces(cube, 0)) == 8
    assert faces(cube, 3) == (cube,)
    assert faces(cube, 4) == ()
    assert (0, 1, 1) in faces(cube, 2)
    assert (0, 0, 0) in faces(cube, 0)


def test_faces_against_brute_force():
    rng = random.Random(4511)
    for _ in range(120):
        n = rng.randint(1, 4)
        key = tuple(rng.randint(-4, 4) for _ in range(n))
        d = cell_dim(key)
        for k in range(d + 1):
            got = faces(key, k)
            assert set(got) == brute_faces(key, k)
            assert list(got) == sorted(got)
            assert len(got) == comb(d, k) * 2 ** (d - k)


def test_cofaces_against_brute_force():
    rng = random.Random(4512)
    for _ in range(120):
        n = rng.randint(1, 4)
        key = tuple(rng.randint(-4, 4) for _ in range(n))
        d = cell_dim(key)
        for k in range(d, n + 1):
            got = cofaces(key, k)
            assert set(got) == brute_cofaces(key, k)
            assert len(got) == coface_count(d, k, n)


def test_coface_counts_closed_form():
    # a vertex of Z^3 meets 6 edges, 12 squares, 8 cubes
    assert coface_count(0, 1, 3) == 6
    assert coface_count(0, 2, 3) == 12
    assert coface_count(0, 3, 3) == 8
    # an edge of Z^3 meets 4 squares and 4 cubes
    assert coface_count(1, 2, 3) == 4
    assert coface_count(1, 3, 3) == 4
    # a vertex of Z^4 meets 8 edges, 24 squares, 32 cubes, 16 hypercubes
    assert coface_count(0, 1, 4) == 8
    assert coface_count(0, 2, 4) == 24
    assert coface_count(0, 3, 4) == 32
    assert coface_count(0, 4, 4) == 16
    # an edge of Z^4: 6 squares, 12 cubes, 8 hypercubes
    assert coface_count(1, 2, 4) == 6
    assert coface_count(1, 3, 4) == 12
    assert coface_count(1, 4, 4) == 8
    # a square: 4 cubes and 4 hypercubes in Z^4
    assert coface_count(2, 3, 4) == 4
    assert coface_count(2, 4, 4) == 4
    # and in Z^2 a vertex meets 4 edges and 4 squares
    assert coface_count(0, 1, 2) == 4
    assert coface_count(0, 2, 2) == 4


def test_corners_cyclic():
    assert corners_cyclic((1, 1, 0)) == (
        (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
    rng = random.Random(88)
    for _ in range(60):
        n = rng.randint(2, 4)
        key = [2 * rng.randint(-3, 3) for _ in range(n)]
        u, v = sorted(rng.sample(range(n), 2))
        key[u] += 1
        key[v] += 1
        key = tuple(key)
        corners = corners_cyclic(key)
        assert set(corners) == set(faces(key, 0))
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            assert sum(abs(x - y) for x, y in zip(a, b)) == 2
    with pytest.raises(ValueError):
        corners_cyclic((1, 1, 1))


def test_translate_requires_even_vector():
    sq = {(1, 1, 0)}
    assert translate(sq, (2, 0, -4)) == {(3, 1, -4)}
    with pytest.raises(ValueError):
        translate(sq, (1, 0, 0))


@pytest.mark.parametrize("vec", [(2,), (2, 0), (2, 0, 0, 0)])
def test_translate_rejects_a_vector_of_another_length(vec):
    with pytest.raises(ValueError, match=re.escape(
            f"cell (1, 1, 0) has 3 coordinates, the vector {vec} has "
            f"{len(vec)}")):
        translate({(1, 1, 0)}, vec)


def test_embed_higher():
    assert embed_higher({(1, 1)}, 4) == {(1, 1, 0, 0)}
    with pytest.raises(ValueError):
        embed_higher({(1, 1, 0)}, 2)


def test_cube_union_boundary_basics():
    one = cube_union_boundary([(1, 1, 1)])
    assert one == frozenset(faces((1, 1, 1), 2))
    two = cube_union_boundary([(1, 1, 1), (3, 1, 1)])
    assert len(two) == 10
    assert (2, 1, 1) not in two
    with pytest.raises(ValueError):
        cube_union_boundary([(1, 1, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        cube_union_boundary([(1, 1, 1), (1, 1, 0)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.integers(0, n).flatmap(
    lambda d: st.sets(st.tuples(*[st.integers(-4, 4)] * n).map(
        lambda key, d=d: _with_dimension(key, d)), max_size=10))))
def test_union_boundary_is_the_faces_counted_once(cells):
    counts = Counter()
    for c in cells:
        d = cell_dim(c)
        counts.update(brute_faces(c, d - 1))
    expected = {f for f, m in counts.items() if m == 1}
    assert cube_union_boundary(list(cells)) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(9, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                         unique=True), st.integers(0, 3))).flatmap(
    lambda shape: st.sets(st.tuples(*[st.integers(-3, 3)] * 3).map(
        lambda xs, shape=shape: _spread(shape, xs)), max_size=10)))
def test_union_boundary_across_runs_of_the_codes(cells):
    # past 8 coordinates a code has runs; the cells move on 3 axes
    # anywhere in the key, and a facet steps one odd coordinate by +-1
    counts = Counter(c[:t] + (x + s,) + c[t + 1:] for c in cells
                     for t, x in enumerate(c) if x % 2 for s in (-1, 1))
    expected = {f for f, m in counts.items() if m == 1}
    assert cube_union_boundary(list(cells)) == expected


def _spread(shape, xs):
    """The key of Z^n with xs on the axes, the first d made odd."""
    n, axes, d = shape
    key = [0] * n
    for i, (t, x) in enumerate(zip(axes, xs)):
        key[t] = x | 1 if i < d else x & ~1
    return tuple(key)


def _with_dimension(key, d):
    """key with its first d coordinates made odd and the rest even."""
    return tuple(x | 1 if t < d else x & ~1 for t, x in enumerate(key))


@pytest.mark.parametrize("cells,message", [
    ([(1, 1, 1), (1, 1, 1, 0)],
     "cells[1]: 4 coordinates, cells[0] has 3: (1, 1, 1, 0)"),
    ([(1, 1, 1, 0), (1, 1, 1)],
     "cells[1]: 3 coordinates, cells[0] has 4: (1, 1, 1)"),
    ([(1, 1, 1), (3, 1.0, 1)], "cells[1]: not a tuple of ints: (3, 1.0, 1)"),
    ([(1, 1, 1), (3, True, 1)],
     "cells[1]: not a tuple of ints: (3, True, 1)"),
    ([(1, 1, 1), [3, 1, 1]], "cells[1]: not a tuple of ints: [3, 1, 1]"),
    ([None, (1, 1, 1)], "cells[0]: not a tuple of ints: None"),
    ([(1, 1, 1), (1, 1, 0), (1, 1)],
     "cells[2]: 2 coordinates, cells[0] has 3: (1, 1)"),
    ([(1, 1, 1), (3, 1, 1), (1, 1, 1)], "duplicate cells in union"),
    ([(1, 1, 1), (1, 1, 1), (1, 1, 0)],
     "cells must all have the same dimension"),
], ids=["longer", "shorter", "float", "bool", "list", "None",
        "length before dimension", "duplicate", "dimension before duplicate"])
def test_union_boundary_names_a_bad_lattice_cell(cells, message):
    with pytest.raises(ValueError) as info:
        cube_union_boundary(cells)
    assert str(info.value) == message


@pytest.mark.parametrize("cells", [
    [], iter([]), [(0, 0, 0)], [(0, 0), (2, 0), (0, -2)], [()]],
    ids=["empty", "empty iterator", "vertex", "vertices", "Z0 vertex"])
def test_union_boundary_without_facets_is_empty(cells):
    assert cube_union_boundary(cells) == frozenset()


def _lattice_cells():
    """Ambient, a cube, its neighbour through a face, that face and a
    square of a lattice."""
    return "Z3", (1, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 0)


def _coset_cells():
    """The same for the cosets of {4,3,5}."""
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    face = cell_faces(cube, 2)[0]
    return s.name, cube, neighbor(cube, face), face, identity_cell(s, 2)


CELL_KINDS = pytest.mark.parametrize("cells", [_lattice_cells, _coset_cells],
                                     ids=["lattice", "coset"])


def test_union_boundary_has_one_implementation():
    assert honeycombs.union_boundary is cube_union_boundary


@CELL_KINDS
def test_union_boundary_single_cube_is_sphere(cells):
    ambient, cube, _, _, _ = cells()
    squares = cube_union_boundary([cube])
    assert len(squares) == 6
    r = classify(GriddedComplex(ambient, squares))
    assert r.class_name == "orientable genus 0"
    assert (r.vertex_count, r.edge_count) == (8, 12)


@CELL_KINDS
def test_union_boundary_drops_the_shared_face(cells):
    _, cube, other, shared, _ = cells()
    two = cube_union_boundary([cube, other])
    assert len(two) == 10
    assert shared not in two


@CELL_KINDS
def test_union_boundary_rejects_duplicates(cells):
    _, cube, _, _, _ = cells()
    with pytest.raises(ValueError, match="duplicate"):
        cube_union_boundary([cube, cube])


def _mixed_dimensions(cells):
    _, cube, _, _, square = cells()
    return [cube, square], "same dimension"


def _mixed_kinds(first, second):
    cells = [first()[1], second()[1]]
    return cells, ("^cells mix lattice keys and honeycomb cells: "
                   + re.escape(f"{cells[1]!r} is not like {cells[0]!r}") + "$")


def _mixed_honeycombs():
    _, cube, other, _, _ = _coset_cells()
    cells = [cube, other, identity_cell(build_system("{4,3,3,5}"), 3)]
    return cells, ("^cells mix honeycombs: " + re.escape(
        f"{cells[2]!r} is not in {{4,3,5}} like {cube!r}") + "$")


@pytest.mark.parametrize("mix", [
    lambda: _mixed_dimensions(_lattice_cells),
    lambda: _mixed_dimensions(_coset_cells),
    lambda: _mixed_kinds(_lattice_cells, _coset_cells),
    lambda: _mixed_kinds(_coset_cells, _lattice_cells),
    _mixed_honeycombs,
], ids=["lattice", "coset", "lattice-then-coset", "coset-then-lattice",
        "two-honeycombs"])
def test_union_boundary_rejects_mixed_dimensions(mix):
    cells, message = mix()
    with pytest.raises(ValueError, match=message):
        cube_union_boundary(cells)


def test_gridded_complex_checks_squares():
    GriddedComplex("Z3", {(1, 1, 0)})
    with pytest.raises(ValueError):
        GriddedComplex("Z3", {(1, 1, 1)})
    with pytest.raises(ValueError):
        GriddedComplex("Z2", {(1, 1, 0)})


@pytest.mark.parametrize("key", [(1.5, 1, 0), (1.0, 1.0, 0.0),
                                 (True, True, 0), (1, 1, False)])
def test_gridded_complex_rejects_non_integer_keys(key):
    # 1.5 % 2 is odd to cell_dim, and a float or bool key would reach the
    # integer cell codes of the read path
    with pytest.raises(ValueError, match=re.escape(
            f"not a square of Z3: {key}")):
        GriddedComplex("Z3", {(1, 3, 0), key})


@pytest.mark.parametrize("squares,message", [
    ([(1, 1, 0), (1, 1, 1)], "squares[1]: not a square of Z3: (1, 1, 1)"),
    ([(1, 1, 0), (1, 1, 0)], "squares[1]: same square as squares[0]"),
    ([(1, 1, 0), [1, 0, 1]], "squares[1]: not a square of Z3: [1, 0, 1]"),
    ([None, (1, 1, 1)], "squares[0]: not a square of Z3: None"),
    ([(1, 1, 0), (1, 1, 0), (1, 1, 1)],
     "squares[2]: not a square of Z3: (1, 1, 1)"),
], ids=["cell", "repeat", "list", "non-sequence", "repeat then cell"])
def test_gridded_complex_names_the_bad_square_by_position(squares, message):
    # cells are checked in the order given, repeats once all have passed
    with pytest.raises(ValueError) as info:
        GriddedComplex("Z3", squares)
    assert str(info.value) == message


def test_gridded_complex_names_a_repeated_coset_square_by_position():
    s = build_system("{4,3,5}")
    square = identity_cell(s, 2)
    other = next(f for f in cell_faces(identity_cell(s, 3), 2)
                 if f != square)
    with pytest.raises(ValueError) as info:
        GriddedComplex(s.name, iter([square, other, square]))
    assert str(info.value) == "squares[2]: same square as squares[0]"


@pytest.mark.parametrize("ambient", [3, None, b"Z3"])
def test_gridded_complex_rejects_an_ambient_that_is_not_a_string(ambient):
    with pytest.raises(ValueError) as info:
        GriddedComplex(ambient, [])
    assert str(info.value) == f"ambient must be a string: {ambient!r}"


def test_gridded_complex_rejects_unknown_ambient():
    with pytest.raises(ValueError, match="unknown system 'nonsense'"):
        GriddedComplex("nonsense", {(1, 1, 0)})


@pytest.mark.parametrize("ambient", ["Z03", "Z\u0663", "Z\u00b2", "Z0",
                                     "Z", "z3"])
def test_gridded_complex_rejects_non_canonical_lattice_names(ambient):
    # one grammar: "Z" and ASCII decimal digits with no leading zero
    assert not is_lattice_ambient(ambient)
    with pytest.raises(ValueError, match=re.escape(
            f"not a lattice ambient: {ambient!r}")):
        ambient_dim(ambient)
    with pytest.raises(ValueError, match=re.escape(
            f"unknown system {ambient!r}")):
        GriddedComplex(ambient, {(1, 1, 0)})


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_lattice_ambients_load(n):
    ambient = f"Z{n}"
    assert is_lattice_ambient(ambient) and ambient_dim(ambient) == n
    square = (1, 1) + (0,) * (n - 2)
    c = jsonable_to_complex({"format": "gridded", "ambient": ambient,
                             "squares": [list(square)]})
    assert c == GriddedComplex(ambient, {square})
    assert jsonable_to_complex(json.loads(dumps_complex(c))) == c


def test_gridded_complex_rejects_euclidean_honeycombs():
    for name, lattice in (("{4,4}", "Z2"), ("{4,3,4}", "Z3"),
                          ("{4,3,3,4}", "Z4")):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} is a lattice: use ambient {lattice}")):
            GriddedComplex(name, ())


def test_gridded_complex_rejects_foreign_coset_cells():
    square = identity_cell(build_system("{4,3,5}"), 2)
    GriddedComplex("{4,3,5}", {square})
    with pytest.raises(ValueError, match=re.escape(repr(square))):
        GriddedComplex("{4,3,3,5}", {square})
    s = build_system("{4,3,3,5}")
    for cell in (identity_cell(s, 3), (1, 1, 0, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(repr(cell))):
            GriddedComplex(s.name, {identity_cell(s, 2), cell})


def test_all_ints_is_true_of_ints_proper_only():
    assert all_ints([]) and all_ints([0, -3, 10 ** 30])
    for bad in (True, False, 1.0, "1", None):
        assert not all_ints([1, bad])


def test_check_squares_names_the_first_bad_entry_and_not_a_repeat():
    check_squares("Z3", [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError) as info:
        check_squares("Z3", [(1, 1, 0), (1, 1, 1), (1,)])
    assert str(info.value) == "squares[1]: not a square of Z3: (1, 1, 1)"
    s = build_system("{4,3,5}")
    square, cube = identity_cell(s, 2), identity_cell(s, 3)
    check_squares(s.name, [square, square])
    with pytest.raises(ValueError) as info:
        check_squares(s.name, [square, cube])
    assert str(info.value) == ("squares[1]: not a square of {4,3,5}: "
                               + repr(cube))


def test_gridded_complex_equality_ignores_meta():
    a = GriddedComplex("Z3", {(1, 1, 0)}, meta={"kind": "a"})
    b = GriddedComplex("Z3", {(1, 1, 0)}, meta={"kind": "b"})
    assert a == b
    assert hash(a) == hash(b)
    assert len(a) == 1
    assert a != GriddedComplex("Z3", {(1, 0, 1)})
    assert a != GriddedComplex("Z4", {(1, 1, 0, 0)})
    assert a != ("Z3", frozenset({(1, 1, 0)}))
    assert repr(a) == "GriddedComplex(ambient='Z3', squares=frozenset({(1, 1, 0)}))"
    for name in ("ambient", "squares", "meta"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.meta == {"kind": "a"}
    for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin.meta == a.meta


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.sets(
    st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * n), min_size=1,
    max_size=12)))
def test_cell_codes_order_steps_and_decode(keys):
    codes, odd, weights, decode = cell_codes(keys)
    ordered = sorted(keys)
    assert codes == sorted(codes) and len(set(codes)) == len(keys)
    assert decode(codes) == ordered
    assert odd == [sum(1 << t for t, x in enumerate(k) if x % 2)
                   for k in ordered]
    for code, key in zip(codes, ordered):
        for t, w in enumerate(weights):
            for step in (-1, 1):
                moved = key[:t] + (key[t] + step,) + key[t + 1:]
                assert decode([code + step * w]) == [moved]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-2 ** 70, 2 ** 70))
def test_cell_codes_round_trip_in_z2000(seed, far):
    # digits of many runs, and one coordinate wider than 64 bits
    rng = random.Random(seed)
    base = [rng.randint(-3, 3) for _ in range(2000)]
    moved = set(rng.sample(range(2000), 5))
    keys = {tuple(base), tuple(x + 5 if t in moved else x
                               for t, x in enumerate(base)),
            tuple(base[:-1]) + (far,)}
    codes, odd, weights, decode = cell_codes(keys)
    assert decode(codes) == sorted(keys)
    key = sorted(keys)[0]
    for t in (0, 999, 1999):
        for step in (-1, 1):
            stepped = key[:t] + (key[t] + step,) + key[t + 1:]
            assert decode([codes[0] + step * weights[t]]) == [stepped]


def test_one_square_classifies_in_z5000():
    square = (1, 1) + (0,) * 4998
    r = classify(GriddedComplex("Z5000", [square]))
    assert r.class_name == "orientable genus 0, 1 boundary circle"
    assert (r.vertex_count, r.edge_count) == (4, 4)
