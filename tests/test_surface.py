import copy
import itertools
import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    brute_boundary_circles, brute_counts, brute_surface_check,
    orientation_flip, random_polyomino, solid_betti_numbers,
    solid_is_well_composed,
)
from gridforge import coxeter, lattice, surface
from gridforge.constructors import (
    box_column, crosscap_z4, frame_torus, klein_bottle, sphere_cube,
)
from gridforge.export import to_off
from gridforge.formats import dumps_complex, jsonable_to_complex
from gridforge.honeycombs import (
    hyperbolic_torus_435, pants_4335, surface_4335, torus_4335,
)
from gridforge.lattice import GriddedComplex, cube_union_boundary
from gridforge.surface import (
    AbstractSquareComplex, GridCollisionError, SurfaceReport, classify,
    connected_sum_abstract, connected_sum_embedded, euler_characteristic,
    square_index, to_abstract, validate_surface,
)


def grid_torus(n=3):
    """Abstract torus: the n x n grid with opposite sides identified."""
    squares = []
    for i in range(n):
        for j in range(n):
            squares.append(((i, j), ((i + 1) % n, j),
                            ((i + 1) % n, (j + 1) % n), (i, (j + 1) % n)))
    return AbstractSquareComplex.from_squares(squares)


def mobius_strip():
    squares = [(0, 1, 3, 2), (2, 3, 5, 4), (4, 5, 7, 6), (6, 7, 0, 1)]
    return AbstractSquareComplex.from_squares(squares)


def _reference_cycles(obj):
    """The vertex cycles of a complex's squares, in sorted order, walked
    one square at a time by the per-square corner functions, not read
    from the square index."""
    if isinstance(obj, AbstractSquareComplex):
        return list(obj.squares)
    if lattice.is_lattice_ambient(obj.ambient):
        return [lattice.corners_cyclic(s) for s in sorted(obj.squares)]
    return [coxeter.square_vertex_cycle(s) for s in sorted(obj.squares)]


def test_square_cycles_reads_the_index():
    for obj in (mobius_strip(), sphere_cube(), hyperbolic_torus_435()):
        assert surface.square_cycles(obj) == _reference_cycles(obj)
    for obj in (None, {(1, 1)}, [(0, 1, 2, 3)]):
        with pytest.raises(TypeError, match="not a square complex"):
            surface.square_cycles(obj)


def test_cube_is_a_sphere():
    rep = classify(sphere_cube())
    assert rep.is_surface and rep.is_closed
    assert rep.euler_characteristic == 2
    assert rep.orientable
    assert rep.genus == 0
    assert rep.boundary_circles == 0
    assert rep.class_name == "orientable genus 0"
    assert rep.vertex_count == 8 and rep.edge_count == 12 and rep.square_count == 6


def test_single_square_is_a_disk():
    rep = classify(GriddedComplex("Z2", {(1, 1)}))
    assert rep.is_surface and not rep.is_closed
    assert rep.boundary_circles == 1
    assert rep.class_name == "orientable genus 0, 1 boundary circle"


def test_three_squares_at_an_edge_fail():
    # all three contain the edge (1, 0, 0)
    squares = {(1, 1, 0), (1, 0, 1), (1, 0, -1)}
    rep = validate_surface(GriddedComplex("Z3", squares))
    assert not rep.is_surface
    assert any("3 squares" in f for f in rep.failures)


def test_cube_corner_is_fine():
    # three squares folding around a corner form a disk, not a pinch
    rep = classify(GriddedComplex("Z3", {(1, 1, 0), (1, 0, 1), (0, 1, 1)}))
    assert rep.is_surface
    assert rep.boundary_circles == 1


def test_two_squares_at_a_corner_fail():
    rep = validate_surface(GriddedComplex("Z2", {(1, 1), (3, 3)}))
    assert not rep.is_surface
    assert any("disconnected" in f for f in rep.failures)


def test_isolated_vertex_fails():
    c = AbstractSquareComplex(frozenset([0, 1, 2, 3, 9]), ((0, 1, 2, 3),))
    rep = validate_surface(c)
    assert not rep.is_surface
    assert any("isolated" in f for f in rep.failures)


def test_abstract_square_complex_rejects_bad_squares():
    with pytest.raises(ValueError):
        AbstractSquareComplex.from_squares([(0, 1, 2, 0)])
    with pytest.raises(ValueError):
        AbstractSquareComplex.from_squares([(0, 1, 2, 3), (1, 2, 3, 0)])
    with pytest.raises(ValueError):
        AbstractSquareComplex(frozenset([0, 1, 2]), ((0, 1, 2, 3),))


def test_abstract_square_complex_names_a_repeated_label():
    with pytest.raises(ValueError) as info:
        AbstractSquareComplex(["a", "b", "b", "c", "d"],
                              [("a", "b", "c", "d")])
    assert str(info.value) == "vertices[2]: label 'b' repeats vertices[1]"
    # a repeated label is found before a bad square
    with pytest.raises(ValueError) as info:
        AbstractSquareComplex([0, 1, 2, 3, 0], [(0, 1, 2, 2)])
    assert str(info.value) == "vertices[4]: label 0 repeats vertices[0]"


@pytest.mark.parametrize("vertices,squares,message", [
    (["a", "b", "c", "d"], [("a", "b", "c", ["d"])],
     "squares[0]: not hashable: ('a', 'b', 'c', ['d'])"),
    (["a", "b", "c", ["d"]], [("a", "b", "c", "d")],
     "vertices[3]: not hashable: ['d']"),
    (["a", "a", ["d"]], [], "vertices[1]: label 'a' repeats vertices[0]"),
    (["a", "b", "c", "d"], [("a", "b", ["c"])],
     "squares[0]: square needs 4 distinct vertices"),
], ids=["in a square", "in the vertices", "after a repeat", "after a length"])
def test_abstract_square_complex_names_an_unhashable_label(
        vertices, squares, message):
    with pytest.raises(ValueError) as info:
        AbstractSquareComplex(vertices, squares)
    assert str(info.value) == message


def test_records_compare_hash_and_print_by_their_fields():
    a = AbstractSquareComplex.from_squares([(0, 1, 2, 3)], meta={"kind": "a"})
    b = AbstractSquareComplex(frozenset(range(4)), ((1, 2, 3, 0),),
                              meta={"kind": "b"})
    assert a == b and hash(a) == hash(b)
    assert a != AbstractSquareComplex(frozenset(range(5)), ((0, 1, 2, 3),))
    assert a != GriddedComplex("Z3", {(1, 1, 0)})
    assert repr(a) == ("AbstractSquareComplex(vertices=frozenset({0, 1, 2, "
                       "3}), squares=((0, 1, 2, 3),))")
    for name in ("vertices", "squares", "meta"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.meta == {"kind": "a"}
    assert copy.copy(a) == a and copy.copy(a).meta == a.meta

    sphere, disk = classify(sphere_cube()), validate_surface(a)
    assert sphere == classify(sphere_cube())
    assert hash(sphere) == hash(classify(sphere_cube()))
    assert sphere != classify(box_column(2))
    assert repr(disk) == (
        "SurfaceReport(is_surface=True, is_closed=False, vertex_count=4, "
        "edge_count=4, square_count=1, euler_characteristic=1, failures=(), "
        "orientable=None, boundary_circles=None, components=(), "
        "class_name='not a surface', genus=None, crosscaps=None, "
        "nonorientable_witness=None)")
    (comp,) = sphere.components
    assert repr(comp) == (
        "ComponentReport(vertex_count=8, edge_count=12, square_count=6, "
        "euler_characteristic=2, orientable=True, boundary_circles=0, "
        "genus=0, crosscaps=None, class_name='orientable genus 0')")
    assert repr(sphere) == (
        "SurfaceReport(is_surface=True, is_closed=True, vertex_count=8, "
        "edge_count=12, square_count=6, euler_characteristic=2, failures=(), "
        f"orientable=True, boundary_circles=0, components=({comp!r},), "
        "class_name='orientable genus 0', genus=0, crosscaps=None, "
        "nonorientable_witness=None)")
    assert comp == classify(box_column(1)).components[0]
    assert hash(comp) == hash(classify(box_column(1)).components[0])
    for record, name in ((sphere, "genus"), (comp, "class_name")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_abstract_torus():
    rep = classify(grid_torus())
    assert rep.is_closed and rep.orientable
    assert rep.euler_characteristic == 0
    assert rep.genus == 1
    assert rep.class_name == "orientable genus 1"


def test_mobius_strip():
    rep = classify(mobius_strip())
    assert rep.is_surface and not rep.is_closed
    assert not rep.orientable
    assert rep.euler_characteristic == 0
    assert rep.boundary_circles == 1
    assert rep.crosscaps == 1
    assert rep.class_name == "nonorientable, 1 crosscap, 1 boundary circle"


def _assert_odd_dual_loop(obj):
    loop = classify(obj).nonorientable_witness
    assert loop is not None and len(loop) >= 2
    assert set(loop) <= set(_reference_cycles(obj))
    product = 1
    for i in range(len(loop)):
        flip = orientation_flip(loop[i], loop[(i + 1) % len(loop)])
        assert flip is not None
        product *= flip
    assert product == -1


def test_nonorientable_witness_is_an_odd_dual_loop():
    _assert_odd_dual_loop(mobius_strip())


@pytest.mark.parametrize("build", [klein_bottle, crosscap_z4])
def test_lattice_nonorientable_witness_is_an_odd_dual_loop(build):
    _assert_odd_dual_loop(build())


def test_two_components():
    far = GriddedComplex("Z3", {tuple(a + b for a, b in zip(s, (20, 0, 0)))
                                for s in sphere_cube().squares})
    both = GriddedComplex("Z3", sphere_cube().squares | far.squares)
    rep = classify(both)
    assert rep.is_surface and rep.is_closed
    assert len(rep.components) == 2
    assert rep.class_name == "2 components: orientable genus 0; orientable genus 0"
    assert rep.genus is None


def test_open_column_boundaries():
    col = box_column(3)
    top = (1, 1, 6)
    bottom = (1, 1, 0)
    one_open = GriddedComplex("Z3", col.squares - {top})
    rep = classify(one_open)
    assert rep.boundary_circles == 1
    assert rep.class_name == "orientable genus 0, 1 boundary circle"
    annulus = GriddedComplex("Z3", col.squares - {top, bottom})
    rep = classify(annulus)
    assert rep.boundary_circles == 2
    assert rep.genus == 0
    assert rep.class_name == "orientable genus 0, 2 boundary circles"


def test_euler_characteristic_function():
    assert euler_characteristic(sphere_cube()) == 2
    assert euler_characteristic(grid_torus()) == 0


def test_to_abstract_keeps_the_gluing():
    rep = classify(to_abstract(frame_torus()))
    assert rep.is_closed and rep.genus == 1


def test_connected_sum_abstract_genus_adds():
    t = grid_torus()
    s = t.squares[0]
    two = connected_sum_abstract(t, s, t, s)
    rep = classify(two)
    assert rep.is_closed and rep.orientable
    assert rep.genus == 2
    assert rep.class_name == "orientable genus 2"
    assert len(two) == 2 * len(t) - 2 + 4


def test_connected_sum_abstract_rejects_missing_square():
    t = grid_torus()
    with pytest.raises(ValueError):
        connected_sum_abstract(t, ((9, 9), (8, 8), (7, 7), (6, 6)), t, t.squares[0])


def test_connected_sum_abstract_names_the_complex_missing_the_square():
    a = AbstractSquareComplex.from_squares([(1, 2, 3, 4)])
    with pytest.raises(ValueError) as info:
        connected_sum_abstract(a, (1, 2, 3, 4), a, (5, 6, 7, 8))
    assert str(info.value) == "square (5, 6, 7, 8) not in second complex"


def test_connected_sum_embedded_stacks_spheres():
    # two cubes joined through a connecting cube: a 1x1x3 column
    a = sphere_cube()
    out = connected_sum_embedded(a, (1, 1, 2), sphere_cube(), (1, 1, 0), axis=2)
    assert out.squares == box_column(3).squares
    rep = classify(out)
    assert rep.genus == 0 and rep.is_closed


def test_connected_sum_embedded_detects_collision():
    a = frame_torus()
    # aiming into the hole: the translated sphere lands inside solid material
    with pytest.raises(GridCollisionError) as info:
        connected_sum_embedded(a, (2, 3, 1), sphere_cube(), (0, 1, 1), axis=0)
    assert info.value.cells


def test_connected_sum_embedded_rejects_bad_input():
    a = sphere_cube()
    with pytest.raises(ValueError, match="^both complexes must live in the "
                       "same lattice ambient$"):
        connected_sum_embedded(to_abstract(a), (1, 1, 2), a, (1, 1, 0))
    with pytest.raises(ValueError, match="^both complexes must live"):
        connected_sum_embedded(a, (1, 1, 2), to_abstract(a), (1, 1, 0))
    z2 = GriddedComplex("Z2", {(1, 1)})
    with pytest.raises(ValueError,
                       match=r"^\(1, 1\) has no normal axis in Z2$"):
        connected_sum_embedded(z2, (1, 1), z2, (1, 1))
    for axis in (7, 3, -1):
        with pytest.raises(ValueError,
                           match=rf"^axis {axis} is not one of 0\.\.2$"):
            connected_sum_embedded(a, (1, 1, 2), a, (1, 1, 0), axis=axis)


def test_connected_sum_embedded_collision_cells_are_pinned():
    a = sphere_cube()
    with pytest.raises(GridCollisionError) as info:
        connected_sum_embedded(a, (1, 1, 2), a, (1, 1, 2))
    assert info.value.cells == (
        (0, 0, 2), (0, 2, 2), (2, 0, 2), (2, 2, 2),
        (0, 1, 3), (1, 0, 3), (1, 2, 3), (2, 1, 3))
    # a bent row of cubes whose last cube comes back down beside the
    # connecting cube and meets the base cube at one vertex only
    b = GriddedComplex("Z3", cube_union_boundary(
        [(1, 1, 1), (3, 1, 1), (3, 3, 1), (3, 3, -1)]))
    with pytest.raises(GridCollisionError) as info:
        connected_sum_embedded(a, (1, 1, 2), b, (1, 1, 0), axis=2)
    assert info.value.cells == ((2, 2, 2),)


def test_connected_sum_embedded_rejects_mismatched_squares():
    a = sphere_cube()
    with pytest.raises(ValueError):
        connected_sum_embedded(a, (1, 1, 2), sphere_cube(), (1, 0, 1), axis=2)
    with pytest.raises(ValueError):
        connected_sum_embedded(a, (1, 1, 2), sphere_cube(), (1, 1, 0), axis=1)


def test_random_solid_boundaries_against_homology():
    """Boundary of a random connected solid: manifoldness is predicted by
    well-composedness, and for clean solids the component count and total
    genus are forced by the solid's GF(2) homology."""
    rng = random.Random(20260814)
    clean = pinched = 0
    for trial in range(20):
        cubes = random_polyomino(rng, 16)
        rep = classify(GriddedComplex("Z3", cube_union_boundary(cubes)))
        if not solid_is_well_composed(cubes):
            pinched += 1
            assert not rep.is_surface
            continue
        clean += 1
        b0, b1, b2 = solid_betti_numbers(cubes)
        assert b0 == 1
        assert rep.is_surface and rep.is_closed
        assert rep.orientable
        assert len(rep.components) == 1 + b2
        assert sum(c.genus for c in rep.components) == b1
    assert clean >= 3 and pinched >= 3


def test_known_solids_match_homology_oracle():
    frame = [(2 * i + 1, 2 * j + 1, 1) for i in range(3) for j in range(3)
             if (i, j) != (1, 1)]
    assert solid_betti_numbers(frame) == (1, 1, 0)
    rep = classify(GriddedComplex("Z3", cube_union_boundary(frame)))
    assert rep.genus == 1

    shell = [(2 * i + 1, 2 * j + 1, 2 * k + 1)
             for i in range(3) for j in range(3) for k in range(3)
             if (i, j, k) != (1, 1, 1)]
    assert solid_betti_numbers(shell) == (1, 0, 1)
    rep = classify(GriddedComplex("Z3", cube_union_boundary(shell)))
    assert len(rep.components) == 2
    assert all(c.genus == 0 for c in rep.components)


def test_square_index_ids_follow_vertex_order():
    t = grid_torus()
    index = square_index(t)
    assert index.vertices == sorted(t.vertices)
    assert index.cycles == list(t.squares)
    assert [tuple(index.vertices[i] for i in sq)
            for sq in index.squares] == index.cycles
    assert all(a < b for a, b in index.edges)
    assert sorted(index.edges.values()) == [2] * 18
    # every vertex of the 3 x 3 torus is a corner of 4 squares
    assert [len(arcs) for arcs in index.links] == [4] * 9
    # square_edges names each square's sides in cycle order
    edges = list(index.edges)
    assert len(index.square_edges) == 4 * len(index.squares)
    for i, sq in enumerate(index.squares):
        assert [edges[e] for e in index.square_edges[4 * i:4 * i + 4]] == [
            tuple(sorted((sq[k], sq[(k + 1) % 4]))) for k in range(4)]
    assert sum(index.edges.values()) == 4 * len(index.squares)
    assert Counter(index.square_edges) == dict(
        enumerate(index.edges.values()))


def test_square_index_keeps_isolated_vertices():
    c = AbstractSquareComplex(frozenset([0, 1, 2, 3, 9]), ((0, 1, 2, 3),))
    index = square_index(c)
    assert index.vertices == [0, 1, 2, 3, 9]
    assert index.squares == [(0, 1, 2, 3)]
    assert index.links[4] == []
    assert index.links[0] == [(3, 1)]


@pytest.mark.parametrize("g,by_validate,by_classify", [
    (frame_torus(), 0, 0),
    (GriddedComplex("Z3", cube_union_boundary({(1, 1, 1), (3, 1, 1)})), 0, 0),
    (klein_bottle(), 0, 1),
    (GriddedComplex("Z3", {(1, 1, 0), (1, 0, 1), (1, 0, -1)}), 1, 1),
    (GriddedComplex("Z2", {(1, 1), (3, 3)}), 1, 1),
], ids=["torus", "two-cubes", "klein-bottle", "edge-in-3", "pinched"])
def test_lattice_vertices_are_decoded_only_when_read(
        monkeypatch, g, by_validate, by_classify):
    """Validate and classify read a vertex count: they decode the vertex
    tuples, all at once, only to name a failure or a nonorientable
    loop; to_off decodes them once."""
    decoded = []
    encode = lattice.cell_codes

    def counted(keys):
        *coded, decode = encode(keys)
        return (*coded, lambda codes: decoded.append(len(codes))
                or decode(codes))

    monkeypatch.setattr(lattice, "cell_codes", counted)
    vertex_count = len({v for s in g.squares
                        for v in lattice.corners_cyclic(s)})
    for command, calls in ((validate_surface, by_validate),
                           (classify, by_classify), (to_off, 1)):
        command(g)
        assert decoded == [vertex_count] * calls, command.__name__
        decoded.clear()


def _assert_coset_index_is_the_reference(obj):
    """The index of a coset complex, built on corner key tuples, equals
    the one _cycle_index builds from its cycles of vertex cells, field by
    field; each decoded vertex is its corner in the reference cycles,
    walked square by square, and is the coset of its own rep."""
    index = square_index(obj)
    cycles = _reference_cycles(obj)
    assert surface.square_cycles(obj) == cycles
    reference = surface._cycle_index(cycles)
    for field in ("vertex_count", "squares", "square_edges", "edge_counts",
                  "masks", "arcs", "vertices", "edges", "cycles", "links"):
        assert getattr(index, field) == getattr(reference, field), field
    vertices = index.vertices
    for cycle, ids in zip(cycles, index.squares):
        assert tuple(vertices[i] for i in ids) == cycle
    # the rep of a vertex is that of the first square with it as a
    # corner, k, times q^k
    system = coxeter.build_system(obj.ambient)
    first = {}
    for p, v in enumerate(itertools.chain.from_iterable(index.squares)):
        first.setdefault(v, p)
    squares = sorted(obj.squares)
    for i, v in enumerate(vertices):
        p = first[i]
        turn = system.corner_turns[p & 3][0]
        assert v.rep == coxeter._mat_mul(squares[p >> 2].rep, turn)
        assert coxeter.CosetKey(system, v.gens, v.rep) == v


def _coset_word(draw, system):
    w = coxeter._identity(system.rank)
    for i in draw(st.lists(st.integers(0, system.rank - 1), max_size=8)):
        w = coxeter._mat_mul(w, system.generators[i])
    return w


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")),
       st.sampled_from(("faces", "image", "loaded")), st.data())
def test_coset_index_is_the_reference_index(name, how, data):
    # squares of two cubes that share a square, keyed from factors by
    # cell_faces, then kept, moved by transform, or saved and loaded,
    # which gives them their least reps
    s = coxeter.build_system(name)
    cube = coxeter.CosetKey(s, s.parabolic_gens(3), _coset_word(data.draw, s))
    faces = coxeter.cell_faces(cube, 2)
    face = data.draw(st.sampled_from(faces))
    other = data.draw(st.sampled_from(
        [c for c in coxeter.cell_faces(face, 3) if c != cube]))
    squares = data.draw(st.sets(st.sampled_from(
        sorted(set(faces) | set(coxeter.cell_faces(other, 2)))), min_size=1))
    if how == "image":
        g = _coset_word(data.draw, s)
        squares = {coxeter.transform(g, sq) for sq in squares}
    obj = GriddedComplex(name, squares)
    if how == "loaded":
        obj = jsonable_to_complex(json.loads(dumps_complex(obj)))
    _assert_coset_index_is_the_reference(obj)


@pytest.mark.parametrize("build", [hyperbolic_torus_435, torus_4335,
                                   pants_4335])
def test_coset_index_of_catalogue_builds_is_the_reference_index(build):
    obj = build()
    _assert_coset_index_is_the_reference(obj)
    _assert_coset_index_is_the_reference(
        jsonable_to_complex(json.loads(dumps_complex(obj))))


@pytest.mark.parametrize("build", [sphere_cube, hyperbolic_torus_435])
@pytest.mark.parametrize("command", [validate_surface, classify, to_off])
def test_each_command_walks_the_squares_once(monkeypatch, build, command):
    obj = build()
    passes, corner_walks, cycle_walks, vertex_cells = [], [], [], []
    cycles = surface.square_cycles
    encode = lattice.cell_codes
    corner_keys = coxeter.corner_keys
    corner_vertex = coxeter.corner_vertex
    corners = lattice.corners_cyclic
    vertex_cycle = coxeter.square_vertex_cycle
    monkeypatch.setattr(surface, "square_cycles",
                        lambda o: passes.append(o) or cycles(o))
    monkeypatch.setattr(lattice, "cell_codes",
                        lambda keys: passes.append(keys) or encode(keys))
    monkeypatch.setattr(coxeter, "corner_keys",
                        lambda sq: corner_walks.append(sq) or corner_keys(sq))
    monkeypatch.setattr(coxeter, "corner_vertex", lambda sq, k, key: (
        vertex_cells.append(key) or corner_vertex(sq, k, key)))
    # the per-square corner walks, which no command calls
    monkeypatch.setattr(lattice, "corners_cyclic",
                        lambda sq: cycle_walks.append(sq) or corners(sq))
    monkeypatch.setattr(coxeter, "square_vertex_cycle",
                        lambda sq: cycle_walks.append(sq) or vertex_cycle(sq))
    command(obj)
    assert cycle_walks == []
    if build is sphere_cube:
        # one encoding of the lattice squares, and no corner tuples
        assert passes == [obj.squares]
        assert corner_walks == []
    else:
        # one corner-key pass per square, in key order, and no cycles of
        # vertex cells; export reads the corner keys, and decodes no vertex
        # cell from them
        assert passes == []
        assert corner_walks == sorted(obj.squares)
        assert vertex_cells == []


@pytest.mark.parametrize("obj,counts,failures", [
    (GriddedComplex("Z3", {(1, 1, 0), (1, 0, 1), (1, 0, -1)}), (8, 10, 3),
     ("edge ((0, 0, 0), (2, 0, 0)) lies in 3 squares",
      "vertex (0, 0, 0) link has an edge in more than 2 squares",
      "vertex (2, 0, 0) link has an edge in more than 2 squares")),
    (GriddedComplex("Z2", {(1, 1), (3, 3)}), (7, 8, 2),
     ("vertex (2, 2) link is disconnected",)),
    (AbstractSquareComplex(frozenset([0, 1, 2, 3, 9]), ((0, 1, 2, 3),)),
     (5, 4, 1), ("vertex 9 is isolated",)),
    (AbstractSquareComplex(frozenset(), ()), (0, 0, 0),
     ("complex has no squares",)),
    (AbstractSquareComplex(frozenset(range(17)), (
        (0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7), (10, 11, 12, 13),
        (10, 14, 15, 16))), (17, 18, 5),
     ("edge (0, 1) lies in 3 squares", "vertex 8 is isolated",
      "vertex 9 is isolated",
      "vertex 0 link has an edge in more than 2 squares",
      "vertex 1 link has an edge in more than 2 squares",
      "vertex 10 link is disconnected")),
], ids=["edge-in-3", "pinched", "isolated", "empty", "mixed"])
def test_failure_reports_are_pinned(obj, counts, failures):
    v, e, f = counts
    expected = SurfaceReport(
        is_surface=False, is_closed=False, vertex_count=v, edge_count=e,
        square_count=f, euler_characteristic=v - e + f, failures=failures)
    assert validate_surface(obj) == expected
    assert classify(obj) == expected


def test_witness_and_component_order_are_pinned():
    assert classify(mobius_strip()).nonorientable_witness == (
        (4, 5, 7, 6), (2, 3, 5, 4), (0, 1, 3, 2), (0, 1, 6, 7))
    # with the torus beside the sphere in y or z their sorted vertex ids
    # interleave, so the order also pins which vertex union-find keeps as
    # each component's root
    for shift, name in (
            ((20, 0, 0), "orientable genus 0; orientable genus 1"),
            ((-20, 0, 0), "orientable genus 1; orientable genus 0"),
            ((0, -20, 0), "orientable genus 0; orientable genus 1"),
            ((0, 0, -20), "orientable genus 0; orientable genus 1")):
        far = {tuple(a + b for a, b in zip(s, shift))
               for s in frame_torus().squares}
        rep = classify(GriddedComplex("Z3", sphere_cube().squares | far))
        assert rep.class_name == "2 components: " + name


def _check_against_abstract_and_brute_count(g):
    def summary(rep):
        return (rep.vertex_count, rep.edge_count, rep.square_count,
                rep.euler_characteristic, rep.class_name)

    rep = classify(g)
    assert summary(rep) == summary(classify(to_abstract(g)))
    v, e, f = brute_counts(g.squares)
    assert summary(rep)[:4] == (v, e, f, v - e + f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
def test_polyomino_boundaries_match_abstract_and_brute_count(seed, n_cubes):
    cubes = random_polyomino(random.Random(seed), n_cubes)
    _check_against_abstract_and_brute_count(
        GriddedComplex("Z3", cube_union_boundary(cubes)))


# the 36 squares of the 2 x 2 x 2 box of cubes
BOX_SQUARES = sorted(s for s in itertools.product(range(5), repeat=3)
                     if sum(x % 2 for x in s) == 2)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(BOX_SQUARES)))
def test_box_square_subsets_match_abstract_and_brute_count(squares):
    _check_against_abstract_and_brute_count(GriddedComplex("Z3", squares))


def klein_grid(n=4):
    """Abstract Klein bottle: the n x n grid, its j sides glued with a flip."""
    def vertex(i, j):
        if j == n:
            i, j = -i, 0
        return (i % n, j)

    return [(vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1),
             vertex(i, j + 1)) for i in range(n) for j in range(n)]


# the Klein bottle, two fins that put an edge in 3 squares and a square
# that meets the grid at one vertex only
SQUARE_POOL = klein_grid() + [
    ((0, 0), (1, 0), (9, 1), (9, 0)), ((0, 0), (1, 0), (8, 1), (8, 0)),
    ((2, 2), (7, 0), (7, 1), (7, 2)),
]


def _check_against_brute_surface_check(cycles):
    bad_edges, bad_vertices, orientable = brute_surface_check(cycles)
    obj = AbstractSquareComplex.from_squares(cycles)
    rep = classify(obj)
    assert validate_surface(obj).failures == rep.failures
    assert rep.is_surface == (orientable is not None)
    assert rep.orientable == orientable
    assert {f.partition(" lies in ")[0] for f in rep.failures
            if f.startswith("edge ")} == {
        f"edge {tuple(sorted(e))}" for e in bad_edges}
    assert {f.partition(" link ")[0] for f in rep.failures
            if " link " in f} == {f"vertex {v}" for v in bad_vertices}
    if rep.is_surface:
        assert rep.boundary_circles == brute_boundary_circles(cycles)


def test_klein_grid_is_a_klein_bottle():
    assert brute_surface_check(klein_grid()) == (set(), set(), False)
    rep = classify(AbstractSquareComplex.from_squares(klein_grid()))
    assert rep.class_name == "nonorientable, 2 crosscaps"


# columns i = 3 and i = 0 of the grid: a Moebius band
MOEBIUS_BAND = {4 * i + j for i in (3, 0) for j in range(4)}


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(range(len(SQUARE_POOL))), min_size=1),
       st.booleans())
def test_pool_subsets_match_brute_surface_check(picked, band):
    if band:
        picked |= MOEBIUS_BAND
    _check_against_brute_surface_check([SQUARE_POOL[i]
                                        for i in sorted(picked)])


# row j = 0..3 of the grid: an annulus, two boundary circles in one
# component
ANNULI = [{4 * i + j for i in range(4)} for j in range(4)]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(range(4)), min_size=1),
       st.sets(st.sampled_from(range(len(SQUARE_POOL))), max_size=2))
def test_pool_annuli_match_brute_surface_check(rows, extra):
    picked = extra.union(*(ANNULI[j] for j in rows))
    _check_against_brute_surface_check([SQUARE_POOL[i]
                                        for i in sorted(picked)])


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(BOX_SQUARES), min_size=1))
def test_box_square_subsets_match_brute_surface_check(squares):
    _check_against_brute_surface_check(
        _reference_cycles(GriddedComplex("Z3", squares)))


# The lattice index against the generic one built from corner cycles.
# Square sets come from boxes of Z2, Z3 and Z4 (subsets of the box's
# squares, or boundaries of unions of its cubes), moved by an even shift
# that reaches negative coordinates and coordinates near +-10^6.
LATTICE_BOXES = {n: [k for k in itertools.product(range(size), repeat=n)
                     if sum(x % 2 for x in k) in (2, 3)]
                 for n, size in ((2, 7), (3, 5), (4, 5))}


@st.composite
def lattice_complexes(draw):
    n = draw(st.sampled_from(sorted(LATTICE_BOXES)))
    cells = [k for k in LATTICE_BOXES[n] if sum(x % 2 for x in k) == 2]
    if n > 2 and draw(st.booleans()):
        cubes = [k for k in LATTICE_BOXES[n] if sum(x % 2 for x in k) == 3]
        cells = cube_union_boundary(draw(st.sets(st.sampled_from(cubes),
                                                 min_size=1, max_size=6)))
    else:
        cells = draw(st.sets(st.sampled_from(cells), max_size=24))
    shift = draw(st.tuples(*[st.sampled_from(
        (0, -2, -8, 10 ** 6, -10 ** 6, -999_998)) for _ in range(n)]))
    return GriddedComplex(f"Z{n}", lattice.translate(cells, shift))


def _summary(rep):
    return (rep.is_surface, rep.vertex_count, rep.edge_count,
            rep.square_count, rep.euler_characteristic, rep.failures,
            rep.class_name)


def _check_lattice_index(g):
    index = square_index(g)
    cycles = _reference_cycles(g)
    assert surface.square_cycles(g) == cycles
    generic = surface._cycle_index(cycles)
    for name in ("vertex_count", "vertices", "squares", "square_edges",
                 "edge_counts", "cycles", "links"):
        assert getattr(index, name) == getattr(generic, name), name
    assert list(index.edges.items()) == list(generic.edges.items())
    abstract = AbstractSquareComplex.from_squares(cycles)
    assert to_abstract(g) == abstract
    assert surface.declared_vertices(g) == {
        v for s in g.squares for v in lattice.corners_cyclic(s)}
    assert validate_surface(g).failures == validate_surface(abstract).failures
    rep = classify(g)
    assert _summary(rep) == _summary(classify(abstract))
    if rep.is_surface:
        # the same trees of squares, orientability and witness loops
        assert surface._orient_components(square_index(g)) == \
            surface._orient_components(generic)
    # the whole report, witness included, on the generic index
    with mock.patch.object(surface, "_lattice_index",
                           lambda keys: surface._cycle_index(cycles)):
        assert classify(g) == rep


@settings(max_examples=150, deadline=None)
@given(lattice_complexes())
def test_lattice_index_equals_the_generic_index(g):
    _check_lattice_index(g)


@pytest.mark.parametrize("g", [
    GriddedComplex("Z3", {(1, 1, 0), (1, 0, 1), (1, 0, -1)}),
    GriddedComplex("Z3", cube_union_boundary({(1, 1, 1), (-1, -1, -1)})),
    GriddedComplex("Z2", {(1, 1), (-1, -1)}),
    GriddedComplex("Z4", set()),
    # squares on the axis pairs (0, 6), (2, 5), (1, 3) and (0, 3) at the
    # origin, beside the boundary of a cube spanning axes 0, 3 and 6
    GriddedComplex("Z7", {(1, 0, 0, 0, 0, 0, 1), (0, 0, -1, 0, 0, 1, 0),
                          (0, 1, 0, -1, 0, 0, 0), (-1, 0, 0, 1, 0, 0, 0)}
                   | cube_union_boundary({(1, 0, 0, 1, 0, 0, -1)})),
    klein_bottle(),
    crosscap_z4(),
], ids=["edge-in-3", "cubes-at-a-vertex", "z2-pinch", "empty",
        "z7-scattered-pairs", "klein-bottle", "crosscap-z4"])
def test_lattice_index_fixed_cases(g):
    _check_lattice_index(g)


def _moved(cycles, rng):
    """Each cycle turned to start at a random corner, and reversed at
    random."""
    moved = []
    for cycle in cycles:
        r = rng.randrange(4)
        cycle = cycle[r:] + cycle[:r]
        moved.append(cycle[::-1] if rng.random() < 0.5 else cycle)
    return moved


def _trees(index):
    """The tree of each square, and per tree its orientability."""
    return surface._orient_components(index)[:2]


@settings(max_examples=100, deadline=None)
@given(lattice_complexes(), st.randoms(use_true_random=False))
def test_orientation_does_not_depend_on_the_direction_of_each_cycle(g, rng):
    index = square_index(g)
    assume(max(index.edge_counts, default=0) <= 2)
    moved = surface._cycle_index(_moved(_reference_cycles(g), rng))
    assert _trees(moved) == _trees(index)


@pytest.mark.parametrize("build", [
    klein_bottle, crosscap_z4, hyperbolic_torus_435, torus_4335, pants_4335,
    lambda: surface_4335(False, 2)],
    ids=["klein-bottle", "crosscap-z4", "torus-435", "torus-4335",
         "pants-4335", "crosscaps-4335"])
def test_catalogue_orientation_does_not_depend_on_the_corner_starts(build):
    # a loaded coset complex starts its squares' cycles at the corners
    # its least reps pick, which the built one need not
    obj = build()
    trees = _trees(square_index(obj))
    loaded = jsonable_to_complex(json.loads(dumps_complex(obj)))
    assert _trees(square_index(loaded)) == trees
    moved = _moved(_reference_cycles(obj), random.Random(28))
    assert _trees(surface._cycle_index(moved)) == trees


def test_lattice_link_bits_cover_only_the_axis_pairs_in_use():
    """One square of Z100 spans 1 of its 4950 axis pairs: its index
    holds the 4 corner bits and arcs of that pair and no others."""
    g = GriddedComplex("Z100", {(0,) * 98 + (1, 1)})
    index = square_index(g)
    assert max(index.masks).bit_length() <= 4
    assert len(index.arcs) == 4
    assert validate_surface(g).failures == ()
    assert classify(g).class_name == "orientable genus 0, 1 boundary circle"


@st.composite
def z3_sums(draw):
    """Two complexes of Z3 and the arguments of a connected sum of them."""
    squares = [k for k in LATTICE_BOXES[3] if sum(x % 2 for x in k) == 2]
    a, b = (draw(st.sets(st.sampled_from(squares), min_size=1, max_size=12))
            for _ in range(2))
    face_a = draw(st.sampled_from(sorted(a)))
    axis = next(i for i, x in enumerate(face_a) if x % 2 == 0)
    face_b = draw(st.sampled_from(sorted(a | b)))
    assume(face_b in b and face_b[axis] % 2 == 0)
    return GriddedComplex("Z3", a), face_a, GriddedComplex("Z3", b), face_b, \
        axis


@settings(max_examples=150, deadline=None)
@given(z3_sums())
def test_connected_sum_clashes_match_a_corner_walk(args):
    a, face_a, b, face_b, axis = args
    far = tuple(x + 2 * (i == axis) for i, x in enumerate(face_a))
    moved = lattice.translate(b.squares, [f - x for f, x in zip(far, face_b)])
    cube = tuple(x + (i == axis) for i, x in enumerate(face_a))
    sides = {f for f in lattice.faces(cube, 2) if f not in (face_a, far)}

    def corners(squares):
        return {v for s in squares for v in lattice.corners_cyclic(s)}

    # each cell once, in the first of the three lists that holds it
    expected = list(dict.fromkeys(
        sorted((a.squares - {face_a}) & (moved - {far}))
        + sorted(corners(a.squares) & corners(moved))
        + sorted(f for f in sides if f in a.squares or f in moved)))
    try:
        out = connected_sum_embedded(a, face_a, b, face_b, axis)
    except GridCollisionError as e:
        assert e.cells == tuple(expected)
    else:
        assert not expected
        assert out.squares == (a.squares - {face_a}) | (moved - {far}) | sides


def test_cubes_meeting_at_a_vertex_fail_there_only():
    g = GriddedComplex("Z3", cube_union_boundary({(1, 1, 1), (-1, -1, -1)}))
    # the link of the shared vertex is two triangles
    assert sorted(len(arcs) for arcs in square_index(g).links) == \
        [3] * 14 + [6]
    assert validate_surface(g).failures == (
        "vertex (0, 0, 0) link is disconnected",)
