"""Surfaces gridded in the hyperbolic honeycombs."""

import hashlib
import json
import random

import pytest

from helpers import (
    brute_surface_check, edge_parallel_class_search, hypercube_graph_distance,
    opposite_face_search, random_cells, random_word, solid_betti_numbers,
    transport_up_search,
)
from gridforge import honeycombs
from gridforge.cli import main
from gridforge.coxeter import (
    build_system, cell_faces, identity_cell, neighbor, reflection,
    transform,
)
from gridforge.formats import dumps_complex, jsonable_to_complex
from gridforge.honeycombs import (
    closed_orientable_435, crosscap_abstract_34, hyperbolic_pants_435,
    hyperbolic_torus_435, opposite_face,
    pants_4335, surface_4335, torus_4335, tree_of_life_435, union_boundary,
    _cube_row_4335, _edge_parallel_class, _hypercube_ring, _pants_unit,
    _step, _torus_ring_435,
)
from gridforge.lattice import GriddedComplex
from gridforge.surface import (
    AbstractSquareComplex, GridCollisionError, classify, validate_surface,
)


def test_union_boundary_rejects_duplicates():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    with pytest.raises(ValueError):
        union_boundary([cube, cube])


def test_union_boundary_single_cube_is_sphere():
    s = build_system("{4,3,5}")
    squares = union_boundary([identity_cell(s, 3)])
    assert len(squares) == 6
    r = classify(GriddedComplex(s.name, squares))
    assert r.class_name == "orientable genus 0"
    assert (r.vertex_count, r.edge_count) == (8, 12)


def test_opposite_face_pairs_up_cube_faces():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    faces = cell_faces(cube, 2)
    pairs = set()
    for f in faces:
        g = opposite_face(cube, f)
        assert g != f
        assert opposite_face(cube, g) == f
        pairs.add(frozenset((f, g)))
    assert len(pairs) == 3


def test_edge_parallel_class_partitions_cube_vertices():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    cls = _edge_parallel_class(cube, identity_cell(s, 1))
    assert len(cls) == 4
    covered = []
    for e in cls:
        covered.extend(cell_faces(e, 0))
    assert len(covered) == 8
    assert set(covered) == set(cell_faces(cube, 0))


def test_hyperbolic_torus():
    t = hyperbolic_torus_435()
    assert t.ambient == "{4,3,5}"
    assert len(t) == 48
    assert t.meta["cube_count"] == 12
    # the catalogued count disagrees with the computed one; both are kept
    assert t.meta["catalogued_square_count"] == 44
    assert t.meta["square_count"] == 48
    r = classify(t)
    assert r.class_name == "orientable genus 1"
    assert r.is_closed and r.euler_characteristic == 0


def test_hyperbolic_pants():
    p = hyperbolic_pants_435()
    assert len(p) == 15
    r = classify(p)
    assert r.class_name == "orientable genus 0, 3 boundary circles"
    assert r.euler_characteristic == -1
    assert not r.is_closed


@pytest.mark.parametrize("depth,cubes,squares", [(1, 4, 18), (2, 12, 50),
                                                 (3, 28, 114)])
def test_tree_of_life_hyperbolic_is_a_sphere(depth, cubes, squares):
    t = tree_of_life_435(depth)
    assert t.meta["pants_count"] == 2 ** depth - 1
    assert t.meta["cube_count"] == cubes
    assert len(t) == squares
    r = classify(t)
    assert r.class_name == "orientable genus 0"
    assert r.is_closed


def test_tree_of_life_rejects_bad_depth(products):
    # the depth guard runs before any work: no ring product is formed
    for depth, message in (
            (0, "depth must be at least 1"),
            (13, "depth must be at most 12: a tree of depth 13 has "
                 "16 * 2^13 - 14 squares, more than 65536")):
        with pytest.raises(ValueError) as err:
            tree_of_life_435(depth)
        assert str(err.value) == message
    assert products[0] == 0


def _walked_tree_of_life_435(depth):
    """The pants tree grown piece by piece: each piece walks wall
    reflections from its own stem frame, and a wall step carries the
    frame into each child's stem.  tree_of_life_435 places the same
    pieces by group elements instead."""
    system = build_system("{4,3,5}")
    stem = identity_cell(system, 3)
    faces = sorted(cell_faces(stem, 2))
    entry = faces[0]
    back = opposite_face(stem, entry)
    up = min(f for f in faces if f not in (entry, back))
    cubes = []
    layer = [(stem, entry, up)]
    for level in range(depth):
        next_layer = []
        for cube, f_in, f_up in layer:
            unit_cubes, holes = _pants_unit(cube, f_in, f_up)
            cubes.extend(unit_cubes)
            if level + 1 < depth:
                for arm, far, arm_up in holes:
                    child, child_up = _step(arm, far, arm_up)
                    next_layer.append((child, far, child_up))
        layer = next_layer
    assert len(set(cubes)) == len(cubes)
    meta = {"kind": "tree_of_life_hyperbolic", "depth": depth,
            "pants_count": 2 ** depth - 1, "cube_count": len(cubes)}
    return GriddedComplex(system.name, union_boundary(cubes), meta)


@pytest.mark.parametrize("depth", range(1, 9))
def test_tree_of_life_placed_by_group_elements_equals_the_walk(depth):
    assert dumps_complex(tree_of_life_435(depth)) == \
        dumps_complex(_walked_tree_of_life_435(depth))


# sha256 of the stdout of `build hyp-tree --depth d`, the benchmark's
# build, at depths past the one in the acceptance pins
HYP_TREE_DIGESTS = {
    6: "47b4240c12f032d24a0b578f0044587b32c475800b9986d03022df6ad46699fd",
    7: "67d9c62983b8a696e8246859a93f2f19b0935064da65b1300187512f1fd96616",
}


@pytest.mark.parametrize("depth", sorted(HYP_TREE_DIGESTS))
def test_hyp_tree_build_bytes_are_pinned(depth, capsys):
    assert main(["build", "hyp-tree", "--depth", str(depth)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        HYP_TREE_DIGESTS[depth]


def test_overlapping_pants_pieces_raise_a_collision(monkeypatch):
    # both arm moves the same element: the two children of the root
    # fall on the same 4 cubes, which the count of cubes must name
    moves = honeycombs._pants_moves
    repeated = []

    def one_move_twice(stem, entry, up):
        unit, (g, _) = moves(stem, entry, up)
        repeated.extend(transform(g, c) for c in unit)
        return unit, [g, g]

    monkeypatch.setattr(honeycombs, "_pants_moves", one_move_twice)
    with pytest.raises(GridCollisionError, match="pants pieces overlap") \
            as err:
        tree_of_life_435(2)
    assert sorted(err.value.cells) == sorted(repeated)
    assert len(repeated) == 4


@pytest.mark.parametrize("genus,squares", [(0, 6), (1, 48), (2, 98), (3, 148),
                                          (4, 198), (5, 248), (6, 298),
                                          (7, 348), (8, 398)])
def test_closed_orientable_hyperbolic(genus, squares):
    c = closed_orientable_435(genus)
    assert len(c) == squares
    r = classify(c)
    assert r.is_closed and r.orientable
    assert r.genus == genus
    assert r.class_name == ("orientable genus %d" % genus)
    if genus >= 1:
        # each torus copy brings 48 squares, and each one-cube join
        # drops its two mouths and adds the cube's four side faces
        assert len(c) == 50 * genus - 2


def test_closed_orientable_rejects_negative_genus():
    with pytest.raises(ValueError):
        closed_orientable_435(-1)


def test_ring_torus_4335():
    t = torus_4335()
    assert t.ambient == "{4,3,3,5}"
    assert len(t) == 16
    r = classify(t)
    assert r.class_name == "orientable genus 1"
    assert (r.vertex_count, r.edge_count) == (16, 32)


def test_hypercube_ring_shares_one_square_per_joint():
    s = build_system("{4,3,3,5}")
    ring = _hypercube_ring(identity_cell(s, 4))
    assert len(set(ring)) == 4
    for i, a in enumerate(ring):
        for j in range(i + 1, 4):
            shared = set(cell_faces(a, 2)) & set(cell_faces(ring[j], 2))
            assert len(shared) == (1 if (j - i) % 2 == 1 else 0)


def test_cube_row_is_geodesic():
    cubes, shared, hypers = _cube_row_4335(3)
    assert len(set(cubes)) == 3
    assert len(set(hypers)) == 3
    assert len(shared) == 2
    for i in range(2):
        assert shared[i] in cell_faces(cubes[i], 2)
        assert shared[i] in cell_faces(cubes[i + 1], 2)
    assert hypercube_graph_distance(hypers[0], hypers[1], 2) == 1
    assert hypercube_graph_distance(hypers[0], hypers[2], 3) == 2
    assert hypercube_graph_distance(hypers[0], hypers[0], 1) == 0


def test_pants_4335():
    # the row of 3 cubes bounds a 14-square sphere, less 3 holes
    cubes, shared, _ = _cube_row_4335(3)
    sphere = union_boundary(cubes)
    assert len(sphere) == 14
    p = pants_4335()
    assert len(p) == 11 and p.squares < sphere
    r = classify(p)
    assert r.class_name == "orientable genus 0, 3 boundary circles"
    assert r.euler_characteristic == -1


def test_crosscap_grid_patch():
    c = crosscap_abstract_34()
    assert isinstance(c, AbstractSquareComplex)
    assert len(c.squares) == 34
    r = classify(c)
    assert r.class_name == "nonorientable, 1 crosscap"
    assert r.is_closed
    assert r.euler_characteristic == 1
    assert (r.vertex_count, r.edge_count) == (35, 68)


def test_crosscap_patch_is_valid_before_gluing():
    # sanity: the grid patch really is a disk with a 24-edge boundary
    removed = {(0, 0), (5, 5)}
    squares = [((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
               for i in range(6) for j in range(6) if (i, j) not in removed]
    disk = AbstractSquareComplex.from_squares(squares)
    r = classify(disk)
    assert r.euler_characteristic == 1
    assert r.boundary_circles == 1
    assert r.orientable


@pytest.mark.parametrize("genus,circles", [(0, 0), (1, 0), (2, 0), (0, 1),
                                           (0, 3), (1, 1), (2, 2)])
def test_surface_4335_orientable(genus, circles):
    s = surface_4335(True, genus, circles)
    assert isinstance(s, GriddedComplex)
    assert s.ambient == "{4,3,3,5}"
    r = classify(s)
    assert r.is_surface and r.orientable
    assert r.genus == genus
    assert r.boundary_circles == circles
    assert s.meta["genus"] == genus
    assert s.meta["end_truncation"] == 0


@pytest.mark.parametrize("crosscaps,circles", [(1, 0), (2, 0), (3, 0),
                                               (1, 2), (2, 1)])
def test_surface_4335_nonorientable(crosscaps, circles):
    s = surface_4335(False, crosscaps, circles)
    assert isinstance(s, AbstractSquareComplex)
    assert s.meta["embedded"] is False
    r = classify(s)
    assert r.is_surface and not r.orientable
    assert r.crosscaps == crosscaps
    assert r.boundary_circles == circles


def test_surface_4335_counts():
    assert len(surface_4335(True, 0, 0)) == 14
    assert len(surface_4335(True, 1, 0)) == 28
    assert len(surface_4335(True, 2, 0)) == 54


def test_surface_4335_rejects_bad_signatures():
    with pytest.raises(ValueError):
        surface_4335(True, -1, 0)
    with pytest.raises(ValueError):
        surface_4335(True, 0, -2)
    with pytest.raises(ValueError):
        surface_4335(False, 0, 1)


def test_all_435_surfaces_validate():
    for c in (hyperbolic_torus_435(), hyperbolic_pants_435(),
              tree_of_life_435(2), torus_4335(), pants_4335()):
        assert validate_surface(c).is_surface


# --- closed forms against the searches they replaced ---------------------

def test_opposite_face_equals_the_vertex_disjoint_search():
    rng = random.Random(435)
    for name, dims in (("{4,3,5}", (2, 3)), ("{4,3,3,5}", (1, 3, 4))):
        s = build_system(name)
        for d in dims:
            for cell in random_cells(s, d, rng, 4):
                for face in cell_faces(cell, d - 1):
                    assert opposite_face(cell, face) == \
                        opposite_face_search(cell, face)


def test_wall_reflection_equals_the_up_marker_search():
    s = build_system("{4,3,5}")
    rng = random.Random(5435)
    for cube in random_cells(s, 3, rng, 5):
        faces = cell_faces(cube, 2)
        for wall in faces:
            nxt = neighbor(cube, wall)
            mirror = reflection(cube, nxt)
            for up in faces:
                if up in (wall, opposite_face_search(cube, wall)):
                    continue
                assert transform(mirror, up) == \
                    transport_up_search(up, wall, nxt)


def test_edge_parallel_class_equals_the_square_walk():
    s = build_system("{4,3,5}")
    rng = random.Random(35)
    for cube in random_cells(s, 3, rng, 3):
        for edge in cell_faces(cube, 1):
            assert _edge_parallel_class(cube, edge) == \
                edge_parallel_class_search(cube, edge)


def _grow_solid(rng, cubes, add, remove):
    """cubes with `add` face neighbours of random members added, then
    `remove` random members taken away (keeping at least one)."""
    cubes = set(cubes)
    for _ in range(add):
        cube = rng.choice(sorted(cubes))
        cubes.add(neighbor(cube, rng.choice(cell_faces(cube, 2))))
    for _ in range(remove):
        if len(cubes) > 1:
            cubes.remove(rng.choice(sorted(cubes)))
    return cubes


def _random_solid_435(rng, kind):
    """A random union of cubes of {4,3,5}.  Face-neighbour growth from
    one cube gives balls, so kinds 1 and 3 start from the 12-cube ring of the
    hyperbolic torus, and kinds 2 and 3 add a second piece moved far
    away."""
    s = build_system("{4,3,5}")
    if kind & 1:
        cubes = _grow_solid(rng, _torus_ring_435()[1], rng.randrange(4),
                            rng.randrange(3))
    else:
        cubes = _grow_solid(rng, {identity_cell(s, 3)}, rng.randrange(1, 10),
                            0)
    if kind & 2:
        # a walk of 12 random walls from the base cube, and a word that
        # takes the base cube to its end
        far = identity_cell(s, 3)
        for _ in range(12):
            far = neighbor(far, rng.choice(cell_faces(far, 2)))
        piece = _grow_solid(rng, {identity_cell(s, 3)}, rng.randrange(5), 0)
        cubes |= {transform(far.rep, c) for c in piece}
    return cubes


def _shape(rep):
    """A classify report with its vertex names and component order
    forgotten, which a motion of the honeycomb may change."""
    return (rep.is_surface, rep.is_closed, rep.vertex_count, rep.edge_count,
            rep.square_count, len(rep.failures), rep.orientable,
            rep.boundary_circles, sorted(rep.components, key=repr))


def _faces_cycle(square):
    """The corners of a square in cyclic order, from its four edges and
    their end vertices alone (not from its representative's turns)."""
    ends = [set(cell_faces(e, 0)) for e in cell_faces(square, 1)]
    cycle = list(ends.pop())
    while len(cycle) < 4:
        (step,) = [p for p in ends if cycle[-1] in p]
        ends.remove(step)
        cycle += step - {cycle[-1]}
    assert ends == [{cycle[0], cycle[-1]}]
    return tuple(cycle)


def test_random_hyperbolic_solids_against_homology():
    """Boundary of a random solid of {4,3,5}: when it validates, it is a
    closed orientable surface whose component count and total genus the
    solid's GF(2) homology forces (b0 + b2 and b1, since the solid sits
    in hyperbolic 3-space).  The brute-force surface check on corner
    cycles rebuilt from cell_faces agrees with classify on validity and
    orientability.  The classify report survives a save and load, and a
    motion of the honeycomb by a random word."""
    s = build_system("{4,3,5}")
    rng = random.Random(20261019)
    rejected = tori = several = 0
    for trial in range(40):
        cubes = _random_solid_435(rng, trial % 4)
        g = GriddedComplex("{4,3,5}", union_boundary(cubes))
        rep = classify(g)
        loaded = jsonable_to_complex(json.loads(dumps_complex(g)))
        assert loaded == g
        assert classify(loaded) == rep
        w = random_word(s, rng, rng.randrange(1, 12))
        moved = GriddedComplex("{4,3,5}", {transform(w, q) for q in g.squares})
        assert _shape(classify(moved)) == _shape(rep)
        ids = {}  # int vertex names, cheaper to hash than coset keys
        bad_edges, bad_vertices, orientable = brute_surface_check(
            [tuple(ids.setdefault(v, len(ids)) for v in _faces_cycle(q))
             for q in sorted(g.squares)])
        assert (not bad_edges and not bad_vertices) == rep.is_surface
        if not rep.is_surface:
            rejected += 1
            continue
        b0, b1, b2 = solid_betti_numbers(cubes, cell_faces)
        assert orientable == rep.orientable
        assert rep.is_closed and rep.orientable
        assert len(rep.components) == b0 + b2
        assert sum(c.genus for c in rep.components) == b1
        tori += b1 > 0
        several += len(rep.components) > 1
    assert rejected and tori and several
