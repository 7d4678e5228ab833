import pytest

from gridforge.constructors import (
    EndDecoration, PlaneTree, box_column, closed_surface, crosscap_z4,
    frame_torus, klein_bottle, prune_and_decorate, spiral_tree, tree_of_life,
)
from gridforge.lattice import cube_union_boundary
from gridforge.surface import classify


def test_frame_torus_equals_block_boundary():
    # independent derivation: 3x3x1 block of cubes minus the middle one
    cubes = [(2 * i + 1, 2 * j + 1, 1) for i in range(3) for j in range(3)
             if (i, j) != (1, 1)]
    t = frame_torus()
    assert len(t) == 32
    assert t.squares == cube_union_boundary(cubes)
    rep = classify(t)
    assert rep.is_closed and rep.orientable and rep.genus == 1
    assert rep.euler_characteristic == 0


def test_crosscap_is_a_projective_plane():
    c = crosscap_z4()
    assert len(c) == 30
    rep = classify(c)
    assert rep.is_surface and rep.is_closed
    assert not rep.orientable
    assert rep.euler_characteristic == 1
    assert rep.crosscaps == 1
    assert rep.vertex_count == 31 and rep.edge_count == 60
    assert rep.class_name == "nonorientable, 1 crosscap"


def test_klein_bottle():
    k = klein_bottle()
    assert k.ambient == "Z4"
    assert len(k) == 62
    rep = classify(k)
    assert rep.is_closed and not rep.orientable
    assert rep.euler_characteristic == 0
    assert rep.crosscaps == 2


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
def test_orientable_family(genus):
    s = closed_surface(True, genus)
    rep = classify(s)
    assert rep.is_closed and rep.orientable
    assert rep.genus == genus
    assert rep.euler_characteristic == 2 - 2 * genus
    assert len(s) == (6 if genus == 0 else 32 + 34 * (genus - 1))


@pytest.mark.parametrize("crosscaps", [1, 2, 3])
def test_nonorientable_family(crosscaps):
    s = closed_surface(False, crosscaps)
    rep = classify(s)
    assert rep.is_closed and not rep.orientable
    assert rep.crosscaps == crosscaps
    assert rep.euler_characteristic == 2 - crosscaps
    assert len(s) == 30 + 32 * (crosscaps - 1)


def test_nonorientable_needs_a_crosscap():
    with pytest.raises(ValueError):
        closed_surface(False, 0)


@pytest.mark.parametrize("depth", range(6))
def test_spiral_tree_never_touches_itself(depth):
    tree = spiral_tree(depth)
    # segment count by arm lengths: 17n+12 and 17n+21 for generation n
    expected = 5 + sum(34 * n + 33 for n in range(depth))
    assert len(tree.segments) == expected
    degree = {}
    for seg in tree.segments:
        for v in seg:
            degree[v] = degree.get(v, 0) + 1
    # a crossing or touching of two arms would create extra high-degree
    # vertices; the only allowed ones are the branch points
    assert sorted(v for v, d in degree.items() if d == 3) == \
        sorted((n, 2 * n + 1) for n in range(depth))
    assert sorted(v for v, d in degree.items() if d == 1) == sorted(tree.leaves)
    assert all(d <= 3 for d in degree.values())
    assert len(tree.leaves) == depth + 2


@pytest.mark.parametrize("depth", range(4))
def test_tree_of_life_is_a_sphere(depth):
    t = tree_of_life(depth)
    rep = classify(t)
    assert rep.is_surface and rep.is_closed
    assert rep.orientable and rep.genus == 0
    assert rep.euler_characteristic == 2


def test_prune_all_the_way_down():
    bare = prune_and_decorate(spiral_tree(1), prune=99)
    rep = classify(bare)
    assert rep.genus == 0 and rep.is_closed
    assert len(bare) == 16  # 2x2x1 block around the origin


def test_handles_raise_genus():
    out = prune_and_decorate(spiral_tree(0), handles=2)
    rep = classify(out)
    assert rep.is_closed and rep.orientable
    assert rep.genus == 2
    assert out.ambient == "Z3"


def test_crosscaps_make_it_nonorientable():
    out = prune_and_decorate(spiral_tree(0), crosscaps=1)
    assert out.ambient == "Z4"
    rep = classify(out)
    assert rep.is_closed and not rep.orientable
    assert rep.crosscaps == 1


def test_handles_and_crosscaps_combine():
    out = prune_and_decorate(spiral_tree(0), handles=1, crosscaps=1)
    rep = classify(out)
    assert rep.is_closed and not rep.orientable
    # a handle in the presence of a crosscap converts to two crosscaps
    assert rep.crosscaps == 3


@pytest.mark.parametrize("kind,truncation,chi_drop", [
    ("cylinder", 1, 1),
    ("cylinder", 3, 1),
    ("ladder", 2, 5),
    ("crosscap_chain", 1, 2),
    ("crosscap_chain", 2, 3),
])
def test_truncated_ends(kind, truncation, chi_drop):
    out = prune_and_decorate(spiral_tree(1), prune=1,
                             ends=[EndDecoration(kind, truncation)])
    rep = classify(out)
    assert rep.is_surface and not rep.is_closed
    assert rep.boundary_circles == 1
    assert rep.euler_characteristic == 2 - chi_drop
    assert rep.orientable == (kind != "crosscap_chain")


def test_several_ends():
    ends = [EndDecoration("cylinder", 2), EndDecoration("cylinder", 2),
            EndDecoration("ladder", 1)]
    out = prune_and_decorate(spiral_tree(1), ends=ends)
    rep = classify(out)
    assert rep.boundary_circles == 3
    assert rep.euler_characteristic == 2 - 1 - 1 - 3


def test_end_decoration_validates():
    with pytest.raises(ValueError, match=r"^unknown end kind 'spiral'$"):
        EndDecoration("spiral", 1)
    with pytest.raises(ValueError, match=r"^truncation must be >= 1$"):
        EndDecoration("cylinder", 0)


def test_plane_trees_and_ends_compare_hash_and_print_by_their_fields():
    tree = PlaneTree(frozenset({((0, 0), (0, 1))}), ((0, 1),), 0)
    same = PlaneTree(segments=frozenset({((0, 0), (0, 1))}),
                     leaves=((0, 1),), depth=0)
    assert tree == same and hash(tree) == hash(same)
    assert tree != PlaneTree(tree.segments, tree.leaves, 1)
    assert spiral_tree(2) == spiral_tree(2) != spiral_tree(1)
    assert repr(tree) == ("PlaneTree(segments=frozenset({((0, 0), (0, 1))}), "
                          "leaves=((0, 1),), depth=0)")
    end = EndDecoration("ladder", 2)
    assert end == EndDecoration(kind="ladder", truncation=2)
    assert hash(end) == hash(EndDecoration("ladder", 2))
    assert end != EndDecoration("ladder", 3)
    assert repr(end) == "EndDecoration(kind='ladder', truncation=2)"
    for record, name in ((tree, "depth"), (end, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_box_column():
    col = box_column(4)
    assert len(col) == 4 * 4 + 2
    assert classify(col).genus == 0
