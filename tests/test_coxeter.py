"""Reflection-group engine: exact matrices, cosets, incidence."""

import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    coface_count, eliminate, mat_inverse, opposite_face_search,
    qf_fixed_vectors, qf_form, qf_matrix, random_cells, random_word,
    stabilizer,
)
from gridforge import coxeter
from gridforge.coxeter import (
    CLAIMED_INCIDENCE, CosetKey, build_system, cell_faces, central_symmetry,
    diagram_order, enumerate_parabolic, identity_cell,
    incidence_counts, keeps_time_orientation, matrix_key, neighbor,
    parabolic_order, preserves_form, reflection, square_vertex_cycle,
    transform,
    _identity, _leading_minors, _mat_mul, _mat_vec, _pivot_signs,
    _transversal,
)
from gridforge.field import (
    QF, RZERO, qf_from_ring, radd, ring_key, rmul, rneg, rscale, rsign, rsub,
)
from gridforge.formats import (
    complex_to_jsonable, dumps_complex, jsonable_to_complex,
)
from gridforge.honeycombs import opposite_face, tree_of_life_435
from gridforge.lattice import cell_dim
from gridforge.surface import classify, cycle_key

ALL_SYSTEMS = ("{4,4}", "{4,3,4}", "{4,3,3,4}", "{4,3,5}", "{4,3,3,5}")
# the systems with coset cells; Euclidean cells are lattice keys
HYPERBOLIC = ("{4,3,5}", "{4,3,3,5}")


def test_build_all_systems():
    for name in ALL_SYSTEMS:
        s = build_system(name)
        assert s.rank == len(s.labels) + 1
    assert build_system("{4,4}").affine
    assert build_system("{4,3,4}").affine
    assert build_system("{4,3,3,4}").affine
    assert not build_system("{4,3,5}").affine
    assert not build_system("{4,3,3,5}").affine
    with pytest.raises(ValueError):
        build_system("{5,3,5}")


def test_parabolic_orders():
    s44 = build_system("{4,4}")
    assert parabolic_order(s44, s44.parabolic_gens(0)) == 8
    assert parabolic_order(s44, s44.parabolic_gens(1)) == 4
    assert parabolic_order(s44, s44.parabolic_gens(2)) == 8

    s = build_system("{4,3,5}")
    assert parabolic_order(s, frozenset({0, 1, 2})) == 48
    assert parabolic_order(s, frozenset({1, 2, 3})) == 120
    assert parabolic_order(s, s.parabolic_gens(1)) == 20
    assert parabolic_order(s, s.parabolic_gens(2)) == 16

    s4 = build_system("{4,3,3,5}")
    assert parabolic_order(s4, s4.parabolic_gens(1)) == 240
    assert parabolic_order(s4, s4.parabolic_gens(2)) == 80
    assert parabolic_order(s4, s4.parabolic_gens(3)) == 96
    assert parabolic_order(s4, s4.parabolic_gens(4)) == 384

    s434 = build_system("{4,3,4}")
    assert parabolic_order(s434, s434.parabolic_gens(0)) == 48
    assert parabolic_order(s434, s434.parabolic_gens(3)) == 48

    s4334 = build_system("{4,3,3,4}")
    assert parabolic_order(s4334, s4334.parabolic_gens(0)) == 384
    assert parabolic_order(s4334, s4334.parabolic_gens(4)) == 384


def test_diagram_orders_match_the_enumeration():
    # every proper parabolic of every system, the H4 vertex group included
    count = 0
    for name in ALL_SYSTEMS:
        s = build_system(name)
        for r in range(s.rank):
            for gens in itertools.combinations(range(s.rank), r):
                assert diagram_order(s, gens) == parabolic_order(s, gens), \
                    (name, gens)
                count += 1
        # the whole generator set, and a generator the system lacks
        for gens in (range(s.rank), {0, s.rank}):
            with pytest.raises(ValueError, match="not a proper subset") as got:
                diagram_order(s, gens)
            with pytest.raises(ValueError) as want:
                enumerate_parabolic(s, gens)
            assert str(got.value) == str(want.value)
    assert count == 99


def test_icosahedral_vertex_group_within_budget():
    s = build_system("{4,3,3,5}")
    start = time.monotonic()
    assert parabolic_order(s, s.parabolic_gens(0)) == 14400
    assert time.monotonic() - start < 120.0


def test_enumeration_sorted_and_cached():
    s = build_system("{4,3,5}")
    elems = enumerate_parabolic(s, frozenset({0, 1}))
    assert len(elems) == 8
    keys = [matrix_key(m) for m in elems]
    assert keys == sorted(keys)
    assert enumerate_parabolic(s, frozenset({0, 1})) is elems


def lattice_coface_counts(n, d):
    return tuple(coface_count(d, k, n) for k in range(d + 1, n + 1))


def test_euclidean_incidence_matches_lattice_count():
    # two engines: parabolic-order quotients vs direct Z^n cell counting
    for name, n in (("{4,4}", 2), ("{4,3,4}", 3), ("{4,3,3,4}", 4)):
        s = build_system(name)
        for d in range(n):
            assert incidence_counts(s, d) == lattice_coface_counts(n, d), (name, d)


def test_hyperbolic_incidence_values():
    s = build_system("{4,3,5}")
    assert incidence_counts(s, 0) == (12, 30, 20)
    assert incidence_counts(s, 1) == (5, 5)
    s4 = build_system("{4,3,3,5}")
    assert incidence_counts(s4, 0) == (120, 720, 1200, 600)
    assert incidence_counts(s4, 1) == (12, 30, 20)
    assert incidence_counts(s4, 2) == (5, 5)


def test_claimed_incidence_diff_rows():
    mismatches = set()
    for name, rows in CLAIMED_INCIDENCE.items():
        s = build_system(name)
        for d, claimed in rows.items():
            if incidence_counts(s, d) != claimed:
                mismatches.add((name, d))
    assert mismatches == {("{4,3,3,4}", 1), ("{4,3,3,5}", 1)}
    assert incidence_counts(build_system("{4,3,3,4}"), 1) == (6, 12, 8)
    assert incidence_counts(build_system("{4,3,3,5}"), 1) == (12, 30, 20)


def test_b_preservation_on_random_words():
    rng = random.Random(4335)
    for name in ("{4,3,5}", "{4,3,3,5}", "{4,3,4}"):
        s = build_system(name)
        for _ in range(10):
            w = random_word(s, rng, rng.randrange(1, 12))
            gram = _mat_mul(_mat_mul(tuple(zip(*w)), s.bilinear4), w)
            assert gram == s.bilinear4 and preserves_form(s, w)


def _qf_mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), QF(0))
             for col in zip(*b)] for row in a]


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_preserves_form_agrees_with_the_field_reference(name):
    # the reference computes m^T B m = B over Q(sqrt2, sqrt5), with B from
    # the labels, not 4B from the ring; a word preserves the form, and
    # one coordinate moved by a nonzero step almost always breaks it, so
    # both answers are checked
    s = build_system(name)
    form = qf_form(s)
    rng = random.Random(27)
    answers = []
    for _ in range(12):
        w = random_word(s, rng, rng.randrange(0, 10))
        rows = [list(row) for row in w]
        i, j, t = (rng.randrange(s.rank), rng.randrange(s.rank),
                   rng.randrange(4))
        e = list(rows[i][j])
        e[t] += rng.choice((-3, -1, 1, 2))
        rows[i][j] = tuple(e)
        for m in (w, tuple(map(tuple, rows))):
            q = qf_matrix(m)
            want = _qf_mat_mul(_qf_mat_mul(list(zip(*q)), form), q) == form
            assert preserves_form(s, m) == want
            answers.append(want)
    assert answers.count(True) >= 12 and False in answers


def test_matrix_inverse():
    rng = random.Random(7)
    s = build_system("{4,3,5}")
    ident = _identity(s.rank)
    for _ in range(8):
        w = random_word(s, rng, rng.randrange(1, 10))
        assert _mat_mul(w, mat_inverse(w)) == ident


# the primitive ring vectors keying the cells of each dimension; every
# coset key and so every build byte depends on these exact multiples
FIXED_VECTORS = {
    "{4,3,5}": (
        ((0, 3, 0, -2), (4, 0, -3, 0), (2, 0, -2, 0), (-1, 0, 0, 0)),
        ((0, 4, 0, -3), (8, 0, -6, 0), (4, 0, -4, 0), (-2, 0, 0, 0)),
        ((0, 1, 0, -1), (2, 0, -2, 0), (2, 0, -2, 0), (-1, 0, 0, 0)),
        ((0, 0, 0, -1), (0, 0, -2, 0), (0, 0, -2, 0), (-2, 0, 0, 0)),
    ),
    "{4,3,3,5}": (
        ((0, 8, 0, -5), (12, 0, -8, 0), (8, 0, -6, 0), (4, 0, -4, 0),
         (-2, 0, 0, 0)),
        ((0, 3, 0, -2), (6, 0, -4, 0), (4, 0, -3, 0), (2, 0, -2, 0),
         (-1, 0, 0, 0)),
        ((0, 4, 0, -3), (8, 0, -6, 0), (8, 0, -6, 0), (4, 0, -4, 0),
         (-2, 0, 0, 0)),
        ((0, 1, 0, -1), (2, 0, -2, 0), (2, 0, -2, 0), (2, 0, -2, 0),
         (-1, 0, 0, 0)),
        ((0, 0, 0, -1), (0, 0, -2, 0), (0, 0, -2, 0), (0, 0, -2, 0),
         (-2, 0, 0, 0)),
    ),
}


def test_fixed_vectors_have_parabolic_stabilizer():
    for name, expected in FIXED_VECTORS.items():
        s = build_system(name)
        assert s.fixed_vectors == expected
        for d in range(s.rank):
            x = s.fixed_vectors[d]
            assert any(e != RZERO for e in x)
            for j in range(s.rank):
                fixed = _mat_vec(s.generators[j], x) == x
                assert fixed == (j != d)


def test_coset_key_identifies_cosets():
    rng = random.Random(20260814)
    for name in HYPERBOLIC:
        s = build_system(name)
        for d in small_dims(name):
            gens = s.parabolic_gens(d)
            parab = enumerate_parabolic(s, gens)
            for _ in range(6):
                w = random_word(s, rng, rng.randrange(0, 8))
                k = CosetKey(s, gens, w)
                p = parab[rng.randrange(len(parab))]
                same = CosetKey(s, gens, _mat_mul(w, p))
                assert k == same and hash(k) == hash(same)
                other = CosetKey(s, gens, _mat_mul(w, s.generators[d]))
                assert k != other


def test_coset_key_requires_maximal_parabolic():
    # a Euclidean system names the bad generator set first too
    for name in ("{4,3,5}", "{4,3,4}"):
        s = build_system(name)
        with pytest.raises(ValueError, match=r"^cells correspond to maximal "
                           r"parabolics; got generator set \[0, 1\]$"):
            CosetKey(s, [1, 0], _identity(s.rank))


def test_euclidean_systems_have_no_coset_keys():
    for name, lattice in (("{4,4}", "Z2"), ("{4,3,4}", "Z3"),
                          ("{4,3,3,4}", "Z4")):
        s = build_system(name)
        with pytest.raises(ValueError, match=f"use ambient {lattice}$"):
            CosetKey(s, s.parabolic_gens(2), _identity(s.rank))


def test_min_rep_is_canonical():
    rng = random.Random(99)
    for name in HYPERBOLIC:
        s = build_system(name)
        gens = s.parabolic_gens(2)
        parab = enumerate_parabolic(s, gens)
        w = random_word(s, rng, 6)
        base = CosetKey(s, gens, w).min_rep()
        for _ in range(5):
            p = parab[rng.randrange(len(parab))]
            assert CosetKey(s, gens, _mat_mul(w, p)).min_rep() == base
        assert CosetKey(s, gens, base) == CosetKey(s, gens, w)


def test_coset_keys_are_orderable():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    verts = list(cell_faces(cube, 0))
    assert sorted(verts) == sorted(reversed(verts))
    a, b = sorted(verts)[:2]
    assert a < b and not b < a and a <= a


def test_cell_face_counts_435():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    assert len(cell_faces(cube, 0)) == 8
    assert len(cell_faces(cube, 1)) == 12
    assert len(cell_faces(cube, 2)) == 6
    sq = cell_faces(cube, 2)[0]
    assert len(cell_faces(sq, 0)) == 4
    assert len(cell_faces(sq, 1)) == 4
    assert len(cell_faces(sq, 3)) == 2
    edge = cell_faces(cube, 1)[0]
    assert len(cell_faces(edge, 3)) == 5
    assert len(cell_faces(edge, 2)) == 5


def test_cell_face_counts_4335():
    s = build_system("{4,3,3,5}")
    hc = identity_cell(s, 4)
    assert len(cell_faces(hc, 0)) == 16
    assert len(cell_faces(hc, 1)) == 32
    assert len(cell_faces(hc, 2)) == 24
    assert len(cell_faces(hc, 3)) == 8
    cell = cell_faces(hc, 3)[0]
    assert len(cell_faces(cell, 2)) == 6
    assert len(cell_faces(cell, 4)) == 2
    sq = cell_faces(cell, 2)[0]
    assert len(cell_faces(sq, 3)) == 5
    assert len(cell_faces(sq, 4)) == 5


def test_faces_are_shared_with_incident_cells():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    for sq in cell_faces(cube, 2):
        assert cube in cell_faces(sq, 3)
        for e in cell_faces(sq, 1):
            assert e in cell_faces(cube, 1)


def test_neighbor_is_an_involution():
    s = build_system("{4,3,5}")
    cube = identity_cell(s, 3)
    for sq in cell_faces(cube, 2):
        nb = neighbor(cube, sq)
        assert nb != cube
        assert sq in cell_faces(nb, 2)
        assert neighbor(nb, sq) == cube
    far = cell_faces(neighbor(cube, cell_faces(cube, 2)[0]), 2)
    stranger = [f for f in far if f not in cell_faces(cube, 2)][0]
    with pytest.raises(ValueError):
        neighbor(cube, stranger)


def test_stabilizer_fixes_cell():
    s = build_system("{4,3,5}")
    rng = random.Random(3)
    w = random_word(s, rng, 5)
    cube = CosetKey(s, s.parabolic_gens(3), w)
    st = stabilizer(cube)
    assert len(st) == 48
    assert all(transform(m, cube) == cube for m in st)
    moved = transform(s.generators[3], identity_cell(s, 3))
    assert moved != identity_cell(s, 3)


def test_reflection_is_the_stabilizer_element_swapping_two_faces():
    # the element of the cube's stabilizer exchanging a face with the
    # opposite one and fixing the other 4, found by search
    s = build_system("{4,3,5}")
    rng = random.Random(435)
    for _ in range(4):
        cube = CosetKey(s, s.parabolic_gens(3),
                        random_word(s, rng, rng.randrange(0, 9)))
        st_cube = stabilizer(cube)
        faces = cell_faces(cube, 2)
        for entry in faces:
            exit_face = opposite_face(cube, entry)
            sides = [f for f in faces if f not in (entry, exit_face)]
            found = [g for g in st_cube
                     if transform(g, entry) == exit_face
                     and transform(g, exit_face) == entry
                     and all(transform(g, f) == f for f in sides)]
            assert found == [reflection(entry, exit_face)]


def test_elimination_of_hyperbolic_forms():
    for name in ("{4,3,5}", "{4,3,3,5}"):
        s = build_system(name)
        form = qf_matrix(s.bilinear4)
        pivots, inverse = eliminate(form)
        signs = [p.sign() for p in pivots]
        assert (signs.count(1), signs.count(-1)) == (s.rank - 1, 1)
        product = [[sum((inverse[i][k] * form[k][j]
                         for k in range(s.rank)), QF(0))
                    for j in range(s.rank)] for i in range(s.rank)]
        assert product == [[QF(int(i == j)) for j in range(s.rank)]
                           for i in range(s.rank)]


def test_elimination_of_affine_forms():
    for name in ("{4,4}", "{4,3,4}", "{4,3,3,4}"):
        pivots, inverse = eliminate(qf_matrix(build_system(name).bilinear4))
        assert not pivots[-1] and all(p.sign() > 0 for p in pivots[:-1])
        assert inverse is None


def test_bilinear4_is_four_times_the_form_of_the_labels():
    for name in ALL_SYSTEMS:
        s = build_system(name)
        assert qf_matrix(s.bilinear4) == [[4 * x for x in row]
                                          for row in qf_form(s)]


def test_continuant_minors_match_the_elimination_oracle():
    # the ring set-up's leading minors are the products of the oracle's
    # pivots; their signs give the same signature and affine flag
    for name in ALL_SYSTEMS:
        s = coxeter.CoxeterSystem(name)
        pivots, inverse = eliminate(qf_matrix(s.bilinear4))
        minors = _leading_minors(s.bilinear4)
        product = QF(1)
        for k, p in enumerate(pivots):
            product = product * p
            assert qf_from_ring(minors[k + 1]) == product
        assert _pivot_signs(minors) == [p.sign() for p in pivots]
        assert s.affine == (inverse is None)
    with pytest.raises(AssertionError, match="zero leading minor"):
        _pivot_signs([(1, 0, 0, 0), RZERO, (1, 0, 0, 0)])


def test_fixed_vectors_match_the_inverse_oracle():
    for name in HYPERBOLIC:
        s = coxeter.CoxeterSystem(name)
        assert s.fixed_vectors == qf_fixed_vectors(s)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(HYPERBOLIC),
       word=st.lists(st.integers(0, 4), max_size=12),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
def test_square_vertex_cycle_is_canonical(name, word, picks):
    # the four corners are distinct because the corner offsets are,
    # which the system checks once at set-up, not per square
    s = build_system(name)
    gens = s.parabolic_gens(2)
    parab = enumerate_parabolic(s, gens)
    w = _identity(s.rank)
    for i in word:
        w = _mat_mul(w, s.generators[i % s.rank])
    square = CosetKey(s, gens, w)
    cyc = square_vertex_cycle(square)
    assert len(set(cyc)) == 4
    assert set(cyc) == set(cell_faces(square, 0))
    base = cycle_key(cyc)
    for k in picks:
        p = parab[k % len(parab)]
        cyc = square_vertex_cycle(CosetKey(s, gens, _mat_mul(w, p)))
        assert cycle_key(cyc) == base


def test_square_cycle_consecutive_corners_share_an_edge():
    s = build_system("{4,3,5}")
    sq = identity_cell(s, 2)
    cyc = square_vertex_cycle(sq)
    edges = cell_faces(sq, 1)
    for i in range(4):
        a, b = cyc[i], cyc[(i + 1) % 4]
        shared = [e for e in edges
                  if a in cell_faces(e, 0) and b in cell_faces(e, 0)]
        assert len(shared) == 1


# --- the fused ring kernel and lazily formed representatives -------------

def naive_mat_vec(m, v):
    """Matrix times vector with the reference field.rmul and field.radd."""
    out = []
    for row in m:
        acc = RZERO
        for x, y in zip(row, v):
            acc = radd(acc, rmul(x, y))
        out.append(acc)
    return tuple(out)


def naive_mat_mul(a, b):
    cols = [naive_mat_vec(a, col) for col in zip(*b)]
    return tuple(zip(*cols))


def naive_word(system, word):
    w = _identity(system.rank)
    for i in word:
        w = naive_mat_mul(w, system.generators[i % system.rank])
    return w


ring_entries = st.one_of(st.just(RZERO),
                         st.tuples(*[st.integers(-40, 40)] * 4))
words = st.lists(st.integers(0, 4), max_size=12)


def small_dims(name):
    """Cell dimensions with parabolics small enough to enumerate per
    example: the vertex group of {4,3,3,5} (order 14400) is left out."""
    rank = build_system(name).rank
    return [d for d in range(rank) if (name, d) != ("{4,3,3,5}", 0)]


@settings(max_examples=60)
@given(st.sampled_from(ALL_SYSTEMS), words, words, st.data())
def test_kernel_matches_the_reference_product(name, word_a, word_b, data):
    s = build_system(name)
    a, b = naive_word(s, word_a), naive_word(s, word_b)
    assert _mat_mul(a, b) == naive_mat_mul(a, b)
    v = tuple(data.draw(st.lists(ring_entries, min_size=s.rank,
                                 max_size=s.rank)))
    assert _mat_vec(a, v) == naive_mat_vec(a, v)
    m = tuple(tuple(data.draw(st.lists(ring_entries, min_size=s.rank,
                                       max_size=s.rank)))
              for _ in range(s.rank))
    assert _mat_mul(m, a) == naive_mat_mul(m, a)
    assert _mat_mul(a, m) == naive_mat_mul(a, m)


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), words, st.data())
def test_min_rep_is_the_least_product(name, word, data):
    s = build_system(name)
    d = data.draw(st.sampled_from(small_dims(name)))
    gens = s.parabolic_gens(d)
    w = naive_word(s, word)
    brute = min((naive_mat_mul(w, p) for p in enumerate_parabolic(s, gens)),
                key=matrix_key)
    assert CosetKey(s, gens, w).min_rep() == brute


def _brute_min_rep(key):
    parabolic = enumerate_parabolic(key.system, key.gens)
    return min((naive_mat_mul(key.rep, p) for p in parabolic),
               key=matrix_key)


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), words, words, st.data())
def test_min_rep_of_faces_and_images_is_the_least_product(name, word, image,
                                                          data):
    s = build_system(name)
    dims = small_dims(name)
    d, j = data.draw(st.sampled_from([(d, j) for d in dims for j in dims
                                      if d != j]))
    cell = CosetKey(s, s.parabolic_gens(d), naive_word(s, word))
    face = data.draw(st.sampled_from(cell_faces(cell, j)))
    least = face.min_rep()
    # the factor path: the face's own product is not formed
    assert face._rep is None
    assert least == _brute_min_rep(face)
    moved = transform(naive_word(s, image), cell)
    assert moved.min_rep() == _brute_min_rep(moved)


def test_min_rep_of_square_faces_is_the_least_product():
    # the cells a document canonicalizes, over the 16-element square
    # parabolic of {4,3,5} and the 80-element one of {4,3,3,5}
    rng = random.Random(17)
    for name in HYPERBOLIC:
        s = build_system(name)
        assert parabolic_order(s, s.parabolic_gens(2)) == {
            "{4,3,5}": 16, "{4,3,3,5}": 80}[name]
        for d in range(3, s.rank):
            for cell in random_cells(s, d, rng, 2):
                squares = cell_faces(cell, 2)
                least = [sq.min_rep() for sq in squares]
                assert least == [_brute_min_rep(sq) for sq in squares]


def _assert_same_key(lazy, eager, rep):
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy.vec == eager.vec
    assert lazy.rep == rep


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), words, st.data())
def test_faces_equal_keys_built_from_the_product(name, word, data):
    s = build_system(name)
    dims = small_dims(name)
    d = data.draw(st.sampled_from(dims))
    j = data.draw(st.sampled_from(dims))
    cell = CosetKey(s, s.parabolic_gens(d), naive_word(s, word))
    gens_j = s.parabolic_gens(j)
    if j == d:
        assert cell_faces(cell, j) == (cell,)
        return
    eager = {}
    for t, _, _ in _transversal(s, d, j):
        rep = naive_mat_mul(cell.rep, t)
        eager[CosetKey(s, gens_j, rep)] = rep
    faces = cell_faces(cell, j)
    assert sorted(eager) == list(faces)
    for face in faces:
        match = next(k for k in eager if k == face)
        _assert_same_key(face, match, eager[match])


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), words)
def test_square_corners_equal_keys_built_from_the_product(name, word):
    s = build_system(name)
    square = CosetKey(s, s.parabolic_gens(2), naive_word(s, word))
    quarter = naive_mat_mul(s.generators[0], s.generators[1])
    rep = square.rep
    corners = square_vertex_cycle(square)
    for corner in corners:
        eager = CosetKey(s, s.parabolic_gens(0), rep)
        _assert_same_key(corner, eager, rep)
        rep = naive_mat_mul(rep, quarter)


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), words, words, st.data())
def test_corners_of_faces_and_images_equal_keys_built_from_the_product(
        name, word, image, data):
    # squares keyed from factors: faces of a random cube or hypercube, and
    # their images under transform; their vec never came from rep * x_2
    s = build_system(name)
    d = data.draw(st.sampled_from(range(3, s.rank)))
    cell = CosetKey(s, s.parabolic_gens(d), naive_word(s, word))
    face = data.draw(st.sampled_from(cell_faces(cell, 2)))
    quarter = naive_mat_mul(s.generators[0], s.generators[1])
    for square in (face, transform(naive_word(s, image), face)):
        corners = square_vertex_cycle(square)
        rep = square.rep
        for corner in corners:
            eager = CosetKey(s, s.parabolic_gens(0), rep)
            _assert_same_key(corner, eager, rep)
            rep = naive_mat_mul(rep, quarter)
        for k in (0, 1):
            assert tuple(map(radd, corners[k].vec, corners[k + 2].vec)) \
                == tuple(rscale(2, e) for e in square.vec)


def test_corner_offsets_touch_generators_0_and_1_only():
    for name in HYPERBOLIC:
        s = build_system(name)
        x = s.fixed_vectors
        quarter = naive_mat_mul(s.generators[0], s.generators[1])
        turn = _identity(s.rank)
        corners = []
        for q, offset in s.corner_turns:
            assert q == turn
            corners.append(naive_mat_vec(q, x[0]))
            assert offset == tuple(map(rsub, corners[-1], x[2]))
            assert offset[:2] != (RZERO, RZERO)
            assert offset[2:] == (RZERO,) * (s.rank - 2)
            turn = naive_mat_mul(turn, quarter)
        # opposite corners of the base square sum to twice its vector
        for k in (0, 1):
            assert tuple(map(radd, corners[k], corners[k + 2])) \
                == tuple(rscale(2, e) for e in x[2])


@settings(max_examples=60)
@given(st.sampled_from(HYPERBOLIC), words)
def test_time_orientation_reads_one_coordinate(name, word):
    # 4B x_2 is zero but at coordinate 2, so the sign of B(w x_2, x_2)
    # is read off coordinate 2 of the key's vector: it equals the sign of
    # the full dot with 4B x_2, for w in W and for -w
    s = build_system(name)
    centre = naive_mat_vec(s.bilinear4, s.fixed_vectors[2])
    assert centre == tuple(
        {"{4,3,5}": (4, 0, -2, 0), "{4,3,3,5}": (8, 0, -4, 0)}[name]
        if k == 2 else RZERO for k in range(s.rank))
    w = naive_word(s, word)
    gens = s.parabolic_gens(2)
    for rep, kept in ((w, True),
                      (tuple(tuple(map(rneg, row)) for row in w), False)):
        key = CosetKey(s, gens, rep)
        dot_form = rsign(naive_mat_vec((centre,), key.vec)[0]) < 0
        assert keeps_time_orientation(key) == dot_form == kept


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC), st.lists(ring_entries, min_size=2,
                                             max_size=2))
def test_corner_tables_are_the_key_of_a_product(name, entries):
    # corner 1 steps from the square's key by w[i][1] d_1[1] and corner 0
    # from corner 1 by w[i][0] d_0[0], as d_1 is zero at coordinate 0 and
    # agrees with d_0 at coordinate 1
    s = build_system(name)
    (d00, d01), (d10, d11) = (d[:2] for _, d in s.corner_turns[:2])
    assert d10 == RZERO and d01 == d11
    for table, e, x in zip(s.corner_tables, (d11, d00), entries):
        assert tuple(sum(map(operator.mul, row, x)) for row in table) \
            == ring_key(rmul(x, e))


@given(words)
def test_transform_equals_the_key_of_the_product(word):
    s = build_system("{4,3,5}")
    g = naive_word(s, word)
    cube = cell_faces(identity_cell(s, 2), 3)[0]
    rep = naive_mat_mul(g, cube.rep)
    _assert_same_key(transform(g, cube), CosetKey(s, cube.gens, rep), rep)


def test_square_corners_make_no_products(products):
    s = build_system("{4,3,5}")
    w = random_word(s, random.Random(5), 9)
    square = CosetKey(s, s.parabolic_gens(2), w)
    products[0] = 0
    assert len(square_vertex_cycle(square)) == 4
    assert products[0] == 0


def test_tree_build_and_write_product_count(products):
    # exact: each pants piece is placed by one product with an arm move,
    # its stem is the coset of that product, opposite faces and up
    # markers are closed-form images, keys come from fixed vectors and a
    # face's min_rep is taken from its factors; a reflection walk per
    # piece, a product by the identity for a stem, a face search or an
    # eager product anywhere on this path raises the count
    build_system("{4,3,5}")
    coxeter._parabolic.cache_clear()
    coxeter._transversal.cache_clear()
    products[0] = 0
    dumps_complex(tree_of_life_435(3))
    assert products[0] == 233


@pytest.fixture
def dots(monkeypatch):
    """Counts ring dot products made through coxeter._dot."""
    count = [0]
    inner = coxeter._dot

    def counted(row, col):
        count[0] += 1
        return inner(row, col)

    monkeypatch.setattr(coxeter, "_dot", counted)
    return count


def test_tree_write_dot_count(dots):
    # exact: the least matrices are pruned entry by entry and the square
    # faces' candidates are the transversal's columns of t P_2, formed
    # once per t; row pruning or a product per face raises the count
    build_system("{4,3,5}")
    coxeter._parabolic.cache_clear()
    coxeter._transversal.cache_clear()
    tree = tree_of_life_435(3)
    dots[0] = 0
    complex_to_jsonable(tree)
    assert dots[0] == 2837


def test_tree_load_and_classify_dot_counts(monkeypatch, dots, products):
    # exact: a load checks all its squares in one batch (_first_fault), on
    # int columns, and keys each square from the same entries, with no
    # ring product; classifying reads the corners off integer tables.  A
    # check per square, a dot for a key or a Gram entry, a preserves_form
    # call on a sound load or a product per corner raises them
    build_system("{4,3,5}")
    checks, batches = [0], [0]
    check, batch = coxeter.preserves_form, coxeter._first_fault

    def counted_check(*args):
        checks[0] += 1
        return check(*args)

    def counted_batch(*args):
        batches[0] += 1
        return batch(*args)

    monkeypatch.setattr(coxeter, "preserves_form", counted_check)
    monkeypatch.setattr(coxeter, "_first_fault", counted_batch)
    data = complex_to_jsonable(tree_of_life_435(3))
    assert len(data["squares"]) == 114
    dots[0] = products[0] = 0
    loaded = jsonable_to_complex(data)
    assert (batches[0], dots[0], checks[0], products[0]) == (1, 0, 0, 0)
    classify(loaded)
    assert (batches[0], dots[0], checks[0], products[0]) == (1, 0, 0, 0)


def test_only_proper_parabolics_are_enumerated(products):
    s = build_system("{4,3,5}")
    assert len(enumerate_parabolic(s, {0, 2})) == 4
    products[0] = 0
    for name in ALL_SYSTEMS:
        s = build_system(name)
        for gens in (range(s.rank), {0, s.rank}):
            with pytest.raises(ValueError, match="proper subset"):
                enumerate_parabolic(s, gens)
    assert products[0] == 0


def test_proper_subdiagrams_are_spherical():
    # the premise of enumerate_parabolic: the form restricted to any proper
    # subset of the generators is positive definite, so the parabolic is
    # a finite reflection group
    for name in ALL_SYSTEMS:
        s = build_system(name)
        for size in range(1, s.rank):
            for sub in itertools.combinations(range(s.rank), size):
                form = qf_matrix([[s.bilinear4[i][j] for j in sub]
                                  for i in sub])
                pivots, _ = eliminate(form)
                assert all(p.sign() > 0 for p in pivots), (name, sub)


# --- closed-form central symmetries and reflections ----------------------

def is_form_preserving_involution(system, g):
    return (_mat_mul(g, g) == _identity(system.rank)
            and _mat_mul(_mat_mul(tuple(zip(*g)), system.bilinear4), g)
            == system.bilinear4)


def test_central_symmetry_is_the_stabilizer_element_reversing_a_cube():
    s = build_system("{4,3,5}")
    rng = random.Random(3435)
    for cube in random_cells(s, 3, rng, 4):
        faces = cell_faces(cube, 2)
        found = [g for g in stabilizer(cube)
                 if all(transform(g, f) == opposite_face_search(cube, f)
                        for f in faces)]
        assert found == [central_symmetry(cube)]


def test_central_symmetry_needs_a_longest_element_of_minus_one():
    rng = random.Random(5)
    for name, d in (("{4,3,5}", 1), ("{4,3,3,5}", 2)):
        for cell in random_cells(build_system(name), d, rng, 3):
            with pytest.raises(ValueError):
                central_symmetry(cell)


def test_closed_forms_are_form_preserving_involutions():
    rng = random.Random(2435)
    for name, dims in (("{4,3,5}", (0, 2, 3)), ("{4,3,3,5}", (0, 1, 3, 4))):
        s = build_system(name)
        for d in dims:
            for cell in random_cells(s, d, rng, 3):
                g = central_symmetry(cell)
                assert is_form_preserving_involution(s, g)
                assert transform(g, cell) == cell
        for top in random_cells(s, s.rank - 1, rng, 2):
            for wall in cell_faces(top, s.rank - 2):
                g = reflection(top, neighbor(top, wall))
                assert is_form_preserving_involution(s, g)
                assert transform(g, wall) == wall
