"""Shared brute-force oracles for the test suite.

Everything here recomputes answers by definitions as blunt as possible, so
the library can be checked against code that shares none of its logic.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import comb, gcd, lcm

from gridforge.coxeter import (
    CosetKey, _identity, _mat_mul, cell_faces, enumerate_parabolic, neighbor,
)
from gridforge.field import QF, qf_from_ring

# Lines appended by the acceptance tests; conftest echoes them after the run.
ACCEPTANCE_LINES = []


def is_face_of(a, c):
    """Face relation between doubled-coordinate cells, straight from the
    definition: a face agrees with the cell on even coordinates and deviates
    by at most 1 on odd ones."""
    for x, y in zip(a, c):
        if y % 2 == 0:
            if x != y:
                return False
        elif x not in (y - 1, y, y + 1):
            return False
    return True


def cell_dim(key):
    return sum(1 for x in key if x % 2)


def brute_faces(key, k):
    """Enumerate the +-1 box around the cell and keep the k-faces."""
    ranges = [(x - 1, x, x + 1) for x in key]
    out = set()
    for cand in itertools.product(*ranges):
        if cell_dim(cand) == k and is_face_of(cand, key):
            out.add(cand)
    return out


def brute_cofaces(key, k):
    ranges = [(x - 1, x, x + 1) for x in key]
    out = set()
    for cand in itertools.product(*ranges):
        if cell_dim(cand) == k and is_face_of(key, cand):
            out.add(cand)
    return out


def gf2_rank(rows):
    """Rank over GF(2) of a list of int bitmasks."""
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def solid_betti_numbers(cubes, faces=None):
    """GF(2) Betti numbers b0, b1, b2 of a union of solid unit cubes.

    Builds the full cubical chain complex (vertices, edges, squares, cubes
    of the union) and row-reduces the boundary matrices.  faces(cell, k)
    lists a cell's k-faces: lattice.faces for cubes of Z^3 (the default),
    coxeter.cell_faces for cubes of a honeycomb.
    """
    if faces is None:
        from gridforge.lattice import faces

    cubes = set(cubes)
    squares = sorted({f for c in cubes for f in faces(c, 2)})
    edges = sorted({f for s in squares for f in faces(s, 1)})
    verts = sorted({f for e in edges for f in faces(e, 0)})
    v_idx = {v: i for i, v in enumerate(verts)}
    e_idx = {e: i for i, e in enumerate(edges)}
    s_idx = {s: i for i, s in enumerate(squares)}

    d1 = [sum(1 << v_idx[v] for v in faces(e, 0)) for e in edges]
    d2 = [sum(1 << e_idx[x] for x in faces(s, 1)) for s in squares]
    d3 = [sum(1 << s_idx[x] for x in faces(c, 2)) for c in sorted(cubes)]
    r1, r2, r3 = gf2_rank(d1), gf2_rank(d2), gf2_rank(d3)
    b0 = len(verts) - r1
    b1 = (len(edges) - r1) - r2
    b2 = (len(squares) - r2) - r3
    return b0, b1, b2


def random_polyomino(rng, n_cubes):
    """Grow a random face-connected set of unit cubes in Z^3."""
    cubes = {(1, 1, 1)}
    steps = [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]
    while len(cubes) < n_cubes:
        base = rng.choice(sorted(cubes))
        d = rng.choice(steps)
        cubes.add((base[0] + d[0], base[1] + d[1], base[2] + d[2]))
    return cubes


def solid_is_well_composed(cubes):
    """True when no diagonal edge or antipodal vertex configuration occurs.

    A union of cubes has a manifold boundary exactly when, around every
    lattice edge, the four surrounding cubes are not filled in a checker
    pattern, and around every lattice vertex the filled octants are not
    exactly an antipodal pair (nor all but an antipodal pair).
    """
    cubes = set(cubes)
    edges = {e for c in cubes for e in brute_faces(c, 1)}
    for e in edges:
        u, v = [i for i, x in enumerate(e) if x % 2 == 0]
        pattern = []
        for du, dv in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            q = list(e)
            q[u] += du
            q[v] += dv
            pattern.append(tuple(q) in cubes)
        if sum(pattern[i] != pattern[(i + 1) % 4] for i in range(4)) == 4:
            return False
    verts = {w for c in cubes for w in brute_faces(c, 0)}
    for w in verts:
        octants = brute_cofaces(w, 3)
        present = [o for o in octants if o in cubes]
        absent = [o for o in octants if o not in cubes]
        for pair in (present, absent):
            if len(pair) == 2 and all(a != b for a, b in zip(*pair)):
                return False
    return True


def orientation_flip(cyc_a, cyc_b):
    """+1 if the shared edge is traversed oppositely (orientations agree),
    -1 if traversed the same way; None if no shared edge."""
    def directed(cyc):
        return [(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]

    for u, v in directed(cyc_a):
        if (u, v) in directed(cyc_b):
            return -1
        if (v, u) in directed(cyc_b):
            return +1
    return None


def brute_counts(squares):
    """(V, E, F) of a set of doubled-coordinate squares, collecting the
    vertices and edges of each square by the face relation."""
    verts = set()
    edges = set()
    for s in squares:
        verts |= brute_faces(s, 0)
        edges |= brute_faces(s, 1)
    return len(verts), len(edges), len(set(squares))


def brute_surface_check(cycles):
    """Local surface test of squares given as cyclic vertex 4-tuples.

    Returns the edges (as frozensets) that lie in more than two squares,
    the vertices whose link is not a single cycle or path, and, when there
    are neither, whether the squares can be oriented coherently (else
    None).  Every square is compared with every other one.
    """
    def sides(cyc):
        return [frozenset((cyc[i], cyc[(i + 1) % 4])) for i in range(4)]

    def directed(cyc):
        return [(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]

    count = {}
    for cyc in cycles:
        for e in sides(cyc):
            count[e] = count.get(e, 0) + 1
    bad_edges = {e for e, m in count.items() if m > 2}
    bad_vertices = set()
    for v in {v for cyc in cycles for v in cyc}:
        # the link of v: a node per edge at v, an arc per square at v
        arcs = [[e for e in sides(cyc) if v in e] for cyc in cycles
                if v in cyc]
        nodes = {e for arc in arcs for e in arc}
        reached = set(arcs[0])
        while True:
            more = {e for arc in arcs if reached & set(arc) for e in arc}
            if more <= reached:
                break
            reached |= more
        too_many = any(sum(e in arc for arc in arcs) > 2 for e in nodes)
        if too_many or reached != nodes:
            bad_vertices.add(v)
    if bad_edges or bad_vertices:
        return bad_edges, bad_vertices, None
    # orientation: a shared edge run the same way by both squares means
    # that one of them must be flipped
    flip = {}
    for start in range(len(cycles)):
        if start in flip:
            continue
        flip[start] = False
        todo = [start]
        while todo:
            a = todo.pop()
            for b, cyc in enumerate(cycles):
                for u, w in directed(cycles[a]):
                    if b == a or {(u, w), (w, u)}.isdisjoint(directed(cyc)):
                        continue
                    want = flip[a] ^ ((u, w) in directed(cyc))
                    if b not in flip:
                        flip[b] = want
                        todo.append(b)
                    elif flip[b] != want:
                        return bad_edges, bad_vertices, False
    return bad_edges, bad_vertices, True


def brute_boundary_circles(cycles):
    """Number of connected pieces of the edges that lie in exactly one of
    the squares (cyclic vertex 4-tuples), found by flood fill.  On a
    surface each piece is one boundary circle."""
    count = {}
    for cyc in cycles:
        for i in range(4):
            e = frozenset((cyc[i], cyc[(i + 1) % 4]))
            count[e] = count.get(e, 0) + 1
    todo = {e for e, m in count.items() if m == 1}
    pieces = 0
    while todo:
        pieces += 1
        front = [todo.pop()]
        while front:
            e = front.pop()
            touching = {f for f in todo if e & f}
            todo -= touching
            front += touching
    return pieces


def coface_count(d, k, n):
    """Number of k-cofaces of a d-cell in the tiling of Z^n, in closed form."""
    if k < d or k > n:
        return 0
    return comb(n - d, k - d) * 2 ** (k - d)


def hypercube_graph_distance(a, b, limit):
    """Length of the shortest wall-crossing path between two hypercubes,
    by breadth-first search; None if farther than `limit`."""
    if a == b:
        return 0
    seen = {a}
    queue = deque([(a, 0)])
    while queue:
        h, d = queue.popleft()
        if d == limit:
            continue
        for wall in cell_faces(h, 3):
            nxt = neighbor(h, wall)
            if nxt == b:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    return None


SQRT2 = QF(0, 1)
SQRT5 = QF(0, 0, 1)
PHI = QF(Fraction(1, 2), 0, Fraction(1, 2))

_COS_PI = {
    1: QF(-1),
    2: QF(0),
    3: QF(Fraction(1, 2)),
    4: QF(0, Fraction(1, 2)),
    5: QF(Fraction(1, 4), 0, Fraction(1, 4)),
}


def cos_pi(m):
    """cos(pi/m) as an exact QF, for m in {1, 2, 3, 4, 5}."""
    try:
        return _COS_PI[m]
    except KeyError:
        raise ValueError(f"cos(pi/{m}) is outside Q(sqrt2, sqrt5)") from None


def ring_from_qf(v):
    """Convert a QF to ring coordinates; raises if it is not in the subring."""
    r = 2 * v.c
    s = 2 * v.d
    p = v.a - v.c
    q = v.b - v.d
    for t in (p, q, r, s):
        if t.denominator != 1:
            raise ValueError(f"{v!r} is not in Z[sqrt2, phi]")
    return (int(p), int(q), int(r), int(s))


def qf_matrix(m):
    return [[qf_from_ring(e) for e in row] for row in m]


def eliminate(m):
    """Ordered Gauss-Jordan elimination of a symmetric QF matrix.

    Rows are never swapped, so pivot k is the ratio of the leading
    principal minors of orders k + 1 and k: the pivot signs give the
    signature, and a zero last pivot means m is singular.  Returns
    (pivots, inverse), the inverse being None in that singular case; a
    zero pivot before the last one raises.
    """
    n = len(m)
    a = [list(row) + [QF(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    pivots, inverses = [], []
    for col in range(n):
        pivots.append(a[col][col])
        if not pivots[-1]:
            if col < n - 1:
                raise AssertionError("unexpected zero leading minor")
            return pivots, None
        inverses.append(pivots[-1].inverse())
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inverses[col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
    for col in reversed(range(n)):
        a[col] = [x * inverses[col] for x in a[col]]
        for r in range(col):
            if a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
    return pivots, [row[n:] for row in a]


def qf_form(system):
    """The bilinear form B_ij = -cos(pi/m_ij) of a linear diagram, from
    its labels: m_ii = 1, m = the label between neighbours, else 2."""
    labels = system.labels

    def m_of(i, j):
        if i == j:
            return 1
        return labels[min(i, j)] if abs(i - j) == 1 else 2

    return [[-cos_pi(m_of(i, j)) for j in range(system.rank)]
            for i in range(system.rank)]


def qf_fixed_vectors(system):
    """The fixed vectors of a hyperbolic system from the columns of B^-1.

    Column i of the inverse spans the line fixed by P_i.  It is scaled to
    end in 1, its denominators are cleared and its coordinates divided by
    their gcd, and its sign makes B(e_i, x_i) positive.
    """
    form = qf_form(system)
    inverse = qf_mat_inverse(form)
    out = []
    for i in range(system.rank):
        last = inverse[-1][i].inverse()
        x = [row[i] * last for row in inverse]
        denom = lcm(*(c.denominator for v in x
                           for c in (v.a, v.b, v.c, v.d)))
        vec = [ring_from_qf(QF(2 * denom) * v) for v in x]
        g = gcd(*(t for e in vec for t in e))
        vec = tuple(tuple(t // g for t in e) for e in vec)
        pairing = sum((form[i][k] * qf_from_ring(vec[k])
                       for k in range(system.rank)), QF(0))
        assert pairing
        if pairing.sign() < 0:
            vec = tuple(tuple(-t for t in e) for e in vec)
        out.append(vec)
    return tuple(out)


def qf_mat_inverse(m):
    """Exact inverse of a square QF matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(row) + [QF(1) if i == j else QF(0) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col].inverse()
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def mat_inverse(m):
    """Inverse of a group element, returned in ring coordinates."""
    inv = qf_mat_inverse(qf_matrix(m))
    return tuple(tuple(ring_from_qf(x) for x in row) for row in inv)


def stabilizer(cell):
    """Elements of W fixing the cell, as ring matrices."""
    w_inv = mat_inverse(cell.rep)
    return tuple(_mat_mul(_mat_mul(cell.rep, p), w_inv)
                 for p in enumerate_parabolic(cell.system, cell.gens))


def random_word(system, rng, length):
    w = _identity(system.rank)
    for _ in range(length):
        w = _mat_mul(w, system.generators[rng.randrange(system.rank)])
    return w


def random_cells(system, d, rng, count):
    """`count` d-cells with representatives of random length below 9."""
    gens = system.parabolic_gens(d)
    return [CosetKey(system, gens, random_word(system, rng, rng.randrange(9)))
            for _ in range(count)]


def opposite_face_search(cell, face):
    """The face of `cell` sharing no vertex with `face`.

    In a cube or hypercube this picks out the unique parallel facet, and
    likewise the far edge of a square.
    """
    verts = set(cell_faces(face, 0))
    found = [f for f in cell_faces(cell, face.dim)
             if f != face and not verts & set(cell_faces(f, 0))]
    if len(found) != 1:
        raise ValueError(f"cell has {len(found)} faces opposite to {face!r}")
    return found[0]


def edge_parallel_class_search(cube, edge):
    """Edges of the cube reachable by repeatedly jumping to the far side
    of a shared square: the 4 parallel edges of a combinatorial cube."""
    squares = cell_faces(cube, 2)
    seen = {edge}
    frontier = [edge]
    while frontier:
        e = frontier.pop()
        for sq in squares:
            if e in cell_faces(sq, 1):
                far = opposite_face_search(sq, e)
                if far not in seen:
                    seen.add(far)
                    frontier.append(far)
    return sorted(seen)


def transport_up_search(up, wall, next_cube):
    """Carry an "up" face marker through a shared wall into the next cube.

    The marker and the wall share one edge; of the two faces of the next
    cube along that edge, one is the wall itself and the other is the
    transported marker.
    """
    shared = set(cell_faces(up, 1)) & set(cell_faces(wall, 1))
    if len(shared) != 1:
        raise AssertionError("up marker must be adjacent to the wall")
    edge = shared.pop()
    found = [f for f in cell_faces(next_cube, 2)
             if f != wall and edge in cell_faces(f, 1)]
    if len(found) != 1:
        raise AssertionError("wall edge should lie in exactly 2 faces")
    return found[0]
