"""Reflection groups of the cubical honeycombs, with exact arithmetic.

A honeycomb with Schlafli symbol {4,3,...,c} is governed by the Coxeter
group W generated by reflections s_0..s_{r-1} in the walls of a simplex
chamber.  Cells of the honeycomb correspond to cosets of the maximal
standard parabolic subgroups: a d-dimensional cell is a coset w P_d where
P_d is generated by all reflections except s_d.  Vertices omit s_0, top
cells omit s_{r-1}.

Everything is computed exactly.  Reflection matrices live in the subring
Z[sqrt2, phi] (see gridforge.field), so group elements are tuples of
integer 4-tuples and never suffer rounding.  Only the hyperbolic systems
key their cells as cosets: their bilinear form is invertible, so a coset
is identified by an exact fixed-point vector, and its canonical matrix is
its lexicographically least one.  The cells of a Euclidean system are
lattice keys (gridforge.lattice); its group serves incidence counts only.
Every diagram here is linear, so the ring matrix 4B of the bilinear form
is tridiagonal, and its principal minors follow a continuant recurrence
in ring arithmetic.  The signs of the leading minors tell the two kinds
apart: they give the signature, and a zero determinant marks an affine
system.  The fixed vectors are columns of the adjugate of 4B, a product
of leading and trailing minors, made primitive by an exact division.
The reflection exchanging two cells of a hyperbolic system is formed in
closed form from their fixed vectors, and so is the central symmetry of
a cell, which swaps each of its faces with the opposite one.

Ring-matrix products are the dominant cost, so they are formed only where
a matrix is read.  A hyperbolic cell reached from another one, as a face
or an image, is keyed by one matrix-vector product rep * x_d and keeps
its representative as a pair of factors, multiplied on first read.  The
corners of a square are keyed from the square's own key, as plain tuples
(corner_keys): each lies at a constant offset from the square's vector
that reads two columns of the representative, through integer tables
formed once per system, and opposite corners sum to twice it.  A corner
becomes a vertex cell only when one is asked for (corner_vertex).
Loaded matrices are checked and keyed in one batch per document
(square_keys), a column of ints across all of them at a time.  Each must
pass the twist test: the twist M -> D sigma(M) D, for the automorphism
sigma: sqrt2 -> -sqrt2 and D = diag(-1, 1, ..., 1), fixes every element
of W, which makes each entry lie in Z[phi] or in sqrt2 Z[phi] by its
place.  The test is necessary only: a matrix that passes is not known to
lie in W.  Conjugated by diag(sqrt2, 1, ..., 1), such a matrix is one
over Z[phi], and whether it preserves the form is decided exactly on the
upper half of its Gram matrix, mapped into the integers modulo
N = F^2 - F - 1 by phi -> F = 2^K, with K chosen from the document's
largest coordinate so that no difference of Z[phi] elements it meets
vanishes mod N unless it is zero.  Whether it keeps the time orientation
is read off one coordinate of its key vector, formed from the same
entries.  Only a matrix that fails is checked again, to name its fault,
by preserves_form: the definition m^T 4B m = 4B in two ring-matrix
products, which also checks the generators when a system is set up.

The least matrix of a coset, its canonical form, is read over Z[phi] in
the same way, with no ring product (least_reps).  The keys that share a
set of candidates p, the parabolic or, for a face w t P_j, the columns
of t P_j that the transversal keeps, form one batch.  The entries of the
products w p are compared one at a time, row-major, each as a column of
ints across the keys, and each key goes on only with its candidates
still tied for least; the least products are then formed a column of
the matrices at a time.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce, total_ordering
from itertools import chain, compress, product, repeat, starmap
from operator import add, eq, itemgetter, lshift, mod, mul, rshift

from gridforge.field import (
    RONE, RZERO, radd, rcofactor, ring_key, rmul, rneg, rscale, rsign, rsub,
)

SYSTEM_LABELS = {
    "{4,4}": (4, 4),
    "{4,3,4}": (4, 3, 4),
    "{4,3,3,4}": (4, 3, 3, 4),
    "{4,3,5}": (4, 3, 5),
    "{4,3,3,5}": (4, 3, 3, 5),
}

# 2 cos(pi/m) = n * unit as (unit index, n): the unit 1, sqrt2 or phi,
# by its index in the ring basis (1, sqrt2, phi, sqrt2*phi).  m = 1 is the
# diagonal of a Coxeter matrix and m = 2 a pair of commuting generators.
_TWO_COS = {1: (0, -2), 2: (0, 0), 3: (0, 1), 4: (1, 1), 5: (2, 1)}


def _unit(u, n):
    """n times the basis element of index u, as a ring element."""
    return tuple(n if t == u else 0 for t in range(4))


def _dot(row, col):
    """Sum of row[k] * col[k] over Z[sqrt2, phi], skipping zero terms.

    The product of two ring elements is field.rmul written out inline;
    phi^2 = phi + 1 and sqrt2^2 = 2 give the four coordinates.
    """
    a = b = c = d = 0
    for x, y in zip(row, col):
        if x != RZERO and y != RZERO:
            p1, q1, r1, s1 = x
            p2, q2, r2, s2 = y
            rr = r1 * r2
            ss = s1 * s2
            rs = r1 * s2 + s1 * r2
            a += p1 * p2 + rr + 2 * (q1 * q2 + ss)
            b += p1 * q2 + q1 * p2 + rs
            c += p1 * r2 + r1 * p2 + rr + 2 * (q1 * s2 + s1 * q2 + ss)
            d += p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2 + rs
    return (a, b, c, d)


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple([tuple([_dot(row, col) for col in cols]) for row in a])


def _mat_vec(m, v):
    return tuple([_dot(row, v) for row in m])


def _identity(rank):
    return tuple(tuple(RONE if i == j else RZERO for j in range(rank))
                 for i in range(rank))


def matrix_key(m):
    """Entry-lexicographic key: coefficients in the order (1, sqrt2,
    sqrt5, sqrt10), row-major."""
    return tuple(ring_key(e) for row in m for e in row)


def _leading_minors(t):
    """Leading principal minors theta_0 = 1, theta_1, ..., theta_n of a
    symmetric tridiagonal ring matrix t, by the continuant recurrence
    theta_k = t[k-1][k-1] theta_{k-1} - t[k-2][k-1]^2 theta_{k-2}."""
    minors = [RONE, t[0][0]]
    for k in range(1, len(t)):
        b = t[k - 1][k]
        minors.append(rsub(rmul(t[k][k], minors[k]),
                           rmul(rmul(b, b), minors[k - 1])))
    return minors


def _pivot_signs(minors):
    """Signs of the pivots theta_{k+1} / theta_k of an elimination without
    row swaps, from the leading minors theta_0..theta_n.  Their counts
    give the signature, and a zero last pivot means the matrix is
    singular; a zero minor before the last raises."""
    signs = [rsign(t) for t in minors]
    if 0 in signs[:-1]:
        raise AssertionError("unexpected zero leading minor")
    return [a * b for a, b in zip(signs, signs[1:])]


def preserves_form(system, m):
    """Whether the ring matrix m preserves the bilinear form: m^T 4B m = 4B."""
    b4 = system.bilinear4
    return _mat_mul(tuple(zip(*m)), _mat_mul(b4, m)) == b4


def keeps_time_orientation(square):
    """Whether the rep w of a square key keeps the future light cone, as
    W does: B(w x_2, x_2) < 0 for the timelike centre x_2.  A matrix that
    preserves the form keeps the cone or swaps it with the past, as -w.

    4B x_2 is zero but at coordinate 2 (CoxeterSystem checks it), so the
    sign of B(w x_2, x_2) is that of coordinate 2 of vec = w x_2 times
    that of the one entry of 4B x_2.
    """
    return rsign(square.vec[2]) * square.system._centre_sign < 0


def _twist_fault(m):
    """The first entry (i, j) of the ring matrix m, row by row, that
    fails the twist test, or None.  An entry in row 0 or column 0, but
    not both, must be sqrt2 times an element of Z[phi]: p = r = 0.  Every
    other entry must lie in Z[phi]: q = s = 0."""
    for i, row in enumerate(m):
        for j, (p, q, r, s) in enumerate(row):
            if (p or r) if (i == 0) != (j == 0) else (q or s):
                return i, j
    return None


def _over_phi(x, k):
    """x sqrt2^k as (a, b), for a + b phi, when it lies in Z[phi], for a
    ring element x and an integer k; raises AssertionError if not."""
    for _ in range(abs(k)):
        x = rmul(x, (0, 1, 0, 0))
    d = 1 << max(-k, 0)
    p, q, r, s = x
    if q or s or p % d or r % d:
        raise AssertionError(f"{x} sqrt2^{k} leaves Z[phi]")
    return p // d, r // d


def _add_columns(columns):
    """The entrywise sum of int columns, as a lazy iterator."""
    return reduce(partial(map, add), columns)


def _first_twist_fault(system, coords):
    """The position of the first of the matrices whose coordinates coords
    lists (as square_keys reads them) that fails the twist test, or None:
    a column of the document at a time, each offset of _twist_zeros."""
    size = 4 * system.rank * system.rank
    faults = [next(m for m, x in enumerate(col) if x)
              for col in (coords[o::size] for o in system._twist_zeros)
              if any(col)]
    return min(faults, default=None)


def _first_fault(system, coords, parts, vecs):
    """The position of the first representative in coords that fails the
    twist test, the Gram check or the time orientation, or None; parts
    and vecs are those square_keys formed for them.

    Each test reads one column of the document at a time: coordinate t
    of entry (i, j) of every representative is coords[4 (i r + j) + t ::
    4 r^2] for rank r.  The Gram check conjugates each representative M
    that passes the twist test by Delta = diag(sqrt2, 1, ..., 1) into
    M' = Delta M Delta^-1 over Z[phi], and compares M'^T B'' M' with
    B'' = Delta^-1 4B Delta^-1 on and above the diagonal, through the
    ring homomorphism Z[phi] -> Z/N that sends phi to F = 2^K, with
    N = F^2 - F - 1.  With c the largest |coordinate| of the parts, an
    entry of M' has both coordinates at most 2c, and one of B'' at most
    4, so one of M'^T B'' M' - B'' has both at most 144 r^2 c^2 + 4.  A
    difference u + v phi whose image is 0 mod N, with |u|, |v| < F/2,
    is zero, so F > 288 r^2 c^2 + 8 makes the check exact.
    """
    rank = system.rank
    count = len(vecs)
    twist = _first_twist_fault(system, coords)
    faults = [count if twist is None else twist]
    flat = list(chain.from_iterable(parts))
    c = max(max(map(max, flat)), -min(map(min, flat)))
    k = (288 * rank * rank * c * c + 8).bit_length()
    f = 1 << k
    n = f * f - f - 1
    # column j of M': its entry i of every representative, as a + b F
    cols = [[None] * rank for _ in range(rank)]
    for t, (a, b) in enumerate(parts):
        i, j = divmod(t, rank)
        double = i == 0 < j
        b = map(lshift, b, repeat(k + double))
        if double:
            a = map(lshift, a, repeat(1))
        cols[j][i] = list(map(add, a, b))
    form = [[(t, a + (b << k)) for t, (a, b) in enumerate(row) if a or b]
            for row in system._twisted_gram]
    for j, col in enumerate(cols):
        image = [list(_add_columns([map(mul, col[t], repeat(e))
                                    for t, e in row]))
                 for row in form]
        for i in range(j + 1):
            gram = list(map(mod, _add_columns(map(map, repeat(mul), cols[i],
                                                  image)), repeat(n)))
            a, b = system._twisted_gram[i][j]
            want = (a + (b << k)) % n
            if not {want}.issuperset(gram):
                faults.append(next(m for m, g in enumerate(gram)
                                   if g != want))
    past = -system._centre_sign
    if not {past}.issuperset(map(rsign, map(itemgetter(2), vecs))):
        faults.append(next(m for m, v in enumerate(vecs)
                           if rsign(v[2]) != past))
    first = min(faults)
    return None if first == count else first


def square_keys(system, coords):
    """The square cells w P_2 of the system for the ring matrices w whose
    integer coordinates coords lists, in order: each w row by row, each
    entry as its 4 coordinates.

    Each w must preserve the form (preserves_form), keep the time
    orientation (keeps_time_orientation) and pass the twist test.  The
    twist w -> D sigma(w) D, with sigma the automorphism sqrt2 -> -sqrt2
    and D = diag(-1, 1, ..., 1), is multiplicative and fixes every
    generator, so it fixes every element of W (CoxeterSystem checks the
    generators): an entry in row 0 or column 0, but not both, has
    p = r = 0, and every other entry q = s = 0.  The test is necessary
    only: a matrix that passes all three is not known to lie in W.

    All representatives are checked in one batch (_first_fault), a
    column of the document at a time, the form through an exact Gram
    check modulo an integer chosen from the document's largest
    coordinate.  Only the first representative that fails is checked
    again with preserves_form and keeps_time_orientation, to name its
    fault in that order, the twist last: ValueError names it by its
    position, squares[i].  The vector w x_2 of each key is formed
    from the same entries, twisted to Z[phi], with no general ring
    product.
    """
    rank = system.rank
    size = 4 * rank * rank
    it = iter(coords)
    mats = list(zip(*[zip(*[zip(*[it] * 4)] * rank)] * rank))
    if not mats:
        return []
    # per entry, the columns of the coordinates (a, b) of its part
    parts = [(coords[oa::size], coords[ob::size])
             for oa, ob in system._twist_parts]
    # w x_2 by rows: row 0 is sqrt2 (u + v phi), row i > 0 is u + v phi
    rows = []
    for i, terms in enumerate(system._centre_terms):
        u, v = [], []
        for t, x, y in terms:
            a, b = parts[t]
            u += [map(mul, col, repeat(e))
                  for col, e in ((a, x), (b, y)) if e]
            v += [map(mul, col, repeat(e))
                  for col, e in ((a, y), (b, x + y)) if e]
        u, v, zero = _add_columns(u), _add_columns(v), repeat(0)
        rows.append(zip(zero, u, zero, v) if i == 0
                    else zip(u, zero, v, zero))
    vecs = list(zip(*rows))
    gens = system.parabolic_gens(2)
    bad = _first_fault(system, coords, parts, vecs)
    if bad is not None:
        mat = mats[bad]
        if not preserves_form(system, mat):
            why = "matrix does not preserve the bilinear form"
        elif not keeps_time_orientation(CosetKey(system, gens, mat)):
            why = "matrix reverses the time orientation"
        else:
            why = _outside_w(mat)
        raise ValueError(f"squares[{bad}]: {why}")
    return [CosetKey(system, gens, mat, vec) for mat, vec in zip(mats, vecs)]


def _key_table(e):
    """The integer matrix of x -> ring_key(x e) for a ring element e, a
    linear map of the coordinates of x: 4 rows, one per key coordinate."""
    return tuple(zip(*[ring_key(rmul(_unit(u, 1), e)) for u in range(4)]))


class CoxeterSystem:
    """A linear-diagram Coxeter system with verified exact matrices."""

    def __init__(self, name):
        if name not in SYSTEM_LABELS:
            raise ValueError(f"unknown system {name!r}; known: "
                             + ", ".join(sorted(SYSTEM_LABELS)))
        labels = SYSTEM_LABELS[name]
        rank = len(labels) + 1
        self.name = name
        self.labels = labels
        self.rank = rank
        # the dimension of a cell from its parabolic's generators
        self.cell_dims = {self.parabolic_gens(d): d for d in range(rank)}

        def m_of(i, j):
            if i == j:
                return 1
            if abs(i - j) == 1:
                return labels[min(i, j)]
            return 2

        two_cos = [[_TWO_COS[m_of(i, k)] for k in range(rank)]
                   for i in range(rank)]
        # 4B = -4 cos(pi/m_ik) has all entries in the integer ring, enabling
        # exact B-preservation checks on ring matrices
        self.bilinear4 = b4 = tuple(
            tuple(_unit(u, -2 * n) for u, n in row) for row in two_cos)
        # s_i e_k = e_k + 2 cos(pi/m_ik) e_i: row i of the identity moves
        ident = _identity(rank)
        gens = []
        for i in range(rank):
            row = map(radd, ident[i], (_unit(u, n) for u, n in two_cos[i]))
            gens.append(ident[:i] + (tuple(row),) + ident[i + 1:])
        self.generators = tuple(gens)

        self._verify(m_of)
        # the diagram is linear, so 4B is tridiagonal
        lead = _leading_minors(b4)
        pivots = _pivot_signs(lead)
        self.affine = pivots[-1] == 0
        if self.affine:
            # a Euclidean system has lattice cells, not cosets
            self.fixed_vectors = self.corner_turns = None
            self.corner_tables = self._centre_sign = None
            return
        sig = (pivots.count(1), pivots.count(-1))
        if sig != (rank - 1, 1):
            raise AssertionError(f"{name}: expected signature "
                                 f"({rank - 1}, 1), got {sig}")
        # the trailing minors, of the rows k.., are those of 4B reversed
        trail = _leading_minors(tuple(row[::-1] for row in b4[::-1]))[::-1]
        self.fixed_vectors = x = tuple(self._fixed_vector(lead, trail, i)
                                       for i in range(rank))
        # 4B x_2, the form against a square's centre, is zero but at
        # coordinate 2, as x_2 is B-orthogonal to every e_j with j != 2;
        # the sign of that entry is kept (keeps_time_orientation)
        centre = _mat_vec(b4, x[2])
        if [k for k, e in enumerate(centre) if e != RZERO] != [2]:
            raise AssertionError("4B x_2 is not a multiple of e_2")
        self._centre_sign = rsign(centre[2])
        # the twist test (square_keys): every generator passes it, so
        # every element of W does.  Per entry, row by row, the offsets in
        # a representative's 4 r^2 coordinates of the two that must be
        # zero, and of the two (a, b) of its part a + b phi over Z[phi],
        # which the entry is sqrt2 times in row 0 or column 0 but not both
        if any(_twist_fault(g) is not None for g in gens):
            raise AssertionError("a generator fails the twist test")
        self._twist_zeros, self._twist_parts = zeros, parts = [], []
        for i in range(rank):
            for j in range(rank):
                o = 4 * (i * rank + j)
                edge = (i == 0) != (j == 0)
                zeros += (o, o + 2) if edge else (o + 1, o + 3)
                parts.append((o + 1, o + 3) if edge else (o, o + 2))
        # B'' = Delta^-1 4B Delta^-1 over Z[phi] for Delta = diag(sqrt2,
        # 1, ...); doubled in M' = Delta M Delta^-1 are the entries
        # (0, j > 0) of M's parts
        self._twisted_gram = tuple(
            tuple(_over_phi(e, -(i == 0) - (j == 0))
                  for j, e in enumerate(row))
            for i, row in enumerate(b4))
        # w x_2 row by row from the parts: x_2 = (sqrt2 xi_0, xi_1, ...)
        # over Z[phi], so row 0 is sqrt2 times the sum of the parts times
        # the xi_j, and row i > 0 that sum with its term j = 0 doubled
        xi = [_over_phi(e, -(j == 0)) for j, e in enumerate(x[2])]
        doubled = [(2 * xi[0][0], 2 * xi[0][1])] + xi[1:]
        self._centre_terms = tuple(
            tuple((i * rank + j, xa, xb)
                  for j, (xa, xb) in enumerate(doubled if i else xi)
                  if xa or xb)
            for i in range(rank))
        # q = s_0 s_1 turns the base square a quarter: the corners of a
        # square w P_2 are the vertices w q^k P_0 (see corner_keys).
        # Each turn q^k is kept with the offset d_k = q^k x_0 - x_2 of its
        # corner from the square's center.  The corners rely on three facts,
        # checked here: d_k is zero past the coordinates 0 and 1, opposite
        # offsets cancel (x_0 + q^2 x_0 = q x_0 + q^3 x_0 = 2 x_2), and the
        # 4 offsets are distinct, so every square has 4 distinct corners.
        quarter = _mat_mul(gens[0], gens[1])
        turns = [ident, quarter]
        for _ in range(2):
            turns.append(_mat_mul(turns[-1], quarter))
        offsets = [tuple(map(rsub, _mat_vec(q, x[0]), x[2])) for q in turns]
        for k, d in enumerate(offsets):
            if any(e != RZERO for e in d[2:]):
                raise AssertionError(f"corner offset {k} leaves the "
                                     "coordinates 0 and 1")
            if any(e != RZERO for e in map(radd, d, offsets[k - 2])):
                raise AssertionError(f"corners {k} and {(k + 2) % 4} are "
                                     "not opposite")
        if len(set(offsets)) != 4:
            raise AssertionError("corner offsets are not distinct")
        # s_1 fixes x_0, so q x_0 = s_0 x_0 moves x_0 along e_0 alone and
        # d_1 - d_0 is zero past coordinate 0; d_1 is zero there too
        (d00, d01), (d10, d11) = offsets[0][:2], offsets[1][:2]
        if d10 != RZERO or d01 != d11:
            raise AssertionError("corner 1 is not corner 0 moved along "
                                 "coordinate 0")
        self.corner_turns = tuple(zip(turns, offsets))
        # corner 1 lies at w[i][1] d_1[1] from the square's vector in row
        # i, and corner 0 at w[i][0] d_0[0] from corner 1: the integer
        # tables of those two steps on keys (see corner_keys)
        self.corner_tables = (_key_table(d11), _key_table(d00))

    def _verify(self, m_of):
        ident = _identity(self.rank)
        for i, g in enumerate(self.generators):
            if _mat_mul(g, g) != ident:
                raise AssertionError(f"generator {i} is not an involution")
            if not preserves_form(self, g):
                raise AssertionError(f"generator {i} does not preserve the form")
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = m_of(i, j)
                prod = _mat_mul(self.generators[i], self.generators[j])
                power = prod
                order = 1
                while power != ident:
                    power = _mat_mul(power, prod)
                    order += 1
                    if order > m:
                        raise AssertionError(f"(s{i} s{j}) exceeds order {m}")
                if order != m:
                    raise AssertionError(
                        f"(s{i} s{j}) has order {order}, expected {m}")

    def _fixed_vector(self, lead, trail, i):
        """Primitive ring vector spanning the intersection of the kernels
        of B(e_j, .) for j != i; its stabiliser in W is exactly P_i.

        Column i of adj(4B) spans that line, since 4B adj(4B) = det(4B) I.
        With lo, hi = min(i, j), max(i, j), its entry j is lead[lo] *
        trail[hi + 1] times -4B[t][t + 1] for lo <= t < hi, lead and trail
        being the leading minors and those of the rows k.. (Usmani, Linear
        Algebra Appl. 212/213, 1994, for a tridiagonal matrix).  Times the
        other conjugates of its last entry, the column is a rational
        multiple of the column scaled to end in 1; divided by the gcd of
        its coordinates it is primitive, which fixes it up to sign.
        """
        b4 = self.bilinear4
        col = []
        for j in range(self.rank):
            lo, hi = sorted((i, j))
            e = rmul(lead[lo], trail[hi + 1])
            for t in range(lo, hi):
                e = rmul(e, rneg(b4[t][t + 1]))
            col.append(e)
        m = rcofactor(col[-1])
        vec = [rmul(e, m) for e in col]
        g = math.gcd(*(t for e in vec for t in e))
        vec = tuple(tuple(t // g for t in e) for e in vec)
        pairing = rsign(_dot(b4[i], vec))
        if not pairing:
            raise AssertionError("fixed vector degenerate against its wall")
        if pairing < 0:
            vec = tuple(rneg(e) for e in vec)
        return vec

    def parabolic_gens(self, d):
        """Generator indices of the parabolic fixing a d-cell."""
        if not 0 <= d < self.rank:
            raise ValueError(f"no {d}-cells in rank {self.rank}")
        return frozenset(range(self.rank)) - {d}

    def __repr__(self):
        return f"CoxeterSystem({self.name!r})"


@cache
def build_system(name):
    return CoxeterSystem(name)


def _require_proper(system, gens):
    """gens as a frozenset; ValueError unless it is a proper subset of the
    system's generators, the index sets of its finite parabolics."""
    gens = frozenset(gens)
    if not gens < frozenset(range(system.rank)):
        raise ValueError(f"parabolic {sorted(gens)} of {system.name} is not "
                         "a proper subset of its generators")
    return gens


def enumerate_parabolic(system, gens):
    """All elements of the standard parabolic <s_i : i in gens>, sorted.

    Breadth-first closure over the generator matrices.  The parabolic is
    finite exactly when gens is a proper subset of the generators, since
    every proper sub-diagram of a system here is spherical; any other
    gens, the whole group or a generator the system lacks, raises
    ValueError before a product is formed.
    """
    return _parabolic(system, _require_proper(system, gens))


@cache
def _parabolic(system, gens):
    mats = [system.generators[i] for i in sorted(gens)]
    ident = _identity(system.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in mats:
                wg = _mat_mul(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return tuple(sorted(seen, key=matrix_key))


def parabolic_order(system, gens):
    return len(enumerate_parabolic(system, gens))


# The finite linear diagrams of 3 or more nodes other than A_n and B_n, by
# their labels: H3 and H4
_H_ORDERS = {(3, 5): 120, (5, 3): 120, (3, 3, 5): 14400, (5, 3, 3): 14400}


def _run_order(labels):
    """The order of the finite Coxeter group of the linear diagram on
    n = len(labels) + 1 nodes with these labels: A_n, B_n, I2(m), H3 or
    H4, whose orders are the products of their degrees (Humphreys,
    Reflection Groups and Coxeter Groups, 2.11)."""
    n = len(labels) + 1
    if set(labels) <= {3}:
        return math.factorial(n + 1)
    if n == 2:
        return 2 * labels[0]
    if 4 in (labels[0], labels[-1]) and labels.count(3) == n - 2:
        return 2 ** n * math.factorial(n)
    if labels not in _H_ORDERS:
        raise AssertionError(f"labels {labels} are not a finite diagram")
    return _H_ORDERS[labels]


def diagram_order(system, gens):
    """The order of the standard parabolic <s_i : i in gens>, from the
    diagram alone; parabolic_order, which enumerates it, is the reference.

    The parabolic is the direct product of the groups of its maximal runs
    of consecutive generators, and a run of n generators is the linear
    diagram of the n - 1 labels between them.
    """
    gens = _require_proper(system, gens)
    order, n = 1, 0
    for i in range(system.rank + 1):
        if i in gens:
            n += 1
        elif n:
            order *= _run_order(system.labels[i - n:i - 1])
            n = 0
    return order


def _candidates(parabolic, image):
    """A candidate set of least_reps: the table of the distinct columns of
    the matrices that image makes of the elements of the parabolic, over
    Z[phi], and each such matrix as the indices of its columns in it, so
    that columns are compared and hashed as ints.  image maps each column
    of an element of the parabolic to the ring column it stands for; the
    matrices so made must pass the twist test.

    A column holds the pairs (a, b) of the entries a + b phi of M' =
    Delta M Delta^-1, Delta = diag(sqrt2, 1, ..., 1).  An entry of M in
    row 0 or column 0, but not both, is sqrt2 times its part; M' takes
    that factor off in column 0 and puts a second one on in row 0."""
    table, index, mats = [], {}, []
    for g in parabolic:
        ids = []
        for j, col in enumerate(zip(*g)):
            at = index.setdefault((col, j > 0), len(table))
            if at == len(table):
                table.append(tuple([
                    (2 * q, 2 * s) if i == 0 < j
                    else (q, s) if j == 0 < i else (p, r)
                    for i, (p, q, r, s) in enumerate(image[col])]))
            ids.append(at)
        mats.append(tuple(ids))
    return tuple(table), tuple(mats)


def _columns(t, parabolic):
    """The candidates of a face w t P_j: the columns of t * p for each p
    of the parabolic (_candidates); each distinct column of the parabolic
    is multiplied by t once."""
    image = {}
    for p in parabolic:
        for col in zip(*p):
            if col not in image:
                image[col] = _mat_vec(t, col)
    return _candidates(parabolic, image)


@cache
def _parabolic_columns(system, gens):
    """The candidates of any other key: the columns of each element of its
    parabolic (_candidates)."""
    parabolic = enumerate_parabolic(system, gens)
    return _candidates(parabolic,
                       {col: col for p in parabolic for col in zip(*p)})


def _outside_w(m):
    """Why a ring matrix that fails the twist test is refused."""
    i, j = _twist_fault(m)
    return (f"matrix lies outside the reflection group: entry [{i}][{j}] "
            "fails the twist test")


def _products(xs, ys, cols):
    """sum_t (x_t + y_t phi)(u_t + v_t phi) for every key of the int
    columns x_t, y_t and every candidate column of cols, whose entries t
    are the pairs (u_t, v_t): the int columns (A, B) of A + B phi, lazily,
    key by key, k * len(cols) + d for key k and column d.  phi^2 = phi + 1
    gives the coefficients."""
    a, b = [], []
    for x, y, pairs in zip(xs, ys, zip(*cols)):
        u, v = zip(*pairs)
        w = tuple(map(add, u, v))
        a += [starmap(mul, product(c, e)) for c, e in ((x, u), (y, v))
              if any(e)]
        b += [starmap(mul, product(c, e)) for c, e in ((x, v), (y, w))
              if any(e)]
    return _add_columns(a), _add_columns(b)


def _ring_column(a, b, j, m):
    """Column j of m products M c as ring entries, rows stacked, from the
    int columns a and b of the entries a + b phi of (M c)' = M' c'."""
    zero, one = repeat(0), repeat(1)
    a, b = list(a), list(b)
    if j:
        return [*zip(zero, map(rshift, a[:m], one), zero,
                     map(rshift, b[:m], one)),
                *zip(a[m:], zero, b[m:], zero)]
    return [*zip(a[:m], zero, b[:m], zero), *zip(zero, a[m:], zero, b[m:])]


def _least_group(system, candidates, keys, lefts):
    """The least products left * c over the candidates c, in order, for
    the left factors of keys that share one candidate set (least_reps).

    The left factors are read as int columns of their coordinates, each
    over Z[phi] as M' = Delta M Delta^-1, as _first_fault reads them; the
    rows of a column t of the M' are stacked, so that one product forms a
    whole column of every product.  A bucket holds the keys tied on the
    same candidates, and is worked one entry at a time, row-major: where
    its candidates differ in the column of the entry, each distinct
    column gives that entry of every key in it, compared by (2A + B, B)
    for A + B phi, which orders the entries of one place as ring_key
    does.  Each key keeps the candidates tied for its least, and the
    bucket splits by the columns kept.  Once one candidate is left, or
    every entry is compared (tied candidates are equal products), the
    bucket's products are formed column by column.
    """
    rank = system.rank
    size = 4 * rank * rank
    coords = list(chain.from_iterable(chain.from_iterable(
        chain.from_iterable(lefts))))
    bad = _first_twist_fault(system, coords)
    if bad is not None:
        raise ValueError(_outside_w(keys[bad].rep))
    parts = [(coords[oa::size], coords[ob::size])
             for oa, ob in system._twist_parts]
    # row 0 of M' is twice the parts past column 0
    parts[1:rank] = [(list(map(add, a, a)), list(map(add, b, b)))
                     for a, b in parts[1:rank]]
    xs, ys = ([[*chain.from_iterable([parts[i * rank + t][h]
                                      for i in range(rank)])]
               for t in range(rank)] for h in (0, 1))
    table, tied = candidates
    out = [None] * len(lefts)
    work = [(range(len(lefts)), xs, ys, tied, 0)]
    while work:
        ids, xs, ys, tied, e = work.pop()
        m = len(ids)
        while len(tied) > 1 and e < rank * rank:
            i, j = divmod(e, rank)
            e += 1
            cols = list(dict.fromkeys([c[j] for c in tied]))
            if len(cols) == 1:
                continue
            row = slice(i * m, (i + 1) * m)
            a, b = map(list, _products([x[row] for x in xs],
                                       [y[row] for y in ys],
                                       [table[c] for c in cols]))
            ranked = list(zip(map(add, map(add, a, a), b), b))
            entries = [ranked[d::len(cols)] for d in range(len(cols))]
            low = list(map(min, *entries))
            # per key, which of the columns give its least
            ties = list(zip(*[map(eq, k, low) for k in entries]))
            splits = [({c for c, k in zip(cols, pattern) if k}, pattern)
                      for pattern in dict.fromkeys(ties)]
            if len(splits) > 1:
                for kept, pattern in splits:
                    mask = list(map(eq, ties, repeat(pattern)))
                    rows = mask * rank
                    work.append(([*compress(ids, mask)],
                                 [[*compress(x, rows)] for x in xs],
                                 [[*compress(y, rows)] for y in ys],
                                 [c for c in tied if c[j] in kept], e))
                break
            kept = splits[0][0]
            tied = [c for c in tied if c[j] in kept]
        else:
            least = tied[0]
            cols = [_ring_column(*_products(xs, ys, [table[c]]), j, m)
                    for j, c in enumerate(least)]
            rows = list(zip(*cols))
            mats = zip(*[rows[i * m:(i + 1) * m] for i in range(rank)])
            for n, mat in zip(ids, mats):
                out[n] = mat
    return out


def least_reps(keys):
    """The least matrix of the coset of each key, in order: its canonical
    form, the least under matrix_key.

    That of w P_d is the least product w p over its parabolic, and that
    of a face w t P_j of cell_faces is the least w (t p), so the product
    w t is never formed: the columns of t P_j are kept by its transversal
    entry (_columns), for every face that shares it.  The keys are grouped
    by these candidate sets, the columns of t P_j for a face and those of
    its parabolic for any other key, formed once per system and generator
    set, and each group is searched in one batch (_least_group) over
    Z[phi].  That reading needs each representative to pass the twist
    test: ValueError names the entry of one that fails.  Each least
    matrix is kept on its key, for min_rep and for later calls.
    """
    keys = list(keys)
    groups = {}
    for key in keys:
        if key._minrep is not None:
            continue
        factors = key._factors
        if factors is not None and len(factors) == 3:
            left, t, kept = factors
            if not kept:
                kept.append(_columns(
                    t, enumerate_parabolic(key.system, key.gens)))
            candidates = kept[0]
        else:
            left = key.rep
            candidates = _parabolic_columns(key.system, key.gens)
        group = groups.setdefault(id(candidates),
                                  (key.system, candidates, [], []))
        group[2].append(key)
        group[3].append(left)
    for system, candidates, members, lefts in groups.values():
        for key, least in zip(members, _least_group(system, candidates,
                                                    members, lefts)):
            key._minrep = least
    return [key._minrep for key in keys]


@total_ordering
class CosetKey:
    """A cell of the honeycomb: the coset rep * P_d of a maximal parabolic.

    Two keys are equal iff the cosets agree, which the exact fixed-point
    vector rep * x_d decides; min_rep() gives the canonical matrix of the
    coset, its lexicographically least one, which least_reps finds for
    many keys at once.  A
    Euclidean system raises ValueError: its cells are lattice keys.
    `key`, the ring_key of each coordinate of vec, is a plain tuple of
    int 4-tuples that orders and hashes the cells of one system and
    dimension as the keys themselves do.

    A key is made from its representative, or from its vector `vec` and
    `factors` (left, right) whose product is the representative.  That
    product is formed on the first read of `rep`, so a cell that is only
    hashed and compared costs one matrix-vector product.  The faces of
    cell_faces carry a third factor, the list their transversal entry
    keeps the columns of right * P_j in, so that least_reps needs no
    product and takes every face with that entry in one batch.
    """

    __slots__ = ("system", "gens", "dim", "vec", "key", "_rep", "_factors",
                 "_id", "_minrep")

    def __init__(self, system, gens, rep=None, vec=None, factors=None):
        gens = frozenset(gens)
        dim = system.cell_dims.get(gens)
        if dim is None:
            raise ValueError("cells correspond to maximal parabolics; "
                             f"got generator set {sorted(gens)}")
        if system.affine:
            raise ValueError(f"{system.name} is a lattice: use ambient "
                             f"Z{system.rank - 1}")
        self.system = system
        self.gens = gens
        self.dim = dim
        self._rep = rep
        self._factors = factors
        self._minrep = None
        if vec is None:
            vec = _mat_vec(self.rep, system.fixed_vectors[dim])
        self.vec = vec
        self.key = key = tuple([ring_key(e) for e in vec])
        # what equality, hashing and order compare
        self._id = (system.name, dim, key)

    @property
    def rep(self):
        """A matrix of the coset (the product of the factors, if given)."""
        if self._rep is None:
            self._rep = _mat_mul(*self._factors[:2])
            self._factors = None
        return self._rep

    def min_rep(self):
        """Lexicographically least matrix of the coset (canonical form),
        least_reps of this key alone."""
        return least_reps([self])[0]

    def __eq__(self, other):
        if not isinstance(other, CosetKey):
            return NotImplemented
        return self._id == other._id

    def __hash__(self):
        return hash(self._id)

    def __lt__(self, other):
        if not isinstance(other, CosetKey):
            return NotImplemented
        return self._id < other._id

    def __repr__(self):
        return f"<{self.system.name} {self.dim}-cell {self.key}>"


def identity_cell(system, d):
    return CosetKey(system, system.parabolic_gens(d), _identity(system.rank))


@cache
def _transversal(system, d, j):
    """Triples (t, t * x_j, kept) such that the j-cells incident to a
    d-cell w P_d are exactly the w t P_j, each exactly once.  kept is a
    list, empty until least_reps first needs the least matrix of a face
    w t P_j; it then holds _columns(t, P_j), the candidates of every face
    with t, which least_reps searches in one batch."""
    gens_j = system.parabolic_gens(j)
    seen = set()
    reps = []
    for p in enumerate_parabolic(system, system.parabolic_gens(d)):
        k = CosetKey(system, gens_j, p)
        if k not in seen:
            seen.add(k)
            reps.append((p, k.vec, []))
    return tuple(reps)


def cell_faces(cell, j):
    """Cells of dimension j incident to the given cell (faces when j is
    lower, cofaces when higher), as a sorted tuple of keys."""
    system = cell.system
    if j == cell.dim:
        return (cell,)
    gens_j = system.parabolic_gens(j)
    rep = cell.rep
    out = [CosetKey(system, gens_j, vec=_mat_vec(rep, tx),
                    factors=(rep, t, kept))
           for t, tx, kept in _transversal(system, cell.dim, j)]
    return tuple(sorted(out))


def neighbor(top_cell, face):
    """The other top-dimensional cell sharing the given facet."""
    system = top_cell.system
    tops = cell_faces(face, system.rank - 1)
    others = [c for c in tops if c != top_cell]
    if len(others) != len(tops) - 1:
        raise ValueError("cell is not incident to the facet")
    if len(others) != 1:
        raise ValueError(f"facet has {len(tops)} top cells, expected 2")
    return others[0]


def compose(a, b):
    """The group element a b (ring matrices): b applied first, then a."""
    return _mat_mul(a, b)


def transform(g, cell):
    """Apply a group element (ring matrix) to a cell."""
    return CosetKey(cell.system, cell.gens, vec=_mat_vec(g, cell.vec),
                    factors=(g, cell.rep))


def _signed_reflection(system, d, sign):
    """sign * s_d as a ring matrix, for s_d(v) = v - 2 B(d, v) / B(d, d) d.

    With u = 4B d and n = d . u = 4 B(d, d), entry (i, j) of s_d is
    delta_ij - 2 d_i u_j / n.  Scaling by m, the product of the other
    three Galois conjugates of n, turns the denominator into the integer
    norm k = n m, so each entry is an exact ring quotient by k; raises
    ValueError if one is not.
    """
    u = _mat_vec(system.bilinear4, d)
    n = _dot(d, u)
    m = rcofactor(n)
    k = rmul(n, m)[0]
    scale = rscale(-2 * sign, m)
    num = [[rmul(sx, y) for y in u] for sx in (rmul(scale, x) for x in d)]
    for i, row in enumerate(num):
        row[i] = radd(row[i], (sign * k, 0, 0, 0))
    if any(t % k for row in num for e in row for t in e):
        raise ValueError(f"s_d for d = {d} leaves Z[sqrt2, phi]")
    return tuple(tuple(tuple(t // k for t in e) for e in row) for row in num)


def reflection(a, b):
    """The reflection of a hyperbolic system that exchanges cells a and b.

    It is s_d(v) = v - 2 B(d, v) / B(d, d) d for d = a.vec - b.vec, which
    sends a.vec to b.vec whenever B(a.vec, a.vec) = B(b.vec, b.vec) (as
    for two cells of one dimension) and fixes the cells whose vectors are
    B-orthogonal to d.  For two top cells sharing a wall it is the
    reflection in that wall.  Returned as a ring matrix; raises
    ValueError if an entry leaves Z[sqrt2, phi].
    """
    d = tuple(rsub(x, y) for x, y in zip(a.vec, b.vec))
    return _signed_reflection(a.system, d, 1)


def central_symmetry(cell):
    """The central symmetry v -> 2 B(c, v) / B(c, c) c - v of a hyperbolic
    cell, for c = cell.vec, as a ring matrix.

    It fixes the cell and swaps each of its faces with the opposite one.
    It lies in W only when the longest element of the cell's parabolic is
    -1, and is then that element conjugated by the representative.  This
    holds for every cell of {4,3,5} but its edges (parabolic A1 x H2) and
    every cell of {4,3,3,5} but its squares (B2 x H2); for those two the
    matrix leaves Z[sqrt2, phi] and ValueError is raised.
    """
    return _signed_reflection(cell.system, cell.vec, -1)


def corner_keys(square):
    """The keys of the 4 corners of a square cell in cyclic order, each
    the key tuple of its vertex cell (CosetKey.key).

    Corners are the orbit of the base vertex under the rotation s_0 s_1,
    which turns the square by a quarter; the starting corner depends on
    the coset representative, so the cycle is canonical up to rotation
    and reflection, which is all a gluing pattern needs.

    Corner k of w P_2 is w q^k x_0 = vec + w d_k, where vec = w x_2 is
    the square's own vector and the offset d_k (see
    CoxeterSystem.corner_turns) reads only the columns 0 and 1 of w:
    d_1 only column 1, and d_0 column 0 on top of that.  ring_key is
    linear, so in row i the key of corner 1 is the square's key plus
    that of w[i][1] d_1[1], and the key of corner 0 that of corner 1
    plus that of w[i][0] d_0[0]; CoxeterSystem.corner_tables gives both
    steps as integer tables on the coordinates of those entries.
    Opposite corners sum to 2 vec, so corners 2 and 3 take twice the
    square's key minus corners 0 and 1.  The 4 corners are distinct for
    every square, because w is invertible and the 4 offsets are
    distinct, which CoxeterSystem checks once at set-up; so no call
    tests it again.
    """
    if square.dim != 2:
        raise ValueError("not a square cell")
    ((f00, f01, f02, f03), (f10, f11, f12, f13), (f20, f21, f22, f23),
     (f30, f31, f32, f33)), ((e00, e01, e02, e03), (e10, e11, e12, e13),
                             (e20, e21, e22, e23), (e30, e31, e32, e33)) \
        = square.system.corner_tables
    c0, c1, c2, c3 = [], [], [], []
    for row, (k0, k1, k2, k3) in zip(square.rep, square.key):
        (p, q, r, s), (P, Q, R, S) = row[0], row[1]
        b0 = k0 + f00 * P + f01 * Q + f02 * R + f03 * S
        b1 = k1 + f10 * P + f11 * Q + f12 * R + f13 * S
        b2 = k2 + f20 * P + f21 * Q + f22 * R + f23 * S
        b3 = k3 + f30 * P + f31 * Q + f32 * R + f33 * S
        a0 = b0 + e00 * p + e01 * q + e02 * r + e03 * s
        a1 = b1 + e10 * p + e11 * q + e12 * r + e13 * s
        a2 = b2 + e20 * p + e21 * q + e22 * r + e23 * s
        a3 = b3 + e30 * p + e31 * q + e32 * r + e33 * s
        c0.append((a0, a1, a2, a3))
        c1.append((b0, b1, b2, b3))
        k0 += k0    # twice the square's key, which opposite corners sum to
        k1 += k1
        k2 += k2
        k3 += k3
        c2.append((k0 - a0, k1 - a1, k2 - a2, k3 - a3))
        c3.append((k0 - b0, k1 - b1, k2 - b2, k3 - b3))
    return tuple(c0), tuple(c1), tuple(c2), tuple(c3)


def corner_vertex(square, k, key):
    """Corner k of a square cell as a vertex cell, from its key, entry k
    of corner_keys(square): the cell w q^k P_0, keyed by the vector that
    key encodes and kept as the factors w and q^k."""
    system = square.system
    vec = tuple([((a - r) // 2, (b - s) // 2, r, s) for a, b, r, s in key])
    return CosetKey(system, system.parabolic_gens(0), vec=vec,
                    factors=(square.rep, system.corner_turns[k][0]))


def square_vertex_cycle(square):
    """The 4 vertices of a square cell in cyclic order: the corner_vertex
    of each of its corner_keys."""
    return tuple([corner_vertex(square, k, key)
                  for k, key in enumerate(corner_keys(square))])


def incidence_counts(system, d):
    """Numbers of k-cells incident to a d-cell, for k = d+1 .. rank-1.

    Computed from parabolic subgroup orders (diagram_order): the count
    is |P_d| / |P_d intersect P_k|, and the intersection is the standard
    parabolic omitting both d and k.
    """
    all_gens = frozenset(range(system.rank))
    out = []
    big = diagram_order(system, all_gens - {d})
    for k in range(d + 1, system.rank):
        small = diagram_order(system, all_gens - {d, k})
        count, rem = divmod(big, small)
        if rem:
            raise AssertionError("parabolic order does not divide")
        out.append(count)
    return tuple(out)


# Incidence numbers as claimed in the source catalogue of these honeycombs.
# Two of the edge rows disagree with the group-theoretic computation (and
# with a direct lattice count, for the Euclidean system); the stats report
# marks them as differing rather than silently adopting either side.
CLAIMED_INCIDENCE = {
    "{4,4}": {0: (4, 4)},
    "{4,3,4}": {0: (6, 12, 8), 1: (4, 4)},
    "{4,3,3,4}": {0: (8, 24, 32, 16), 1: (6, 32, 16), 2: (4, 4)},
    "{4,3,5}": {0: (12, 30, 20), 1: (5, 5)},
    "{4,3,3,5}": {0: (120, 720, 1200, 600), 1: (6, 32, 16), 2: (5, 5)},
}
