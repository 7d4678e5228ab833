"""Validation and topological classification of square complexes.

A square complex here is a set of quadrilaterals glued along vertices and
edges, given either combinatorially (AbstractSquareComplex) or as a set of
squares of a cubical tiling (GriddedComplex).  The functions below decide
whether such a complex is a compact surface, and if so classify it up to
homeomorphism by orientability, Euler characteristic and number of
boundary circles.

The manifold test is local: every edge must lie in at most two squares,
and the link of every vertex (the graph whose nodes are the edges at the
vertex, with one arc per incident square) must be a single cycle or a
single simple path.

Validation, classification, the Euler characteristic, mesh export,
to_abstract and the embedded sum's vertex clash test read one SquareIndex:
dense int vertex ids, numbered by one rule (_numbered) from the sorted
corners, int squares, the edge ids of each square's sides (one
numbering, _edge_ids), and the number of squares on each edge.  A
lattice complex builds it in one pass over int cell codes
(lattice.cell_codes), where a square's corners are its code plus or minus
two weights and each side's edge is keyed by the sum of its two corners'
codes.  It marks the corners at each vertex in a bit mask, 4 bits per
pair of odd axes in use, that fixes the vertex's link up to renaming, so
each distinct mask is checked once.  The vertex tuples are decoded from
their codes only when first read, which export does and validate and
classify do only to name a failure or a nonorientable loop: they count
vertices.  A honeycomb complex builds it on the key tuples of its
squares' corners (coxeter.corner_keys), integer sums off each square's
own key with no ring product, which hash and sort as the vertex cells
do; the cells are decoded from them only when the vertices are first
read, as the lattice vertices are.  Abstract complexes build it from
their squares, which are vertex cycles already.  The index is the one
source of each square's cyclic corners: square_cycles reads them from
it.  Classify validates on the index it builds, and orients the squares
through their sides' edge ids, one tree of squares per component: two
sides on one edge run the same way iff they start at the same vertex.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain
from operator import add, attrgetter

from gridforge import coxeter, lattice
from gridforge.lattice import (
    Frozen, GriddedComplex, distinct, is_lattice_ambient,
)


class GridCollisionError(ValueError):
    """Raised when a gridded construction would overlap itself.

    The offending cells are kept on the .cells attribute so callers can
    report exactly where the clash happened.
    """

    def __init__(self, message, cells=()):
        super().__init__(message)
        self.cells = tuple(cells)


def cycle_key(cyc):
    """Canonical form of a cyclic 4-tuple up to rotation and reflection."""
    a, b, c, d = cyc
    candidates = []
    for t in ((a, b, c, d), (a, d, c, b)):
        for r in range(4):
            candidates.append(t[r:] + t[:r])
    return min(candidates)


class AbstractSquareComplex(Frozen):
    """A purely combinatorial square complex.

    squares are cyclic 4-tuples of distinct vertices; they are stored in a
    canonical rotation so that structural equality works.  vertices may
    include points not used by any square (such a complex is never a
    surface, but it is representable).  A repeated or unhashable vertex,
    then a bad square, raises ValueError naming it by position.  meta is
    not compared.
    """

    __slots__ = ("vertices", "squares", "meta")

    def __init__(self, vertices, squares, meta=None):
        vertices = distinct(
            list(vertices), "vertices", "label {x!r} repeats vertices[{i}]")
        canon = []
        for i, s in enumerate(squares):
            s = tuple(s)
            try:
                square = len(s) == 4 and len(set(s)) == 4
            except TypeError:
                raise ValueError(f"squares[{i}]: not hashable: {s!r}") \
                    from None
            if not square:
                raise ValueError(
                    f"squares[{i}]: square needs 4 distinct vertices")
            if not vertices.issuperset(s):
                raise ValueError(f"squares[{i}]: unknown vertex")
            canon.append(cycle_key(s))
        canon = distinct(canon, "squares", "same square as squares[{i}]")
        self._set(vertices, tuple(sorted(canon)), meta=meta)

    @classmethod
    def from_squares(cls, squares, meta=None):
        verts = set()
        for s in squares:
            verts.update(s)
        return cls(verts, squares, meta)

    def __len__(self):
        return len(self.squares)


def square_cycles(obj):
    """The squares of a complex as cyclic vertex 4-tuples, in the order of
    its SquareIndex."""
    return square_index(obj).cycles


class SquareIndex:
    """The squares of a complex in dense integer form.

    A vertex's id is its position in the sorted vertices, so ids compare as
    the vertices do, and vertex_count is their number.  squares are the
    vertex cycles of the squares, taken in sorted order, as id 4-tuples, and
    cycles the same with the vertices themselves.  Edges are numbered in
    order of first sight: square_edges[4 * i + k] is the id of side k of
    square i, the side from its corner k to corner k + 1 (mod 4), and
    edge_counts[e] the number of squares containing edge e.  edges maps each
    edge (a, b) with a < b to that number, in id order.  links[v] has one
    arc (u, w) per square corner at v, where u and w are the corner's two
    neighbours: the link of v has a node per edge at v, named by its other
    end.  edges, cycles and links are formed when first read.  On a gridded
    complex so are the vertices, decoded by decode from vertex_codes, the
    sorted cell codes of a lattice or corner key tuples of a honeycomb (on
    an abstract complex, the vertices themselves): only export,
    square_cycles and failure messages read them, and the export of a
    honeycomb complex reads the key tuples.  On a lattice complex masks[v]
    has bit 4p + k set when corner k of a square spanning the p-th pair of
    odd axes in use lies at v, and arcs[4p + k] is that corner's arc in the
    link of v (see _lattice_index), so masks[v] fixes the link of v up to
    renaming its nodes; on other complexes masks and arcs are None.
    """

    def __init__(self, vertices, squares, square_edges, edge_counts,
                 masks=None, arcs=None, decode=None):
        self.vertex_count = len(vertices)
        self.vertex_codes, self._decode = vertices, decode
        self.squares, self.square_edges = squares, square_edges
        self.edge_counts, self.masks, self.arcs = edge_counts, masks, arcs

    @cached_property
    def vertices(self):
        if self._decode is None:
            return self.vertex_codes
        return self._decode(self.vertex_codes)

    @cached_property
    def edges(self):
        squares, ends = self.squares, [None] * len(self.edge_counts)
        for p, e in enumerate(self.square_edges):
            if ends[e] is None:
                square = squares[p >> 2]
                a, b = square[p & 3], square[p + 1 & 3]
                ends[e] = (a, b) if a < b else (b, a)
        return dict(zip(ends, self.edge_counts))

    @cached_property
    def cycles(self):
        v = self.vertices
        return [(v[a], v[b], v[c], v[d]) for a, b, c, d in self.squares]

    @cached_property
    def links(self):
        links = [[] for _ in range(self.vertex_count)]
        for a, b, c, d in self.squares:
            links[a].append((d, b))
            links[b].append((a, c))
            links[c].append((b, d))
            links[d].append((c, a))
        return links


def square_index(obj):
    """The SquareIndex of a complex, from one pass over its squares."""
    if isinstance(obj, GriddedComplex):
        if is_lattice_ambient(obj.ambient):
            return _lattice_index(obj.squares)
        return _coset_index(obj.squares)
    if isinstance(obj, AbstractSquareComplex):
        # abstract complexes may declare vertices that no square uses
        return _cycle_index(obj.squares, obj.vertices)
    raise TypeError(f"not a square complex: {type(obj).__name__}")


def _coset_index(squares):
    """The SquareIndex of a set of coset squares, on the key tuples of
    their corners (coxeter.corner_keys), which order and hash as the
    vertex cells do, in C.

    The squares are taken in their key order, which is their sorted
    order.  Each vertex is decoded into a cell only when the vertices are
    first read, as corner k of the first square that has it as corner k,
    so that its rep is that square's times q^k.
    """
    order = sorted(squares, key=attrgetter("key"))
    cycles = list(map(coxeter.corner_keys, order))

    def decode(keys):
        # corner positions in reverse, so each key keeps its first one
        corners = list(chain.from_iterable(cycles))
        first = dict(zip(reversed(corners), range(len(corners) - 1, -1, -1)))
        return [coxeter.corner_vertex(order[p >> 2], p & 3, key)
                for key, p in zip(keys, map(first.__getitem__, keys))]

    return _cycle_index(cycles, decode=decode)


def _cycle_index(cycles, declared=(), decode=None):
    """The SquareIndex of square vertex cycles, given in order, whose
    vertices decode, if given, turns into the vertices read.

    Each corner costs one hash lookup to find its vertex id and each side
    one to number its edge; everything after that works on ints.  Side
    (a, b) with a < b has the key a * n + b over n vertex ids.
    """
    vertices, squares = _numbered(list(zip(*cycles)), declared)
    n = len(vertices)
    keys = [x * n + y if x < y else y * n + x for a, b, c, d in squares
            for x, y in ((a, b), (b, c), (c, d), (d, a))]
    return SquareIndex(vertices, squares, *_edge_ids(keys), decode=decode)


def _numbered(corners, declared=()):
    """The sorted vertices of squares whose corner k is corners[k][i] on
    square i, and of the declared ones, and the squares as 4-tuples of
    vertex ids, a vertex's id its position in that order."""
    order = sorted(set(declared).union(*corners))
    vid = dict(zip(order, range(len(order))))
    return order, list(zip(*[map(vid.__getitem__, c) for c in corners]))


def _edge_ids(keys):
    """The square_edges and edge_counts of the sides with the given keys,
    one per edge, the edges numbered in order of first sight."""
    counts = Counter(keys)
    ids = dict(zip(counts, range(len(counts))))
    return list(map(ids.__getitem__, keys)), list(counts.values())


# The signs of each corner's step from a lattice square's center along its
# odd axes i < j, in the order of lattice.corners_cyclic
_CORNERS = ((-1, -1), (1, -1), (1, 1), (-1, 1))


def _lattice_index(keys):
    """The SquareIndex of a set of lattice squares, on integer cell codes.

    A square with code S whose odd axes i < j have the weights w_i, w_j
    (lattice.cell_codes) has corner k at S + si * w_i + sj * w_j, where
    (si, sj) is _CORNERS[k].  Side k runs from corner k to corner k + 1,
    and the sum of their codes keys its edge: it is twice the code of
    the cell at the side's centre, so no two edges share it.  Each
    odd-axes mask in use gets the next 4 bits of masks and their arcs.
    The vertices are decoded from the sorted corner codes when first
    read.
    """
    if not keys:
        return SquareIndex([], [], [], [])
    codes, odd, weights, decode = lattice.cell_codes(keys)
    # per odd-axes mask m: the offset from a square's code of its corner
    # k, and the bit of its corner 0
    corner_at = [{} for _ in _CORNERS]
    bit_at, arcs = {}, []
    for m in sorted(set(odd)):
        i, j = (m & -m).bit_length() - 1, m.bit_length() - 1
        wi, wj = weights[i], weights[j]
        for k, (si, sj) in enumerate(_CORNERS):
            corner_at[k][m] = si * wi + sj * wj
        bit_at[m] = 1 << len(arcs)
        # the square lies at -si along i from its corner: the link node
        # of the edge along -i or +i is 2i or 2i + 1
        arcs += [(2 * i + (si < 0), 2 * j + (sj < 0)) for si, sj in _CORNERS]
    corners = [list(map(add, codes, map(at.__getitem__, odd)))
               for at in corner_at]
    sides = [0] * (4 * len(codes))
    for k in range(4):
        sides[k::4] = map(add, corners[k], corners[k + 1 & 3])
    square_edges, edge_counts = _edge_ids(sides)
    del sides
    order, squares = _numbered(corners)
    del corners
    masks = [0] * len(order)
    for (a, b, c, d), bit in zip(squares, map(bit_at.__getitem__, odd)):
        masks[a] |= bit
        masks[b] |= bit << 1
        masks[c] |= bit << 2
        masks[d] |= bit << 3
    return SquareIndex(order, squares, square_edges, edge_counts, masks,
                       arcs, decode)


def declared_vertices(obj):
    """The set of vertices of a complex, read from its SquareIndex."""
    return set(square_index(obj).vertices)


ComponentReport = namedtuple("ComponentReport", (
    "vertex_count edge_count square_count euler_characteristic orientable "
    "boundary_circles genus crosscaps class_name"))

SurfaceReport = namedtuple("SurfaceReport", (
    "is_surface is_closed vertex_count edge_count square_count "
    "euler_characteristic failures orientable boundary_circles components "
    "class_name genus crosscaps nonorientable_witness"),
    defaults=((), None, None, (), "not a surface", None, None, None))


def _plural(n, word):
    return f"{n} {word}" + ("" if n == 1 else "s")


def _component_name(orientable, genus, crosscaps, circles):
    if orientable:
        name = f"orientable genus {genus}"
    else:
        name = f"nonorientable, {_plural(crosscaps, 'crosscap')}"
    if circles:
        name += f", {_plural(circles, 'boundary circle')}"
    return name


def _link_failure(arcs):
    """Why a vertex link is not a single cycle or path, or None.

    The link's nodes are the edges at the vertex, named by their other
    ends; each arc is one square corner at it.  one and two hold each
    node's first and second neighbour.  A connected link in which no node
    has more than two neighbours is a cycle or a path.
    """
    one, two = {}, {}
    for u, w in arcs:
        for x, y in ((u, w), (w, u)):
            if x not in one:
                one[x] = y
            elif x not in two:
                two[x] = y
            else:
                return "has an edge in more than 2 squares"
    # walk from an end if there is one
    start = (u if len(one) == len(two) else
             next(x for x in one if x not in two))
    prev, cur, seen = None, start, 1
    while True:
        nxt = one[cur]
        if nxt == prev:
            nxt = two.get(cur)
        if nxt is None or nxt == start:
            break
        prev, cur = cur, nxt
        seen += 1
    return "is disconnected" if seen != len(one) else None


def _validate(index):
    """The SurfaceReport of validate_surface; vertices are read only to
    name a failure."""
    squares, counts = index.squares, index.edge_counts
    failures = []
    if max(counts, default=0) > 2:
        vertices = index.vertices
        failures = [f"edge {(vertices[a], vertices[b])} lies in {m} squares"
                    for (a, b), m in sorted(e for e in index.edges.items()
                                            if e[1] > 2)]
    bad_links = []
    if index.masks is None:
        for v, arcs in enumerate(index.links):
            if not arcs:
                failures.append(f"vertex {index.vertices[v]} is isolated")
                continue
            why = _link_failure(arcs)
            if why is not None:
                bad_links.append(f"vertex {index.vertices[v]} link {why}")
    else:
        # each distinct corner pattern is one link up to node names
        arcs = index.arcs
        why = {m: _link_failure([a for b, a in enumerate(arcs) if m >> b & 1])
               for m in set(index.masks)}
        if any(why.values()):
            vertices = index.vertices
            bad_links = [f"vertex {vertices[v]} link {why[m]}"
                         for v, m in enumerate(index.masks) if why[m]]
    failures += bad_links

    V = index.vertex_count
    E = len(counts)
    F = len(squares)
    is_closed = bool(squares) and counts.count(2) == E
    return SurfaceReport(
        is_surface=not failures and bool(squares),
        is_closed=is_closed and not failures,
        vertex_count=V,
        edge_count=E,
        square_count=F,
        euler_characteristic=V - E + F,
        failures=tuple(failures) if failures else
        (() if squares else ("complex has no squares",)),
    )


def validate_surface(obj):
    """Check the manifold conditions; returns a SurfaceReport.

    The report carries V/E/F counts and the Euler characteristic whether or
    not the check passes; failures lists each violation with a witness cell.
    """
    return _validate(square_index(obj))


def euler_characteristic(obj):
    index = square_index(obj)
    return index.vertex_count - len(index.edge_counts) + len(index.squares)


def _orient_components(index):
    """Two-colour the dual graph, one tree of squares at a time.

    A shared edge forces neighbouring squares to traverse it in opposite
    directions.  An inconsistency yields a witness loop of squares whose
    orientations cannot be reconciled.  Every edge must lie in at most two
    squares, as it does once the complex has validated.  Two sides on an
    edge run the same way iff they start at the same vertex.
    Returns the tree of each square, the trees numbered in order of their
    first square, and per tree its orientability and witness.
    """
    squares, square_edges = index.squares, index.square_edges
    # side p starts at corner p of the squares laid end to end
    start = list(chain.from_iterable(squares))
    # mate[p] is the position in square_edges of the other side on the
    # same edge as position p, or -1 on the boundary
    mate = [-1] * len(square_edges)
    seen_at = [-1] * len(index.edge_counts)
    for p, e in enumerate(square_edges):
        q = seen_at[e]
        if q < 0:
            seen_at[e] = p
        else:
            mate[p], mate[q] = q, p

    sign = [0] * len(squares)
    tree = [0] * len(squares)
    parent = [None] * len(squares)
    orientable, witness = [], []
    for root in range(len(squares)):
        if sign[root]:
            continue
        t = len(orientable)
        orientable.append(True)
        witness.append(None)
        sign[root] = 1
        tree[root] = t
        stack = [root]
        while stack:
            cur = stack.pop()
            here = sign[cur]
            for p in range(4 * cur, 4 * cur + 4):
                q = mate[p]
                if q < 0:
                    continue
                other = q >> 2
                need = -here if start[p] == start[q] else here
                if not sign[other]:
                    sign[other] = need
                    tree[other] = t
                    parent[other] = cur
                    stack.append(other)
                elif sign[other] != need and orientable[t]:
                    orientable[t] = False
                    witness[t] = _dual_loop(parent, cur, other, index.cycles)
    return tree, orientable, witness


def _dual_loop(parent, a, b, cycles):
    """Loop of squares through the dual-tree paths of a and b."""
    anc_a = []
    x = a
    while x is not None:
        anc_a.append(x)
        x = parent[x]
    in_a = set(anc_a)
    path_b = []
    x = b
    while x not in in_a:
        path_b.append(x)
        x = parent[x]
    meet = x
    loop = anc_a[: anc_a.index(meet) + 1] + list(reversed(path_b))
    return tuple(cycles[i] for i in loop)


def _roots(n, paths):
    """The root of each of n vertices once consecutive vertices of each
    path are joined: union-find with path halving, where each union hangs
    x's root under y's."""
    parent = list(range(n))
    for path in paths:
        for x, y in zip(path, path[1:]):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
    roots = []
    for x in range(n):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        roots.append(x)
    return roots


def classify(obj):
    """Full pipeline: validate, then classify each connected component.

    For a valid compact surface the classification is exact: orientable
    components are reported by genus, nonorientable ones by crosscap
    number, each together with its count of boundary circles.
    """
    index = square_index(obj)
    base = _validate(index)
    if not base.is_surface:
        return base

    squares = index.squares
    n = index.vertex_count
    tree, orientable, witnesses = _orient_components(index)
    n_comp = len(orientable)
    if n_comp == 1:
        comp_of_vertex = [0] * n
        V, E, F = [n], [len(index.edge_counts)], [len(squares)]
    else:
        # connected components over the vertex-edge graph; a square's
        # fourth side joins two vertices its other three already joined.
        # On a surface each is one tree of squares; their roots order them
        root_of = _roots(n, squares)
        roots = sorted(set(root_of))
        if len(roots) != n_comp:
            raise AssertionError("square trees are not the components")
        comp_id = {r: i for i, r in enumerate(roots)}
        comp_of_vertex = [comp_id[r] for r in root_of]
        comp_of_square = [comp_of_vertex[s[0]] for s in squares]
        comp_of_tree = dict(zip(tree, comp_of_square))
        by_comp = sorted(range(n_comp), key=comp_of_tree.__getitem__)
        orientable = [orientable[t] for t in by_comp]
        witnesses = [witnesses[t] for t in by_comp]

        V = [0] * n_comp
        E = [0] * n_comp
        F = [0] * n_comp
        for c in comp_of_vertex:
            V[c] += 1
        for a, _ in index.edges:
            E[comp_of_vertex[a]] += 1
        for c in comp_of_square:
            F[c] += 1

    # a boundary vertex's link is a path, whose two ends are its two
    # boundary edges, so each component of those edges is one circle
    circles_by_comp = [0] * n_comp
    if not base.is_closed:
        boundary = [e for e, m in index.edges.items() if m == 1]
        ends = _roots(n, boundary)
        for r in {ends[a] for a, _ in boundary}:
            circles_by_comp[comp_of_vertex[r]] += 1

    comps = []
    for i in range(n_comp):
        chi = V[i] - E[i] + F[i]
        b = circles_by_comp[i]
        capped = chi + b
        if orientable[i]:
            genus, crosscaps = (2 - capped) // 2, None
            if capped != 2 - 2 * genus:
                raise AssertionError(f"odd Euler characteristic {capped} on "
                                     "an orientable component")
        else:
            genus, crosscaps = None, 2 - capped
        comps.append(ComponentReport(
            vertex_count=V[i],
            edge_count=E[i],
            square_count=F[i],
            euler_characteristic=chi,
            orientable=orientable[i],
            boundary_circles=b,
            genus=genus,
            crosscaps=crosscaps,
            class_name=_component_name(orientable[i], genus, crosscaps, b),
        ))

    if n_comp == 1:
        name = comps[0].class_name
    else:
        name = f"{n_comp} components: " + "; ".join(c.class_name for c in comps)
    bad = next((w for w in witnesses if w is not None), None)
    return base._replace(
        orientable=all(orientable),
        boundary_circles=sum(circles_by_comp),
        components=tuple(comps),
        class_name=name,
        genus=comps[0].genus if n_comp == 1 else None,
        crosscaps=comps[0].crosscaps if n_comp == 1 else None,
        nonorientable_witness=bad,
    )


def to_abstract(gridded):
    """Forget the embedding, keeping the combinatorial gluing pattern."""
    return AbstractSquareComplex.from_squares(square_index(gridded).cycles,
                                              meta=dict(gridded.meta))


def _relabelled(complex_, offset):
    order = sorted(complex_.vertices)
    mapping = {v: i + offset for i, v in enumerate(order)}
    squares = [tuple(mapping[v] for v in s) for s in complex_.squares]
    return mapping, squares


def connected_sum_abstract(a, square_a, b, square_b):
    """Connected sum of two abstract complexes along chosen squares.

    Each chosen square is removed and the two boundary circles left behind
    are joined by a tube of 4 new squares.  Both complexes are relabelled
    to disjoint integer ranges (a first, each in sorted vertex order), so
    the result's vertices are 0..len(a)+len(b)-1.
    """
    if cycle_key(tuple(square_a)) not in a.squares:
        raise ValueError(f"square {square_a} not in first complex")
    if cycle_key(tuple(square_b)) not in b.squares:
        raise ValueError(f"square {square_b} not in second complex")
    map_a, squares_a = _relabelled(a, 0)
    map_b, squares_b = _relabelled(b, len(a.vertices))
    ca = tuple(map_a[v] for v in square_a)
    cb = tuple(map_b[v] for v in square_b)

    keep = [s for s in squares_a if cycle_key(s) != cycle_key(ca)]
    keep += [s for s in squares_b if cycle_key(s) != cycle_key(cb)]

    def rot_to_min(cyc):
        i = cyc.index(min(cyc))
        return cyc[i:] + cyc[:i]

    ra = rot_to_min(ca)
    rb = rot_to_min(cb)
    rb = (rb[0], rb[3], rb[2], rb[1])  # reversed: the tube joins opposite sides
    for i in range(4):
        j = (i + 1) % 4
        keep.append((ra[i], ra[j], rb[j], rb[i]))
    return AbstractSquareComplex.from_squares(keep)


def connected_sum_embedded(a, face_a, b, face_b, axis=None):
    """Connected sum of two gridded complexes through a connecting cube.

    b is translated so that face_b lands on the far side of the cube Q
    sitting on face_a in the +axis direction; both chosen squares are
    removed and the 4 remaining faces of Q form the tube.  Raises
    GridCollisionError if the translated copy of b touches a anywhere, or
    if a side face of Q is already occupied.
    """
    if (not isinstance(a, GriddedComplex) or not isinstance(b, GriddedComplex)
            or a.ambient != b.ambient or not is_lattice_ambient(a.ambient)):
        raise ValueError("both complexes must live in the same lattice ambient")
    if face_a not in a.squares:
        raise ValueError(f"{face_a} is not a square of the first complex")
    if face_b not in b.squares:
        raise ValueError(f"{face_b} is not a square of the second complex")
    n = len(face_a)
    if axis is None:
        axis = next((i for i, x in enumerate(face_a) if x % 2 == 0), None)
        if axis is None:
            raise ValueError(f"{face_a} has no normal axis in {a.ambient}")
    elif not 0 <= axis < n:
        raise ValueError(f"axis {axis} is not one of 0..{n - 1}")
    if face_a[axis] % 2:
        raise ValueError(f"axis {axis} is tangent to {face_a}, not normal")
    far = tuple(face_a[i] + (2 if i == axis else 0) for i in range(n))
    shift = tuple(x - y for x, y in zip(far, face_b))
    if any(x % 2 for x in shift):
        raise ValueError("chosen squares are not parallel, cannot align them")

    moved = lattice.translate(b.squares, shift)

    cube = tuple(face_a[i] + (1 if i == axis else 0) for i in range(n))
    sides = [f for f in lattice.faces(cube, 2) if f not in (face_a, far)]

    rest_a = a.squares - {face_a}
    rest_b = moved - {far}
    clashes = sorted(rest_a & rest_b)
    # a vertex of the copy is one of a if a square of a lies around it
    copy = GriddedComplex(a.ambient, moved)
    clashes += sorted(v for v in declared_vertices(copy)
                      if not a.squares.isdisjoint(lattice.cofaces(v, 2)))
    clashes += sorted(f for f in sides if f in a.squares or f in moved)
    # a side face of Q that both complexes hold is listed once, as shared
    clashes = list(dict.fromkeys(clashes))
    if clashes:
        raise GridCollisionError(
            f"translated complex collides with the base at {len(clashes)} cells",
            cells=clashes,
        )
    squares = rest_a | rest_b | set(sides)
    return GriddedComplex(a.ambient, squares, meta={"built_by": "connected_sum"})
