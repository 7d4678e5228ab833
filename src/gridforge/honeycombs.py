"""Surfaces gridded in the curved cubical honeycombs {4,3,5} and {4,3,3,5}.

The same boundary-of-a-cube-union recipe that produces spheres, tori and
trees in Z^3 also works in the hyperbolic honeycombs, except that cube
bookkeeping runs on coset cells instead of integer coordinates.  Walking
"straight" is done cube by cube: exit through the face opposite the entry
face, the image of the entry face under the cube's central symmetry.  An
"up" marker is carried into the next cube by the reflection in the wall
the two cubes share; that wall step, to the cube beyond a face with the
marker carried across, is the one function _step.  The {4,3,5} pants
tree walks only once: every piece is one unit of 4 cubes moved by an
element of the reflection group W, and a child's element is its
parent's times one of two arm moves.  The written bytes are those of a
walk piece by piece, since a saved square carries the least matrix of
its coset and the unit's symmetry swapping its arms maps it onto
itself.  In the 4-dimensional honeycomb the walk is handed from
hypercube to hypercube through their shared wall.  The {4,3,3,5} pants
is the one-piece signature surface, and every {4,3,5} torus and higher
genus surface starts from one ring of 12 cubes.
"""

from __future__ import annotations

from collections import Counter

from gridforge.coxeter import (
    CosetKey, build_system, cell_faces, central_symmetry, compose,
    identity_cell, neighbor, reflection, square_vertex_cycle, transform,
)
from gridforge.lattice import (
    GriddedComplex, cube_union_boundary as union_boundary,
)
from gridforge.surface import (
    AbstractSquareComplex, GridCollisionError, connected_sum_abstract,
    to_abstract,
)


def opposite_face(cell, face):
    """The face of `cell` opposite `face`: its image under the cell's
    central symmetry, such as the parallel facet of a cube or hypercube
    or the far edge of a square."""
    return transform(central_symmetry(cell), face)


def _edge_parallel_class(cube, edge):
    """The 4 parallel edges of a cube through `edge`: the edge, its
    opposite in the cube and its opposite in each of its 2 squares."""
    squares = set(cell_faces(edge, 2)).intersection(cell_faces(cube, 2))
    return sorted({edge, opposite_face(cube, edge)}
                  | {opposite_face(sq, edge) for sq in squares})


def hyperbolic_torus_435():
    """Torus bounding 12 cubes that wrap around 4 parallel edges.

    Take the base cube, the class of 4 mutually parallel edges through it,
    and every other cube touching one of those edges (each edge carries 5
    cubes here, against 4 in flat space; that extra room is what lets the
    ring close up around the base cube).  The union of those 12 cubes is a
    solid ring and its boundary is a genus-1 surface of 48 squares.  The
    source catalogue quotes 44 squares for this surface; the computed
    count is recorded next to the quoted one in the metadata.
    """
    _, ring = _torus_ring_435()
    squares = union_boundary(ring)
    meta = {
        "kind": "hyperbolic_torus",
        "cube_count": len(ring),
        "square_count": len(squares),
        "catalogued_square_count": 44,
    }
    return GriddedComplex("{4,3,5}", squares, meta)


def _torus_ring_435():
    """The base cube of {4,3,5} and the 12 ring cubes around it."""
    system = build_system("{4,3,5}")
    base = identity_cell(system, 3)
    edges = _edge_parallel_class(base, identity_cell(system, 1))
    if len(edges) != 4:
        raise AssertionError("expected 4 parallel edges in a cube")
    ring = set()
    for e in edges:
        fan = cell_faces(e, 3)
        if len(fan) != 5 or base not in fan:
            raise AssertionError("expected 5 cubes around an edge")
        ring.update(c for c in fan if c != base)
    if len(ring) != 12:
        raise AssertionError(f"expected 12 ring cubes, got {len(ring)}")
    return base, ring


def hyperbolic_pants_435():
    """Three-holed sphere bounding a T of 4 cubes in {4,3,5}.

    A base cube grows a stem through its least face and two arms through
    an opposite pair of side faces.  The boundary of the 4-cube union is
    an 18-square sphere; puncturing it at the far face of the stem and of
    each arm leaves a 15-square pair of pants.
    """
    system = build_system("{4,3,5}")
    base = identity_cell(system, 3)
    faces = cell_faces(base, 2)
    f_stem = faces[0]
    f_back = opposite_face(base, f_stem)
    f_arm = next(f for f in faces if f not in (f_stem, f_back))
    f_arm2 = opposite_face(base, f_arm)
    shared = (f_stem, f_arm, f_arm2)
    outer = tuple(neighbor(base, f) for f in shared)
    # 24 cube faces less 2 per shared square: only the 3 joints are shared
    sphere = union_boundary((base,) + outer)
    if len(sphere) != 18:
        raise AssertionError(f"expected an 18-square sphere, got {len(sphere)}")
    holes = frozenset(opposite_face(c, f) for c, f in zip(outer, shared))
    meta = {
        "kind": "hyperbolic_pants",
        "cube_count": 4,
        "boundary_circles": 3,
    }
    return GriddedComplex(system.name, sphere - holes, meta)


def _step(cube, face, up):
    """The cube beyond `face` of `cube`, and the up marker `up` carried
    into it by the reflection in that wall."""
    nxt = neighbor(cube, face)
    return nxt, transform(reflection(cube, nxt), up)


def _pants_unit(stem, entry, up):
    """Grow one pants piece from its stem cube.

    Returns (cubes, arm holes): the 4 cubes of the piece and, for each
    arm, the (arm cube, far face, transported up marker) needed to hang
    a child piece beyond that hole.
    """
    exit_face = opposite_face(stem, entry)
    center, up_c = _step(stem, exit_face, up)
    back = opposite_face(center, exit_face)
    down = opposite_face(center, up_c)
    arm_faces = [f for f in cell_faces(center, 2)
                 if f not in (exit_face, back, up_c, down)]
    if len(arm_faces) != 2:
        raise AssertionError("expected 2 arm directions")
    cubes = [stem, center]
    holes = []
    for f in arm_faces:
        arm, arm_up = _step(center, f, up_c)
        cubes.append(arm)
        holes.append((arm, opposite_face(arm, f), arm_up))
    return cubes, holes


def _pants_moves(stem, entry, up):
    """The pants unit grown from the frame (stem, entry, up), and for each
    arm the element of W that takes this frame to the frame (child, far
    face, child up) of the piece hung beyond the arm's hole.

    The product of the three wall reflections stem -> center -> arm ->
    child takes stem to child and up to the child's up marker, as the
    walk of _step carries it.  If it lands entry on another face of the
    child than far, the reflection exchanging that face with far, which
    keeps the child's up marker, is applied after it.  That is the same
    element as the walk after the symmetry of the stem that exchanges
    entry with the face the walk takes to far.
    """
    cubes, holes = _pants_unit(stem, entry, up)
    center = cubes[1]
    moves = []
    for arm, far, arm_up in holes:
        child, child_up = _step(arm, far, arm_up)
        walk = compose(reflection(arm, child), reflection(center, arm))
        move = compose(walk, reflection(stem, center))
        landed = transform(move, entry)
        if landed != far:
            move = compose(reflection(landed, far), move)
        if [transform(move, c) for c in (stem, entry, up)] != \
                [child, far, child_up]:
            raise AssertionError("arm move misses the child's frame")
        moves.append(move)
    return cubes, moves


# The deepest tree of pants with at most 65536 squares (65522).
MAX_TREE_DEPTH_435 = 12


def tree_of_life_435(depth):
    """Sphere bounding a binary tree of pants pieces in {4,3,5}.

    Each pants piece is the 4-cube T of hyperbolic_pants_435; the two arm
    holes of every piece down to the requested depth sprout child pieces
    whose stem continues straight through the hole.  Capping all remaining
    holes (which the boundary-of-union does by itself) yields a sphere.
    Raises GridCollisionError if two pieces would reuse a cube; the
    exponential volume of hyperbolic space keeps the tested depths clear.
    The tree has 16 * 2^depth - 14 squares, so a depth past
    MAX_TREE_DEPTH_435 is refused before any work.

    Every piece is the image e U of one unit U, grown once from the base
    cube, under an element e of W: the root has the identity, and a piece
    e has the children e g_k, for g_k the two arm moves of _pants_moves.
    So a piece costs one group product and each of its cubes but the
    stem one transform; the stem is the coset of e itself.  A move is
    fixed by the frame it carries only up to the reflection that keeps
    the stem's entry and up faces; that reflection swaps the unit's two
    arms and so maps U onto itself, and either choice places the same
    cubes.  The saved squares carry the least matrix of their cosets, so
    the written bytes do not depend on the path by which a piece was
    reached.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > MAX_TREE_DEPTH_435:
        raise ValueError(
            f"depth must be at most {MAX_TREE_DEPTH_435}: a tree of depth "
            f"{depth} has 16 * 2^{depth} - 14 squares, more than 65536")
    system = build_system("{4,3,5}")
    stem = identity_cell(system, 3)
    faces = cell_faces(stem, 2)
    entry = faces[0]
    back = opposite_face(stem, entry)
    up = next(f for f in faces if f not in (entry, back))

    unit, moves = _pants_moves(stem, entry, up)
    cubes = list(unit)
    # the elements of W placing the pieces of one level below the root
    layer = moves
    for level in range(1, depth):
        for e in layer:
            # the stem, with the identity for its rep, moves to the coset
            # of e itself
            cubes.append(CosetKey(system, stem.gens, e))
            cubes.extend(transform(e, c) for c in unit[1:])
        if level + 1 < depth:
            layer = [compose(e, g) for e in layer for g in moves]

    dupes = [c for c, m in Counter(cubes).items() if m > 1]
    if dupes:
        raise GridCollisionError("pants pieces overlap", dupes)
    pieces = 2 ** depth - 1
    meta = {"kind": "tree_of_life_hyperbolic", "depth": depth,
            "pants_count": pieces, "cube_count": len(cubes)}
    return GriddedComplex(system.name, union_boundary(cubes), meta)


def closed_orientable_435(genus):
    """Closed orientable surface of the given genus gridded in {4,3,5}.

    Genus 0 is the boundary of one cube and genus 1 the 12-cube ring
    torus.  Higher genus chains mirror images of that torus, each joined
    to the last through one cube Q.  The free squares f of the last copy
    are tried in sorted order, those with exactly one cube Q that is not
    blocked.  The mirror is the reflection exchanging f with the face of
    Q opposite it (coxeter.reflection, the reflection s_d in closed form
    for d the difference of their fixed vectors), which fixes Q and maps
    the copy onto a fresh one beyond Q.  The copy joins as
    surface ^ union_boundary([Q]) ^ copy, accepted when that set has
    |surface| + |copy| + 2 squares, so that the three meet in the two
    mouths of Q only and Q's four side faces stay, and when the cubes the
    copy encloses miss every blocked cube and Q.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    system = build_system("{4,3,5}")
    if genus == 0:
        cube = identity_cell(system, 3)
        return GriddedComplex(system.name, union_boundary([cube]),
                              {"kind": "closed_orientable", "genus": 0})
    base, ring = _torus_ring_435()
    torus = union_boundary(ring)
    if genus == 1:
        return GriddedComplex(system.name, torus,
                              {"kind": "closed_orientable", "genus": 1})

    # the 12 ring cubes plus the enclosed base cube; squares facing any of
    # them are useless attachment sites, so a blocked cube is never Q
    blocked = ring | {base}
    # the surface so far, and the latest torus copy: its squares, the one
    # square already spent as its entry hole, and the cubes it bounds
    surface = copy = torus
    hole = None
    copy_solid = set(blocked)
    for _ in range(genus - 1):
        for f in sorted(copy - {hole}):
            outside = [c for c in cell_faces(f, 3) if c not in blocked]
            if len(outside) != 1:
                continue
            cube = outside[0]
            far = opposite_face(cube, f)
            mirror = reflection(f, far)
            if transform(mirror, f) != far:
                raise AssertionError("mirror does not map the hole "
                                     "to the far face of the cube")
            new_copy = {transform(mirror, s) for s in copy}
            new_solid = {transform(mirror, c) for c in copy_solid}
            joined = surface ^ union_boundary([cube]) ^ new_copy
            if (len(joined) == len(surface) + len(copy) + 2
                    and cube not in new_solid and not new_solid & blocked):
                break
        else:
            raise RuntimeError("could not attach a mirror copy without "
                               "collisions")
        surface, copy, hole, copy_solid = joined, new_copy, far, new_solid
        blocked.update([cube], new_solid)
    return GriddedComplex(system.name, surface,
                          {"kind": "closed_orientable", "genus": genus})


def _hypercube_ring(hypercube, first=None, avoid=()):
    """Four of the 8 cells of a hypercube forming a closed ring.

    Opposite cells share no vertices; a ring is two such opposite pairs.
    `first` picks the starting cell (least by default) and cells whose
    square set meets `avoid` are not used as the second pair.
    """
    cells = cell_faces(hypercube, 3)
    a = first if first is not None else cells[0]
    a_op = opposite_face(hypercube, a)
    avoid = set(avoid)

    def clean(c):
        return not avoid & set(cell_faces(c, 2))

    rest = [c for c in cells if c not in (a, a_op)]
    for b in rest:
        b_op = opposite_face(hypercube, b)
        if clean(b) and clean(b_op):
            return (a, b, a_op, b_op)
    raise AssertionError("no usable ring partner in hypercube")


def torus_4335():
    """Torus of 16 squares: boundary of a 4-cell ring in one hypercube.

    The 8 cubical cells of a hypercube pair up into opposite cells;
    two pairs form a ring whose union is a solid torus, and the squares
    lying in exactly one ring cell form its genus-1 boundary.
    """
    system = build_system("{4,3,3,5}")
    ring = _hypercube_ring(identity_cell(system, 4))
    squares = union_boundary(ring)
    if len(squares) != 16:
        raise AssertionError(f"expected 16 squares, got {len(squares)}")
    meta = {"kind": "ring_torus", "cube_count": 4}
    return GriddedComplex(system.name, squares, meta)


def _straight_step_4335(cube, hypercube, square):
    """Continue a straight row of cubes in {4,3,3,5} through `square`.

    Within the current hypercube the square lies in one other cell; that
    cell is the wall to the next hypercube, and inside the next hypercube
    the square again lies in two cells, one of them the wall.  The other
    one is the continuation: the unique cube beyond the square that stays
    in the row's hyperplane.
    """
    def other_cell(hyper, cell):
        # the cell of `hyper` other than `cell` that holds the square
        found = [c for c in cell_faces(hyper, 3)
                 if c != cell and square in cell_faces(c, 2)]
        if len(found) != 1:
            raise AssertionError("square should lie in 2 cells of a "
                                 "hypercube")
        return found[0]

    wall = other_cell(hypercube, cube)
    nxt_h = neighbor(hypercube, wall)
    return other_cell(nxt_h, wall), nxt_h


def _cube_row_4335(count):
    """A straight row of `count` cubes, with the squares shared by
    consecutive cubes and the hypercubes carrying the walk."""
    system = build_system("{4,3,3,5}")
    cube = identity_cell(system, 3)
    hyper = identity_cell(system, 4)
    cubes = [cube]
    hypers = [hyper]
    shared = []
    exit_face = cell_faces(cube, 2)[0]
    for _ in range(count - 1):
        shared.append(exit_face)
        cube, hyper = _straight_step_4335(cube, hyper, exit_face)
        cubes.append(cube)
        hypers.append(hyper)
        exit_face = opposite_face(cube, shared[-1])
    if len(set(cubes)) != count:
        raise AssertionError("row of cubes doubled back")
    return cubes, shared, hypers


def pants_4335():
    """Three-holed sphere of 11 squares over a straight row of 3 cubes.

    The row's union bounds a 14-square sphere; removing the two far end
    squares and the least side square of the middle cube leaves a pair of
    pants with one boundary circle per removed square.  These are the
    squares of surface_4335(True, 0, 3), one pants piece.
    """
    meta = {"kind": "hyperbolic_pants_4d", "cube_count": 3,
            "boundary_circles": 3}
    return GriddedComplex("{4,3,3,5}", surface_4335(True, 0, 3).squares, meta)


def crosscap_abstract_34():
    """Projective plane from 34 squares of a 6x6 grid patch.

    Remove two opposite corner squares from a 6x6 sheet of squares and
    glue the 24-edge boundary circle to itself antipodally.  The result
    is a closed one-crosscap surface whose squares all come from the
    grid, the smallest such patch that avoids gluing any square to
    itself.
    """
    removed = {(0, 0), (5, 5)}
    squares = []
    for i in range(6):
        for j in range(6):
            if (i, j) in removed:
                continue
            squares.append(((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))

    # the 24-vertex boundary circle, from the least vertex towards its
    # smaller neighbour
    cycle = ([(0, j) for j in range(1, 7)] + [(i, 6) for i in range(1, 6)]
             + [(5, 5)] + [(6, j) for j in range(5, -1, -1)]
             + [(i, 0) for i in range(5, 0, -1)] + [(1, 1)])
    ident = {cycle[k + 12]: cycle[k] for k in range(12)}
    glued = [tuple(ident.get(v, v) for v in cyc) for cyc in squares]
    return AbstractSquareComplex.from_squares(
        glued, {"kind": "crosscap_grid_patch", "square_count": 34})


def surface_4335(orientable, genus, boundary_circles=0):
    """Compact surface of any topological type over the {4,3,3,5} grid.

    A chain of pants pieces (straight rows of 3 cubes) provides one
    decoration site per piece plus the two row ends.  Handles come from
    hypercube rings seeded on a site square, which the global
    multiplicity-1 boundary glues on automatically; boundary circles come
    from removing end or site squares; crosscaps sew the 34-square
    projective patch onto a site abstractly, so nonorientable results are
    returned as abstract complexes (meta key "embedded" False) while
    orientable ones stay gridded.
    """
    if genus < 0 or boundary_circles < 0:
        raise ValueError("genus and boundary circle count must be >= 0")
    if not orientable and genus == 0:
        raise ValueError("a nonorientable surface needs at least 1 crosscap")
    pieces = max(1, genus, genus + boundary_circles - 2)
    cubes, shared, _ = _cube_row_4335(3 * pieces)
    row = set(cubes)
    row_boundary = union_boundary(cubes)

    sites = [next(f for f in cell_faces(cubes[3 * i + 1], 2)
                  if f not in (shared[3 * i], shared[3 * i + 1]))
             for i in range(pieces)]

    ends = []
    if boundary_circles >= 1:
        ends.append(opposite_face(cubes[0], shared[0]))
    if boundary_circles >= 2:
        ends.append(opposite_face(cubes[-1], shared[-1]))
    # the first `genus` sites carry handles or crosscaps; later ones are
    # free to open up as boundary circles
    for i in range(boundary_circles - 2):
        ends.append(sites[genus + i])

    meta = {"kind": "surface_by_signature", "orientable": orientable,
            "boundary_circles": boundary_circles, "pants_count": pieces,
            "end_truncation": 0}
    name = "genus" if orientable else "crosscaps"
    meta[name] = genus

    if orientable:
        all_cubes = list(cubes)
        for i in range(genus):
            site = sites[i]
            host = next(c for c in cell_faces(site, 3) if c not in row)
            hyper = next(h for h in cell_faces(host, 4)
                         if all(c not in row for c in cell_faces(h, 3)))
            ring = _hypercube_ring(hyper, first=host, avoid={site})
            ring_boundary = union_boundary(ring)
            overlap = ring_boundary & row_boundary
            if overlap != {site}:
                raise AssertionError("ring must meet the chain exactly at "
                                     "its site square")
            if set(ring) & set(all_cubes):
                raise GridCollisionError("handle ring reuses a cube",
                                         sorted(set(ring) & set(all_cubes)))
            all_cubes.extend(ring)
        squares = union_boundary(all_cubes) - set(ends)
        return GriddedComplex("{4,3,3,5}", squares, meta)

    site_cycles = [square_vertex_cycle(sites[i]) for i in range(genus)]
    gridded = GriddedComplex("{4,3,3,5}", row_boundary - set(ends))
    result = to_abstract(gridded)
    for idx in range(genus):
        patch = crosscap_abstract_34()
        # each sum renames the vertices of `result` to 0..n-1 in sorted
        # order, so the cycles of the sites still waiting must follow
        relabel = {v: i for i, v in enumerate(sorted(result.vertices))}
        result = connected_sum_abstract(result, site_cycles[idx], patch,
                                        patch.squares[0])
        site_cycles = [tuple(relabel[v] for v in cyc) for cyc in site_cycles]
    meta["embedded"] = False
    return AbstractSquareComplex(result.vertices, result.squares, meta)
