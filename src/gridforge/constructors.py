"""Catalogue of gridded surfaces in the cubical lattices Z^2, Z^3, Z^4.

The basic closed pieces are a cube-boundary sphere, a 32-square torus
(the boundary of 8 cubes: a 3x3x1 block less its middle cube) and a
30-square projective plane that needs a fourth coordinate to embed.  Larger
genus and crosscap numbers come from chaining copies with the gridded
connected sum.  The spiral-tree family thickens a plane binary tree into a
sphere whose shape supports pruning and decorating operations.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from gridforge import lattice
from gridforge.lattice import GriddedComplex, cube_union_boundary
from gridforge.surface import GridCollisionError, connected_sum_embedded


def sphere_cube():
    """The 6 faces of a single unit cube."""
    return GriddedComplex("Z3", lattice.faces((1, 1, 1), 2), meta={"kind": "sphere"})


def frame_torus():
    """A 32-square torus: a square picture frame of 8 cubes, hollow middle."""
    block = {(x, y, 1) for x in (1, 3, 5) for y in (1, 3, 5)}
    frame = cube_union_boundary(block - {(3, 3, 1)})
    return GriddedComplex("Z3", frame, meta={"kind": "torus"})


# Projective plane: 30 squares in Z^4.  The first 24 lie in the w = 0
# hyperplane; six squares use the fourth direction to let the surface pass
# through itself-free.  Every edge lies in exactly two squares.
CROSSCAP_Z4_SQUARES = (
    # squares spanning x,y
    (1, 1, 0, 0), (3, 1, 0, 0), (3, 3, 0, 0), (1, 3, 0, 0),
    (3, 1, 2, 0), (1, 3, 2, 0),
    (1, 1, 4, 0), (3, 3, 4, 0),
    # squares spanning x,z
    (1, 0, 1, 0), (1, 0, 3, 0), (3, 0, 1, 0),
    (1, 2, 3, 0), (3, 2, 3, 0),
    (1, 4, 1, 0), (3, 4, 1, 0), (3, 4, 3, 0),
    # squares spanning y,z
    (0, 1, 1, 0), (0, 1, 3, 0), (0, 3, 1, 0),
    (2, 1, 3, 2), (2, 3, 3, 2),
    (4, 1, 1, 0), (4, 3, 1, 0), (4, 3, 3, 0),
    # squares spanning y,w
    (2, 1, 2, 1), (2, 1, 4, 1), (2, 3, 2, 1), (2, 3, 4, 1),
    # squares spanning z,w
    (2, 0, 3, 1), (2, 4, 3, 1),
)


def crosscap_z4():
    """A 30-square projective plane in Z^4."""
    return GriddedComplex("Z4", CROSSCAP_Z4_SQUARES, meta={"kind": "crosscap"})


def _plane_square(complex_, axis, side):
    """Smallest axis-normal square in the extreme plane on the given side."""
    cand = [s for s in complex_.squares if s[axis] % 2 == 0]
    if not cand:
        raise ValueError(f"no squares normal to axis {axis}")
    plane = max(s[axis] for s in cand) if side > 0 else min(s[axis] for s in cand)
    return min(s for s in cand if s[axis] == plane)


def closed_surface(orientable, count):
    """Closed surface of genus `count` (orientable) or with `count`
    crosscaps (nonorientable), built by chaining copies along the x axis.

    count 0 is the cube sphere; the nonorientable family needs count >= 1
    and lives in Z^4.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        if not orientable:
            raise ValueError("a closed nonorientable surface needs >= 1 crosscap")
        return sphere_cube()
    piece = frame_torus if orientable else crosscap_z4
    acc = piece()
    for _ in range(count - 1):
        b = piece()
        acc = connected_sum_embedded(
            acc, _plane_square(acc, 0, +1), b, _plane_square(b, 0, -1), axis=0)
    kind = "genus" if orientable else "crosscaps"
    return GriddedComplex(acc.ambient, acc.squares, meta={kind: count})


def klein_bottle():
    """Connected sum of two crosscaps: 62 squares in Z^4."""
    return closed_surface(False, 2)


# ---------------------------------------------------------------------------
# Spiral trees in the plane and their thickenings.
# ---------------------------------------------------------------------------


class PlaneTree(namedtuple("PlaneTree", "segments leaves depth")):
    """A tree of axis-parallel unit segments in Z^2.

    segments are pairs of adjacent lattice points, each pair sorted.  leaves
    are the degree-1 endpoints that hang off the final generation.
    """

    __slots__ = ()


def _seg(a, b):
    return (a, b) if a <= b else (b, a)


def _polyline_segments(points):
    segs = []
    for p, q in zip(points, points[1:]):
        dx = (q[0] > p[0]) - (q[0] < p[0])
        dy = (q[1] > p[1]) - (q[1] < p[1])
        if dx and dy:
            raise ValueError(f"polyline corner {p}->{q} is not axis-parallel")
        cur = p
        while cur != q:
            nxt = (cur[0] + dx, cur[1] + dy)
            segs.append(_seg(cur, nxt))
            cur = nxt
    return segs


def spiral_tree(depth):
    """A complete binary tree drawn in the plane with spiralling arms.

    The branch point numbered n sits at (n, 2n+1); its two outgoing arms
    wind once around everything built so far and end at the branch points
    2n+2 and 2n+3.  Arms never touch each other away from their endpoints,
    which lets the thickened version stay embedded.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    segs = []
    segs += _polyline_segments([(0, 0), (0, 1)])
    segs += _polyline_segments([(0, 0), (1, 0), (1, 3)])
    for n in range(depth):
        a = [(n, 2 * n + 1), (-2 * n - 1, 2 * n + 1), (-2 * n - 1, -2 * n - 1),
             (2 * n + 2, -2 * n - 1), (2 * n + 2, 4 * n + 5)]
        b = [(n, 2 * n + 1), (n, 2 * n + 2), (-2 * n - 2, 2 * n + 2),
             (-2 * n - 2, -2 * n - 2), (2 * n + 3, -2 * n - 2),
             (2 * n + 3, 4 * n + 7)]
        segs += _polyline_segments(a)
        segs += _polyline_segments(b)
    segments = frozenset(segs)
    if len(segments) != len(segs):
        raise AssertionError("spiral arms overlap")
    leaves = tuple((m, 2 * m + 1) for m in range(depth, 2 * depth + 2))
    return PlaneTree(segments=segments, leaves=leaves, depth=depth)


SCALE = 5  # lattice dilation applied before thickening


def _thicken(segments):
    """Cubes of the slab 0 <= z <= 1 around the scaled tree."""
    points = {p for seg in segments
              for unit in _polyline_segments([(SCALE * x, SCALE * y)
                                              for x, y in seg])
              for p in unit} or {(0, 0)}
    return {(2 * i + 1, 2 * j + 1, 1)
            for a, b in points for i in (a - 1, a) for j in (b - 1, b)}


def tree_of_life(depth):
    """Sphere obtained by thickening the scaled spiral tree in a slab."""
    squares = cube_union_boundary(_thicken(spiral_tree(depth).segments))
    return GriddedComplex("Z3", squares, meta={"kind": "tree_of_life",
                                               "depth": depth})


class EndDecoration(namedtuple("EndDecoration", "kind truncation")):
    """A truncated infinite end: kind is cylinder, ladder or crosscap_chain,
    truncation is how many repeating blocks of the infinite picture to keep."""

    __slots__ = ()

    def __new__(cls, kind, truncation):
        if kind not in ("cylinder", "ladder", "crosscap_chain"):
            raise ValueError(f"unknown end kind {kind!r}")
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        return super().__new__(cls, kind, truncation)


def box_column(height):
    """Boundary of a 1x1xheight column of cubes: a long sphere."""
    if height < 1:
        raise ValueError("height must be >= 1")
    cubes = [(1, 1, 2 * k + 1) for k in range(height)]
    return GriddedComplex("Z3", cube_union_boundary(cubes), meta={"kind": "column"})


def _prune(segments, count):
    """Remove `count` outermost leaf branches, each back to its junction."""
    segments = set(segments)
    for _ in range(count):
        degree = Counter(v for s in segments for v in s)
        leaves = [v for v, d in degree.items() if d == 1 and v != (0, 0)]
        if not leaves:
            segments.clear()
            break
        cur = max(leaves)
        while True:
            inc = [s for s in segments if cur in s]
            if len(inc) != 1:
                break
            segments.remove(inc[0])
            cur = inc[0][0] if inc[0][1] == cur else inc[0][1]
    return segments


def _top_candidates(complex_, near):
    """z-normal squares on top of the base slab, nearest to `near` first."""
    out = []
    for s in complex_.squares:
        if s[0] % 2 and s[1] % 2 and s[2] == 2 and all(c == 0 for c in s[3:]):
            d = (s[0] - near[0]) ** 2 + (s[1] - near[1]) ** 2
            out.append((d, s))
    out.sort()
    return [s for _, s in out]


def _embed_complex(c, ambient):
    n = lattice.ambient_dim(ambient)
    return GriddedComplex(ambient, lattice.embed_higher(c.squares, n),
                          meta=dict(c.meta))


def _attach_above(acc, piece, near, open_end):
    """Sum a closed piece onto the slab top near a point, lowest key first.

    With open_end the greatest square of the attached piece is removed
    afterwards, leaving one boundary circle.  Candidates that would overlap
    existing geometry are skipped.
    """
    axis = 2
    if lattice.ambient_dim(acc.ambient) > lattice.ambient_dim(piece.ambient):
        piece = _embed_complex(piece, acc.ambient)
    fb = _plane_square(piece, axis, -1)
    last = None
    for fa in _top_candidates(acc, near):
        try:
            out = connected_sum_embedded(acc, fa, piece, fb, axis=axis)
        except GridCollisionError as e:
            last = e
            continue
        if open_end:
            # the tube's sides sort below the piece squares by the far face
            lid = max(out.squares - acc.squares)
            out = GriddedComplex(out.ambient, out.squares - {lid},
                                 meta=out.meta)
        return out
    raise last or GridCollisionError("no room left on the slab top")


def prune_and_decorate(tree, prune=0, handles=0, crosscaps=0, ends=()):
    """Prune leaf branches off a spiral_tree PlaneTree, thicken, decorate.

    handles sums tori onto the top of the slab, crosscaps sums projective
    planes (lifting everything to Z^4 first), and each EndDecoration
    attaches a truncated infinite end near a surviving stub, left open with
    one boundary circle.
    """
    for name, count in (("prune", prune), ("handles", handles),
                        ("crosscaps", crosscaps)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    ends = tuple(ends)
    segments = _prune(tree.segments, prune)
    squares = cube_union_boundary(_thicken(segments))
    acc = GriddedComplex("Z3", squares, meta={})

    degree = Counter(v for s in segments for v in s)
    stubs = sorted(v for v, d in degree.items() if d == 1) or [(0, 0)]
    stub_pts = [(2 * SCALE * x, 2 * SCALE * y) for x, y in stubs]

    origin = (2 * SCALE * 0, 0)
    for _ in range(handles):
        acc = _attach_above(acc, frame_torus(), origin, open_end=False)

    needs_z4 = crosscaps > 0 or any(e.kind == "crosscap_chain" for e in ends)
    if needs_z4:
        acc = _embed_complex(acc, "Z4")
    for _ in range(crosscaps):
        acc = _attach_above(acc, crosscap_z4(), origin, open_end=False)

    for i, end in enumerate(ends):
        near = stub_pts[i % len(stub_pts)]
        if end.kind == "cylinder":
            piece = box_column(end.truncation)
        elif end.kind == "ladder":
            piece = closed_surface(True, end.truncation)
        else:
            piece = closed_surface(False, end.truncation)
        acc = _attach_above(acc, piece, near, open_end=True)

    meta = {
        "kind": "pruned_tree",
        "depth": tree.depth,
        "pruned": prune,
        "handles": handles,
        "crosscaps": crosscaps,
        "ends": tuple((e.kind, e.truncation) for e in ends),
        "stubs": tuple(stub_pts),
    }
    return GriddedComplex(acc.ambient, acc.squares, meta=meta)
