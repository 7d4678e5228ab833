"""Mesh export: OFF (any dimension) and Wavefront OBJ.

Lattice complexes use their integer coordinates halved (cells are keyed
by doubled barycenters).  Honeycomb complexes are drawn in the Klein ball
model: the bilinear form has signature (n, 1), so an orthogonal
eigenbasis splits into n spacelike directions and one timelike one, and a
vertex ray v maps to the point with coordinates B(v, s_i) / -B(v, t).
That keeps straight honeycomb edges straight at the cost of metric
distortion near the ball's rim.  The frame comes from the form's ring
matrix 4B (CoxeterSystem.bilinear4), each entry a float through
field.ring_float and divided by 4, which is exact.  A vertex's
coordinates become floats the same way, bit for bit the floats of the
exact field elements, read through field.key_float straight from the
key tuple the square index holds for it (coxeter.corner_keys), so no
vertex cell is decoded.  The eigenbasis is computed here, in plain float
arithmetic, and every sum is math.fsum's correctly rounded one, so the
written digits depend on neither a linear algebra library nor the
Python version.

An eigenvector is fixed only up to sign, and flipping an axis mirrors
the drawing.  _AXIS_SIGNS holds the orientation the exports have always
had (it is the one numpy.linalg.eigh picked when it computed the frame),
so the OFF and OBJ files written before keep their coordinates.

A coset square's corners start where its representative puts them
(coxeter.corner_keys), so to_off and to_obj of a complex built
in-process follow its squares' representatives.  The command line
exports a loaded file, whose representatives are canonical.

Abstract complexes carry no embedding and cannot be exported as meshes.
"""

from __future__ import annotations

from itertools import combinations
from math import copysign, fsum, sqrt
from operator import mul

from gridforge.coxeter import build_system
from gridforge.lattice import GriddedComplex, ambient_dim, is_lattice_ambient
from gridforge.surface import square_index
from gridforge.field import key_float, ring_float


# The sign of coordinate 0 of each frame axis, in order of increasing
# eigenvalue (the timelike axis first).  No such coordinate is smaller
# than 0.28 in absolute value, so rounding cannot flip one.
_AXIS_SIGNS = {"{4,3,5}": (-1, 1, 1, -1), "{4,3,3,5}": (1, 1, -1, -1, 1)}
_SWEEPS = 10


def _dot(u, v):
    return fsum(map(mul, u, v))


def _eigen_symmetric(a):
    """Eigenvalues of the symmetric float matrix `a` in increasing order,
    and unit eigenvectors to match, by cyclic Jacobi rotation (Golub and
    Van Loan, Matrix Computations, 4th ed., 8.5).  Each rotation zeroes
    its pair outright, so for these small matrices the off-diagonal part
    is exactly zero well before the last sweep, which then rotates
    nothing."""
    n = len(a)
    a = [list(row) for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_SWEEPS):
        for p, q in combinations(range(n), 2):
            if a[p][q] == 0:
                continue
            tau = (a[q][q] - a[p][p]) / (2 * a[p][q])
            t = copysign(1.0, tau) / (abs(tau) + sqrt(1 + tau * tau))
            c = 1 / sqrt(1 + t * t)
            s = t * c
            for row in a + v:       # columns p and q of a J and v J
                x, y = row[p], row[q]
                row[p], row[q] = c * x - s * y, s * x + c * y
            ap, aq = a[p], a[q]     # then rows p and q of J^T a J
            a[p] = [c * x - s * y for x, y in zip(ap, aq)]
            a[q] = [s * x + c * y for x, y in zip(ap, aq)]
            a[p][q] = a[q][p] = 0.0
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [[row[i] for row in v] for i in order]


def _klein_frame(system):
    """The form matrix B, then its unit timelike axis and unit spacelike
    axes, each oriented by _AXIS_SIGNS."""
    b = [[ring_float(e) / 4 for e in row] for row in system.bilinear4]
    vals, vecs = _eigen_symmetric(b)
    axes = []
    for val, vec, sign in zip(vals, vecs, _AXIS_SIGNS[system.name]):
        scale = sqrt(abs(val))
        sign = sign if vec[0] > 0 else -sign
        axes.append([sign * x / scale for x in vec])
    return b, axes[0], axes[1:]


def _klein_coords(system, keys):
    """The Klein coordinates of vertex cells given by their key tuples
    (CosetKey.key), each coordinate through field.key_float."""
    b, timelike, spacelike = _klein_frame(system)
    out = []
    for key in keys:
        x = [key_float(e) for e in key]
        xb = [_dot(x, row) for row in b]     # x B, as B is symmetric
        denom = -_dot(xb, timelike)
        if denom == 0:
            raise ValueError("vertex on the ideal boundary")
        out.append(tuple(_dot(xb, s) / denom for s in spacelike))
    return out


def _gridded_index(obj):
    if not isinstance(obj, GriddedComplex):
        raise ValueError("only gridded complexes have coordinates")
    return square_index(obj)


def _points(ambient, index):
    """The dimension of a gridded complex's points, and the coordinates
    of the vertices of its SquareIndex in their order.  A lattice Zn has
    n, and its points come from the vertex tuples; a honeycomb has
    rank - 1, as its points lie in the Klein ball, and they come from the
    corner key tuples, with no vertex cell decoded.  The dimension is the
    ambient's, so an empty complex has one too."""
    if is_lattice_ambient(ambient):
        halves = [[c / 2.0 for c in axis] for axis in zip(*index.vertices)]
        return ambient_dim(ambient), list(zip(*halves))
    system = build_system(ambient)
    return system.rank - 1, _klein_coords(system, index.vertex_codes)


def vertex_coordinates(obj):
    """Map each vertex of a gridded complex to a tuple of floats."""
    index = _gridded_index(obj)
    return dict(zip(index.vertices, _points(obj.ambient, index)[1]))


def _fmt(x):
    # normalize -0.0 so output bytes do not depend on rounding direction
    return f"{x + 0.0 if x else 0.0:.12f}"


class _Digits(dict):
    """The text of each coordinate value, formatted once: lattice
    coordinates repeat, so most of them are a lookup."""

    def __missing__(self, x):
        text = self[x] = _fmt(x)
        return text


def _mesh(obj):
    """The dimension of the points and the points in sorted vertex order,
    as _points gives them, faces as sorted 4-tuples of point positions,
    and the number of edges."""
    index = _gridded_index(obj)
    return (*_points(obj.ambient, index), sorted(index.squares),
            len(index.edge_counts))


def _lines(head, prefix, points, template, faces):
    """The head lines, one line per point (prefix, then its coordinates)
    and one template line per face, as newline-terminated text."""
    digits = _Digits().__getitem__
    lines = head + [prefix + " ".join(map(digits, p)) for p in points]
    lines += [template % f for f in faces]
    return "\n".join(lines) + "\n"


def to_off(obj):
    """OFF text; complexes in other than 3 coordinates use the nOFF
    extension, with their dimension on the second line."""
    dim, points, faces, n_edges = _mesh(obj)
    head = ["OFF"] if dim == 3 else ["nOFF", str(dim)]
    head.append(f"{len(points)} {len(faces)} {n_edges}")
    return _lines(head, "", points, "4 %d %d %d %d", faces)


def to_obj(obj):
    """Wavefront OBJ text; extra coordinates beyond 3 are dropped and 2D
    complexes get a zero third coordinate."""
    dim, points, faces, _ = _mesh(obj)
    head = []
    if dim > 3:
        head.append(f"# first 3 of {dim} coordinates")
    return _lines(head, "v ", [(tuple(p) + (0.0, 0.0))[:3] for p in points],
                  "f %d %d %d %d",
                  [(a + 1, b + 1, c + 1, d + 1) for a, b, c, d in faces])
