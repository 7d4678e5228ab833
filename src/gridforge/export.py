"""Mesh export: OFF (any dimension) and Wavefront OBJ.

Lattice complexes use their integer coordinates halved (cells are keyed
by doubled barycenters).  Honeycomb complexes are drawn in the Klein ball
model: the bilinear form has signature (n, 1), so an orthogonal
eigenbasis splits into n spacelike directions and one timelike one, and a
vertex ray v maps to the point with coordinates B(v, s_i) / -B(v, t).
That keeps straight honeycomb edges straight at the cost of metric
distortion near the ball's rim.  The frame comes from the form's ring
matrix 4B (CoxeterSystem.bilinear4), each entry a float through
field.ring_float and divided by 4, which is exact.  A vertex's ring
coordinates become floats the same way, bit for bit the floats of the
exact field elements, and each vertex is projected on its own: one
batched product rounds differently and would change the written digits.

A coset square's corners start where its representative puts them
(coxeter.square_vertex_cycle), so to_off and to_obj of a complex built
in-process follow its squares' representatives.  The command line
exports a loaded file, whose representatives are canonical.

Abstract complexes carry no embedding and cannot be exported as meshes.
numpy is imported only by the Klein ball path, so that the commands that
never draw a honeycomb complex do not pay for loading it.
"""

from __future__ import annotations

from gridforge.lattice import GriddedComplex, is_lattice_ambient
from gridforge.surface import square_index
from gridforge.field import ring_float


def _klein_frame(system):
    import numpy as np

    b = np.array([[ring_float(e) / 4 for e in row]
                  for row in system.bilinear4])
    vals, vecs = np.linalg.eigh(b)
    timelike = vecs[:, 0] / np.sqrt(-vals[0])
    spacelike = [vecs[:, i] / np.sqrt(vals[i]) for i in range(1, len(vals))]
    return b, timelike, spacelike


def _klein_coords(system, keys):
    import numpy as np

    b, timelike, spacelike = _klein_frame(system)
    out = []
    for key in keys:
        x = np.array([ring_float(e) for e in key.vec])
        denom = -float(x @ b @ timelike)
        if denom < 0:
            x, denom = -x, -denom
        if denom == 0:
            raise ValueError("vertex on the ideal boundary")
        out.append(tuple(float(x @ b @ s) / denom for s in spacelike))
    return out


def _gridded_index(obj):
    if not isinstance(obj, GriddedComplex):
        raise ValueError("only gridded complexes have coordinates")
    return square_index(obj)


def _points(ambient, vertices):
    """Coordinates of the given vertices, in their order."""
    if is_lattice_ambient(ambient):
        return list(zip(*[[c / 2.0 for c in axis]
                          for axis in zip(*vertices)]))
    from gridforge.coxeter import build_system

    return _klein_coords(build_system(ambient), vertices)


def vertex_coordinates(obj):
    """Map each vertex of a gridded complex to a tuple of floats."""
    vertices = _gridded_index(obj).vertices
    return dict(zip(vertices, _points(obj.ambient, vertices)))


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
    """Points in sorted vertex order, faces as sorted 4-tuples of point
    positions, and the number of edges."""
    index = _gridded_index(obj)
    return (_points(obj.ambient, index.vertices), sorted(index.squares),
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
    points, faces, n_edges = _mesh(obj)
    dim = len(points[0]) if points else 3
    head = ["OFF"] if dim == 3 else ["nOFF", str(dim)]
    head.append(f"{len(points)} {len(faces)} {n_edges}")
    return _lines(head, "", points, "4 %d %d %d %d", faces)


def to_obj(obj):
    """Wavefront OBJ text; extra coordinates beyond 3 are dropped and 2D
    complexes get a zero third coordinate."""
    points, faces, _ = _mesh(obj)
    head = []
    if points and len(points[0]) > 3:
        head.append(f"# first 3 of {len(points[0])} coordinates")
    return _lines(head, "v ", [(tuple(p) + (0.0, 0.0))[:3] for p in points],
                  "f %d %d %d %d",
                  [(a + 1, b + 1, c + 1, d + 1) for a, b, c, d in faces])
