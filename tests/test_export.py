"""Mesh output: OFF, nOFF and OBJ; the Klein frame's eigensolver."""

import ast
import math
import re
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridforge import export
from gridforge.constructors import crosscap_z4, sphere_cube
from gridforge.coxeter import build_system, identity_cell
from gridforge.export import to_obj, to_off, vertex_coordinates
from gridforge.formats import jsonable_to_complex
from gridforge.field import ring_float
from gridforge.honeycombs import crosscap_abstract_34, hyperbolic_torus_435
from gridforge.lattice import GriddedComplex


def test_off_sphere():
    text = to_off(sphere_cube())
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    coords = [tuple(float(x) for x in ln.split()) for ln in lines[2:10]]
    assert set(coords) == {(x, y, z) for x in (0.0, 1.0)
                           for y in (0.0, 1.0) for z in (0.0, 1.0)}
    faces = lines[10:]
    assert len(faces) == 6
    for f in faces:
        parts = f.split()
        assert parts[0] == "4"
        assert all(0 <= int(i) < 8 for i in parts[1:])


def test_noff_for_four_coordinates():
    text = to_off(crosscap_z4())
    lines = text.splitlines()
    assert lines[0] == "nOFF"
    assert lines[1] == "4"
    assert lines[2] == "31 30 60"
    assert all(len(ln.split()) == 4 for ln in lines[3:34])


def test_obj_sphere():
    text = to_obj(sphere_cube())
    lines = text.splitlines()
    vs = [ln for ln in lines if ln.startswith("v ")]
    fs = [ln for ln in lines if ln.startswith("f ")]
    assert len(vs) == 8 and len(fs) == 6
    assert all(1 <= int(i) <= 8 for ln in fs for i in ln.split()[1:])


def test_obj_pads_plane_complexes():
    text = to_obj(GriddedComplex("Z2", {(1, 1)}))
    vs = [ln for ln in text.splitlines() if ln.startswith("v ")]
    assert len(vs) == 4
    assert all(ln.split()[3] == "0.000000000000" for ln in vs)


# the header of every mesh of an ambient, the empty one too: nOFF with the
# dimension outside 3 coordinates, and OBJ's note past 3
@pytest.mark.parametrize("ambient,dim", [
    ("Z2", 2), ("Z3", 3), ("Z5", 5), ("{4,3,5}", 3), ("{4,3,3,5}", 4)])
def test_an_empty_complex_has_its_ambient_header(ambient, dim):
    empty = jsonable_to_complex({"format": "gridded", "ambient": ambient,
                                 "squares": []})
    head = "OFF\n" if dim == 3 else f"nOFF\n{dim}\n"
    assert to_off(empty) == head + "0 0 0\n"
    note = f"# first 3 of {dim} coordinates\n" if dim > 3 else "\n"
    assert to_obj(empty) == note
    if ambient.startswith("Z"):
        square = (1, 1) + (0,) * (dim - 2)
        one = GriddedComplex(ambient, {square})
    else:
        one = GriddedComplex(ambient, {identity_cell(build_system(ambient),
                                                     2)})
    assert to_off(one).startswith(head)
    assert to_obj(one).startswith(note if dim > 3 else "v ")


def test_klein_coordinates_inside_unit_ball():
    t = hyperbolic_torus_435()
    coords = vertex_coordinates(t)
    assert coords
    for p in coords.values():
        assert len(p) == 3
        assert math.sqrt(sum(c * c for c in p)) < 1.0


def test_off_hyperbolic_is_deterministic():
    t = hyperbolic_torus_435()
    text = to_off(t)
    assert text == to_off(hyperbolic_torus_435())
    header = text.splitlines()[1]
    v, f, e = map(int, header.split())
    assert (v, f, e) == (48, 48, 96)


def test_no_negative_zero_tokens():
    for text in (to_off(hyperbolic_torus_435()), to_obj(sphere_cube())):
        assert "-0.000000000000" not in text


def test_abstract_complexes_have_no_mesh():
    with pytest.raises(ValueError, match="gridded"):
        vertex_coordinates(crosscap_abstract_34())
    with pytest.raises(ValueError):
        to_off(crosscap_abstract_34())


def _eigen_errors(a, vals, vecs):
    """Largest residual |a v - l v| relative to the largest entry of a,
    and largest deviation of the eigenvectors from orthonormality."""
    n = len(a)
    scale = max(abs(x) for row in a for x in row) or 1.0
    residual = max(abs(math.fsum(map(mul, a[i], v)) - val * v[i])
                   for val, v in zip(vals, vecs) for i in range(n))
    gram = max(abs(math.fsum(x * y for x, y in zip(u, v)) - (i == j))
               for i, u in enumerate(vecs) for j, v in enumerate(vecs))
    return residual / scale, gram


@st.composite
def symmetric_matrices(draw):
    n = draw(st.sampled_from([4, 5]))
    exponent = draw(st.integers(-30, 30))
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0)).map(
        lambda x: math.ldexp(x, exponent))
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entry)
    return a


@settings(max_examples=300)
@given(symmetric_matrices())
def test_eigensolver_diagonalizes_symmetric_matrices(a):
    vals, vecs = export._eigen_symmetric(a)
    assert vals == sorted(vals)
    residual, gram = _eigen_errors(a, vals, vecs)
    assert residual <= 1e-12 and gram <= 1e-12


@pytest.mark.parametrize("name,rank", [("{4,3,5}", 4), ("{4,3,3,5}", 5)])
def test_klein_frame_is_orthonormal_for_the_form(name, rank):
    system = build_system(name)
    b = [[ring_float(e) / 4 for e in row] for row in system.bilinear4]
    vals, vecs = export._eigen_symmetric(b)
    residual, gram = _eigen_errors(b, vals, vecs)
    assert residual <= 1e-12 and gram <= 1e-12
    assert vals[0] < 0 < vals[1]    # signature (rank - 1, 1)
    _, timelike, spacelike = export._klein_frame(system)
    axes = [timelike] + spacelike
    assert len(axes) == rank
    for i, u in enumerate(axes):
        # each axis has coordinate 0 of the pinned sign, well clear of 0
        assert math.copysign(1, u[0]) == export._AXIS_SIGNS[name][i]
        for j, v in enumerate(axes):
            form = math.fsum(x * bxy * y for x, row in zip(u, b)
                             for bxy, y in zip(row, v))
            expected = -1.0 if i == j == 0 else float(i == j)
            assert abs(form - expected) <= 1e-12
    assert min(abs(v[0]) for v in vecs) > 0.28


def test_the_package_imports_the_standard_library_only():
    src = Path(export.__file__).parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "gridforge"]
    assert outside == []
    pyproject = (src.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert not re.search(r"^dependencies\s*=", pyproject, re.M)
