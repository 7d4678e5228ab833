"""Command line behaviour: catalogue, exit codes, determinism."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gridforge import cli, constructors
from gridforge.cli import main
from gridforge.constructors import spiral_tree
from gridforge.coxeter import _mat_mul, build_system
from gridforge.formats import load_complex
from gridforge.lattice import GriddedComplex

# a subprocess finds the package in the checkout, installed or not
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def build(tmp_path, name, *extra):
    path = tmp_path / (name + ".json")
    code, _, err = run(["build", name, *extra, "-o", str(path)])
    assert code == 0, err
    return path


@pytest.mark.parametrize("cmd,expected", [
    (("sphere",), "orientable genus 0"),
    (("torus-paper",), "orientable genus 1"),
    (("torus-32",), "orientable genus 1"),
    (("crosscap-r4",), "nonorientable, 1 crosscap"),
    (("crosscap-30",), "nonorientable, 1 crosscap"),
    (("klein-bottle",), "nonorientable, 2 crosscaps"),
    (("closed-surface", "--genus", "2"), "orientable genus 2"),
    (("closed-surface", "--crosscaps", "3"), "nonorientable, 3 crosscaps"),
    (("tree-of-life", "--depth", "2"), "orientable genus 0"),
    (("pruned-tree", "--depth", "1", "--handles", "1"), "orientable genus 1"),
    (("hyp-torus",), "orientable genus 1"),
    (("hyp-pants",), "orientable genus 0, 3 boundary circles"),
    (("hyp-tree", "--depth", "2"), "orientable genus 0"),
    (("hyp-closed", "--genus", "2"), "orientable genus 2"),
    (("h4-torus",), "orientable genus 1"),
    (("h4-pants",), "orientable genus 0, 3 boundary circles"),
    (("h4-crosscap",), "nonorientable, 1 crosscap"),
    (("h4-surface", "--genus", "1", "--boundary-circles", "1"),
     "orientable genus 1, 1 boundary circle"),
    (("h4-surface", "--crosscaps", "2"), "nonorientable, 2 crosscaps"),
])
def test_catalogue_builds_and_classifies(tmp_path, cmd, expected):
    path = tmp_path / "out.json"
    code, _, err = run(["build", *cmd, "-o", str(path)])
    assert code == 0, err
    code, out, _ = run(["classify", str(path)])
    assert code == 0
    assert out.splitlines()[0] == expected


def test_build_writes_to_stdout_by_default():
    code, out, _ = run(["build", "sphere"])
    assert code == 0
    data = json.loads(out)
    assert data["format"] == "gridded" and len(data["squares"]) == 6


def test_build_is_byte_deterministic():
    for cmd in (["build", "hyp-torus"],
                ["build", "h4-surface", "--crosscaps", "1"],
                ["build", "pruned-tree", "--depth", "1", "--end",
                 "cylinder:2"]):
        outputs = {run(cmd)[1] for _ in range(3)}
        assert len(outputs) == 1


def test_tree_spiral_document():
    code, out, _ = run(["build", "tree-spiral", "--depth", "2"])
    assert code == 0
    data = json.loads(out)
    tree = spiral_tree(2)
    assert data["format"] == "plane_tree"
    assert data["depth"] == 2
    assert len(data["segments"]) == len(tree.segments)
    assert all(len(s) == 4 and all(isinstance(x, int) for x in s)
               for s in data["segments"])
    assert data["leaves"] == sorted([x, y] for x, y in tree.leaves)


def test_validate_reports_and_exit_codes(tmp_path):
    good = build(tmp_path, "torus-paper")
    code, out, _ = run(["validate", str(good)])
    assert code == 0
    assert "surface: yes" in out and "closed: yes" in out
    assert "euler characteristic: 0" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "gridded", "ambient": "Z3",
                               "squares": [[1, 1, 0], [1, 0, 1], [1, 0, -1]]}))
    code, out, _ = run(["validate", str(bad)])
    assert code == 1
    assert "surface: no" in out and "failure:" in out
    code, out, _ = run(["classify", str(bad)])
    assert code == 1
    assert out.splitlines()[0] == "not a surface"


def test_sum_stacks_spheres(tmp_path):
    a = build(tmp_path, "sphere")
    out_path = tmp_path / "sum.json"
    code, _, err = run(["sum", str(a), str(a), "--face-a", "1,1,2",
                        "--face-b", "1,1,0", "-o", str(out_path)])
    assert code == 0, err
    assert len(json.loads(out_path.read_text())["squares"]) == 14
    code, out, _ = run(["classify", str(out_path)])
    assert code == 0
    assert out.splitlines()[0] == "orientable genus 0"


def test_sum_collision_exits_1(tmp_path):
    a = build(tmp_path, "sphere")
    code, _, err = run(["sum", str(a), str(a), "--face-a", "1,1,2",
                        "--face-b", "1,1,2"])
    assert code == 1
    # the sphere's copy sits on its top face: the 4 corners of that face
    # and the 4 side faces of the connecting cube are shared
    assert err.splitlines() == [
        "error: translated complex collides with the base at 8 cells",
        *(f"  collision at {cell}" for cell in (
            (0, 0, 2), (0, 2, 2), (2, 0, 2), (2, 2, 2),
            (0, 1, 3), (1, 0, 3), (1, 2, 3), (2, 1, 3)))]


def test_sum_collision_lists_each_cell_once(tmp_path):
    a = build(tmp_path, "sphere")
    code, _, err = run(["sum", str(a), str(a), "--face-a", "1,1,0",
                        "--face-b", "1,1,2"])
    assert code == 1
    # the copy lands on the sphere itself: its 4 side squares are shared,
    # and are also the occupied sides of the connecting cube, listed once
    assert err.splitlines() == [
        "error: translated complex collides with the base at 12 cells",
        *(f"  collision at {cell}" for cell in (
            (0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1),
            (0, 0, 0), (0, 0, 2), (0, 2, 0), (0, 2, 2),
            (2, 0, 0), (2, 0, 2), (2, 2, 0), (2, 2, 2)))]


def test_sum_bad_face_exits_2(tmp_path):
    a = build(tmp_path, "sphere")
    code, _, err = run(["sum", str(a), str(a), "--face-a", "9,9,8",
                        "--face-b", "1,1,0"])
    assert code == 2
    assert "not a square of the first complex" in err


@pytest.mark.parametrize("first,extra,message", [
    ("h4-crosscap", [],
     "both complexes must live in the same lattice ambient"),
    ("sphere", ["--axis", "7"], "axis 7 is not one of 0..2"),
    ("sphere", ["--axis", "-1"], "axis -1 is not one of 0..2"),
], ids=["abstract", "axis-7", "axis-minus-1"])
def test_sum_bad_input_exits_2(tmp_path, first, extra, message):
    a = build(tmp_path, first)
    b = build(tmp_path, "sphere")
    code, out, err = run(["sum", str(a), str(b), "--face-a", "1,1,2",
                          "--face-b", "1,1,0", *extra])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("faces,message", [
    (["--face-a", "x", "--face-b", "1,1,0"],
     "expected comma-separated integers, got 'x'"),
    (["--face-a", "1,1,2", "--face-b", "1,1,7"],
     "(1, 1, 7) is not a square of the second complex"),
], ids=["not-integers", "not-in-the-second"])
def test_sum_bad_faces_exit_2(tmp_path, faces, message):
    s = build(tmp_path, "sphere")
    assert run(["sum", str(s), str(s), *faces]) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("faces,message", [
    (["--face-a", "1,1,0", "--face-b", "1,0,1"],
     "chosen squares are not parallel, cannot align them"),
    (["--face-a", "1,1,0", "--face-b", "1,1,0", "--axis", "0"],
     "axis 0 is tangent to (1, 1, 0), not normal"),
], ids=["not-parallel", "tangent-axis"])
def test_sum_of_squares_that_cannot_be_aligned_exits_2(tmp_path, faces,
                                                       message):
    s = build(tmp_path, "sphere")
    assert run(["sum", str(s), str(s), *faces]) == (
        2, "", f"error: {message}\n")


def test_sum_in_z2_exits_2(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": "Z2",
                                "squares": [[1, 1]]}))
    code, out, err = run(["sum", str(path), str(path), "--face-a", "1,1",
                          "--face-b", "1,1"])
    assert (code, out, err) == (2, "", "error: (1, 1) has no normal axis "
                                       "in Z2\n")


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "gridded", "squares": [[1,')
    code, _, err = run(["validate", str(path)])
    assert code == 2
    assert "line 1" in err and "column" in err
    # valid JSON nested past the decoder's recursion limit
    path.write_text("[" * 100000 + "]" * 100000)
    for command in ("validate", "classify", "export"):
        assert run([command, str(path)]) == (
            2, "", "error: JSON nests too deeply to read\n")


@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_malformed_json_message_is_exact(tmp_path, command):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "gridded", "squares": [[1,')
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == "error: malformed JSON at line 1 column 38: Expecting value\n"


def test_schema_error_exits_2(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"format": "dodecahedron"}')
    code, _, err = run(["classify", str(path)])
    assert code == 2
    assert "unknown format" in err


@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_coset_cell_that_is_not_a_square_exits_2(tmp_path, command):
    path = build(tmp_path, "hyp-pants")
    data = json.loads(path.read_text())
    data["squares"][1]["mask"] = 7  # leaves out generator 3: a 3-cell
    path.write_text(json.dumps(data))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: squares[1]: mask must be 11, every generator "
                   "but 2 (a square)\n")


@pytest.mark.parametrize("name", ["hyp-torus", "h4-torus"])
@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_negated_representatives_exit_2(tmp_path, command, name):
    # -w preserves the form as w does, but swaps the future light cone
    # with the past, which no element of the reflection group does
    path = build(tmp_path, name)
    data = json.loads(path.read_text())
    for square in data["squares"]:
        square["rep"] = [[[-t for t in e] for e in row]
                         for row in square["rep"]]
    path.write_text(json.dumps(data))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: squares[0]: matrix reverses the time "
                   "orientation\n")


@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_a_matrix_outside_the_reflection_group_exits_2(command):
    # its one rep preserves the form and keeps the time orientation, but
    # fails the twist test that every element of W passes
    path = Path(__file__).parent / "data" / "outside_w_435.json"
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: squares[0]: matrix lies outside the reflection "
                   "group: entry [0][0] fails the twist test\n")


@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_a_matrix_that_breaks_the_form_exits_2(tmp_path, command):
    # the identity with entry [0][0] = 2 passes the twist test, and
    # doubles B(e_0, e_0)
    rep = [[[int(i == j), 0, 0, 0] for j in range(4)] for i in range(4)]
    rep[0][0][0] = 2
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": "{4,3,5}",
                                "squares": [{"mask": 11, "rep": rep}]}))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: squares[0]: matrix does not preserve the "
                   "bilinear form\n")


@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_euclidean_coset_document_exits_2(tmp_path, command):
    # {4,3,4} is the cubic lattice: its squares are Z3 keys, not cosets
    identity = [[[int(i == j), 0, 0, 0] for j in range(4)] for i in range(4)]
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": "{4,3,4}",
                                "squares": [{"mask": 11, "rep": identity}]}))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == "error: {4,3,4} is a lattice: use ambient Z3\n"


@pytest.mark.parametrize("ambient", ["Z03", "Z\u0663", "Z\u00b2", "Z0"])
@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_non_canonical_lattice_ambient_exits_2(tmp_path, command, ambient):
    # "Z" and ASCII decimal digits with no leading zero name a lattice;
    # anything else is an unknown honeycomb
    path = tmp_path / "ambient.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": ambient,
                                "squares": [[1, 1, 0]]}))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: unknown system {ambient!r}; known: {{4,3,3,4}}, "
                   "{4,3,3,5}, {4,3,4}, {4,3,5}, {4,4}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int string digit limit")
def test_a_dimension_past_the_int_digit_limit_names_the_ambient(tmp_path):
    ambient = "Z" + "9" * 5000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": ambient,
                                "squares": [[1, 1, 0]]}))
    message = "ambient dimension has 5000 digits, too many to read"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as exc:
            GriddedComplex(ambient, {(1, 1, 0)})
        assert str(exc.value) == message
        assert run(["validate", str(path)]) == (2, "", f"error: {message}\n")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int string digit limit")
def test_an_integer_past_the_int_digit_limit_exits_2(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"format": "gridded", "ambient": "Z3", "squares": '
                    "[[1, 1, " + "9" * 5000 + "]]}")
    message = "a JSON integer has more than 4300 digits, too many to read"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as exc:
            load_complex(path)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message
        assert run(["validate", str(path)]) == (2, "", f"error: {message}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_file_that_is_not_utf8_keeps_the_codec_message(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(UnicodeDecodeError):
        load_complex(path)
    assert run(["validate", str(path)]) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")


@pytest.mark.parametrize("command,document,message", [
    ("validate", [], "top level must be an object"),
    ("classify", {"format": "abstract", "vertices": [1, 2], "squares": []},
     "abstract vertices must be strings"),
], ids=["a-list", "int-vertices"])
def test_documents_of_the_wrong_kind_exit_2(tmp_path, command, document,
                                            message):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(document))
    assert run([command, str(path)]) == (2, "", f"error: {message}\n")


def _identity_with_a_true():
    # JSON true equals 1, so this would load as the identity square
    rep = [[[int(i == j), 0, 0, 0] for j in range(4)] for i in range(4)]
    rep[0][0][0] = True
    return rep


@pytest.mark.parametrize("document,message", [
    ({"format": "gridded", "ambient": "Z3",
      "squares": [[1, 1, 0], [True, True, 0]]},
     "squares[1]: expected a list of integers"),
    ({"format": "gridded", "ambient": "{4,3,5}",
      "squares": [{"mask": 11, "rep": _identity_with_a_true()}]},
     "squares[0]: entries must be integer quadruples"),
], ids=["lattice", "coset"])
@pytest.mark.parametrize("command", ["validate", "classify", "export"])
def test_json_booleans_are_not_integers(tmp_path, command, document,
                                        message):
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps(document))
    assert "true" in path.read_text()
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _with_lattice_duplicate(tmp_path):
    return {"format": "gridded", "ambient": "Z3",
            "squares": [[1, 1, 0], [1, 1, 0]]}


def _with_coset_duplicate(tmp_path):
    # the same square as squares[2], by another representative of its coset
    data = json.loads(build(tmp_path, "hyp-pants").read_text())
    system = build_system("{4,3,5}")
    rep = tuple(tuple(tuple(e) for e in row)
                for row in data["squares"][2]["rep"])
    other = _mat_mul(rep, system.generators[0])
    assert other != rep
    data["squares"].append({"mask": 11, "rep": [[list(e) for e in row]
                                                for row in other]})
    return data


def _with_repeated_label(tmp_path):
    return {"format": "abstract", "vertices": ["a", "b", "c", "d", "b"],
            "squares": [["a", "b", "c", "d"]]}


def _with_abstract_duplicate(tmp_path):
    # the same cycle, reflected and rotated
    return {"format": "abstract", "vertices": ["a", "b", "c", "d", "e"],
            "squares": [["a", "b", "c", "d"], ["b", "c", "d", "e"],
                        ["c", "b", "a", "d"]]}


@pytest.mark.parametrize("document,message", [
    (_with_lattice_duplicate, "squares[1]: same square as squares[0]"),
    (_with_coset_duplicate, "squares[15]: same square as squares[2]"),
    (_with_repeated_label, "vertices[4]: label 'b' repeats vertices[1]"),
    (_with_abstract_duplicate, "squares[2]: same square as squares[0]"),
], ids=["lattice", "coset", "label", "abstract"])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_repeated_entries_exit_2_naming_both(tmp_path, command, document,
                                             message):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(document(tmp_path)))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_a_cell_that_is_not_a_square_exits_2_naming_it(tmp_path, command):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"format": "gridded", "ambient": "Z3",
                                "squares": [[1, 1, 0], [1, 1, 1]]}))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == "error: squares[1]: not a square of Z3: (1, 1, 1)\n"


@pytest.mark.parametrize("document,message", [
    ({"format": "gridded", "squares": []}, "missing ambient"),
    ({"format": "gridded", "ambient": 3, "squares": []},
     "ambient must be a string"),
    ({"format": "gridded", "ambient": "Z3"}, "missing squares"),
    ({"format": "gridded", "ambient": "Z3", "squares": {}},
     "squares must be a list"),
    ({"format": "abstract", "vertices": []}, "missing squares"),
    ({"format": "abstract", "vertices": [], "squares": {}},
     "squares must be a list"),
], ids=["no ambient", "ambient 3", "no squares", "squares {}",
        "abstract no squares", "abstract squares {}"])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_document_shape_errors_say_what_is_wrong(tmp_path, command, document,
                                                 message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(document))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_abstract_square_with_a_repeated_vertex_exits_2(tmp_path, command):
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({
        "format": "abstract", "vertices": ["a", "b", "c", "d"],
        "squares": [["a", "b", "c", "d"], ["a", "b", "a", "c"]]}))
    code, out, err = run([command, str(path)])
    assert (code, out) == (2, "")
    assert err == "error: squares[1]: square needs 4 distinct vertices\n"


@pytest.mark.parametrize("option,value", [
    ("--handles", "-1"), ("--prune", "-3"), ("--crosscaps", "-2")])
def test_pruned_tree_rejects_negative_counts(option, value):
    code, out, err = run(["build", "pruned-tree", "--depth", "2",
                          option, value])
    assert (code, out) == (2, "")
    assert err == f"error: {option[2:]} must be >= 0, got {value}\n"


@pytest.mark.parametrize("argv,message", [
    (["closed-surface", "--genus", "-1"], "count must be nonnegative"),
    (["tree-spiral", "--depth", "-1"], "depth must be nonnegative"),
    (["tree-of-life", "--depth", "-1"], "depth must be nonnegative"),
], ids=["closed-surface", "tree-spiral", "tree-of-life"])
def test_negative_sizes_exit_2(argv, message):
    assert run(["build", *argv]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["hyp-closed", "--genus", "-1"], "genus must be nonnegative"),
    (["h4-surface", "--genus", "-1"],
     "genus and boundary circle count must be >= 0"),
    (["h4-surface", "--crosscaps", "0"],
     "a nonorientable surface needs at least 1 crosscap"),
    (["closed-surface", "--crosscaps", "0"],
     "a closed nonorientable surface needs >= 1 crosscap"),
    (["closed-surface"],
     "closed-surface needs exactly one of --genus/--crosscaps"),
], ids=["hyp-closed-genus", "h4-surface-genus", "h4-surface-crosscaps",
        "closed-surface-crosscaps", "closed-surface-neither"])
def test_build_refusals_exit_2(argv, message):
    assert run(["build", *argv]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["off", "obj"])
def test_export_of_an_abstract_complex_exits_2(tmp_path, fmt):
    path = build(tmp_path, "h4-crosscap")
    assert run(["export", str(path), "--format", fmt]) == (
        2, "", "error: only gridded complexes have coordinates\n")


def test_bad_end_length_names_the_entry():
    code, out, err = run(["build", "pruned-tree", "--depth", "2",
                          "--end", "cylinder:x"])
    assert (code, out) == (2, "")
    assert err == "error: --end 'cylinder:x': length must be an integer\n"


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv,code", [
    (["stats", "{4,4}"], 0), (["stats", "{9,9}"], 2)], ids=["ok", "error"])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, collecting,
                                                   argv, code):
    during = []
    stats = cli._cmd_stats
    monkeypatch.setattr(cli, "_cmd_stats",
                        lambda args: during.append(gc.isenabled())
                        or stats(args))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        result = run(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert result[0] == code
    assert during == [False]
    assert after == collecting


def test_cli_runs_a_lattice_command_without_numpy(tmp_path):
    path = build(tmp_path, "sphere")
    script = ("import sys, gridforge.cli\n"
              "assert 'numpy' not in sys.modules, 'import'\n"
              f"assert gridforge.cli.main(['classify', {str(path)!r}]) == 0\n"
              "assert 'numpy' not in sys.modules, 'classify'\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "orientable genus 0"
    # the Klein ball export of a {4,3,5} complex needs no numpy either
    path = build(tmp_path, "hyp-pants")
    script = ("import sys\n"
              "sys.modules['numpy'] = None  # any import of it now fails\n"
              "import gridforge.cli\n"
              f"sys.exit(gridforge.cli.main(['export', {str(path)!r}, "
              "'--format', 'off']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["export", str(path), "--format", "off"])[1]
    assert proc.stdout.startswith("OFF\n")


def test_importing_a_module_loads_only_what_it_uses(tmp_path):
    """The package root re-exports nothing, so importing it loads no
    submodule, and gridforge.coxeter loads neither lattice nor surface.
    Every command pays the import of gridforge.cli first, and none loads
    standard modules it does not run: dataclasses with inspect, and
    fractions with decimal, which only the tests' field reference uses."""
    script = ("import sys, {}\n"
              "print(' '.join(sorted(m for m in sys.modules "
              "if m.startswith('gridforge.'))))\n")
    loaded = {}
    for module in ("gridforge", "gridforge.coxeter"):
        proc = subprocess.run([sys.executable, "-c", script.format(module)],
                              capture_output=True, text=True, env=SRC_ENV)
        assert proc.returncode == 0, proc.stderr
        loaded[module] = set(proc.stdout.split())
    assert loaded["gridforge"] == set()
    assert not loaded["gridforge.coxeter"] & {"gridforge.lattice",
                                              "gridforge.surface"}
    path = build(tmp_path, "torus-32")
    script = ("import sys, gridforge.cli\n"
              f"gridforge.cli.main(['classify', {str(path)!r}])\n"
              "gridforge.cli.main(['stats', '{4,3,5}'])\n"
              "print(*sorted({'dataclasses', 'inspect', 'fractions', "
              "'decimal'} & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "orientable genus 1"
    assert "{4,3,5} vertex: computed 12 30 20" in proc.stdout
    assert proc.stderr == "\n"


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["build", "not-a-thing"])
    assert exc.value.code == 2
    code, _, err = run(["build", "closed-surface"])
    assert code == 2 and "--genus/--crosscaps" in err
    code, _, err = run(["build", "h4-surface", "--genus", "1",
                        "--crosscaps", "1"])
    assert code == 2
    assert run(["build", "hyp-closed", "--crosscaps", "2"]) == (
        2, "", "error: hyp-closed takes --genus only\n")
    # an id refuses every option it does not read
    for argv, message in [
            (["closed-surface", "--genus", "2", "--boundary-circles", "1"],
             "closed-surface takes --genus, --crosscaps only"),
            (["sphere", "--genus", "3"], "sphere takes no options but -o"),
            (["torus-paper", "--end", "cylinder:2"],
             "torus-paper takes no options but -o"),
            (["hyp-tree", "--depth", "2", "--prune", "4"],
             "hyp-tree takes --depth only"),
            (["pruned-tree", "--depth", "1", "--genus", "2"],
             "pruned-tree takes --depth, --prune, --handles, --crosscaps, "
             "--end only"),
            (["h4-surface", "--genus", "1", "--depth", "2"],
             "h4-surface takes --genus, --crosscaps, --boundary-circles "
             "only")]:
        assert run(["build", *argv]) == (2, "", f"error: {message}\n")
    code, _, err = run(["stats", "{9,9}"])
    assert code == 2 and "unknown honeycomb" in err


def test_hyp_tree_refuses_a_depth_past_the_size_limit():
    start = time.perf_counter()
    assert run(["build", "hyp-tree", "--depth", "40"]) == (
        2, "", "error: depth must be at most 12: a tree of depth 40 has "
               "16 * 2^40 - 14 squares, more than 65536\n")
    assert time.perf_counter() - start < 1.0


def test_pruned_tree_lifts_a_z3_end_onto_a_z4_tree(tmp_path, monkeypatch):
    # the crosscap moves the tree into Z4 (the first lift), so the Z3
    # cylinder end is embedded one dimension up before it is summed on
    lifts = []
    embed = constructors._embed_complex
    monkeypatch.setattr(constructors, "_embed_complex",
                        lambda c, ambient: lifts.append((c.ambient, ambient))
                        or embed(c, ambient))
    path = build(tmp_path, "pruned-tree", "--depth", "1", "--crosscaps", "1",
                 "--end", "cylinder:1")
    assert lifts == [("Z3", "Z4"), ("Z3", "Z4")]
    assert json.loads(path.read_text())["ambient"] == "Z4"
    assert run(["classify", str(path)]) == (0, (
        "nonorientable, 1 crosscap, 1 boundary circle\n"
        "components: 1\n"
        "euler characteristic: 0\n"
        "orientable: no\n"
        "boundary circles: 1\n"
        "closed: no\n"), "")


def test_stats_marks_catalogue_differences():
    code, out, _ = run(["stats", "{4,3,4}", "{4,3,3,4}", "{4,3,5}"])
    assert code == 0
    lines = out.splitlines()
    diffs = [ln for ln in lines if ln.endswith("DIFF")]
    assert len(diffs) == 1
    assert diffs[0].startswith("{4,3,3,4} edge:")
    assert "computed 6 12 8" in diffs[0]
    assert "catalogued 6 32 16" in diffs[0]
    vertex_row = [ln for ln in lines if ln.startswith("{4,3,5} vertex")][0]
    assert "computed 12 30 20" in vertex_row
    assert not vertex_row.endswith("DIFF")


def test_stats_default_covers_all_systems():
    code, out, _ = run(["stats"])
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.endswith("DIFF")) == 2
    for name in ("{4,4}", "{4,3,4}", "{4,3,3,4}", "{4,3,5}", "{4,3,3,5}"):
        assert any(ln.startswith(name + " ") for ln in lines)


def test_export_formats(tmp_path):
    path = build(tmp_path, "hyp-pants")
    code, out, _ = run(["export", str(path), "--format", "off"])
    assert code == 0 and out.startswith("OFF\n")
    code, out, _ = run(["export", str(path), "--format", "obj"])
    assert code == 0 and "\nf " in out
    code, out, _ = run(["export", str(path), "--format", "json"])
    assert code == 0 and out == path.read_text()
    abstract = build(tmp_path, "h4-crosscap")
    code, _, err = run(["export", str(abstract), "--format", "off"])
    assert code == 2


# sha256 of `export F --format off` and `--format obj` for a built file F:
# vertex coordinates, numbering and face corners must stay as they are
EXPORT_DIGESTS = {
    ("hyp-torus",): (
        "ff94859cec477933feed5d5e178c56958ec2b2cc1140af3f49053c69ca62f87c",
        "d12101c9d468a1beaed016c12c2670d594b9f16171114f8394d83fcc1428f9da"),
    ("hyp-tree", "--depth", "2"): (
        "d1748de5ecee70f9291d9d96374dae884609162d279872c6be7932be337968bb",
        "c43e7d08ec9aa79662f1dfe829a8e48576b28065eb1d91604e7956fcb3a7b83c"),
    ("h4-torus",): (
        "66442261089d4566496bac9ac9b56772ad70df1bff56f00edd23359810c9e4dd",
        "be9147e3d56f8bf6425307589bbf1f10a1f070bc1a64e4d80d6a2431ebeefb9f"),
    ("tree-of-life", "--depth", "2"): (
        "8bc8f253b277f217329ffa42e3f5a504bebcb2c562eb9bf6e7523b836d21dc2a",
        "63f9d88d497d16b2fae1d2e65922264eae6ba7357de025a5a10e329b332510a4"),
    ("crosscap-r4",): (
        "39f704fe087eb612935cb63e5801cfc5c1c8c7241f0bc6a08ea1575147af4c06",
        "0c81b2fa07c07098547c5af951dd3817c85b04644fe4563ab33c3c85bcf057b4"),
    ("torus-paper",): (
        "be44281533831b41c1cdf97ac7d53a35a115902880b8e4456b280fe0fc43870e",
        "8a56f7613163a7dc9e241c9b99850ef9079063596b8940023005e4a4cf9053dc"),
}


@pytest.mark.parametrize("cmd", EXPORT_DIGESTS, ids=" ".join)
def test_export_bytes_are_pinned(tmp_path, cmd):
    path = build(tmp_path, *cmd)
    for fmt, digest in zip(("off", "obj"), EXPORT_DIGESTS[cmd]):
        code, out, err = run(["export", str(path), "--format", fmt])
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_missing_file_exits_2(tmp_path):
    code, _, err = run(["validate", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_module_invocation_subprocess(tmp_path):
    path = tmp_path / "sphere.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gridforge.cli", "build", "sphere",
         "-o", str(path)], capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "gridforge.cli", "classify", str(path)],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "orientable genus 0"
