"""End-to-end acceptance checklist, one test per criterion.

Each test appends a single PASS/FAIL line to helpers.ACCEPTANCE_LINES and the
conftest hook echoes the collected checklist after the run.  Comparisons are
exact; the two timed enumerations must stay inside a 120 second budget.
"""

import hashlib
import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

import helpers
from gridforge import lattice
from gridforge.cli import main
from gridforge.constructors import (
    closed_surface, crosscap_z4, frame_torus, klein_bottle,
    prune_and_decorate, sphere_cube, spiral_tree, tree_of_life,
)
from gridforge.coxeter import build_system, incidence_counts, parabolic_order
from gridforge.honeycombs import (
    crosscap_abstract_34, hyperbolic_pants_435, hyperbolic_torus_435,
    pants_4335, torus_4335, tree_of_life_435,
)
from gridforge.lattice import GriddedComplex, embed_higher
from gridforge.surface import classify, connected_sum_embedded


class _Record:
    ok = False
    detail = ""


@contextmanager
def criterion(num, title):
    rec = _Record()
    try:
        yield rec
    except BaseException as exc:
        helpers.ACCEPTANCE_LINES.append(
            f"criterion {num:2d} FAIL  {title}: error: {exc}")
        raise
    status = "PASS" if rec.ok else "FAIL"
    helpers.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} {status}  {title}: {rec.detail}")
    assert rec.ok, f"criterion {num} ({title}): {rec.detail}"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# The two catalogued square lists, frozen here in doubled-barycenter form
# independently of the constructor module.  The builders must reproduce
# them square for square.
CATALOGUED_TORUS_32 = {
    (1, 1, 0), (3, 1, 0), (5, 1, 0), (1, 3, 0), (5, 3, 0),
    (1, 5, 0), (3, 5, 0), (5, 5, 0),
    (1, 1, 2), (3, 1, 2), (5, 1, 2), (1, 3, 2), (5, 3, 2),
    (1, 5, 2), (3, 5, 2), (5, 5, 2),
    (0, 1, 1), (0, 3, 1), (0, 5, 1),
    (2, 3, 1),
    (4, 3, 1),
    (6, 1, 1), (6, 3, 1), (6, 5, 1),
    (1, 0, 1), (3, 0, 1), (5, 0, 1),
    (3, 2, 1),
    (3, 4, 1),
    (1, 6, 1), (3, 6, 1), (5, 6, 1),
}

CATALOGUED_CROSSCAP_30 = {
    (1, 1, 0, 0), (3, 1, 0, 0), (3, 3, 0, 0), (1, 3, 0, 0),
    (3, 1, 2, 0), (1, 3, 2, 0), (1, 1, 4, 0), (3, 3, 4, 0),
    (1, 0, 1, 0), (1, 0, 3, 0), (3, 0, 1, 0), (1, 2, 3, 0),
    (3, 2, 3, 0), (1, 4, 1, 0), (3, 4, 1, 0), (3, 4, 3, 0),
    (0, 1, 1, 0), (0, 1, 3, 0), (0, 3, 1, 0), (2, 1, 3, 2),
    (2, 3, 3, 2), (4, 1, 1, 0), (4, 3, 1, 0), (4, 3, 3, 0),
    (2, 1, 2, 1), (2, 1, 4, 1), (2, 3, 2, 1), (2, 3, 4, 1),
    (2, 0, 3, 1), (2, 4, 3, 1),
}


def test_criterion_01_catalogued_square_lists(tmp_path):
    with criterion(1, "explicit torus and crosscap square lists") as rec:
        t_path = tmp_path / "t.json"
        code, _, err = run_cli(["build", "torus-paper", "-o", str(t_path)])
        assert code == 0, err
        t_squares = {tuple(s)
                     for s in json.loads(t_path.read_text())["squares"]}
        t_rep = classify(frame_torus())
        c_path = tmp_path / "c.json"
        code, _, err = run_cli(["build", "crosscap-r4", "-o", str(c_path)])
        assert code == 0, err
        c_squares = {tuple(s)
                     for s in json.loads(c_path.read_text())["squares"]}
        c_rep = classify(crosscap_z4())
        rec.ok = (t_squares == CATALOGUED_TORUS_32
                  and t_rep.is_closed and t_rep.orientable
                  and t_rep.euler_characteristic == 0 and t_rep.genus == 1
                  and c_squares == CATALOGUED_CROSSCAP_30
                  and c_rep.is_closed and c_rep.orientable is False
                  and c_rep.euler_characteristic == 1
                  and c_rep.crosscaps == 1)
        rec.detail = ("torus build equals the 32 catalogued squares, closed "
                      "orientable genus 1; crosscap build equals the 30 "
                      "catalogued squares, closed nonorientable chi=1; both "
                      "published lists close as-is, no repair needed")


def test_criterion_02_incidence_tables():
    with criterion(2, "honeycomb incidence tables") as rec:
        code, out, _ = run_cli(["stats"])
        assert code == 0
        rows = {}
        for line in out.strip().splitlines():
            head, _, rest = line.partition(": computed ")
            nums, _, claimed = rest.partition(" | catalogued ")
            diff = claimed.endswith("  DIFF")
            if diff:
                claimed = claimed[:-len("  DIFF")]
            rows[head] = (tuple(int(x) for x in nums.split()),
                          tuple(int(x) for x in claimed.split()), diff)
        matching = {
            "{4,4} vertex": (4, 4),
            "{4,3,4} vertex": (6, 12, 8),
            "{4,3,4} edge": (4, 4),
            "{4,3,3,4} vertex": (8, 24, 32, 16),
            "{4,3,5} vertex": (12, 30, 20),
            "{4,3,5} edge": (5, 5),
            "{4,3,3,5} vertex": (120, 720, 1200, 600),
            "{4,3,3,5} square": (5, 5),
        }
        ok = all(rows[key] == (vals, vals, False)
                 for key, vals in matching.items())
        diff_rows = {key for key, (_, _, d) in rows.items() if d}
        ok &= diff_rows == {"{4,3,3,4} edge", "{4,3,3,5} edge"}
        ok &= rows["{4,3,3,4} edge"][0] == (6, 12, 8)
        ok &= rows["{4,3,3,5} edge"][0] == (12, 30, 20)
        # two independent engines agree on the corrected edge rows: lattice
        # stars for the Euclidean one, the {4,3,5} vertex link (same
        # icosahedral figure, separately enumerated) for the hyperbolic one
        brute = tuple(len(lattice.cofaces((1, 0, 0, 0), k))
                      for k in (2, 3, 4))
        ok &= brute == (6, 12, 8)
        ok &= incidence_counts(build_system("{4,3,5}"), 0) == (12, 30, 20)
        rec.ok = ok
        rec.detail = ("8 catalogued rows reproduced exactly; the 2 discrepant "
                      "edge rows print DIFF with computed values 6 12 8 and "
                      "12 30 20, each confirmed by a second engine")


def test_criterion_03_cross_engine_equivalence():
    with criterion(3, "coset counts equal lattice star counts") as rec:
        pairs = 0
        ok = True
        for name, n in (("{4,3,4}", 3), ("{4,3,3,4}", 4)):
            system = build_system(name)
            for d in range(n):
                cell = (1,) * d + (0,) * (n - d)
                counts = incidence_counts(system, d)
                for k in range(d + 1, n + 1):
                    ok &= len(lattice.cofaces(cell, k)) == counts[k - d - 1]
                    pairs += 1
        rec.ok = ok and pairs == 16
        rec.detail = (f"all {pairs} (cell dim, star dim) pairs exact across "
                      "the two Euclidean honeycombs")


def test_criterion_04_connected_sum_law():
    with criterion(4, "connected sum Euler and orientability law") as rec:
        pieces = {"sphere": sphere_cube(), "torus": frame_torus(),
                  "crosscap": crosscap_z4(), "klein": klein_bottle()}
        lifted = {}
        for name, c in pieces.items():
            if c.ambient != "Z4":
                c = GriddedComplex("Z4", embed_higher(c.squares, 4))
            lifted[name] = (c, classify(c))
        rng = random.Random(20260814)
        names = sorted(lifted)
        ok = True
        for _ in range(50):
            a, rep_a = lifted[rng.choice(names)]
            b, rep_b = lifted[rng.choice(names)]
            face_a = max((s for s in a.squares if s[3] % 2 == 0),
                         key=lambda s: (s[3], s))
            face_b = min((s for s in b.squares if s[3] % 2 == 0),
                         key=lambda s: (s[3], s))
            rep = classify(connected_sum_embedded(a, face_a, b, face_b,
                                                  axis=3))
            ok &= rep.is_surface and rep.is_closed
            ok &= rep.euler_characteristic == (rep_a.euler_characteristic
                                               + rep_b.euler_characteristic
                                               - 2)
            ok &= rep.orientable == (rep_a.orientable and rep_b.orientable)
        rec.ok = ok
        rec.detail = ("chi(A#B) = chi(A)+chi(B)-2 and the orientability "
                      "AND-law hold on 50 seeded random pairs")


def test_criterion_05_closed_surface_catalogue():
    with criterion(5, "closed surface catalogue classifies exactly") as rec:
        ok = True
        for genus in range(6):
            rep = classify(closed_surface(True, genus))
            ok &= rep.class_name == f"orientable genus {genus}"
            ok &= rep.is_closed
        for crosscaps in range(1, 6):
            rep = classify(closed_surface(False, crosscaps))
            ok &= rep.crosscaps == crosscaps and rep.orientable is False
            ok &= rep.is_closed
        rec.ok = ok
        rec.detail = "genus 0..5 and crosscaps 1..5 all classify exactly"


def _segment_boxes(segments):
    boxes = []
    for p, q in segments:
        lox, hix = sorted((p[0], q[0]))
        loy, hiy = sorted((p[1], q[1]))
        boxes.append((lox, hix, loy, hiy, (p, q)))
    return boxes


def _segments_only_share_endpoints(segments):
    boxes = _segment_boxes(segments)
    for i, (alox, ahix, aloy, ahiy, ends_a) in enumerate(boxes):
        for blox, bhix, bloy, bhiy, ends_b in boxes[i + 1:]:
            lox, hix = max(alox, blox), min(ahix, bhix)
            loy, hiy = max(aloy, bloy), min(ahiy, bhiy)
            if lox > hix or loy > hiy:
                continue
            if (lox, loy) != (hix, hiy):
                return False
            if (lox, loy) not in ends_a or (lox, loy) not in ends_b:
                return False
    return True


def _segments_form_tree(segments):
    adjacency = {}
    for p, q in segments:
        adjacency.setdefault(p, []).append(q)
        adjacency.setdefault(q, []).append(p)
    if len(adjacency) != len(segments) + 1:
        return False
    seen = {next(iter(adjacency))}
    stack = list(seen)
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adjacency)


def test_criterion_06_tree_family():
    with criterion(6, "spiral tree disjointness and thickenings") as rec:
        segments = sorted(spiral_tree(10).segments)
        ok = len(segments) == len(set(segments))
        ok &= _segments_only_share_endpoints(segments)
        ok &= _segments_form_tree(segments)
        for depth in range(4):
            rep = classify(tree_of_life(depth))
            ok &= rep.class_name == "orientable genus 0" and rep.is_closed
        base = spiral_tree(1)
        for handles in range(4):
            for crosscaps in range(4):
                rep = classify(prune_and_decorate(base, handles=handles,
                                                  crosscaps=crosscaps))
                ok &= rep.is_surface and rep.is_closed
                ok &= rep.euler_characteristic == 2 - 2 * handles - crosscaps
        rec.ok = ok
        rec.detail = (f"the {len(segments)} depth-10 arm segments meet only "
                      "at endpoints and form a tree (covers all smaller "
                      "depths); thickenings are spheres for depth 0..3; all "
                      "16 handle/crosscap decorations satisfy chi = 2-2h-c")


def test_criterion_07_hyperbolic_torus():
    with criterion(7, "hyperbolic 12-cube torus") as rec:
        torus = hyperbolic_torus_435()
        rep = classify(torus)
        rec.ok = (torus.meta["cube_count"] == 12
                  and rep.class_name == "orientable genus 1"
                  and rep.is_closed
                  and torus.meta["square_count"] == len(torus.squares))
        rec.detail = ("12 distinct cube cosets, boundary closed orientable "
                      f"genus 1; informational: computed {len(torus.squares)}"
                      " squares vs the catalogued count "
                      f"{torus.meta['catalogued_square_count']}")


def test_criterion_08_hyperbolic_pants_and_tree():
    with criterion(8, "hyperbolic pants and pants tree") as rec:
        pants = hyperbolic_pants_435()
        rep = classify(pants)
        ok = (rep.euler_characteristic == -1 and rep.boundary_circles == 3
              and len(pants.squares) == 15)
        counts = {}
        start = time.monotonic()
        for depth in (1, 2, 3):
            tree = tree_of_life_435(depth)
            tree_rep = classify(tree)
            ok &= tree_rep.class_name == "orientable genus 0"
            ok &= tree_rep.is_closed
            ok &= tree.meta["cube_count"] == 4 * (2 ** depth - 1)
            counts[depth] = len(tree.squares)
        elapsed = time.monotonic() - start
        ok &= counts == {1: 18, 2: 50, 3: 114} and elapsed < 120
        rec.ok = ok
        rec.detail = ("pants has chi=-1, 3 circles, 15 squares; pants trees "
                      "of depth 1..3 embed with zero coset collisions "
                      f"({elapsed:.1f}s)")


def test_criterion_09_hypercube_honeycomb_builds():
    with criterion(9, "4-dimensional hyperbolic builds") as rec:
        torus = torus_4335()
        torus_rep = classify(torus)
        ok = (len(torus.squares) == 16
              and torus_rep.class_name == "orientable genus 1")
        pants_rep = classify(pants_4335())
        ok &= (pants_rep.euler_characteristic == -1
               and pants_rep.boundary_circles == 3)
        patch = crosscap_abstract_34()
        patch_rep = classify(patch)
        ok &= (len(patch.squares) == 34
               and patch_rep.euler_characteristic == 1
               and patch_rep.orientable is False)
        start = time.monotonic()
        order = parabolic_order(build_system("{4,3,3,5}"),
                                frozenset({1, 2, 3, 4}))
        elapsed = time.monotonic() - start
        ok &= order == 14400 and elapsed < 120
        rec.ok = ok
        rec.detail = ("torus 16 squares genus 1; pants chi=-1 with 3 "
                      "circles; crosscap patch 34 squares chi=1 "
                      f"nonorientable; vertex stabilizer order {order} "
                      f"({elapsed:.1f}s)")


BUILD_COMMANDS = (
    ("build", "sphere"),
    ("build", "torus-paper"),
    ("build", "torus-32"),
    ("build", "crosscap-r4"),
    ("build", "crosscap-30"),
    ("build", "klein-bottle"),
    ("build", "closed-surface", "--genus", "2"),
    ("build", "closed-surface", "--crosscaps", "2"),
    ("build", "tree-spiral", "--depth", "3"),
    ("build", "tree-of-life", "--depth", "2"),
    ("build", "pruned-tree", "--depth", "1", "--handles", "1",
     "--end", "cylinder:1"),
    ("build", "hyp-torus"),
    ("build", "hyp-pants"),
    ("build", "hyp-tree", "--depth", "2"),
    ("build", "hyp-closed", "--genus", "2"),
    ("build", "h4-torus"),
    ("build", "h4-pants"),
    ("build", "h4-crosscap"),
    ("build", "h4-surface", "--genus", "1", "--boundary-circles", "1"),
    ("build", "h4-surface", "--crosscaps", "2"),
)


# sha256 of each command's stdout, in BUILD_COMMANDS order: a refactor
# must leave every catalogue build byte alone
BUILD_DIGESTS = dict(zip(BUILD_COMMANDS, (
    "60a978625f8e7d1c2798b1b86e0317e85795e3c1f1ed9666886272e77e60951b",
    "4e9d89bcd5de946063471c7f290eeb390c6e7782cca8a3cde2b4fa9d25ee581a",
    "4e9d89bcd5de946063471c7f290eeb390c6e7782cca8a3cde2b4fa9d25ee581a",
    "9f3b678d42110a9e11cc3c697b3fc629132d82bf676fda3d66c871c9805ea092",
    "9f3b678d42110a9e11cc3c697b3fc629132d82bf676fda3d66c871c9805ea092",
    "ce4b2f7c211d593f0465435031d9fc76eba85de8e2a9e905f17c9b8489d8bdef",
    "3ec8ed3a1328949b5ba733c917317d0f6812f9b4b95dbf6d014c48fd414cb7a4",
    "ce4b2f7c211d593f0465435031d9fc76eba85de8e2a9e905f17c9b8489d8bdef",
    "acb3276c2ffd1c2bd54fa47960a1eab73c93c3317a82ee523ea980a35051ed1f",
    "ccb6046f59f7c65e9de8cd50f5f32e88141e582aba50381cd706afbb6e0a4f5b",
    "fff33e973b5d8538c1990dc25793ed37f3dae60b6a8bfd4ad4283d721cd5de5f",
    "a0772c7af8b44a47bb0ff71fd9bdfe387d4e50fc5f247d2d4f84bacdd3ab1be3",
    "136f067e7efcd7f1a84b2af6257145ade543e12b8c23ad70f21e66fbe1752e39",
    "e7b2a52606c4593ccfb6ac804bea0c568ff6287fefd4fec507022ea307263f7c",
    "a28cfdc8ea5da5c9fa2396942e75bb724e2cc55dce7962d0532440dce3230686",
    "468bc2619bf223d3b068d3ed6e3cc2b3579e79fed1aa62c723e1c060647dcde9",
    "bff0e6456371c503cd6e87468df2f241f5e2be83f0d57f2b03542a1a69b4dbe5",
    "41bebaf5decf47e125d3768d13249c4ef76b722a9142978371cee9d579383559",
    "1b27a9f6a8650dd682f94a42882a36f8836c6f42e1ed8a502487d1846005cabf",
    "e799898113ff2e59d933112534ae0e1ced205f8cd32fefbd05f6f19826b67e01",
)))


@pytest.mark.parametrize("cmd", BUILD_COMMANDS, ids=" ".join)
def test_build_bytes_are_pinned(cmd):
    code, out, err = run_cli(list(cmd))
    assert code == 0, err
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == BUILD_DIGESTS[cmd]


# sha256 of more pruned-tree builds: each pruning, decoration and end
# kind on a tree deeper than the one in BUILD_COMMANDS
PRUNED_TREE_DIGESTS = {
    ("--depth", "2", "--prune", "1"):
    "482cb55f27d68761ea4964b06846ba1f57500621e0fed8a12f43fb9ec12206f7",
    ("--depth", "2", "--crosscaps", "1"):
    "5eee9652ec5ffa21917f9794289962f2e375370676e9081bba4bdf566cd9d6c5",
    ("--depth", "2", "--end", "cylinder:2"):
    "e8fb619b7c04ade8ced2105d5b29697ae360f57dd36de75ac3d31136a4c30716",
    ("--depth", "2", "--end", "ladder:1"):
    "ea22a2db8da82df7523b96d9f18f2301ffa3e31bb5b53531fb30f096bf57a00f",
    ("--depth", "2", "--end", "crosscap_chain:1"):
    "b428b8d7f3b21ea6d2d7ff2d383ac87ac8e0d49a1be56b05c238c7f36e9a2b0f",
    ("--depth", "3", "--prune", "1"):
    "ea382b8328d3ed1d1900973ade9f00c820c9907b838817f7d0b02eb2ccaa51a9",
}


@pytest.mark.parametrize("options", PRUNED_TREE_DIGESTS, ids=" ".join)
def test_pruned_tree_bytes_are_pinned(options):
    code, out, err = run_cli(["build", "pruned-tree", *options])
    assert code == 0, err
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == PRUNED_TREE_DIGESTS[options]


def test_criterion_10_build_determinism():
    with criterion(10, "byte determinism of every build") as rec:
        ok = True
        for cmd in BUILD_COMMANDS:
            outputs = set()
            for _ in range(3):
                code, out, err = run_cli(list(cmd))
                assert code == 0, (cmd, err)
                outputs.add(out)
            ok &= len(outputs) == 1
        rec.ok = ok
        rec.detail = (f"{len(BUILD_COMMANDS)} catalogue commands repeated 3x "
                      "are byte-identical; builds are single threaded, so "
                      "there is no parallel mode to toggle")
