"""JSON serialization of the three complex families."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridforge.constructors import crosscap_z4, frame_torus, tree_of_life
from gridforge.coxeter import (
    CosetKey, _identity, _mat_mul, _signed_reflection, _twist_fault,
    build_system, cell_faces, enumerate_parabolic, keeps_time_orientation,
    preserves_form,
)
from gridforge.formats import (
    complex_to_jsonable, dumps_complex, jsonable_to_complex, load_complex,
    save_complex,
)
from gridforge.honeycombs import (
    closed_orientable_435, crosscap_abstract_34, hyperbolic_pants_435,
    hyperbolic_torus_435, pants_4335, surface_4335, torus_4335,
    tree_of_life_435,
)
from gridforge.export import to_off
from gridforge.lattice import GriddedComplex
from gridforge.surface import (
    AbstractSquareComplex, classify, cycle_key, validate_surface,
)


def roundtrip(obj):
    return jsonable_to_complex(json.loads(dumps_complex(obj)))


def test_lattice_roundtrip():
    t = frame_torus()
    back = roundtrip(t)
    assert back.ambient == t.ambient
    assert back.squares == t.squares


def test_lattice_roundtrip_z4():
    c = crosscap_z4()
    back = roundtrip(c)
    assert back.squares == c.squares and back.ambient == "Z4"


def test_honeycomb_roundtrip():
    p = hyperbolic_pants_435()
    back = roundtrip(p)
    assert back.ambient == "{4,3,5}"
    assert back.squares == p.squares
    assert classify(back).class_name == "orientable genus 0, 3 boundary circles"


def test_abstract_roundtrip_preserves_classification():
    c = crosscap_abstract_34()
    back = roundtrip(c)
    assert isinstance(back, AbstractSquareComplex)
    assert len(back.squares) == len(c.squares)
    assert classify(back).class_name == "nonorientable, 1 crosscap"


def test_abstract_keeps_isolated_vertices():
    c = AbstractSquareComplex(frozenset({1, 2, 3, 4, 99}),
                              ((1, 2, 3, 4),))
    back = roundtrip(c)
    assert len(back.vertices) == 5
    assert not validate_surface(back).is_surface


def test_dumps_is_normal_form():
    for obj in (frame_torus(), hyperbolic_pants_435(), crosscap_abstract_34()):
        text = dumps_complex(obj)
        assert text.endswith("\n")
        assert dumps_complex(roundtrip(obj)) == text


def test_coset_rep_choice_does_not_change_bytes():
    system = build_system("{4,3,5}")
    p = hyperbolic_pants_435()
    parab = enumerate_parabolic(system, system.parabolic_gens(2))
    from gridforge.coxeter import _mat_mul

    shuffled = frozenset(
        CosetKey(system, k.gens, _mat_mul(k.rep, parab[i % len(parab)]))
        for i, k in enumerate(sorted(p.squares)))
    assert dumps_complex(GriddedComplex(p.ambient, shuffled)) == dumps_complex(p)


@st.composite
def lattice_squares(draw, n):
    """A doubled key of Z^n with exactly two odd coordinates."""
    odd = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2))
    return tuple(2 * draw(st.integers(-12, 12)) + (i in odd)
                 for i in range(n))


@st.composite
def coset_squares(draw, name):
    """A square from a random word, or a face of a cube from one (the
    key whose least matrix comes from its factors)."""
    s = build_system(name)
    w = _identity(s.rank)
    for i in draw(st.lists(st.integers(0, s.rank - 1), max_size=10)):
        w = _mat_mul(w, s.generators[i])
    if draw(st.booleans()):
        return CosetKey(s, s.parabolic_gens(2), w)
    cube = CosetKey(s, s.parabolic_gens(3), w)
    return draw(st.sampled_from(cell_faces(cube, 2)))


@st.composite
def gridded_complexes(draw):
    ambient = draw(st.sampled_from(("Z2", "Z3", "Z4", "{4,3,5}",
                                    "{4,3,3,5}")))
    if ambient.startswith("Z"):
        squares = st.sets(lattice_squares(int(ambient[1:])), max_size=8)
    else:
        squares = st.sets(coset_squares(ambient), max_size=4)
    return GriddedComplex(ambient, draw(squares))


@st.composite
def abstract_complexes(draw):
    labels = draw(st.lists(st.text(max_size=3), min_size=4, max_size=7,
                           unique=True))
    squares = draw(st.lists(st.permutations(labels).map(lambda p: p[:4]),
                            max_size=5, unique_by=cycle_key))
    return AbstractSquareComplex(frozenset(labels), tuple(squares))


def oracle_text(obj):
    return json.dumps(complex_to_jsonable(obj), sort_keys=True,
                      indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(st.one_of(gridded_complexes(), abstract_complexes()))
def test_writer_equals_the_json_oracle(obj):
    assert dumps_complex(obj) == oracle_text(obj)


@pytest.mark.parametrize("ambient", ["Z2", "Z3", "Z4", "{4,3,5}",
                                     "{4,3,3,5}", "Z" + "9" * 30])
def test_writer_of_an_empty_complex(ambient):
    # no lattice template is built for an empty complex: the one of a
    # 10^30 - 1 dimensional key would never finish
    empty = GriddedComplex(ambient, frozenset())
    assert dumps_complex(empty) == oracle_text(empty)
    assert '"squares": []' in dumps_complex(empty)
    if ambient == "Z" + "9" * 30:
        assert to_off(empty).startswith("nOFF\n" + "9" * 30 + "\n0 0 0\n")
    nothing = AbstractSquareComplex(frozenset(), ())
    assert dumps_complex(nothing) == oracle_text(nothing)


# sha256 of the canonical write, fixed across versions of the library: a
# change to coset arithmetic or canonical form must leave these bytes alone
PINNED_BUILDS = [
    (lambda: tree_of_life_435(3),
     "c739212388eb32a996b4dbb3d752e679ac0cf30201e38fcc1e6ea5d67f79158e"),
    (hyperbolic_torus_435,
     "a0772c7af8b44a47bb0ff71fd9bdfe387d4e50fc5f247d2d4f84bacdd3ab1be3"),
    (torus_4335,
     "468bc2619bf223d3b068d3ed6e3cc2b3579e79fed1aa62c723e1c060647dcde9"),
    (pants_4335,
     "bff0e6456371c503cd6e87468df2f241f5e2be83f0d57f2b03542a1a69b4dbe5"),
    (crosscap_abstract_34,
     "41bebaf5decf47e125d3768d13249c4ef76b722a9142978371cee9d579383559"),
    (lambda: surface_4335(False, 2),
     "e799898113ff2e59d933112534ae0e1ced205f8cd32fefbd05f6f19826b67e01"),
    (lambda: surface_4335(True, 1, 1),
     "1b27a9f6a8650dd682f94a42882a36f8836c6f42e1ed8a502487d1846005cabf"),
    (lambda: tree_of_life(3),
     "bed53cfb20bec881a49e17657a519dd1a0ceef9b434bbbf81221ee21c597a014"),
    (lambda: closed_orientable_435(2),
     "a28cfdc8ea5da5c9fa2396942e75bb724e2cc55dce7962d0532440dce3230686"),
    (lambda: closed_orientable_435(3),
     "5a1f47435f7fbc73292f9d3ee44a8a0df694a4c2926f5acb9847f4d944cf58c0"),
    (lambda: closed_orientable_435(4),
     "35d094157d9442f001d70f3b001dfdf3776345bf4c5a0e3a3ac37a1b7c25a5d4"),
    (lambda: closed_orientable_435(5),
     "3e585dfc6f3ef29eed180c2809d31d8251ac4f9c24cc806d437a375394e7fde9"),
    (lambda: closed_orientable_435(6),
     "49000a7b4abf5bc6229e27e069975e53acb1be75b5fddc86440ffa6fa89c5f75"),
]


@pytest.mark.parametrize("build,digest", PINNED_BUILDS,
                         ids=["tree_of_life_435(3)", "hyperbolic_torus_435",
                              "torus_4335", "pants_4335",
                              "crosscap_abstract_34", "surface_4335(False,2)",
                              "surface_4335(True,1,1)", "tree_of_life(3)",
                              "closed_orientable_435(2)",
                              "closed_orientable_435(3)",
                              "closed_orientable_435(4)",
                              "closed_orientable_435(5)",
                              "closed_orientable_435(6)"])
def test_canonical_write_is_pinned(build, digest):
    text = dumps_complex(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_save_and_load(tmp_path):
    path = tmp_path / "torus.json"
    save_complex(frame_torus(), path)
    assert load_complex(path).squares == frame_torus().squares


def test_meta_is_not_serialized():
    data = complex_to_jsonable(frame_torus())
    assert set(data) == {"format", "ambient", "squares"}


def test_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        jsonable_to_complex({"format": "heptagon"})
    with pytest.raises(ValueError):
        jsonable_to_complex([1, 2, 3])


def test_rejects_bad_lattice_squares():
    with pytest.raises(ValueError, match=r"squares\[0\]"):
        jsonable_to_complex({"format": "gridded", "ambient": "Z3",
                             "squares": [["x", 1, 0]]})


def test_rejects_bad_masks_and_matrices():
    base = json.loads(dumps_complex(hyperbolic_pants_435()))
    bad = json.loads(json.dumps(base))
    bad["squares"][0]["mask"] = 3  # leaves two generators out
    with pytest.raises(ValueError, match="mask"):
        jsonable_to_complex(bad)

    bad = json.loads(json.dumps(base))
    bad["squares"][0]["rep"][0][0] = [2, 0, 0, 0]
    with pytest.raises(ValueError, match="bilinear form"):
        jsonable_to_complex(bad)

    bad = json.loads(json.dumps(base))
    bad["squares"][0]["rep"][0][0] = [0, 0]
    with pytest.raises(ValueError, match="quadruple"):
        jsonable_to_complex(bad)


@settings(max_examples=60)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")),
       st.lists(st.integers(0, 4), max_size=12), st.data())
def test_form_check_reads_every_entry(name, word, data):
    # the load check compares half the Gram matrix m^T 4B m; a unit
    # change in any coordinate of any of the rank^2 entries must show
    s = build_system(name)
    w = _identity(s.rank)
    for i in word:
        w = _mat_mul(w, s.generators[i % s.rank])
    gens = s.parabolic_gens(2)
    least = CosetKey(s, gens, w).min_rep()
    rep = [[list(e) for e in row] for row in least]
    doc = {"format": "gridded", "ambient": name,
           "squares": [{"mask": sum(1 << i for i in gens), "rep": rep}]}
    assert jsonable_to_complex(doc).squares == {CosetKey(s, gens, w)}
    i, j, k = (data.draw(st.integers(0, n - 1)) for n in (s.rank, s.rank, 4))
    rep[i][j][k] += data.draw(st.sampled_from((-1, 1)))
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(doc)
    assert str(info.value) == \
        "squares[0]: matrix does not preserve the bilinear form"


@settings(max_examples=60)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")),
       st.lists(st.integers(0, 4), max_size=12))
def test_negated_representative_reverses_time(name, word):
    # -w preserves the form as w does, and is refused by the sign of
    # B(-w x_2, x_2) alone
    s = build_system(name)
    w = _identity(s.rank)
    for i in word:
        w = _mat_mul(w, s.generators[i % s.rank])
    gens = s.parabolic_gens(2)
    rep = [[[-t for t in e] for e in row]
           for row in CosetKey(s, gens, w).min_rep()]
    doc = {"format": "gridded", "ambient": name,
           "squares": [{"mask": sum(1 << i for i in gens), "rep": rep}]}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(doc)
    assert str(info.value) == \
        "squares[0]: matrix reverses the time orientation"


DATA = Path(__file__).parent / "data"

# ring matrices that preserve the form and keep the time orientation but
# fail the twist test, so lie outside W: sign * s_d for these d and signs
# (tests/data/outside_w_435.json holds the first)
_OUTSIDE_W = {
    "{4,3,5}": (((0, -1, 0, 0), (-1, 1, -2, -1), (0, 2, 0, 0),
                 (0, -2, -2, 1)), 1),
    "{4,3,3,5}": (((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0),
                   (0, 0, 1, 0)), -1),
}
_WORDS = st.lists(st.integers(0, 4), max_size=8)


def _outside_w(s):
    return _signed_reflection(s, *_OUTSIDE_W[s.name])


def _word(s, word):
    w = _identity(s.rank)
    for i in word:
        w = _mat_mul(w, s.generators[i % s.rank])
    return w


def _long_word(s, left, k, right):
    """left c^(2^k) right for the Coxeter element c = s_0 s_1 ... of
    infinite order: at k = 7 the entries pass 2^64, at k = 8 2^200."""
    c = _word(s, range(s.rank))
    for _ in range(k):
        c = _mat_mul(c, c)
    return _mat_mul(_mat_mul(_word(s, left), c), _word(s, right))


def _coset_doc(s, *reps):
    mask = sum(1 << i for i in s.parabolic_gens(2))
    return {"format": "gridded", "ambient": s.name,
            "squares": [{"mask": mask, "rep": _as_json(m)} for m in reps]}


def test_a_matrix_outside_w_is_refused():
    # it passes the form and time orientation checks, which were all the
    # loader made before the twist test
    s = build_system("{4,3,5}")
    m = _outside_w(s)
    assert json.loads((DATA / "outside_w_435.json").read_text()) == \
        _coset_doc(s, m)
    assert preserves_form(s, m)
    assert keeps_time_orientation(CosetKey(s, s.parabolic_gens(2), m))
    with pytest.raises(ValueError) as info:
        load_complex(DATA / "outside_w_435.json")
    assert str(info.value) == ("squares[0]: matrix lies outside the "
                               "reflection group: entry [0][0] fails the "
                               "twist test")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")), _WORDS)
def test_a_word_loads_and_a_matrix_outside_w_times_it_is_refused(name,
                                                                  word):
    # the twist is multiplicative and fixes w, so it moves m w as it
    # moves m
    s = build_system(name)
    w = _word(s, word)
    assert jsonable_to_complex(_coset_doc(s, w)).squares == \
        {CosetKey(s, s.parabolic_gens(2), w)}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(_coset_doc(s, _mat_mul(_outside_w(s), w)))
    assert str(info.value).startswith(
        "squares[0]: matrix lies outside the reflection group: entry [")


@pytest.mark.parametrize("name", ["{4,3,5}", "{4,3,3,5}"])
@pytest.mark.parametrize("k,bits", [(7, 64), (8, 200)])
def test_huge_entries_load_and_a_unit_change_is_refused(name, k, bits):
    # the modulus of the Gram check grows with the entries: a unit change
    # in any coordinate the twist test allows still shows
    s = build_system(name)
    w = _long_word(s, [], k, [])
    assert max(abs(t) for row in w for e in row for t in e) > 2 ** bits
    doc = _coset_doc(s, w)
    assert jsonable_to_complex(doc).squares == \
        {CosetKey(s, s.parabolic_gens(2), w)}
    rep = doc["squares"][0]["rep"]
    for i, j in itertools.product(range(s.rank), repeat=2):
        for t in (1, 3) if (i == 0) != (j == 0) else (0, 2):
            for step in (-1, 1):
                rep[i][j][t] += step
                with pytest.raises(ValueError) as info:
                    jsonable_to_complex(doc)
                assert str(info.value) == \
                    "squares[0]: matrix does not preserve the bilinear form"
                rep[i][j][t] -= step


@pytest.mark.parametrize("name", ["{4,3,5}", "{4,3,3,5}"])
@pytest.mark.parametrize("k", [4, 16, 40, 64, 100])
def test_a_form_break_that_a_fixed_modulus_would_miss_is_refused(name, k):
    # diag(1, ..., 1, lam) for lam = 1 + 2^k - phi: its Gram matrix
    # differs from 4B by multiples of lam - 1 = 2^k - phi, which
    # phi -> F = 2^k sends to 0 mod F^2 - F - 1, so only a modulus chosen
    # from the size of the entries refuses it
    s = build_system(name)
    m = _identity(s.rank)
    m = m[:-1] + (m[-1][:-1] + ((1 + 2 ** k, 0, -1, 0),),)
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(_coset_doc(s, m))
    assert str(info.value) == \
        "squares[0]: matrix does not preserve the bilinear form"


def _expected_fault(s, reps):
    """The message naming the first of reps that preserves_form,
    keeps_time_orientation or _twist_fault refuses, in that order, or
    None."""
    for p, m in enumerate(reps):
        if not preserves_form(s, m):
            why = "matrix does not preserve the bilinear form"
        elif not keeps_time_orientation(CosetKey(s, s.parabolic_gens(2), m)):
            why = "matrix reverses the time orientation"
        elif _twist_fault(m) is not None:
            why = ("matrix lies outside the reflection group: entry "
                   "[%d][%d] fails the twist test" % _twist_fault(m))
        else:
            continue
        return f"squares[{p}]: {why}"
    return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")), st.data())
def test_the_batched_check_agrees_with_the_exact_checks(name, data):
    # a document of words, short or long, each perhaps changed in one
    # coordinate by a small or a huge step, negated or moved outside W,
    # and perhaps a last entry of a bad shape, which makes the loader
    # check the reps one at a time
    s = build_system(name)
    reps = []
    for _ in range(data.draw(st.integers(1, 4))):
        m = _long_word(s, data.draw(_WORDS), data.draw(st.integers(0, 8)),
                       data.draw(_WORDS))
        kind = data.draw(st.sampled_from(["sound", "step", "negated",
                                          "outside"]))
        if kind == "step":
            i, j, t = (data.draw(st.integers(0, n - 1))
                       for n in (s.rank, s.rank, 4))
            e = list(m[i][j])
            e[t] += data.draw(st.integers(-3, 3) | st.integers(-2 ** 250,
                                                               2 ** 250))
            m = tuple(tuple(tuple(e) if (a, b) == (i, j) else m[a][b]
                            for b in range(s.rank)) for a in range(s.rank))
        elif kind == "negated":
            m = tuple(tuple(tuple(-t for t in e) for e in row) for row in m)
        elif kind == "outside":
            m = _mat_mul(_outside_w(s), m)
        reps.append(m)
    doc = _coset_doc(s, *reps)
    expected = _expected_fault(s, reps)
    if data.draw(st.booleans()):
        doc["squares"].append({"mask": True, "rep": doc["squares"][0]["rep"]})
        expected = expected or (f"squares[{len(reps)}]: mask must be "
                                f"{doc['squares'][0]['mask']}, every "
                                "generator but 2 (a square)")
    keys = [CosetKey(s, s.parabolic_gens(2), m) for m in reps]
    if expected is None and len(set(keys)) == len(keys):
        assert jsonable_to_complex(doc).squares == set(keys)
        return
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(doc)
    if expected is None:
        assert " same square as " in str(info.value)
    else:
        assert str(info.value) == expected


@pytest.mark.parametrize("square,message", [
    (["a", "a", "c", "d"], "squares[1]: square needs 4 distinct vertices"),
    (["b", "c", "d", "a"], "squares[1]: same square as squares[0]"),
    (["d", "c", "b", "a"], "squares[1]: same square as squares[0]"),
], ids=["repeated vertex", "rotation", "reflection"])
def test_rejects_bad_abstract_squares_by_position(square, message):
    data = {"format": "abstract", "vertices": ["a", "b", "c", "d"],
            "squares": [["a", "b", "c", "d"], square]}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(data)
    assert str(info.value) == message


def test_rejects_unknown_abstract_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        jsonable_to_complex({"format": "abstract", "vertices": ["a", "b", "c"],
                             "squares": [["a", "b", "c", "z"]]})


# documents with two bad abstract entries: the first error in document
# order is reported, except that repeated squares are looked for only
# once every entry has passed its own checks
@pytest.mark.parametrize("squares,message", [
    ([["a", "b", "c"], ["a", "a", "c", "d"]],
     "squares[0]: expected 4 vertex labels"),
    ([["a", "a", "c", "d"], ["a", "b"]],
     "squares[0]: square needs 4 distinct vertices"),
    ([["a", "b", "c", "d"], ["b", "c", "d", "a"], ["a", "b", "z", "d"]],
     "squares[2]: unknown vertex"),
    ([["a", "b", "c", "z"], ["a", 1, "c", "d"]],
     "squares[0]: unknown vertex"),
    ([["a", "b", "c", "d"], ["d", "c", "b", "a"], "abcd"],
     "squares[2]: expected 4 vertex labels"),
], ids=["shape then square", "square then shape", "duplicate then square",
        "unknown then shape", "duplicate then shape"])
def test_two_bad_abstract_entries_report_the_first(squares, message):
    data = {"format": "abstract", "vertices": ["a", "b", "c", "d"],
            "squares": squares}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(data)
    assert str(info.value) == message


def _pants_entries():
    return json.loads(dumps_complex(hyperbolic_pants_435()))["squares"][:3]


# the gridded twin: cells are checked one at a time in document order,
# by the loader for JSON shape and by GriddedComplex for the cell itself
@pytest.mark.parametrize("ambient,squares,message", [
    ("Z3", [[1, 1, 1], [True, 1, 0]],
     "squares[0]: not a square of Z3: (1, 1, 1)"),
    ("Z3", [[True, 1, 0], [1, 1, 1]],
     "squares[0]: expected a list of integers"),
    ("Z3", [[1, 1, 0], [1, 1, 0], [1, 1]],
     "squares[2]: not a square of Z3: (1, 1)"),
    ("Z3", [[1, 1, 0], [1, 1, 0], "110"],
     "squares[2]: expected a list of integers"),
    ("{4,3,5}", lambda e: [e[0], e[1], e[0], {**e[2], "mask": 3}],
     "squares[3]: mask must be 11, every generator but 2 (a square)"),
], ids=["cell then shape", "shape then cell", "duplicate then cell",
        "duplicate then shape", "coset duplicate then shape"])
def test_two_bad_gridded_entries_report_the_first(ambient, squares, message):
    if callable(squares):
        squares = squares(_pants_entries())
    data = {"format": "gridded", "ambient": ambient, "squares": squares}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(data)
    assert str(info.value) == message


def _rep_fault(entry, kind):
    """A copy of a coset entry whose rep fails a check of its own: the
    form check, or, negated, the time orientation."""
    rep = json.loads(json.dumps(entry["rep"]))
    if kind == "form":
        rep[0][0][0] += 1
    else:
        rep = [[[-t for t in e] for e in row] for row in rep]
    return {**entry, "rep": rep}


def _shape_fault(entry, kind):
    """A copy of a coset entry that fails the loader's shape tests."""
    entry = json.loads(json.dumps(entry))
    if kind == "mask":
        entry["mask"] = True
    elif kind == "no rep":
        del entry["rep"]
    elif kind == "short row":
        del entry["rep"][1][0]
    elif kind == "true":
        entry["rep"][2][3][1] = True
    elif kind == "not an object":
        entry = entry["rep"]
    else:  # a rep fault too, which the shape tests pass
        entry = _rep_fault(entry, kind)
    return entry


# a document whose shape tests fail only past an entry whose rep fails its
# own check: the walk that names the shape fault checks each rep before it
# draws the next entry, so the earlier entry is still named
@pytest.mark.parametrize("late", ["mask", "no rep", "short row", "true",
                                  "not an object", "form", "time"])
@pytest.mark.parametrize("early,message", [
    ("form", "squares[1]: matrix does not preserve the bilinear form"),
    ("time", "squares[1]: matrix reverses the time orientation")])
def test_an_earlier_rep_fault_is_named_before_a_later_shape_fault(
        early, message, late):
    first, second, third = _pants_entries()
    squares = [first, _rep_fault(second, early), _shape_fault(third, late)]
    data = {"format": "gridded", "ambient": "{4,3,5}", "squares": squares}
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(data)
    assert str(info.value) == message
    # and with the earlier entry sound, the later fault is the one named
    data["squares"][1] = second
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(data)
    assert str(info.value).startswith("squares[2]: ")


def _lattice_corruption(draw, squares, p):
    """Entry p of a list of distinct lattice keys, corrupted one of the
    ways a document can be wrong, with the message that names it in a
    file and the one that names it in Python, where the loader's JSON
    type check does not run."""
    key = squares[p]
    n = len(key)
    kinds = ["parity", "drop", "extra", "bool", "float", "string",
             "non-list"] + ["copy"] * (p > 0)
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(0, n - 1))
    if kind == "copy":
        q = draw(st.integers(0, p - 1))
        message = f"squares[{p}]: same square as squares[{q}]"
        return squares[q], message, message
    head, x, tail = key[:k], key[k], key[k + 1:]
    if kind == "parity":
        entry = head + (x + draw(st.sampled_from((-1, 1))),) + tail
    elif kind == "drop":
        entry = head + tail
    elif kind == "extra":
        entry = key + (2 * draw(st.integers(-3, 3)),)
    elif kind == "bool":
        entry = head + (draw(st.booleans()),) + tail
    elif kind == "float":
        entry = head + (float(x),) + tail
    elif kind == "string":
        entry = head + (str(x),) + tail
    else:
        entry = draw(st.sampled_from((None, 7, "110", {"x": 1})))
    cell = f"squares[{p}]: not a square of Z{n}: {entry!r}"
    if kind in ("parity", "drop", "extra"):
        return entry, cell, cell
    return entry, f"squares[{p}]: expected a list of integers", cell


def _check_corrupted_lattice_entry(squares, p, draw):
    """Corrupt entry p of a document of distinct lattice keys: loaded
    from a file, and handed to GriddedComplex, it is named with the
    message _lattice_corruption gives."""
    ambient = f"Z{len(squares[0])}"
    doc = {"format": "gridded", "ambient": ambient,
           "squares": [list(key) for key in squares]}
    assert jsonable_to_complex(doc).squares == set(squares)
    entry, in_file, in_python = _lattice_corruption(draw, squares, p)
    bad = squares[:p] + [entry] + squares[p + 1:]
    doc["squares"] = [list(e) if isinstance(e, tuple) else e for e in bad]
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(json.loads(json.dumps(doc)))
    assert str(info.value) == in_file
    with pytest.raises(ValueError) as info:
        GriddedComplex(ambient, bad)
    assert str(info.value) == in_python


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    lattice_squares(n), min_size=2, max_size=8, unique=True)), st.data())
def test_loader_fuzz_names_the_corrupted_lattice_entry(squares, data):
    p = data.draw(st.integers(0, len(squares) - 1))
    _check_corrupted_lattice_entry(squares, p, data.draw)


# the 3300 squares of Z3 with coordinates 0..20, sorted: the loader and
# GriddedComplex test such a document in bulk and walk it only when a
# test fails
MANY_SQUARES = [k for k in itertools.product(range(21), repeat=3)
                if sum(x % 2 for x in k) == 2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, len(MANY_SQUARES) // 2, len(MANY_SQUARES) - 1)),
       st.data())
def test_loader_names_the_corrupted_entry_of_a_large_document(p, data):
    _check_corrupted_lattice_entry(MANY_SQUARES, p, data.draw)


@st.composite
def coset_word_squares(draw, name):
    """A square of the system and its representative, the product of a
    random word in the generators."""
    s = build_system(name)
    w = _identity(s.rank)
    for i in draw(st.lists(st.integers(0, s.rank - 1), max_size=10)):
        w = _mat_mul(w, s.generators[i])
    return CosetKey(s, s.parabolic_gens(2), w), w


def _as_json(rep):
    return [[list(e) for e in row] for row in rep]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("{4,3,5}", "{4,3,3,5}")).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(
        coset_word_squares(name), min_size=2, max_size=8,
        unique_by=lambda kw: kw[0]))), st.data())
def test_loader_fuzz_names_the_corrupted_coset_entry(case, data):
    name, drawn = case
    s = build_system(name)
    mask = sum(1 << i for i in s.parabolic_gens(2))
    entries = [{"mask": mask, "rep": _as_json(w)} for _, w in drawn]
    doc = {"format": "gridded", "ambient": name, "squares": entries}
    assert jsonable_to_complex(doc).squares == {k for k, _ in drawn}
    p = data.draw(st.integers(0, len(entries) - 1))
    rep = _as_json(drawn[p][1])
    kinds = ["mask", "shape", "true", "unit", "negated"] + ["coset"] * (p > 0)
    kind = data.draw(st.sampled_from(kinds))
    i, j, k = (data.draw(st.integers(0, n - 1)) for n in (s.rank, s.rank, 4))
    message = None
    if kind == "mask":
        entry = {"mask": data.draw(st.sampled_from(
            [mask ^ (1 << b) for b in range(s.rank)] + [True, str(mask)])),
                 "rep": rep}
    elif kind == "shape":
        del data.draw(st.sampled_from((rep, rep[i], rep[i][j])))[0]
        entry = {"mask": mask, "rep": rep}
    elif kind == "true":
        rep[i][j][k] = True
        entry = {"mask": mask, "rep": rep}
    elif kind == "unit":
        rep[i][j][k] += data.draw(st.sampled_from((-1, 1)))
        entry = {"mask": mask, "rep": rep}
    elif kind == "negated":
        entry = {"mask": mask,
                 "rep": [[[-t for t in e] for e in row] for row in rep]}
    else:
        q = data.draw(st.integers(0, p - 1))
        entry = {"mask": mask,
                 "rep": _as_json(_mat_mul(drawn[q][1], s.generators[0]))}
        message = f"squares[{p}]: same square as squares[{q}]"
    doc["squares"] = entries[:p] + [entry] + entries[p + 1:]
    with pytest.raises(ValueError) as info:
        jsonable_to_complex(json.loads(json.dumps(doc)))
    assert str(info.value).startswith(f"squares[{p}]: ")
    if message is not None:
        assert str(info.value) == message


class _Label:
    """Orderable vertex label whose string form hides the order field."""

    def __init__(self, order, text):
        self.order, self.text = order, text

    def __str__(self):
        return self.text

    def __hash__(self):
        return hash((self.order, self.text))

    def __eq__(self, other):
        return (isinstance(other, _Label)
                and (self.order, self.text) == (other.order, other.text))

    def __lt__(self, other):
        return self.order < other.order


def test_rejects_colliding_string_labels():
    verts = tuple(_Label(i, t) for i, t in enumerate("svsu"))
    c = AbstractSquareComplex(frozenset(verts), (verts,))
    with pytest.raises(ValueError, match="collide"):
        complex_to_jsonable(c)
