import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from helpers import PHI, SQRT2, SQRT5, cos_pi, ring_from_qf
from gridforge import coxeter
from gridforge.cli import main
from gridforge.field import (
    QF, qf_from_ring, radd, rcofactor, ring_float, ring_key, rmul, rneg,
    rscale, rsign, rsub,
)


def test_radical_products():
    assert SQRT2 * SQRT2 == QF(2)
    assert SQRT5 * SQRT5 == QF(5)
    assert SQRT2 * SQRT5 == QF(0, 0, 0, 1)
    assert (SQRT2 * SQRT5) * (SQRT2 * SQRT5) == QF(10)
    assert (1 + SQRT2) * (1 - SQRT2) == QF(-1)


def test_golden_ratio_and_cosines():
    # the one table of 2 cos(pi/m) = n * (1, sqrt2, phi)[u] that gives the
    # generators and 4B, against the exact cosines of the field
    assert PHI * PHI == PHI + 1
    c = cos_pi(5)
    assert 4 * c * c - 2 * c - 1 == QF(0)
    units = (QF(1), SQRT2, PHI)
    assert sorted(coxeter._TWO_COS) == [1, 2, 3, 4, 5]
    for m, (u, n) in coxeter._TWO_COS.items():
        assert n * units[u] == 2 * cos_pi(m)
        assert qf_from_ring(coxeter._unit(u, n)) == n * units[u]
    with pytest.raises(ValueError):
        cos_pi(6)


def _random_qf(rng, span=9):
    return QF(*(Fraction(rng.randint(-span, span),
                         rng.randint(1, 4)) for _ in range(4)))


def test_inverse_round_trip():
    rng = random.Random(20240)
    for _ in range(200):
        x = _random_qf(rng)
        if not x:
            continue
        assert x * x.inverse() == QF(1)
        assert 1 / x == x.inverse()
        assert x.inverse() * x.inverse() == (x * x).inverse()


def test_exact_comparisons():
    # 665857/470832 is a continued-fraction convergent just above sqrt 2
    assert QF(Fraction(665857, 470832)) > SQRT2
    assert QF(Fraction(1393, 985)) < SQRT2
    rng = random.Random(7)
    xs = [_random_qf(rng, span=4) for _ in range(60)]
    by_exact = sorted(xs)
    by_float = sorted(xs, key=float)
    assert [float(x) for x in by_exact] == pytest.approx([float(x) for x in by_float])
    assert (SQRT2 - SQRT2).sign() == 0


def test_ring_multiplication_table():
    one = (1, 0, 0, 0)
    s2 = (0, 1, 0, 0)
    phi = (0, 0, 1, 0)
    s2phi = (0, 0, 0, 1)
    assert rmul(phi, phi) == radd(one, phi)
    assert rmul(s2, s2) == (2, 0, 0, 0)
    assert rmul(s2, phi) == s2phi
    assert rmul(s2phi, s2phi) == (2, 0, 2, 0)
    assert rsub(one, one) == (0, 0, 0, 0)
    assert rneg(s2) == (0, -1, 0, 0)
    assert rscale(3, phi) == (0, 0, 3, 0)


def test_ring_matches_field():
    rng = random.Random(99)
    for _ in range(300):
        x = tuple(rng.randint(-6, 6) for _ in range(4))
        y = tuple(rng.randint(-6, 6) for _ in range(4))
        assert qf_from_ring(rmul(x, y)) == qf_from_ring(x) * qf_from_ring(y)
        assert qf_from_ring(radd(x, y)) == qf_from_ring(x) + qf_from_ring(y)
        assert ring_from_qf(qf_from_ring(x)) == x


def test_ring_key_orders_like_coefficients():
    rng = random.Random(3)
    for _ in range(200):
        x = tuple(rng.randint(-5, 5) for _ in range(4))
        y = tuple(rng.randint(-5, 5) for _ in range(4))
        qx, qy = qf_from_ring(x), qf_from_ring(y)
        lex_x = (qx.a, qx.b, qx.c, qx.d)
        lex_y = (qy.a, qy.b, qy.c, qy.d)
        assert (ring_key(x) < ring_key(y)) == (lex_x < lex_y)


def test_qf_is_hashable_and_immutable():
    assert len({QF(1), QF(1), SQRT2}) == 2
    with pytest.raises(AttributeError):
        SQRT2.a = Fraction(3)


# past 2^53 the halves (2p + r) / 2 are no longer exact floats
coefficients = st.integers(-2 ** 80, 2 ** 80)


@given(st.tuples(*[coefficients] * 4))
def test_ring_float_is_the_float_of_the_field_element(x):
    assert ring_float(x).hex() == float(qf_from_ring(x)).hex()


def test_ring_float_rounds_halves_as_fractions_do():
    for x in [(2 ** 53 + 1, 0, 1, 0), (0, 2 ** 60 - 1, 0, 3),
              (-2 ** 79, 1, -1, 2 ** 80), (0, 0, 0, 0)]:
        assert ring_float(x).hex() == float(qf_from_ring(x)).hex()



def _near_zero():
    """Ring elements down to about 1e-24 from zero, made of units of the
    ring: Pell convergents p - q sqrt2, Fibonacci differences F_{n+1} -
    F_n phi, and products and sums of the two that mix in sqrt2 phi."""
    pell, fib = [], []
    p, q = 1, 1
    for _ in range(32):
        pell.append((p, -q, 0, 0))
        p, q = p + 2 * q, p + q
    a, b = 1, 1
    for _ in range(60):
        fib.append((b, 0, -a, 0))
        a, b = b, a + b
    sqrt2, phi = (0, 1, 0, 0), (0, 0, 1, 0)
    mixed = []
    for x, y in zip(pell, fib[::2]):
        mixed += [rmul(sqrt2, y), rmul(phi, x), rmul(x, y),
                  rsub(rmul(phi, x), rmul(sqrt2, y)), radd(x, rneg(y))]
    out = pell + fib + mixed
    return out + [rneg(x) for x in out]


def _seeded(values):
    def wrap(test):
        for x in values:
            test = example(x)(test)
        return test
    return wrap


@_seeded(_near_zero())
@given(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
def test_rsign_is_the_sign_of_the_field_element(x):
    assert rsign(x) == qf_from_ring(x).sign()


@given(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
def test_rcofactor_times_x_is_the_norm(x):
    qx = qf_from_ring(x)
    norm = qx * qx.conj2() * qx.conj5() * qx.conj2().conj5()
    assert qf_from_ring(rmul(x, rcofactor(x))) == norm
    assert rmul(x, rcofactor(x))[1:] == (0, 0, 0)


def test_library_forms_no_qf(monkeypatch, tmp_path, capsys):
    # QF is the tests' reference for the ring: neither a system's set-up
    # nor a command on a hyperbolic complex makes one
    calls = []
    init = QF.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(QF, "__init__", counted)
    for name in coxeter.SYSTEM_LABELS:
        coxeter.CoxeterSystem(name)
    path = str(tmp_path / "torus.json")
    assert main(["build", "hyp-torus", "-o", path]) == 0
    assert main(["classify", path]) == 0
    assert main(["export", path, "--format", "off"]) == 0
    assert main(["stats"]) == 0
    assert "genus 1" in capsys.readouterr().out
    assert calls == []
    QF(1)
    assert len(calls) == 1


def test_only_field_imports_the_field_reference():
    src = Path(coxeter.__file__).parent
    banned = {"QF", "Fraction", "fractions"}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} | {node.module or ""}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = {getattr(node, "id", None),
                         getattr(node, "attr", None)}
            else:
                continue
            found += [(path.name, n) for n in names & banned]
    assert found == []
