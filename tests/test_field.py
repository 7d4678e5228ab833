import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gridforge.field import (
    PHI, QF, SQRT2, SQRT5, cos_pi, qf_from_ring, radd, ring_float,
    ring_from_qf, ring_key, rmul, rneg, rscale, rsub,
)


def test_radical_products():
    assert SQRT2 * SQRT2 == QF(2)
    assert SQRT5 * SQRT5 == QF(5)
    assert SQRT2 * SQRT5 == QF(0, 0, 0, 1)
    assert (SQRT2 * SQRT5) * (SQRT2 * SQRT5) == QF(10)
    assert (1 + SQRT2) * (1 - SQRT2) == QF(-1)


def test_golden_ratio_and_cosines():
    assert PHI * PHI == PHI + 1
    assert cos_pi(1) == QF(-1)
    assert cos_pi(2) == QF(0)
    assert cos_pi(3) == QF(Fraction(1, 2))
    assert 2 * cos_pi(4) == SQRT2
    assert 2 * cos_pi(5) == PHI
    c = cos_pi(5)
    assert 4 * c * c - 2 * c - 1 == QF(0)
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

