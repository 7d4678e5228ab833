"""Exact arithmetic in the ring Z[sqrt2, phi], with a field reference.

All reflection-group computations in this package stay inside the subring
Z[sqrt2, phi] of the real field Q(sqrt2, sqrt5), phi = (1 + sqrt5)/2,
because the only cosines that ever appear are cos(pi/m) for m in
{1, 2, 3, 4, 5}, and 2 cos(pi/m) is -2, 0, 1, sqrt2 or phi.
Elements are plain integer 4-tuples over the basis (1, sqrt2, phi,
sqrt2*phi): products never leave machine integers, rsign decides a sign
and rcofactor turns an exact division into one by the integer norm.

QF, an element of the field with rational coefficients over (1, sqrt2,
sqrt5, sqrt10) and an interval-Newton sign, is not used by the library.
It is the reference the tests check the ring against, through
qf_from_ring; ring_float is its float, bit for bit, and key_float the
same float read from a ring_key.  Only that code imports fractions, so
the library never loads it.
"""

from __future__ import annotations

from functools import total_ordering

_S2 = 2 ** 0.5
_S5 = 5 ** 0.5


def _to_fraction(x):
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@total_ordering
class QF:
    """An element a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d.

    Supports field arithmetic, exact comparison, and hashing.  Comparisons
    are decided by refining rational enclosures of the radicals, which
    terminates because a nonzero element has nonzero value.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _to_fraction(a))
        object.__setattr__(self, "b", _to_fraction(b))
        object.__setattr__(self, "c", _to_fraction(c))
        object.__setattr__(self, "d", _to_fraction(d))

    def __setattr__(self, name, value):
        raise AttributeError("QF is immutable")

    def _coeffs(self):
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QF):
            return x
        try:
            return QF(x)  # an int or a Fraction
        except TypeError:
            return None

    def __add__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return QF(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return QF(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QF(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._coeffs()
        a2, b2, c2, d2 = o._coeffs()
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2
        return QF(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj2(self):
        """Galois conjugate sending sqrt2 to -sqrt2."""
        return QF(self.a, -self.b, self.c, -self.d)

    def conj5(self):
        """Galois conjugate sending sqrt5 to -sqrt5."""
        return QF(self.a, self.b, -self.c, -self.d)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # Multiply by the three nontrivial conjugates; the full product is
        # the field norm, a nonzero rational.
        prod = self.conj2() * self.conj5() * self.conj2().conj5()
        norm = (self * prod).a
        return QF(prod.a / norm, prod.b / norm, prod.c / norm, prod.d / norm)

    def __truediv__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs() == o._coeffs()

    def __hash__(self):
        return hash(self._coeffs())

    def __bool__(self):
        return self._coeffs() != (0, 0, 0, 0)

    def sign(self):
        """Exact sign: -1, 0, or +1."""
        from fractions import Fraction

        if not self:
            return 0
        lo2, hi2 = Fraction(1), Fraction(2)
        lo5, hi5 = Fraction(2), Fraction(3)
        for _ in range(64):
            # one Newton step from above for each radical
            hi2 = (hi2 + 2 / hi2) / 2
            lo2 = 2 / hi2
            hi5 = (hi5 + 5 / hi5) / 2
            lo5 = 5 / hi5
            lo = self.a + _imul(self.b, lo2, hi2, 0) + _imul(self.c, lo5, hi5, 0) \
                + _imul(self.d, lo2 * lo5, hi2 * hi5, 0)
            hi = self.a + _imul(self.b, lo2, hi2, 1) + _imul(self.c, lo5, hi5, 1) \
                + _imul(self.d, lo2 * lo5, hi2 * hi5, 1)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise ArithmeticError(f"sign of {self!r} did not resolve")

    def __lt__(self, other):
        o = QF._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __float__(self):
        return float(self.a) + float(self.b) * _S2 + float(self.c) * _S5 \
            + float(self.d) * _S2 * _S5

    def __repr__(self):
        return f"QF({self.a}, {self.b}, {self.c}, {self.d})"


def _imul(coeff, lo, hi, want_hi):
    """Endpoint of coeff*[lo, hi] for a positive interval [lo, hi]."""
    if coeff >= 0:
        return coeff * (hi if want_hi else lo)
    return coeff * (lo if want_hi else hi)


# ---------------------------------------------------------------------------
# Integer subring Z[sqrt2, phi], basis (1, sqrt2, phi, sqrt2*phi).
#
# Elements are plain 4-tuples of ints (p, q, r, s).  The product rule below
# follows from phi^2 = phi + 1 and sqrt2^2 = 2.
# ---------------------------------------------------------------------------

RZERO = (0, 0, 0, 0)
RONE = (1, 0, 0, 0)


def radd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def rsub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def rneg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def rmul(x, y):
    p1, q1, r1, s1 = x
    p2, q2, r2, s2 = y
    return (
        p1 * p2 + 2 * (q1 * q2 + s1 * s2) + r1 * r2,
        p1 * q2 + q1 * p2 + r1 * s2 + s1 * r2,
        p1 * r2 + r1 * p2 + r1 * r2 + 2 * (q1 * s2 + s1 * q2 + s1 * s2),
        p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2 + r1 * s2 + s1 * r2,
    )


def rscale(k, x):
    return (k * x[0], k * x[1], k * x[2], k * x[3])


def rcofactor(x):
    """The product of the other three Galois conjugates of x, so that
    rmul(x, rcofactor(x)) is the integer norm of x, (n, 0, 0, 0).

    The conjugates send sqrt2 to -sqrt2, phi to 1 - phi, or both.
    """
    p, q, r, s = x
    return rmul(rmul((p, -q, r, -s), (p + r, q + s, -r, -s)),
                (p + r, -q - s, -r, s))


def _sign_sqrt2(a, b):
    """Sign of a + b*sqrt2 for integers a and b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > 2 * b * b) - (a * a < 2 * b * b))


def rsign(x):
    """Exact sign of x: -1, 0 or +1, in integer arithmetic.

    2x = A + B sqrt5 with A = (2p + r) + (2q + s) sqrt2 and B = r + s sqrt2
    in Z[sqrt2].  When A and B have opposite signs, 2x has the sign of A
    times that of A^2 - 5 B^2, again an element of Z[sqrt2].
    """
    p, q, r, s = x
    a, b = 2 * p + r, 2 * q + s
    sa, sb = _sign_sqrt2(a, b), _sign_sqrt2(r, s)
    if sa * sb >= 0:
        return sa or sb
    return sa * _sign_sqrt2(a * a + 2 * b * b - 5 * (r * r + 2 * s * s),
                            2 * a * b - 10 * r * s)


def ring_key(x):
    """Lexicographic key matching the (a, b, c, d) coefficient order of QF.

    With x = p + q*sqrt2 + r*phi + s*sqrt2*phi the standard coefficients are
    (p + r/2, q + s/2, r/2, s/2); doubling clears denominators without
    changing the lexicographic order.
    """
    p, q, r, s = x
    return (2 * p + r, 2 * q + s, r, s)


def qf_from_ring(x):
    from fractions import Fraction

    p, q, r, s = x
    return QF(p + Fraction(r, 2), q + Fraction(s, 2), Fraction(r, 2), Fraction(s, 2))


def ring_float(x):
    """float(qf_from_ring(x)), bit for bit, without forming Fractions:
    key_float of its ring_key."""
    return key_float(ring_key(x))


def key_float(key):
    """ring_float of the ring element whose ring_key is key.

    The key is twice the QF coefficients; int true division rounds n / 2
    correctly, as float(Fraction(n, 2)) does, and the terms are summed in
    QF.__float__'s order.
    """
    a, b, c, d = key
    return a / 2 + b / 2 * _S2 + c / 2 * _S5 + d / 2 * _S2 * _S5
