"""Exact scalar fields: the rationals and prime fields F_p.

Every coefficient the package hands out is either a fractions.Fraction
(characteristic zero) or a python int in 0..p-1 (characteristic p).  A Field
object bundles the arithmetic so that the code is generic over the two
cases.  The PBW engine (`pbw.Enveloping`) keeps its coefficients inside as
int numerators over one denominator and forms Fractions only in the terms of
the Elements it returns.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Rationals:
    """Arithmetic wrapper around fractions.Fraction."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError("cannot coerce %r into the rationals" % (x,))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / self.of(b) if not isinstance(b, Fraction) else a / b

    def pow(self, a, n):
        return a ** n

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for an odd prime p; elements are ints reduced to 0..p-1."""

    def __init__(self, p):
        if p < 3 or not _is_prime(p):
            raise ValueError("prime field needs an odd prime, got %r" % (p,))
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ValueError("denominator of %s vanishes mod %d" % (x, self.p))
            return (x.numerator * pow(den, self.p - 2, self.p)) % self.p
        raise TypeError("cannot coerce %r into F_%d" % (x, self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def pow(self, a, n):
        return pow(a, n, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def format_scalar(x, p=None):
    """Render a scalar for JSON: "num/den" over Q, a residue string mod p."""
    if p is None:
        f = Fraction(x)
        return "%d/%d" % (f.numerator, f.denominator)
    return "%d" % (x % p)


def is_rational_square(x):
    """Return (True, root) when the positive rational x is a square in Q."""
    f = Fraction(x)
    if f < 0:
        return False, None
    rn = _isqrt_exact(f.numerator)
    rd = _isqrt_exact(f.denominator)
    if rn is None or rd is None:
        return False, None
    return True, Fraction(rn, rd)


def _isqrt_exact(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
