"""Exact scalar fields: the rationals and prime fields F_p.

Over Q a coefficient is in canonical form: a python int exactly when it is
integral, else a fractions.Fraction with denominator > 1 (`exact`); in
characteristic p it is a python int in 0..p-1.  Integral rationals, by far the
most common ones, so cost int arithmetic and no Fraction.  A Field object
bundles the arithmetic so that the code is generic over the two cases; over Q
`div` and `inv` are exact, so no quotient of two ints becomes a float.  What
`superalgebra`, `nilpotent` and `linalg` hand out is canonical.  The PBW
engine (`pbw.Enveloping`) and the rational elimination (`linalg`) keep their
coefficients inside as int numerators over one positive denominator, {key:
int} dicts brought together by `widen` and to lowest terms by `lowest`; the
W-chain keeps those pairs throughout and forms Fractions only for a
`ThetaPolynomial`'s coefficients.  No floating point is used anywhere, and
`format_scalar` refuses a float or a bool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd


def exact(x):
    """The rational x in canonical form: its numerator, an int, when it is
    integral, else x itself, a Fraction with denominator > 1."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """The rationals in canonical form (`exact`): Python ints for integral
    values, fractions.Fraction for the rest."""

    char = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def of(self, x):
        if isinstance(x, (int, Fraction)):
            return exact(x)
        raise TypeError("cannot coerce %r into the rationals" % (x,))

    def add(self, a, b):
        return exact(a + b)

    def sub(self, a, b):
        return exact(a - b)

    def mul(self, a, b):
        return exact(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        """a / b in canonical form; Fraction refuses a float argument."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            if not r:
                return q
        return exact(Fraction(a, b))

    def pow(self, a, n):
        return exact(a ** n)

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for an odd prime p below MILLER_RABIN_BOUND, where primality is
    decided exactly; elements are ints reduced to 0..p-1."""

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


# ---------------------------------------------------------------------------
# int numerators over one denominator
# ---------------------------------------------------------------------------

def widen(nums, den, d):
    """Rewrite the {key: int} numerators nums over den as numerators over
    lcm(den, d), in place; returns that lcm (its sign is den's)."""
    grow = d // gcd(den, d)
    for k in nums:
        nums[k] *= grow
    return den * grow


def lowest(nums, den):
    """The pair (nums, den), den > 0, divided by the gcd of den and the
    numerators, in place: den and the numerators coprime."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            for k in nums:
                nums[k] //= g
            den //= g
    return nums, den


# The least strong pseudoprime to all 13 prime bases 2..41, so the
# Miller-Rabin test to those bases is exact below it: J. Sorenson and
# J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
# (2017), 985-1003 (arXiv:1509.00864, 2015).
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Whether n is prime, by the Miller-Rabin test to the prime bases
    2..41, which is deterministic below MILLER_RABIN_BOUND; ValueError at
    or above it, where no proof covers these bases."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError("primality of %d is not decided: the Miller-Rabin"
                         " test to the bases 2..41 is proven exact only below"
                         " %d" % (n, MILLER_RABIN_BOUND))
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def format_scalar(x, p=None):
    """Render a scalar for JSON: "num/den" over Q, a residue string mod p.
    TypeError for anything but an int or a Fraction: a float or a bool here
    is a fault upstream, however exact its value."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise TypeError("not an exact scalar: %r of type %s"
                        % (x, type(x).__name__))
    if p is None:
        return "%d/%d" % (x.numerator, x.denominator)
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
    return True, exact(Fraction(rn, rd))


def _isqrt_exact(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
