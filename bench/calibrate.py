"""A fixed reference workload that the benchmark times beside every wsuper run.

It does the kinds of work a wsuper run does, at a fixed size and without
importing wsuper: Gauss-Jordan elimination over Fraction, products of sparse
polynomials held in dicts, random reads over a list larger than the CPU
caches, and float64 products reduced mod 5.  On a shared host each CPU's
speed changes by tens of percent from one few-second stretch to the next;
timing this workload on the same CPU right before and right after a wsuper
process and dividing by it takes most of that out (see `run.py`).

    python3 bench/calibrate.py

serves timings: for each line read from standard input it makes one pass and
prints its wall seconds.  It exits at the end of input, and with an error if
a pass gives a wrong result.  The benchmark keeps it in a process of its own
so that its memory does not count towards the wsuper processes' peak RSS.
"""

import gc
import random
import sys
import time
from fractions import Fraction

import numpy

EXPECTED = (30, 18774, 15749911031, 1193.0)


def fraction_rank(n=30, seed=12345):
    rng = random.Random(seed)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
          if rng.random() < 0.3 else Fraction(0) for _ in range(n + 1)]
         for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def poly_products(terms=100, rounds=2, seed=5):
    """Products of sparse polynomials in six variables: dicts keyed by
    exponent tuples with Fraction coefficients, as in PBW arithmetic."""
    rng = random.Random(seed)

    def poly():
        return {tuple(rng.randint(0, 4) for _ in range(6)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                for _ in range(terms)}

    acc = {}
    for _ in range(rounds):
        a, b = poly(), poly()
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
    return len(acc)


def list_walk(size=1 << 19, steps=60000, seed=1):
    """Random reads over a list larger than the CPU caches."""
    data = list(range(size))
    return sum(data[i] for i in random.Random(seed).sample(range(size), steps))


def modp_products(n=600, rounds=2, p=5.0):
    a = numpy.random.default_rng(7).integers(0, 5, (n, n)).astype(numpy.float64)
    for _ in range(rounds):
        a = (a @ a.T) % p
    return float(a[:, 0].sum())


def measure():
    """Wall seconds of one pass; raises if a result is not the expected one."""
    gc.collect()
    start = time.perf_counter()
    got = (fraction_rank(), poly_products(), list_walk(), modp_products())
    wall = time.perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError("calibrate: got %r, expected %r" % (got, EXPECTED))
    return wall


def main():
    for _ in sys.stdin:
        print(repr(measure()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
