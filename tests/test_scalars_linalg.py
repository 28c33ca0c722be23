import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loaders import parse_scalar
from oracle import (_echelon_mod_p, _reduce, dense_invert,
                    dense_nullspace_mod_p, dense_rank_mod_p, dense_rows,
                    dense_rref, dense_rref_mod_p, exact_mod_p,
                    fraction_invert, fraction_rank, fraction_rref,
                    fraction_solve_affine, mat_vec)
from wsuper import linalg
from wsuper.scalars import (MILLER_RABIN_BOUND, QQ, PrimeField, _is_prime,
                            format_scalar, is_rational_square)

# the largest prime with 64*(p-1)**2 + p < 2**53, the float64 oracle's bound
LARGEST_PRIME = 11863279


def test_scalar_roundtrip():
    for x in [Fraction(3, 7), Fraction(-12, 5), Fraction(0), Fraction(4)]:
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar("5") == Fraction(5)
    assert parse_scalar("2", 7) == 2


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("9", 7)


def test_prime_field_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def _by_trial_division(n, primes):
    # primes holds every prime up to sqrt(n)
    if n < 2:
        return False
    for q in primes:
        if q * q > n:
            break
        if n % q == 0:
            return False
    return True


def test_miller_rabin_agrees_with_trial_division():
    small = [q for q in range(2, 448) if _by_trial_division(q, range(2, q))]
    assert [n for n in range(200_000) if _is_prime(n)] == [
        n for n in range(200_000) if _by_trial_division(n, small)]


def test_strong_pseudoprimes_are_composite():
    # the least strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37 (so
    # only the base 41 sees through the last)
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="odd prime"):
            PrimeField(n)
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)
    assert not _is_prime(2 ** 61 + 1)


def test_primality_past_the_proven_bound_is_refused():
    for n in (MILLER_RABIN_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            PrimeField(n)
    # the bound is the least strong pseudoprime to all 13 bases; below it
    # every n is decided
    assert not _is_prime(MILLER_RABIN_BOUND - 1)


def test_prime_field_fraction_coercion():
    gf = PrimeField(5)
    assert gf.of(Fraction(1, 2)) == 3
    with pytest.raises(ValueError):
        gf.of(Fraction(1, 5))


def test_rational_square_detection():
    ok, root = is_rational_square(Fraction(9, 4))
    assert ok and root == Fraction(3, 2)
    assert is_rational_square(Fraction(2))[0] is False
    assert is_rational_square(Fraction(-1))[0] is False


def test_rref_solve_nullspace_small():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, piv = linalg.rref(QQ, mat)
    assert piv == [0]
    ns = linalg.kernel_rows(QQ, red, piv, 2)
    assert ns == [{0: Fraction(-2), 1: Fraction(1)}]
    sol = linalg.solve_affine(QQ, mat, [Fraction(3), Fraction(6)], 2)
    assert sol == [Fraction(3), Fraction(0)]
    assert linalg.solve_affine(QQ, mat, [Fraction(3), Fraction(7)], 2) is None


def test_solve_affine_takes_the_unknowns_from_cols():
    # a sparse row's length is its nonzero count, not the number of
    # unknowns, so the count is never inferred
    assert linalg.solve_affine(QQ, [{2: 1}], [1], 3) == [0, 0, 1]
    assert linalg.solve_affine(QQ, [{0: 1, 2: 1}], [1], 3) == [1, 0, 0]
    assert linalg.solve_affine(QQ, [{0: 1, 2: 1}], [1], 4) == [1, 0, 0, 0]
    with pytest.raises(TypeError):
        linalg.solve_affine(QQ, [{2: 1}], [1])


def test_invert_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(QQ, [r[:] for r in mat]) < n:
            continue
        inv = [[row.get(j, Fraction(0)) for j in range(n)]
               for row in linalg.invert(QQ, mat)]
        assert inv == dense_invert(QQ, mat)
        prod = linalg.mat_mul(QQ, mat, inv)
        assert prod == [[Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)]


def _naive_rank(a, p):
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            bi = r + 1 + below
            a[bi] = (a[bi] - np.outer(a[bi, c], a[r])) % p
        r += 1
    return r


def test_block_rank_matches_naive():
    rng = np.random.default_rng(7)
    for trial in range(40):
        p = [3, 5, 7][trial % 3]
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, min(m, n) + 1))
        a = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
        piv = _echelon_mod_p(a, p, block=5, reduced=False)[1]
        assert len(piv) == _naive_rank(a, p)


def test_nullspace_mod_p_is_kernel():
    rng = np.random.default_rng(3)
    for p in (3, 5, 7):
        a = rng.integers(0, p, (12, 20))
        ns = dense_nullspace_mod_p(a, p)
        assert ns.shape[0] == 20 - dense_rank_mod_p(a, p)
        assert not ((a @ ns.T) % p).any()


def _rank_100_mod(p, seed=5):
    # a 120x120 product of random 120x100 and 100x120 factors, exact in
    # Python integers before the reduction mod p
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, (120, 100)).astype(object)
    right = rng.integers(0, p, (100, 120)).astype(object)
    return ((left @ right) % p).astype(np.int64)


def test_rank_mod_p_exact_at_its_bound():
    p = LARGEST_PRIME
    assert exact_mod_p(p)
    a = _rank_100_mod(p)
    assert dense_rank_mod_p(a, p) == 100
    got, piv = dense_rref_mod_p(a, p)
    assert len(piv) == 100
    # intermediates near 2**53: every entry must come out reduced and exact
    red, _ = dense_rref(PrimeField(p), [[int(x) for x in r] for r in a])
    assert np.array_equal(got, np.array(red, dtype=np.int64))


@pytest.mark.parametrize("p, x", [
    (LARGEST_PRIME, -7 * LARGEST_PRIME),  # floor(x/p) rounds low
    (11863213, -9004718502507566),       # floor(x/p) rounds high
])
def test_float_reduction_is_exact_across_the_bound(p, x):
    # the kernel reduces integers in [-64*(p-1)**2, p) by a - p*floor(a/p)
    lo = -64 * (p - 1) ** 2
    xs = [x, x - 1, x + 1, lo, lo + 1, -1, 0, p - 1]
    assert all(lo <= v < p for v in xs)
    got = _reduce(np.array(xs, dtype=np.float64), p)
    assert got.tolist() == [v % p for v in xs]


@pytest.mark.parametrize("p", [2 ** 31 - 1, 3037000453])
def test_rank_mod_p_refuses_primes_past_its_bound(p):
    assert not exact_mod_p(p)
    a = _rank_100_mod(p)
    # both read the one blocked oracle kernel, so both refuse
    with pytest.raises(ValueError, match="float64 bound"):
        dense_rank_mod_p(a, p)
    with pytest.raises(ValueError, match="float64 bound"):
        dense_rref_mod_p(a, p)


def test_rref_mod_p_refuses_primes_past_its_bound():
    p = 11863289  # the first prime with 64*(p-1)**2 + p >= 2**53
    assert not exact_mod_p(p)
    with pytest.raises(ValueError, match="float64 bound"):
        dense_rref_mod_p(np.eye(3, dtype=np.int64), p)


@st.composite
def _matrices_mod_p(draw, primes, max_side=9):
    """(a, p): a matrix mod p of random shape, often rank-deficient (a
    product of random factors) and sometimes sparse."""
    p = draw(primes)
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    k = draw(st.integers(0, max_side))
    entry = st.integers(0, p - 1)
    left = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                  min_size=rows, max_size=rows)),
                    dtype=object).reshape(rows, k)
    right = np.array(draw(st.lists(st.lists(entry, min_size=cols,
                                            max_size=cols),
                                   min_size=k, max_size=k)),
                     dtype=object).reshape(k, cols)
    a = (left @ right) % p if k else np.zeros((rows, cols), dtype=object)
    if draw(st.booleans()):
        mask = draw(st.lists(st.booleans(), min_size=rows * cols,
                             max_size=rows * cols))
        a = a * np.array(mask, dtype=bool).reshape(rows, cols)
    return np.array(a, dtype=np.int64).reshape(rows, cols), p


def _prime_at_most(n):
    while not _is_prime(n):
        n -= 1
    return n


_any_prime = st.integers(3, LARGEST_PRIME).map(_prime_at_most)


@settings(max_examples=80, deadline=None)
@given(_matrices_mod_p(_any_prime))
@example((np.array([[1, 2], [LARGEST_PRIME - 1, 5]], dtype=np.int64),
          LARGEST_PRIME))
def test_rref_mod_p_matches_generic_rref(case):
    a, p = case
    rows, cols = a.shape
    red, piv = dense_rref(PrimeField(p), [[int(x) for x in r] for r in a])
    red = np.array(red, dtype=np.int64).reshape(rows, cols)
    got, got_piv = dense_rref_mod_p(a, p)
    assert got_piv == piv
    assert np.array_equal(got, red)
    # narrow panels take the multi-panel Gauss-Jordan path on these sizes
    for b in (1, 2, 3):
        ech, ech_piv = _echelon_mod_p(a, p, block=b)
        assert ech_piv == piv
        assert np.array_equal(ech, red[:len(piv)])


@settings(max_examples=80, deadline=None)
@given(_matrices_mod_p(st.sampled_from([3, 5, 7, 101]), max_side=20))
def test_rank_mod_p_is_independent_of_the_panel_width(case):
    a, p = case
    ranks = {len(_echelon_mod_p(a, p, block=b, reduced=False)[1])
             for b in range(1, 9)}
    assert ranks == {_naive_rank(a, p)}


@settings(max_examples=80, deadline=None)
@given(_matrices_mod_p(st.sampled_from([3, 5, 7, 101]), max_side=20))
def test_nullspace_mod_p_is_the_canonical_kernel_basis(case):
    a, p = case
    cols = a.shape[1]
    ns = dense_nullspace_mod_p(a, p)
    assert ns.shape == (cols - dense_rank_mod_p(a, p), cols)
    assert not ((a.astype(object) @ ns.T.astype(object)) % p).any()
    free = np.setdiff1d(np.arange(cols), dense_rref_mod_p(a, p)[1])
    assert np.array_equal(ns[:, free], np.eye(free.size, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(_matrices_mod_p(_any_prime))
def test_sparse_entry_points_mod_p_match_the_dense_oracle(case):
    # linalg.rank_mod_p and rref_mod_p take {column: c} rows
    a, p = case
    rows, cols = a.shape
    sparse = [{j: int(x) for j, x in enumerate(r) if x} for r in a]
    want, want_piv = dense_rref_mod_p(a, p)
    got, piv = linalg.rref_mod_p(sparse, p)
    assert piv == want_piv
    assert np.array_equal(dense_rows(got, cols),
                          want[:len(piv)])
    assert linalg.rank_mod_p(sparse, p) == len(piv)
    kernel = linalg.kernel_rows(PrimeField(p), got, piv, cols)
    assert np.array_equal(dense_rows(kernel, cols),
                          dense_nullspace_mod_p(a, p))
    # the free column of each kernel row is its largest key
    assert [max(r) for r in kernel] == [j for j in range(cols)
                                        if j not in piv]


_small_fraction = st.builds(Fraction, st.integers(-3, 3),
                            st.sampled_from([1, 2, 4]))


@st.composite
def _field_matrices(draw, max_side=7):
    """(field, a): a dense matrix over QQ or F_p (p = 3, 5, 7) of random
    shape, 0 x n and n x 0 included, with many zeros; some rows are
    combinations of earlier ones and some columns are zero."""
    field = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(5),
                                  PrimeField(7)]))
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entry = st.one_of(st.just(Fraction(0)), _small_fraction).map(field.of)
    a = [draw(st.lists(entry, min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            k = draw(st.integers(0, i - 1))
            s, t = field.of(draw(_small_fraction)), field.of(draw(_small_fraction))
            a[i] = [field.add(field.mul(s, x), field.mul(t, y))
                    for x, y in zip(a[j], a[k])]
    zero_cols = draw(st.sets(st.integers(0, max_side)))
    a = [[field.zero if j in zero_cols else x for j, x in enumerate(row)]
         for row in a]
    return field, a, cols


def _dense(field, rows, cols):
    return [[row.get(j, field.zero) for j in range(cols)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(_field_matrices(), st.randoms(use_true_random=False))
def test_rref_matches_the_dense_oracle(case, rng):
    field, a, cols = case
    red, piv = dense_rref(field, a)
    sparse_rows = [{j: x for j, x in enumerate(row) if not field.is_zero(x)}
                   for row in a]
    shuffled = sparse_rows[:]
    rng.shuffle(shuffled)
    for rows in (a, sparse_rows, shuffled):
        got, got_piv = linalg.rref(field, rows)
        assert got_piv == piv
        assert _dense(field, got, cols) == red[:len(piv)]
        assert all(field.is_zero(x) for row in red[len(piv):] for x in row)
        assert linalg.rank(field, rows) == len(piv)


@st.composite
def _sparse_rows_mod_p(draw, max_rows=30, max_cols=20):
    """(field, rows): {column: coefficient} rows over F_p, some empty and
    some combinations of earlier ones, like the transposed ad columns that
    `modp.ReducedQ` eliminates."""
    field = PrimeField(draw(st.sampled_from([3, 5, 7, 101, LARGEST_PRIME])))
    cols = draw(st.integers(1, max_cols))
    entry = st.integers(1, field.p - 1)
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry,
                                         max_size=4), max_size=max_rows))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entry), draw(entry)
            combo = {c: (s * rows[j].get(c, 0) + t * rows[k].get(c, 0))
                     % field.p for c in set(rows[j]) | set(rows[k])}
            rows[i] = {c: x for c, x in combo.items() if x}
    return field, rows


@settings(max_examples=200, deadline=None)
@given(_sparse_rows_mod_p(), st.randoms(use_true_random=False))
def test_rref_mod_p_does_not_depend_on_the_row_order(case, rng):
    # the m-kernel of Q hands its rows to rref last monomial first, as a
    # generator; only the cost may depend on that
    field, rows = case
    shuffled = rows[:]
    rng.shuffle(shuffled)
    want = linalg.rref(field, rows)
    for order in (rows[::-1], shuffled, iter(rows[::-1])):
        assert linalg.rref(field, order) == want
    assert linalg.rank(field, iter(shuffled)) == len(want[1])


@st.composite
def _cancelling_rows_mod_p(draw):
    """(field, cols, rows): rows over F_p that are combinations of up to
    three of a few base rows, some with one entry more.  Clearing a pivot
    column from such a row cancels entries and fills in pivot columns that
    a later pivot row cancels or fills again, so the elimination pushes
    pivot columns during its updates and pops some that have cancelled."""
    p = draw(st.sampled_from([3, 5, 11, 2 ** 31 - 1]))
    cols = draw(st.integers(2, 12))
    entry = st.integers(1, p - 1)
    base = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry,
                                         min_size=1, max_size=cols),
                         min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        row = {}
        for b, s in draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                            entry), min_size=1, max_size=3)):
            for c, x in base[b].items():
                row[c] = (row.get(c, 0) + s * x) % p
        if draw(st.booleans()):
            c = draw(st.integers(0, cols - 1))
            row[c] = (row.get(c, 0) + draw(entry)) % p
        rows.append({c: x for c, x in row.items() if x})
    return PrimeField(p), cols, rows


@settings(max_examples=200, deadline=None)
@given(_cancelling_rows_mod_p())
@example((PrimeField(2 ** 31 - 1), 4,
          [{0: 1, 1: 1, 2: 1}, {1: 1, 3: 2}, {0: 1, 2: 1, 3: 5},
           {0: 2, 1: 3, 2: 2, 3: 2}]))
def test_cancelling_rows_mod_p_match_the_dense_oracle(case):
    # the F_p update of the forward elimination, at small primes and at
    # 2^31 - 1, against the Field-method dense oracle: rref and rank, by
    # the generic entry points and by the F_p ones
    field, cols, rows = case
    p = field.p
    red, piv = dense_rref(field, _dense(field, rows, cols))
    for got, got_piv in (linalg.rref(field, rows),
                         linalg.rref_mod_p(rows, p)):
        assert got_piv == piv
        assert _dense(field, got, cols) == red[:len(piv)]
    assert linalg.rank(field, iter(rows[::-1])) == len(piv)
    assert linalg.rank_mod_p(rows, p) == len(piv)


@settings(max_examples=200, deadline=None)
@given(_field_matrices())
def test_solve_affine_is_the_particular_solution_of_the_oracle(case):
    field, aug, cols = case
    if cols == 0:
        return
    n = cols - 1
    mat = [row[:n] for row in aug]
    rhs = [row[n] for row in aug]
    red, piv = dense_rref(field, aug)
    x = linalg.solve_affine(field, mat, rhs, n)
    if n in piv:
        assert x is None
        return
    want = [field.zero] * n
    for r, pc in enumerate(piv):
        want[pc] = red[r][n]
    assert x == want
    assert mat_vec(field, mat, x) == [field.of(b) for b in rhs]


@settings(max_examples=200, deadline=None)
@given(_field_matrices())
def test_nullspace_is_the_identity_on_the_free_columns(case):
    field, a, cols = case
    _, piv = dense_rref(field, a)
    free = [j for j in range(cols) if j not in piv]
    ns = _dense(field, linalg.kernel_rows(field, *linalg.rref(field, a), cols),
                cols)
    assert len(ns) == len(free)
    for v, j in zip(ns, free):
        assert [v[k] for k in free] == [field.one if k == j else field.zero
                                        for k in free]
        assert all(field.is_zero(x) for x in mat_vec(field, a, v))


# -- the integer elimination over Q against the Fraction oracle ---------------

_wide_fraction = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                           st.integers(1, 10 ** 6))
_rational = st.one_of(st.just(Fraction(0)), _small_fraction, _wide_fraction,
                      st.integers(-5, 5).map(Fraction))


@st.composite
def _rational_rows(draw, max_rows=10, max_cols=6):
    """(rows, cols): {column: Fraction} rows on cols columns, as many as
    twice cols: random rows with denominators up to 10**6, zero rows,
    duplicates, negated rows (negative leads) and combinations of earlier
    rows, which cancel to zero in the elimination."""
    cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate",
                                     "negated", "combination"])
                    if rows else st.just("random"))
        if kind == "random":
            row = {j: x for j, x in ((j, draw(_rational))
                                     for j in range(cols)) if x}
        elif kind == "zero":
            row = {}
        else:
            a = rows[draw(st.integers(0, len(rows) - 1))]
            b = rows[draw(st.integers(0, len(rows) - 1))]
            if kind == "duplicate":
                row = dict(a)
            elif kind == "negated":
                row = {j: -x for j, x in a.items()}
            else:
                s, t = draw(_rational), draw(_rational)
                row = {j: s * a.get(j, 0) + t * b.get(j, 0)
                       for j in set(a) | set(b)}
                row = {j: x for j, x in row.items() if x}
        rows.append(row)
    return rows, cols


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row.values())


@settings(max_examples=300, deadline=None)
@given(_rational_rows(), st.booleans())
def test_rational_rref_and_rank_match_the_fraction_oracle(case, dense):
    rows, cols = case
    if dense:
        rows = [[row.get(j, Fraction(0)) for j in range(cols)]
                for row in rows]
    want = fraction_rref(QQ, rows)
    got = linalg.rref(QQ, rows)
    assert got == want
    assert _all_fractions(got[0])
    assert linalg.rank(QQ, rows) == fraction_rank(QQ, rows) == len(want[1])
    kernel = linalg.kernel_rows(QQ, *got, cols)
    assert kernel == linalg.kernel_rows(QQ, *want, cols)
    assert _all_fractions(kernel)


@settings(max_examples=300, deadline=None)
@given(_rational_rows(), st.data())
def test_rational_solve_affine_matches_the_fraction_oracle(case, data):
    rows, cols = case
    rhs = data.draw(st.lists(_rational, min_size=len(rows),
                             max_size=len(rows)))
    want = fraction_solve_affine(QQ, rows, rhs, cols)
    got = linalg.solve_affine(QQ, rows, rhs, cols)
    assert got == want
    if got is not None:
        assert all(type(x) is Fraction for x in got)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_rational, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_rational_invert_matches_the_fraction_oracle(mat):
    try:
        want = fraction_invert(QQ, mat)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            linalg.invert(QQ, mat)
        return
    got = linalg.invert(QQ, mat)
    assert got == want
    assert _all_fractions(got)


_FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__floordiv__", "__mod__", "__neg__", "__abs__",
                       "__pow__")


def test_rational_elimination_does_no_fraction_arithmetic(monkeypatch,
                                                          nd_sl21_e12):
    # the rational systems of an algebra build, a nilpotent analysis and a
    # generator solve: while a row is eliminated (`_echelon`, and each
    # `_subtract` of the back-substitution) no Fraction operator runs
    from wsuper import analyze_nilpotent, build_algebra, resolve_nilpotent
    from wsuper import sl2_triple
    from wsuper.wchar0 import WContext
    inside, ops, updates = [0], [], []

    def counting(name):
        original = getattr(Fraction, name)

        def counted(*args):
            if inside[0]:
                ops.append(name)
            return original(*args)
        return counted

    def flagged(original, log=None):
        def run(*args):
            if log is not None:
                log.append(args[0])
            inside[0] += 1
            try:
                return original(*args)
            finally:
                inside[0] -= 1
        return run

    for name in _FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counting(name))
    monkeypatch.setattr(linalg, "_echelon", flagged(linalg._echelon))
    monkeypatch.setattr(linalg, "_subtract",
                        flagged(linalg._subtract, updates))
    alg = build_algebra("osp", 1, 2)
    nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(
        alg, "regular")))
    WContext(nd).generators()
    WContext(nd_sl21_e12).generators()
    assert updates and not any(updates)  # every update over Q (p = 0)
    assert not ops
