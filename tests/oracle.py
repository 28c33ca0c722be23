"""Reference routines that the fast code is tested against: dense
Gauss-Jordan elimination over a Field (the oracle of `wsuper.linalg.rref`),
with the dense inverse, kernel and matrix-vector product built on it, the
sparse elimination on the entries' own operators (Fractions over Q, the
route `linalg` took before its rows became integers), the dense
supercommutators, supertraces and coordinates of the realization (the
oracle of the sparse structure constants and gram), the
blocked float64 elimination mod p (the dense mod-p oracle), the Lie
superbracket, ad matrix and invariant form on coordinate lists, the action
columns of Q built one monomial at a time, the PBW vectors of the reduced
W-superalgebra as products in U, Q's action matrices, the dense stack of
its ad matrices and the sparse stacked kernel, the PBW engine's normal
ordering and per-term arithmetic through Field methods, the PBW
exponent tuples as a filtered product, the Lie superalgebra axiom checks
through Field methods (axiom (b) of the p-map as p brackets in a row, the
restrictedness oracle), matrix powers as a loop of products, and the
char-0 chain of `wsuper.wchar0` on Field terms, with the conversions
between the engine's pairs and Field terms.  The Field terms here are keyed
by exponent tuple, the engine's pairs by packed monomial: `pair_of` and
`packed` encode, `terms_of` decodes."""

import weakref
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product

import numpy as np

from wsuper import linalg
from wsuper.superalgebra import AlgebraError
from wsuper.wchar0 import (NotInvariantError, SolverError, ThetaPolynomial,
                           _super_sum, m_generators)


def dense_rref(field, mat):
    """Reduced row echelon form of a list-of-lists matrix, zero rows kept
    at the bottom.  Returns (rref_matrix, pivot_columns)."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if not field.is_zero(a[i][c]):
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return a, piv_cols


# The sparse Gauss-Jordan elimination on the entries' own operators: over Q
# every update is a Fraction operation.  It is the oracle of `linalg`'s
# elimination on integer rows, entry point for entry point.

def _fraction_row(field, row):
    items = row.items() if isinstance(row, dict) else enumerate(row)
    p = field.char
    if p:
        return {j: x % p for j, x in items if x % p}
    return {j: x for j, x in items if x}


def _fraction_subtract(p, row, a, src, lead):
    new = []
    for j, x in src.items():
        if j == lead:
            continue
        old = row.get(j)
        if old is None:
            row[j] = -a * x % p if p else -a * x
            new.append(j)
        else:
            v = old - a * x
            if p:
                v %= p
            if v:
                row[j] = v
            else:
                del row[j]
    return new


def _fraction_echelon(field, rows):
    p = field.char
    pivots = {}
    for row in rows:
        row = _fraction_row(field, row)
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            a = row.pop(c, None)
            if a is not None:
                for j in _fraction_subtract(p, row, a, pivots[c], c):
                    if j in pivots:
                        heappush(todo, j)
        if row:
            c = min(row)
            inv = field.inv(row[c])
            if p:
                pivots[c] = {j: inv * x % p for j, x in row.items()}
            else:
                pivots[c] = {j: inv * x for j, x in row.items()}
    return pivots


def fraction_rref(field, rows):
    """`linalg.rref` with every update on the entries' own operators."""
    p = field.char
    pivots = _fraction_echelon(field, rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _fraction_subtract(p, row, row.pop(j), pivots[j], j)
    return [pivots[c] for c in order], order


def fraction_rank(field, rows):
    return len(_fraction_echelon(field, rows))


def fraction_solve_affine(field, mat, rhs, cols):
    """`linalg.solve_affine` on `fraction_rref`."""
    aug = [_fraction_row(field, row) for row in mat]
    for row, b in zip(aug, rhs):
        if not field.is_zero(b):
            row[cols] = b
    reduced, piv = fraction_rref(field, aug)
    if piv and piv[-1] == cols:
        return None
    x = [field.zero] * cols
    for row, pc in zip(reduced, piv):
        x[pc] = row.get(cols, field.zero)
    return x


def fraction_invert(field, rows):
    """`linalg.invert` on `fraction_rref`."""
    n = len(rows)
    aug = [_fraction_row(field, row) for row in rows]
    for i, row in enumerate(aug):
        row[n + i] = field.one
    reduced, piv = fraction_rref(field, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: c for j, c in row.items() if j >= n} for row in reduced]


# The structure constants and gram of a matrix realization as they read on
# dense matrices through Field methods: the oracle of the sparse views in
# `superalgebra.structure_from_realization` and `supertrace_gram`.

def supertrace(field, a, m_even):
    s = field.zero
    for i in range(len(a)):
        d = a[i][i]
        s = field.add(s, d) if i < m_even else field.sub(s, d)
    return s


def super_commutator(field, a, b, pa, pb):
    ab = linalg.mat_mul(field, a, b)
    ba = linalg.mat_mul(field, b, a)
    combine = field.add if pa and pb else field.sub
    return [[combine(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def dense_structure(field, realization, parities):
    """{(i, j): {k: c}} from dense supercommutators, each solved for its
    coordinates by `dense_rref` of the flattened realization."""
    n = len(realization[0])
    d = len(realization)
    flat = [[r[a][b] for a in range(n) for b in range(n)] for r in realization]
    structure = {}
    for i, ri in enumerate(realization):
        for j, rj in enumerate(realization):
            m = super_commutator(field, ri, rj, parities[i], parities[j])
            target = [m[a][b] for a in range(n) for b in range(n)]
            # columns R_1 .. R_d, then the target
            aug = [[flat[k][t] for k in range(d)] + [target[t]]
                   for t in range(n * n)]
            red, piv = dense_rref(field, aug)
            if d in piv:
                raise AlgebraError("matrix lies outside the algebra")
            entries = {k: red[r][d] for r, k in enumerate(piv)
                       if not field.is_zero(red[r][d])}
            if entries:
                structure[(i, j)] = entries
    return structure


def dense_gram(field, realization, m_even):
    """(R_i, R_j) = str(R_i R_j) of dense products."""
    return [[supertrace(field, linalg.mat_mul(field, a, b), m_even)
             for b in realization] for a in realization]


def dense_bracket(alg, v, w):
    """[v, w] for coordinate lists by a double loop over all coordinate
    pairs, read straight from the structure-constant table; the oracle of
    the sparse `LieSuperalgebra` bracket."""
    f = alg.field
    out = [f.zero] * alg.dim
    for i, ci in enumerate(v):
        if f.is_zero(ci):
            continue
        for j, cj in enumerate(w):
            if f.is_zero(cj):
                continue
            for k, c in alg.structure.get((i, j), {}).items():
                out[k] = f.add(out[k], f.mul(f.mul(ci, cj), c))
    return out


def naive_mat_pow(field, a, k):
    """a**k as k products with a, one after another; the oracle of the
    repeated squaring in `wsuper.superalgebra.mat_pow`."""
    n = len(a)
    out = [[field.one if i == j else field.zero for j in range(n)]
           for i in range(n)]
    for _ in range(k):
        out = linalg.mat_mul(field, out, a)
    return out


# Dense coordinate-list helpers the package used to have: the matrix-vector
# product, the inverse and the kernel basis from `dense_rref`, and the ad
# matrix and invariant form of an algebra from its table and gram.  They
# check the sparse nilpotent analysis and `linalg` from outside.

def mat_vec(field, a, v):
    """The product of a list-of-lists matrix and a coordinate list."""
    out = []
    for row in a:
        acc = field.zero
        for c, x in zip(row, v):
            acc = field.add(acc, field.mul(c, x))
        out.append(acc)
    return out


def dense_invert(field, mat):
    """The inverse of a square list-of-lists matrix, by `dense_rref` of
    [mat | I]; ValueError when it is singular."""
    n = len(mat)
    aug = [list(row) + [field.one if j == i else field.zero for j in range(n)]
           for i, row in enumerate(mat)]
    red, piv = dense_rref(field, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def dense_nullspace(field, mat, cols=None):
    """The kernel basis of a list-of-lists matrix from `dense_rref`: the
    vector for free column j is 1 at j and 0 at the other free columns."""
    if cols is None:
        cols = len(mat[0]) if mat else 0
    red, piv = dense_rref(field, mat)
    out = []
    for j in range(cols):
        if j in piv:
            continue
        v = [field.zero] * cols
        v[j] = field.one
        for row, pc in zip(red, piv):
            v[pc] = field.neg(row[j])
        out.append(v)
    return out


def dense_ad(alg, v):
    """The matrix of ad v, column j the `dense_bracket` of v and b_j."""
    f = alg.field
    columns = [dense_bracket(alg, v, [f.one if t == j else f.zero
                                      for t in range(alg.dim)])
               for j in range(alg.dim)]
    return [list(row) for row in zip(*columns)]


def dense_form(alg, v, w):
    """The invariant form of two coordinate lists, from the gram."""
    f = alg.field
    acc = f.zero
    for i, a in enumerate(v):
        for j, b in enumerate(w):
            acc = f.add(acc, f.mul(f.mul(a, b), alg.gram[i][j]))
    return acc


def chi_pair(nd, a, b):
    """chi([a, b]) = (e, [a, b]) in the normalized form of a datum."""
    alg = nd.alg
    return alg.field.mul(nd.form_scale, dense_form(
        alg, list(nd.triple.e), dense_bracket(alg, list(a), list(b))))


# The axiom checks of `LieSuperalgebra` as they read with Field methods on
# the table's own scalars, the oracle of its integer checks.  Each raises the
# AlgebraError that the algebra's constructor raises first, in the same loop
# order.

def field_bracket(field, structure, v, w, out=None, scale=None):
    """Add scale * [v, w] to out (a fresh dict by default) and return it;
    v and w are sparse {index: coeff} vectors."""
    f = field
    out = {} if out is None else out
    for i, a in v.items():
        if scale is not None:
            a = f.mul(scale, a)
        for j, b in w.items():
            entries = structure.get((i, j))
            if entries:
                ab = f.mul(a, b)
                for k, c in entries.items():
                    out[k] = f.add(out.get(k, f.zero), f.mul(ab, c))
    return out


def _field_sign(field, parities, i, j):
    return field.neg(field.one) if parities[i] and parities[j] else field.one


def _field_vanishes(field, vec):
    return all(field.is_zero(c) for c in vec.values())


def _field_form(field, gram, v, w):
    f = field
    acc = f.zero
    for i, a in v.items():
        for j, b in w.items():
            acc = f.add(acc, f.mul(f.mul(a, b), gram[i][j]))
    return acc


def check_axioms(field, parities, structure, gram=None, p_map=None):
    """Super skew-symmetry and super Jacobi on every basis pair and triple,
    then evenness, supersymmetry and invariance of the gram, then axiom (b)
    of the p-map on every basis pair."""
    f = field
    d = len(parities)
    unit = [{i: f.one} for i in range(d)]
    minus = f.neg(f.one)
    for i in range(d):
        for j in range(d):
            acc = field_bracket(f, structure, unit[i], unit[j])
            field_bracket(f, structure, unit[j], unit[i], acc,
                          _field_sign(f, parities, i, j))
            if not _field_vanishes(f, acc):
                raise AlgebraError("super skew-symmetry fails at (%d,%d)" % (i, j))
    for i in range(d):
        for j in range(d):
            bij = structure.get((i, j), {})
            for k in range(d):
                acc = field_bracket(f, structure, unit[i],
                                    structure.get((j, k), {}))
                field_bracket(f, structure, bij, unit[k], acc, minus)
                field_bracket(f, structure, unit[j], structure.get((i, k), {}),
                              acc, f.neg(_field_sign(f, parities, i, j)))
                if not _field_vanishes(f, acc):
                    raise AlgebraError("super Jacobi fails at (%d,%d,%d)"
                                       % (i, j, k))
    if gram is not None:
        _check_form(f, parities, structure, gram, unit)
    if p_map is not None:
        check_p_map(f, parities, structure, p_map)


def _check_form(f, parities, structure, g, unit):
    d = len(parities)
    for i in range(d):
        for j in range(d):
            if parities[i] != parities[j] and not f.is_zero(g[i][j]):
                raise AlgebraError("form is not even")
            sign = _field_sign(f, parities, i, j)
            if not f.is_zero(f.sub(g[i][j], f.mul(sign, g[j][i]))):
                raise AlgebraError("form is not supersymmetric")
    for i in range(d):
        for j in range(d):
            bij = structure.get((i, j), {})
            for k in range(d):
                lhs = _field_form(f, g, bij, unit[k])
                rhs = _field_form(f, g, unit[i], structure.get((j, k), {}))
                if not f.is_zero(f.sub(lhs, rhs)):
                    raise AlgebraError("form is not invariant")


def check_p_map(f, parities, structure, p_map):
    """Axiom (b) of the p-map, [x^[p], y] = (ad x)^p (y), on every basis
    pair, with (ad x)^p (y) as p brackets in a row: the restrictedness
    oracle of the squaring check in `LieSuperalgebra`, with its errors in
    the same order."""
    p = f.char
    if p == 0:
        raise AlgebraError("a p-map needs a field of positive characteristic")
    unit = [{i: f.one} for i in range(len(parities))]
    for i, coords in p_map.items():
        if parities[i]:
            raise AlgebraError("p-map defined on an odd vector (%d)" % i)
        xp = {k: c for k, c in enumerate(coords) if not f.is_zero(c)}
        for j in range(len(parities)):
            img = unit[j]
            for _ in range(p - 1):
                img = field_bracket(f, structure, unit[i], img)
            acc = field_bracket(f, structure, unit[i], img,
                                field_bracket(f, structure, xp, unit[j]),
                                f.neg(f.one))
            if not _field_vanishes(f, acc):
                raise AlgebraError("restrictedness axiom (b) fails on basis pair"
                                   " (%d,%d)" % (i, j))


def per_monomial_columns(q, g):
    """(ad columns, left columns, first right-action mismatch) of b_g on a
    ReducedQ, one basis monomial at a time through the Field-method oracles:
    `field_ad_act` and the from-scratch product `field_mul` per column, and
    the first column where the reduced right product m b_g is not eta(g) m
    (None if there is none, or if g is not in m).  The oracle of the
    prefix-built `ReducedQ` columns."""
    e = q.engine
    one = e.field.one
    eta_g = q.eta[g]
    ad, left, mismatch = [], [], None
    for j, m in enumerate(map(e.decode, q.basis)):
        img = field_ad_act(e, g, {m: one})
        ad.append(q.vector_of(packed(e, img)))
        img = field_q_reduce(e, field_mul(e, {gen_tuple(e, g): one},
                                          {m: one}))
        left.append(q.vector_of(packed(e, img)))
        right = field_q_reduce(e, field_times_gen(e, m, g))
        if (mismatch is None and g in q.datum.m_indices
                and right != ({m: eta_g} if eta_g else {})):
            mismatch = j
    return ad, left, mismatch


def pbw_vectors_by_products(q, ctx, expos):
    """The {basis index: c} vector of each PBW monomial theta^a of a
    WContext on the ReducedQ's engine, as a product in U: the class of
    theta^{a - e_last} times theta_last, formed in U by `field_q_mul`
    (the right factor is invariant, so any lift of the left one serves),
    read on Q's basis by `ReducedQ.vector_of`.  Each a - e_last must come
    before a in expos.  The oracle of `ReducedQ.pbw_vectors`."""
    e = q.engine
    thetas = [terms_of(e, th.value) for th in ctx.generators()]
    known = {}
    for a in expos:
        if not any(a):
            known[a] = {unit_tuple(e): e.field.one}
            continue
        last = max(i for i, x in enumerate(a) if x)
        prev = a[:last] + (a[last] - 1,) + a[last + 1:]
        known[a] = field_q_mul(e, known[prev], thetas[last])
    return [q.vector_of(packed(e, known[a])) for a in expos]


def dense_rows(rows, cols):
    """{column: c} rows as a dense int64 array with `cols` columns."""
    out = np.zeros((len(rows), cols), dtype=np.int64)
    for r, row in enumerate(rows):
        for j, c in row.items():
            out[r, j] = c
    return out


def left_matrix(q, g):
    """The dense matrix of left multiplication by b_g on a ReducedQ."""
    return dense_rows(q.left_columns(g), q.dim).T


def ad_matrix(q, g):
    """The dense matrix of ad b_g on a ReducedQ."""
    return dense_rows(q.ad_columns(g), q.dim).T


def stacked_ad(q, sub):
    """The dense (|sub| dim Q) x dim Q int64 stack of the ad z for z in m
    or m' on a ReducedQ, one block per z; the oracle of the sparse m rows
    that `ReducedQ` eliminates."""
    idx = q.datum.m_indices if sub == "m" else q.datum.mprime_indices
    return np.concatenate([ad_matrix(q, z) for z in idx], axis=0)


def sparse_stacked_kernel(q, sub):
    """The canonical basis of the joint kernel of ad z for z in m or m' on a
    ReducedQ, from one sparse elimination of all their rows stacked: one
    {column: c} row per (z, basis monomial), fed from the last monomial
    down.  The oracle of the chain `ReducedQ` takes, one generator at a
    time."""
    idx = q.datum.m_indices if sub == "m" else q.datum.mprime_indices
    rows = [{} for _ in range(len(idx) * q.dim)]
    for k, z in enumerate(idx):
        for j, col in enumerate(q.ad_columns(z)):
            for i, c in col.items():
                rows[i * len(idx) + k][j] = c
    reduced, piv = linalg.rref(q.field, reversed(rows))
    return linalg.kernel_rows(q.field, reduced, piv, q.dim)


def unrestricted_chain(q, order):
    """The joint kernel of ad z over the generators z in order on a
    ReducedQ, one link at a time with every image over all of Q: from the
    unit basis K of Q, each link takes the combinations c K with
    sum_r c_r ad z(K_r) = 0, c from the dim Q rows of the images' transpose
    fed from the last basis monomial down, and lifts them to Q.  Valid in
    any order.  The oracle of `ReducedQ._m_kernel`, which reads each link
    after the first on the previous kernel's free columns."""
    p = q.p

    def combine(rows, coeffs):
        acc = {}
        for r, c in coeffs.items():
            for k, t in rows[r].items():
                acc[k] = (acc.get(k, 0) + c * t) % p
        return {k: x for k, x in acc.items() if x}

    basis = [{j: 1} for j in range(q.dim)]
    for z in order:
        cols = q.ad_columns(z)
        rows = [{} for _ in range(q.dim)]
        for r, x in enumerate(basis):
            for i, c in combine(cols, x).items():
                rows[i][r] = c
        reduced, piv = linalg.rref(q.field, reversed(rows))
        basis = [combine(basis, c)
                 for c in linalg.kernel_rows(q.field, reduced, piv,
                                             len(basis))]
    return basis


def check_p_center_acts_zero(q):
    """x^p - x^[p] - eta(x)^p annihilates the reduced module, per even
    generator."""
    e = q.engine
    gf = e.field
    p = q.p
    eye = np.eye(q.dim, dtype=np.int64)
    for i in range(e.n_gens):
        if e.parities[i]:
            continue
        left = left_matrix(q, i)
        power = eye
        for _ in range(p):
            power = (power @ left) % p
        xp = np.zeros((q.dim, q.dim), dtype=np.int64)
        for k, c in q.datum.pmap_adapted.get(i, {}).items():
            xp = (xp + int(c) * left_matrix(q, k)) % p
        etap = int(gf.pow(q.eta[i], p))
        total = (power - xp - etap * eye) % p
        if total.any():
            return False, e.labels[i]
    return True, ""


# The engine's per-term loops as they read with Field methods on Field
# terms (Fractions over Q, residues mod p), the oracle of its integer
# arithmetic: `field_add` of `Enveloping._add`, `field_acc` of `_acc` and
# `field_q_reduce` of `q_reduce`; and normal ordering in U below, by
# rightmost-disorder bubbling, an independent route to the classes that
# the engine's left action of U on Q gives in `q_mul`, `left_gen` and
# `ad_act`.

def field_add(field, a, b):
    out = dict(a)
    for m, c in b.items():
        v = field.add(out.get(m, field.zero), c)
        if field.is_zero(v):
            out.pop(m, None)
        else:
            out[m] = v
    return out


def field_acc(field, acc, terms, coeff):
    if field.is_zero(coeff):
        return
    for m, c in terms.items():
        v = field.add(acc.get(m, field.zero), field.mul(coeff, c))
        if field.is_zero(v):
            acc.pop(m, None)
        else:
            acc[m] = v


def field_q_reduce(engine, terms):
    f = engine.field
    char_values = engine.chi if engine.eta is None else engine.eta
    cb = engine.cobasis_count
    acc = {}
    for m, c in terms.items():
        val = c
        dead = False
        for g in range(cb, engine.n_gens):
            e = m[g]
            if not e:
                continue
            cv = char_values[g]
            if f.is_zero(cv):
                dead = True
                break
            val = f.mul(val, f.pow(cv, e))
        if dead or f.is_zero(val):
            continue
        mm = m[:cb] + (0,) * (engine.n_gens - cb)
        v = f.add(acc.get(mm, f.zero), val)
        if f.is_zero(v):
            acc.pop(mm, None)
        else:
            acc[mm] = v
    return acc


# per engine: {(monomial, g): the Field-method normal form of monomial b_g}
_FIELD_MEMO = weakref.WeakKeyDictionary()


def field_times_gen(engine, mono, g):
    """Normal form of (monomial) * b_g as Field terms: rightmost-disorder
    bubbling, odd squares through [g,g]/2 and, mod p, the exponent cap
    through g^p = g^[p] + eta(g)^p, all with Field methods."""
    memo = _FIELD_MEMO.setdefault(engine, {})
    hit = memo.get((mono, g))
    if hit is not None:
        return hit
    f = engine.field
    top = max((i for i, x in enumerate(mono) if x), default=-1)
    out = {}
    if top <= g:
        prefix = mono[:g] + (0,) + mono[g + 1:]
        if engine.parities[g] and mono[g] == 1:
            half = f.div(f.one, f.of(2))
            for k, c in engine.brackets.get((g, g), {}).items():
                field_acc(f, out, field_times_gen(engine, prefix, k),
                          f.mul(half, c))
        elif f.char and not engine.parities[g] and mono[g] == f.char - 1:
            for k, c in engine.pmap.get(g, {}).items():
                field_acc(f, out, field_times_gen(engine, prefix, k), c)
            field_acc(f, out, {prefix: f.one}, f.pow(engine.eta[g], f.char))
        else:
            out[mono[:g] + (mono[g] + 1,) + mono[g + 1:]] = f.one
    else:
        m2 = mono[:top] + (mono[top] - 1,) + mono[top + 1:]
        swap = engine.parities[top] and engine.parities[g]
        for mm, c in field_times_gen(engine, m2, g).items():
            field_acc(f, out, field_times_gen(engine, mm, top),
                      f.neg(c) if swap else c)
        for k, c in engine.brackets.get((top, g), {}).items():
            field_acc(f, out, field_times_gen(engine, m2, k), c)
    memo[(mono, g)] = out
    return out


def field_mul(engine, a, b):
    """The product of Field terms a and b, pair of terms by pair of terms,
    each monomial of b applied to a monomial of a one generator at a time
    from scratch."""
    f = engine.field
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            cur = {m1: f.one}
            for g, e in enumerate(m2):
                for _ in range(e):
                    nxt = {}
                    for m, c in cur.items():
                        field_acc(f, nxt, field_times_gen(engine, m, g), c)
                    cur = nxt
            field_acc(f, out, cur, f.mul(c1, c2))
    return out


def field_q_mul(engine, a, b):
    """The class in Q of the product of Field terms a and b."""
    return field_q_reduce(engine, field_mul(engine, a, b))


def field_ad_act(engine, g, q):
    """The class of [b_g, q] in Q for Field terms q on the co-basis: the
    reduced b_g q less (-1)^{|g||m|} c times the reduced b^m b_g per term."""
    f = engine.field
    out = field_q_mul(engine, {gen_tuple(engine, g): f.one}, q)
    for m, c in q.items():
        odd = engine.parities[g] and tuple_parity(engine, m)
        field_acc(f, out, field_q_reduce(engine, field_times_gen(engine, m, g)),
                  c if odd else f.neg(c))
    return out


def product_exponent_tuples(degrees, parities, cap, budget):
    """Oracle of `wsuper.pbw.exponent_tuples`: the whole box of exponents
    (odd at most 1, even at most cap, or at most budget // degree when there
    is no cap), filtered by the degree bound and sorted by (degree, tuple)."""
    tops = [1 if odd else (budget // d if cap is None else cap)
            for d, odd in zip(degrees, parities)]

    def degree(expo):
        return sum(e * d for e, d in zip(expo, degrees))

    out = [expo for expo in product(*(range(t + 1) for t in tops))
           if budget is None or degree(expo) <= budget]
    out.sort(key=lambda expo: (degree(expo), expo))
    return out


# ---------------------------------------------------------------------------
# the dense mod-p oracle: blocked Gauss-Jordan on float64
# ---------------------------------------------------------------------------
# It stores integers in float64 so that its block updates run as BLAS matrix
# products, and reduces mod p once per block.  Every intermediate is an
# integer of magnitude at most block*(p-1)**2 + p, so it is exact only while
# that is below 2**53 (`exact_mod_p`), that is for p <= 11,863,279; it raises
# ValueError otherwise.  The sparse elimination of `wsuper.linalg` works on
# Python ints and has no such bound.

BLOCK = 64
SLAB = 256


def exact_mod_p(p, block=BLOCK):
    """Whether block*(p-1)**2 + p < 2**53, which for block = 64 holds up to
    p = 11,863,279: the bound under which this oracle is exact."""
    return block * (p - 1) ** 2 + p < 2 ** 53


def _check_exact(p, block):
    if not exact_mod_p(p, block):
        raise ValueError("p = %d breaks the float64 bound %d*(p-1)**2 + p < 2**53"
                         % (p, block))


def _reduce(a, p):
    """Reduce a float64 array of integers below 2**53 mod p, in place.

    a - p*floor(a/p) with 1/p rounded is off by at most one multiple of p,
    which one fix-up each way corrects; float `%` would be several times
    slower."""
    t = a * (1.0 / p)
    np.floor(t, out=t)
    t *= p
    a -= t
    np.add(a, p, out=a, where=a < 0)
    np.subtract(a, p, out=a, where=a >= p)
    return a


def _panel(w, p):
    """Gauss-Jordan on one panel, row by row with a delayed reduction.

    w holds the live rows of the panel's columns, entries in [0, p).  A right
    half records each row as a combination of the pivot rows, so that the
    pivot rows' half ends as the inverse of the pivot block.  Returns the
    positions of the pivot rows in w (in pivot order), the pivot columns, the
    reduced pivot rows and that inverse."""
    m, b = w.shape
    w = np.concatenate([w, np.zeros((m, b))], axis=1)
    order = np.arange(m)
    pivcols = []
    k = 0
    for c in range(b):
        if k == m:
            break
        nz = np.flatnonzero(w[k:, c] % p)
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        if i != k:
            w[[k, i]] = w[[i, k]]
            order[[k, i]] = order[[i, k]]
        row = w[k] % p
        row[b + k] = 1
        row *= pow(int(row[c]), p - 2, p)
        w[k] = row = row % p
        mult = w[:, c] % p
        mult[k] = 0
        hit = np.flatnonzero(mult)
        if hit.size:
            # delayed reduction: entries stay below p + b*(p-1)**2
            w[hit] -= np.outer(mult[hit], row)
        pivcols.append(c)
        k += 1
    top = _reduce(w[:k], p)
    return order[:k], pivcols, top[:, :b], top[:, b:b + k]


def _update(a, lo, hi, pivabs, c, u, p):
    """a[i, c:] -= a[i, pivabs] @ u mod p for the rows lo <= i < hi, in
    slabs of SLAB rows, skipping rows whose multipliers are all zero."""
    for s in range(lo, hi, SLAB):
        e = min(s + SLAB, hi)
        x = a[s:e, pivabs]
        live = np.flatnonzero(x.any(axis=1))
        if live.size == e - s:
            blk = a[s:e, c:]
            blk -= x @ u
            _reduce(blk, p)
        elif live.size:
            rows = s + live
            blk = a[rows, c:]
            blk -= x[live] @ u
            a[rows, c:] = _reduce(blk, p)


def _echelon_mod_p(mat, p, block=BLOCK, reduced=True):
    """Blocked Gauss-Jordan elimination over F_p on float64 (the scheme of
    FFLAS-FFPACK: exact integer arithmetic in floating point, one reduction
    mod p per block).

    Each panel of `block` columns is eliminated row by row; its k pivot rows
    move up by swapping only the rows in the way, become U = P^-1 rows with
    the k x k pivot-block inverse P^-1, and one GEMM per slab updates every
    other live row: rows above become reduced, rows below the Schur
    complement.  Returns (rows, pivots): the rank rows of the reduced row
    echelon form (float64 holding integers in [0, p)) and its pivot
    columns.  With reduced=False the rows above each panel are left alone
    and only the pivots are meaningful.
    """
    _check_exact(p, block)
    mat = np.asarray(mat)
    rows, cols = mat.shape
    a = np.empty((rows, cols))
    for s in range(0, rows, SLAB):
        a[s:s + SLAB] = mat[s:s + SLAB] % p
    piv = []
    r = 0
    for c0 in range(0, cols, block):
        if r == rows:
            break
        c1 = min(c0 + block, cols)
        live = r + np.flatnonzero(a[r:, c0:c1].any(axis=1))
        if live.size == 0:
            continue
        # every live row is nonzero mod p in the panel, so k >= 1
        order, pivcols, head, inv = _panel(a[live, c0:c1], p)
        k = len(pivcols)
        pos = live[order]
        u = _reduce(inv @ a[pos, c1:], p)
        # move the non-pivot rows out of r..r+k-1 into the pivot rows' places
        target = np.arange(r, r + k)
        a[np.setdiff1d(pos, target)] = a[np.setdiff1d(target, pos)]
        a[r:r + k, :c0] = 0
        a[r:r + k, c0:c1] = head
        a[r:r + k, c1:] = u
        pivabs = [c0 + c for c in pivcols]
        if reduced and r:
            _update(a, 0, r, pivabs, c0, a[r:r + k, c0:], p)
        _update(a, r + k, rows, pivabs, c1, u, p)
        piv.extend(pivabs)
        r += k
    return a[:r], piv


def dense_rank_mod_p(mat, p):
    """Rank over F_p by `_echelon_mod_p`; a prime past its float64 bound
    raises ValueError."""
    return len(_echelon_mod_p(mat, p, reduced=False)[1])


def dense_rref_mod_p(mat, p):
    """Reduced row echelon form mod p, same shape as mat: (rref, pivots)."""
    ech, piv = _echelon_mod_p(mat, p)
    out = np.zeros(np.shape(mat), dtype=np.int64)
    out[:len(piv)] = ech
    return out, piv


def dense_nullspace_mod_p(mat, p):
    """Canonical echelonized kernel basis, rows of shape (nullity, cols):
    the row for free column j is 1 at j and 0 at the other free columns."""
    a, piv = dense_rref_mod_p(mat, p)
    cols = a.shape[1]
    free = np.setdiff1d(np.arange(cols), piv)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-a[:len(piv), free].T) % p
    return basis


# -- pairs and Field terms, and the char-0 chain on Field terms -------------
# The engine computes on pairs (integer numerators over one denominator);
# the Field-method oracle on Field terms, {monomial: scalar} dicts holding
# Fractions over Q and residues mod p.  `pair_of` and `terms_of` convert,
# and `FieldChain` is WContext's generator solve, PBW evaluation, super
# bracket and PBW descent on Field terms: the reference that the pair path
# of `wsuper.wchar0` is tested against.  `pair_bracket` is the one helper
# here on the pair path: the super bracket of two generators' pairs by the
# engine's own `q_mul`, which the relation-table tests expand.

def pair_of(engine, terms):
    """The engine's pair of {exponent tuple: scalar} terms, each scalar (an
    int or a Fraction) taken into the engine's field first."""
    f = engine.field
    return engine._scaled({engine.encode(m): f.of(c)
                           for m, c in terms.items()})


def terms_of(engine, pair):
    """The Field terms of a pair, keyed by exponent tuple: Fractions over
    Q, residues mod p."""
    nums, den = pair
    if engine.field.char:
        return {engine.decode(m): c for m, c in nums.items()}
    return {engine.decode(m): Fraction(c, den) for m, c in nums.items()}


def packed(engine, terms):
    """Terms keyed by exponent tuple, keyed by packed monomial instead."""
    return {engine.encode(m): c for m, c in terms.items()}


def unit_tuple(engine):
    """The exponent tuple of the unit."""
    return (0,) * engine.n_gens


def gen_tuple(engine, g):
    """The exponent tuple of the generator b_g."""
    return tuple(int(i == g) for i in range(engine.n_gens))


def tuple_parity(engine, mono):
    """The parity of the monomial with this exponent tuple."""
    return sum(a for a, odd in zip(mono, engine.parities) if odd) & 1


def tuple_element_parity(engine, terms):
    """The parity of terms keyed by exponent tuple, None when they mix
    parities; 0 for no term."""
    pars = {tuple_parity(engine, m) for m in terms}
    return None if len(pars) > 1 else pars.pop() if pars else 0


def gen_pair(engine, g):
    """The pair of the generator b_g."""
    return {engine.units[g]: 1}, 1


def field_scale(field, a, c):
    """c a for Field terms a and a scalar c."""
    out = {}
    field_acc(field, out, a, field.of(c))
    return out


def field_sub(field, a, b):
    """a - b for Field terms."""
    return field_add(field, a, field_scale(field, b, -1))


def field_super_bracket(engine, a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba in Q for homogeneous Field terms a
    and b of classes in Q, each product by `field_q_mul`."""
    pa, pb = tuple_element_parity(engine, a), tuple_element_parity(engine, b)
    if pa is None or pb is None:
        raise SolverError("super bracket of inhomogeneous elements")
    f = engine.field
    right = field_q_mul(engine, b, a)
    return field_add(f, field_q_mul(engine, a, b),
                     right if pa and pb else field_scale(f, right, -1))


def pair_bracket(engine, a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba on the pair path, for the pairs of
    homogeneous classes a and b: each product by `Enveloping.q_mul`, the
    two summed by the relation table's `wchar0._super_sum`."""
    odd = engine.element_parity(a[0]) and engine.element_parity(b[0])
    return _super_sum(engine, engine.q_mul(a, b), engine.q_mul(b, a), odd)


class FieldChain:
    """The generators and relations of a WContext's datum computed on Field
    terms through the Field-method oracle: each ad image by
    `field_ad_act`, each product by `field_q_mul` on a reduced right
    factor, each sum and multiple by `field_acc`, so that no left action
    of the engine is read.  Raises the pair path's errors with its
    messages."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.engine = ctx.engine
        self.memo = {}
        self.values = [self.solve_theta(k)
                       for k in range(1, ctx.n_generators() + 1)]

    def is_invariant(self, q):
        e = self.engine
        return all(not field_ad_act(e, z, q)
                   for z in m_generators(self.ctx.nd))

    def check_invariant(self, q):
        if not self.is_invariant(q):
            raise NotInvariantError("element is not invariant under ad m")

    def solve_theta(self, k):
        """The value of generator k: the invariance system of
        `WContext.solve_theta` with the oracle's ad images."""
        ctx, e = self.ctx, self.engine
        nd, f = ctx.nd, e.field
        lead = ctx.leading_gen_index(k)
        target = field_q_reduce(e, {gen_tuple(e, lead): f.one})
        if nd.r_odd and k == nd.l + nd.q + 1:
            self.check_invariant(target)
            return target
        cands = [e.decode(m) for m in ctx.candidate_monomials(k)]
        zs = m_generators(nd)
        rows, rhs = {}, {}
        for cidx, m in enumerate(cands):
            for z in zs:
                for mm, c in field_ad_act(e, z, {m: f.one}).items():
                    rows.setdefault((z, mm), {})[cidx] = c
        for z in zs:
            for mm, c in field_ad_act(e, z, target).items():
                rows.setdefault((z, mm), {})
                rhs[(z, mm)] = f.neg(c)
        sol = linalg.solve_affine(f, list(rows.values()),
                                  [rhs.get(key, f.zero) for key in rows],
                                  len(cands))
        if sol is None:
            raise SolverError("invariance system for generator %d has no"
                              " solution" % k)
        terms = {gen_tuple(e, lead): f.one}
        for m, c in zip(cands, sol):
            if not f.is_zero(c):
                terms[m] = c
        self.check_invariant(terms)
        return terms

    def eval_monomial(self, expo):
        """theta^a 1 = theta_k (theta^{a-e_k} 1), k the first generator of
        a, the product by `field_q_mul`; memoized."""
        expo = tuple(expo)
        if expo not in self.memo:
            e = self.engine
            k = next((i for i, v in enumerate(expo) if v), None)
            if k is None:
                self.memo[expo] = {unit_tuple(e): e.field.one}
            else:
                prev = self.eval_monomial(expo[:k] + (expo[k] - 1,)
                                          + expo[k + 1:])
                self.memo[expo] = field_q_mul(e, self.values[k], prev)
        return self.memo[expo]

    def evaluate(self, poly):
        f = self.engine.field
        acc = {}
        for expo, c in poly.terms.items():
            field_acc(f, acc, self.eval_monomial(expo), c)
        return acc

    def super_bracket(self, a, b):
        return field_super_bracket(self.engine, a, b)

    def express_in_pbw(self, q):
        """Descending elimination on (e-degree, weight), one subtraction
        per leading monomial, and the evaluate-back check."""
        ctx, e = self.ctx, self.engine
        f = e.field
        self.check_invariant(q)
        cur = dict(q)
        out = {}
        prev_key = None
        while cur:
            n, big, monos = e.leading_data(packed(e, cur))
            key = (n, big)
            if prev_key is not None and key >= prev_key:
                raise SolverError("PBW elimination does not descend")
            prev_key = key
            for m in sorted(map(e.decode, monos)):
                lam = cur.get(m, f.zero)
                if f.is_zero(lam):
                    continue
                expo = ctx._leading_to_expo(e.encode(m))
                ev = self.eval_monomial(expo)
                kappa = ev.get(m, f.zero)
                if f.is_zero(kappa):
                    raise SolverError("evaluated monomial lost its leading"
                                      " term")
                coef = f.div(lam, kappa)
                field_acc(f, cur, ev, f.neg(coef))
                out[expo] = f.add(out.get(expo, f.zero), coef)
        out = {m: c for m, c in out.items() if not f.is_zero(c)}
        poly = ThetaPolynomial(ctx.n_generators(), out)
        if self.evaluate(poly) != q:
            raise SolverError("PBW expression does not evaluate back")
        return poly

    def commutator_table(self):
        """{(i, j): ThetaPolynomial} for i <= j, each bracket from both of
        its products, each polynomial checked by the WContext's
        `_check_relation`."""
        ctx = self.ctx
        ng = ctx.n_generators()
        degrees = ctx.generator_degrees()
        out = {}
        for i in range(1, ng + 1):
            for j in range(i, ng + 1):
                poly = self.express_in_pbw(self.super_bracket(
                    self.values[i - 1], self.values[j - 1]))
                ctx._check_relation(i, j, poly, degrees)
                out[(i, j)] = poly
        return out
