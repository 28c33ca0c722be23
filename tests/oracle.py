"""Reference routines that the fast code is tested against: dense
Gauss-Jordan elimination over a Field (the oracle of `wsuper.linalg.rref` and
the mod-p kernel), the Lie superbracket on coordinate lists, the action
columns of Q built one monomial at a time, the PBW engine's per-term
arithmetic through Field methods, and the PBW exponent tuples as a filtered
product."""

from itertools import product


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


def per_monomial_columns(q, g):
    """(ad columns, left columns, first right-action mismatch) of b_g on a
    ReducedQ, one basis monomial at a time: `Enveloping.ad_act_gen` and a
    from-scratch `Enveloping._mul` per column, and the first column where the
    reduced right product m b_g is not eta(g) m (None if there is none, or
    if g is not in m).  The oracle of the prefix-built `ReducedQ` columns."""
    e = q.engine
    one = e.field.one
    eta_g = q.eta[g]
    ad, left, mismatch = [], [], None
    for j, m in enumerate(q.basis):
        img = e.ad_act_gen(g, e.element({m: one}))
        ad.append({q.index[mm]: c for mm, c in img.terms.items()})
        img = e.q_reduce(e._mul({e._gen_mono(g): one}, {m: one}))
        left.append({q.index[mm]: c for mm, c in img.terms.items()})
        right = e.q_reduce(e.times_gen(m, g)).terms
        if (mismatch is None and g in q.datum.m_indices
                and right != ({m: eta_g} if eta_g else {})):
            mismatch = j
    return ad, left, mismatch


# The engine's per-term loops as they read with Field methods, the oracle of
# the operator arithmetic in `Enveloping._add`, `_acc` and `q_reduce`.

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
