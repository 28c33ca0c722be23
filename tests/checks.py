"""Property checks that only the tests run: the canonical form of a
rational, and, for the restricted structures mod p, the three restrictedness
axioms on random elements, with the Jacobson summands of axiom (c), and the
graded p-th power map of a reduced datum."""

from fractions import Fraction

from oracle import dense_bracket
from wsuper.modp import p_power_coords


def canonical(x):
    """Whether the rational x is in canonical form: an int (not a bool)
    exactly when it is integral, else a Fraction with denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def jacobson_summands(alg, x, y):
    """The s_i(x, y) with i s_i the lambda^{i-1} coefficient of
    (ad(lambda x + y))^{p-1}(x); exact polynomial arithmetic in lambda."""
    gf = alg.field
    p = gf.char
    d = alg.dim
    # element of g[lambda]: list of coordinate vectors per lambda power
    cur = [list(x)]
    for _ in range(p - 1):
        nxt = [[gf.zero] * d for _ in range(len(cur) + 1)]
        for deg, vec in enumerate(cur):
            bx = dense_bracket(alg, list(x), vec)
            by = dense_bracket(alg, list(y), vec)
            for t in range(d):
                nxt[deg + 1][t] = gf.add(nxt[deg + 1][t], bx[t])
                nxt[deg][t] = gf.add(nxt[deg][t], by[t])
        cur = nxt
    out = {}
    for i in range(1, p):
        coeff = cur[i - 1] if i - 1 < len(cur) else [gf.zero] * d
        inv = gf.inv(gf.of(i))
        out[i] = [gf.mul(inv, c) for c in coeff]
    return out



def check_restrictedness(mod, trials, rng):
    """Randomized checks of the three restrictedness axioms."""
    alg = mod.base
    gf = alg.field
    p = mod.p
    even_idx = [b.index for b in alg.basis if b.parity == 0]
    for _ in range(trials):
        x = [gf.zero] * alg.dim
        y = [gf.zero] * alg.dim
        for i in even_idx:
            x[i] = gf.of(rng.randrange(p))
            y[i] = gf.of(rng.randrange(p))
        k = gf.of(rng.randrange(1, p))
        # (a): (k x)^[p] = k^p x^[p]
        kx = [gf.mul(k, c) for c in x]
        lhs = p_power_coords(mod, kx)
        xp = p_power_coords(mod, x)
        kp = gf.pow(k, p)
        if any(not gf.is_zero(gf.sub(a, gf.mul(kp, b))) for a, b in zip(lhs, xp)):
            return False, "axiom (a) fails"
        # (b): [x^[p], y'] = (ad x)^p (y') on a random full vector y'
        yfull = [gf.of(rng.randrange(p)) for _ in range(alg.dim)]
        lhs = dense_bracket(alg, list(xp), yfull)
        img = yfull
        for _ in range(p):
            img = dense_bracket(alg, x, img)
        if any(not gf.is_zero(gf.sub(a, b)) for a, b in zip(lhs, img)):
            return False, "axiom (b) fails"
        # (c): (x+y)^[p] = x^[p] + y^[p] + sum s_i(x,y)
        xy = [gf.add(a, b) for a, b in zip(x, y)]
        lhs = p_power_coords(mod, xy)
        rhs = [gf.add(a, b) for a, b in zip(xp, p_power_coords(mod, y))]
        for i, vec in jacobson_summands(alg, x, y).items():
            rhs = [gf.add(a, b) for a, b in zip(rhs, vec)]
        if any(not gf.is_zero(gf.sub(a, b)) for a, b in zip(lhs, rhs)):
            return False, "axiom (c) fails"
    return True, ""


def check_graded_p_map(datum):
    """x in g(i) even implies x^[p] in g(pi); in particular m is restricted."""
    gf = datum.field
    for i, g in enumerate(datum.generators):
        if g.parity != 0:
            continue
        coords = datum.pmap_adapted.get(i, {})
        for k, c in coords.items():
            if gf.is_zero(c):
                continue
            if datum.generators[k].weight != datum.p * g.weight:
                return False, ("p-th power of %s leaves the expected layer"
                               % g.label)
    return True, ""
