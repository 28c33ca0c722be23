"""Exact arithmetic in the induced module Q of a nilpotent datum: the
enveloping algebra on nilpotent-adapted generators modulo the left ideal
generated by z - chi(z) for z in m (U itself for the zero nilpotent, where m
is 0), and its reduced version mod p.

Monomials are exponent tuples over the adapted generator order (co-basis x, y,
u, v first, the generators of m last), so a class in Q is a combination of
co-basis monomials and reducing a monomial to Q is a suffix rewrite.  Every
class is normal-ordered by the left action of U on Q itself, L_g on Q's
monomials (`left_gen`, memoized per (g, monomial)); odd squares contract
through the bracket, and in characteristic p an even generator reaching
exponent p contracts through the p-th power map plus the p-character.  No
product in U is formed: the class of a b is lift(a) acting on the class of b
(`q_mul`), and the adjoint action (`ad_act`) is L_g less the right products
b^m b_g, b^m acting on the class of b_g, which for g in m is chi(g) b^m.
`left_gen` is the monomial-keyed twin of `modp.ReducedQ._left_actor`, which
acts on Q's basis indices with the reduced datum's brackets and p-th power
map and the engine's public eta, for the mod-p chain's action columns.

A combination of monomials is a pair (nums, den): Python-int numerators
over one positive denominator, in lowest terms (denominator 1 and residues
mod p in characteristic p).  The pair is the only form of a class in Q:
the engine and the char-0 chain of `wchar0` (generator solve, PBW descent,
relation table, graded check) compute on pairs alone, and `q_mul` and
`ad_act` refuse a right operand with a letter of m.  `_scaled` turns a dict
of Field scalars into a pair.  Every operation is a pure function of
immutable inputs.
"""

from __future__ import annotations

from math import lcm

from .scalars import lowest, widen

# the pair of the empty combination
_EMPTY = ({}, 1)


class AmbientMismatch(ValueError):
    pass


class Enveloping:
    """The enveloping algebra (and its reduced version mod p) of a nilpotent
    datum, with the module reduction onto Q.

    In characteristic p the engine is the reduced algebra at the p-character
    eta: even generator powers are capped at p-1 through g^p = g^[p] + eta(g)^p,
    where eta(g)^p = eta(g) since eta(g) lies in F_p.
    """

    def __init__(self, field, labels, parities, weights, brackets, chi,
                 cobasis_count, eta=None, pmap=None):
        self.field = field
        self.labels = tuple(labels)
        self.parities = tuple(parities)
        self.weights = tuple(weights)
        self.n_gens = len(self.labels)
        self.brackets = {k: dict(v) for k, v in brackets.items()}
        self.chi = tuple(chi)
        self.cobasis_count = cobasis_count
        self.e_degrees = tuple(w + 2 for w in self.weights)
        self.eta = None if eta is None else tuple(eta)
        self.pmap = None if pmap is None else {k: dict(v) for k, v in pmap.items()}
        if field.char > 0 and (self.eta is None or self.pmap is None):
            raise AmbientMismatch("reduced engine needs a p-character and a"
                                  " p-th power map")
        self.unit_mono = (0,) * self.n_gens
        # the structure the rewriting reads, as pairs (see "core rewriting")
        self._bracket_pairs = {k: self._scaled(v)
                               for k, v in self.brackets.items()}
        half = field.div(field.one, field.of(2))
        self._half_squares = {
            g: self._scaled({k: field.mul(half, c) for k, c in
                             self.brackets.get((g, g), {}).items()})
            for g in range(self.n_gens) if self.parities[g]}
        self._char_pairs = tuple(
            (c.numerator, c.denominator)
            for c in (self.chi if self.eta is None else self.eta))
        if field.char:
            self._pmap_pairs = {g: self._scaled(v)
                                for g, v in self.pmap.items()}
        self._gen_cache = {}

    # -- labels and grading ---------------------------------------------------

    def mono_parity(self, mono):
        p = 0
        for i, e in enumerate(mono):
            if self.parities[i]:
                p ^= (e & 1)
        return p

    def element_parity(self, terms):
        par = None
        for m in terms:
            p = self.mono_parity(m)
            if par is None:
                par = p
            elif par != p:
                return None
        return 0 if par is None else par

    def e_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.e_degrees))

    def weight(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def cobasis_monomials(self, budget):
        """The co-basis monomials of e-degree at most budget (None: all of
        them, in characteristic p), sorted by (e-degree, tuple); in
        characteristic p even exponents stop at p - 1."""
        n = self.cobasis_count
        cap = self.field.char - 1 if self.field.char else None
        return list(exponent_tuples(self.e_degrees[:n], self.parities[:n], cap,
                                    budget, (0,) * (self.n_gens - n)))

    # -- core rewriting -------------------------------------------------------

    # A combination of monomials is a pair (nums, den): a {monomial: int}
    # dict over one positive denominator.  The multiply-adds are integer
    # operations (`scalars.widen`); each result is brought to lowest terms
    # (den and the numerators coprime, den 1 when empty) with one gcd
    # (`scalars.lowest`).  Characteristic p is the case den = 1, with
    # residues reduced by one % p per update.  `_scaled` turns a dict of
    # Field scalars (the datum's brackets, a generator's solved
    # coefficients) into a pair.

    def _scaled(self, terms):
        """The pair of {monomial: Field scalar} terms: integer numerators
        over the least common denominator (1 for residues mod p)."""
        p = self.field.char
        den = lcm(*(c.denominator for c in terms.values()))
        nums = {}
        for m, c in terms.items():
            v = c.numerator * (den // c.denominator)
            if p:
                v %= p
            if v:
                nums[m] = v
        return nums, den

    def _acc(self, acc, den, terms, c, cden=1):
        """acc/den += (c/cden) terms in place, for integer terms; returns the
        denominator of acc, widened when cden does not divide it."""
        if den % cden:
            den = widen(acc, den, cden)
        c *= den // cden
        p = self.field.char
        if p:
            c %= p
        if not c:
            return den
        for m, t in terms.items():
            v = acc.get(m, 0) + c * t
            if p:
                v %= p
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return den

    # -- the induced module Q -------------------------------------------------

    def q_reduce_pair(self, pair):
        """Image in Q of a pair, as a new pair in lowest terms: trailing
        m-part generators act through chi (or eta)."""
        nums, den = pair
        f = self.field
        p = f.char
        cb = self.cobasis_count
        tail = (0,) * (self.n_gens - cb)
        char_pairs = self._char_pairs
        acc, out = {}, den
        for m, c in nums.items():
            cden = den
            for g in range(cb, self.n_gens):
                e = m[g]
                if e:
                    cn, cd = char_pairs[g]
                    if not cn:  # the term dies in Q
                        break
                    c *= f.pow(cn, e)
                    cden *= cd ** e
            else:
                if out % cden:
                    out = widen(acc, out, cden)
                mm = m[:cb] + tail
                v = acc.get(mm, 0) + c * (out // cden)
                if p:
                    v %= p
                if v:
                    acc[mm] = v
                else:
                    acc.pop(mm, None)
        return lowest(acc, out)

    def q_mul(self, u, v):
        """The class in Q of lift(u) v for a pair u over all generators and
        a pair v of classes in Q, as a new pair in lowest terms: u, read as
        an element of U, acting on v, so that no product in U is formed; for
        classes u and v it is their product via canonical lifts, well
        defined when v is invariant.  Each term c b^m of u acts as
        L_{g_1}(... L_{g_r}(v)) for the letters g_1 <= ... <= g_r of m, each
        L_g by `_left_apply`.  The terms are taken in the order of their
        reversed tuples, so that terms ending in the same letters follow
        each other, and only the current term's chain is kept: b^{m'} v for
        the tails m' of m, which the next term reuses as far as their
        letters agree.  AmbientMismatch when v has a letter of m."""
        self._check_class(v[0], "q_mul acts on reduced classes")
        nums, den = u
        acc, out = {}, 1
        # (letter, b^{m'} v) from the unit up; the unit's letter is -1
        chain = [(-1, v)]
        for m in sorted(nums, key=lambda m: m[::-1]):
            letters = [g for g in range(self.n_gens - 1, -1, -1)
                       for _ in range(m[g])]
            k = 0
            while (k < len(letters) and k + 1 < len(chain)
                   and chain[k + 1][0] == letters[k]):
                k += 1
            del chain[k + 1:]
            for g in letters[k:]:
                chain.append((g, lowest(*self._left_apply(g, chain[-1][1]))))
            tn, td = chain[-1][1]
            out = self._acc(acc, out, tn, nums[m], den * td)
        return lowest(acc, out)

    def left_gen(self, g, mono):
        """L_g[b^mono], the class in Q of b_g b^mono for a co-basis monomial,
        as a pair in lowest terms, by the left action of U on Q itself: no
        product in U is formed.  The case analysis is that of the mod-p
        `modp.ReducedQ._left_actor`, on monomials instead of basis indices.
        With s the first generator of b^mono = b_s b^m'' (m'' with s's
        exponent lowered by one):
        - on the unit, L_g[1] is b_g for a co-basis g and chi(g) (eta(g)
          in characteristic p) for g in m;
        - for g < s, and for g = s below its cap, the raised monomial;
        - for g = s at the cap, the odd square [b_s, b_s]/2 acting on m'',
          or for even s, in characteristic p, b_s^[p] + eta(s) acting on
          mono with s's exponent set to 0 (eta(s)^p = eta(s) in F_p);
        - for g > s, L_g[mono] = (-1)^{|g||s|} L_s(L_g[m'']) +
          L_[b_g,b_s][m''].
        The memo `_gen_cache` holds the last two cases, keyed by (g, mono),
        as the numerator dict alone when the denominator is 1 (always, in
        characteristic p); the raised monomials and the unit cost less than
        their entries would."""
        hit = self._gen_cache.get((g, mono))
        if hit is not None:
            return hit if type(hit) is tuple else (hit, 1)
        s = self._first(mono)
        if s == self.cobasis_count and g >= s:
            # g in m, on the unit
            cn, cd = self._char_pairs[g]
            return ({mono: cn}, cd) if cn else _EMPTY
        odd = self.parities[s] if g == s else 0
        if g < s or (g == s and not odd
                     and mono[s] != self.field.char - 1):
            return {mono[:g] + (mono[g] + 1,) + mono[g + 1:]: 1}, 1
        if g > s:
            # b_g b_s = (-1)^{|g||s|} b_s b_g + [b_g, b_s]
            on = mono[:s] + (mono[s] - 1,) + mono[s + 1:]
            acc, den = self._left_apply(s, self.left_gen(g, on),
                                        self.parities[s] and self.parities[g])
            pairs = self._bracket_pairs.get((g, s), _EMPTY)
        elif odd:
            # the odd square b_s b_s = [b_s, b_s]/2
            on, acc, den = mono[:s] + (0,) + mono[s + 1:], {}, 1
            pairs = self._half_squares[s]
        else:
            # the cap b_s^p = b_s^[p] + eta(s)
            on, den = mono[:s] + (0,) + mono[s + 1:], 1
            acc = {on: self.eta[s]} if self.eta[s] else {}
            pairs = self._pmap_pairs.get(s, _EMPTY)
        nums, cden = pairs
        for k, c in nums.items():
            tn, td = self.left_gen(k, on)
            den = self._acc(acc, den, tn, c, cden * td)
        out = lowest(acc, den)
        self._gen_cache[g, mono] = out if out[1] > 1 else out[0]
        return out

    def _first(self, mono):
        """The first generator of a co-basis monomial, the co-basis count
        for the unit."""
        for i in range(self.cobasis_count):
            if mono[i]:
                return i
        return self.cobasis_count

    def _left_apply(self, g, pair, neg=False):
        """L_g on a pair of classes in Q, or -L_g with neg, as a new pair
        (acc, den) that is not brought to lowest terms.  b_g only raises a
        monomial whose first generator is not below g (below its cap), and
        distinct monomials rise to distinct ones, so those terms are written
        without a sum; the others are `left_gen`'s."""
        nums, den = pair
        p = self.field.char
        # the exponent at which b_g b^m is not raised when g is m's first
        # generator: its cap, and for g in m the unit's 0
        if g >= self.cobasis_count:
            cap = 0
        else:
            cap = 1 if self.parities[g] else p - 1
        acc, rest = {}, []
        for m, c in nums.items():
            if neg:
                c = -c % p if p else -c
            s = self._first(m)
            if s > g or (s == g and m[g] != cap):
                acc[m[:g] + (m[g] + 1,) + m[g + 1:]] = c
            else:
                rest.append((m, c))
        out = den
        for m, c in rest:
            tn, td = self.left_gen(g, m)
            out = self._acc(acc, out, tn, c, den * td)
        return acc, out

    def ad_act(self, g, pair):
        """Class of [b_g, lift(q)] in Q for the generator index g and a pair
        of classes q, as a new pair in lowest terms: L_g q less
        (-1)^{|g||m|} c times the class of b^m b_g over the terms c b^m of
        q, with L_g the left action of U on Q (`left_gen`) and the class of
        b^m b_g that of b^m acting on the class of b_g (`q_mul`), the route
        of `modp.ReducedQ._left_actor` in every characteristic.  For z in
        m, b^m b_z is ordered and acts on Q by chi(z), so ad z = L_z -
        chi(z) on Q: the sign (-1)^{|z||m|} is kept, though chi vanishes on
        odd z.  AmbientMismatch when q has a letter of m."""
        self._check_class(pair[0], "ad acts on reduced classes")
        nums, den = pair
        acc, out = self._left_apply(g, pair)
        pg = self.parities[g]
        inside = g >= self.cobasis_count
        cn, cd = self._char_pairs[g] if inside else (1, 1)
        if cn:
            right = {m: c if pg and self.mono_parity(m) else -c
                     for m, c in nums.items()}
            if not inside:
                right, cd = self.q_mul((right, 1),
                                       ({self._gen_mono(g): 1}, 1))
            out = self._acc(acc, out, right, cn, den * cd)
        return lowest(acc, out)

    def _check_class(self, nums, message):
        """AmbientMismatch(message) unless every monomial of nums is a
        co-basis monomial, so that nums/den is a class in Q."""
        cb = self.cobasis_count
        for m in nums:
            if any(m[cb:]):
                raise AmbientMismatch(message)

    def _gen_mono(self, g):
        m = [0] * self.n_gens
        m[g] = 1
        return tuple(m)

    # -- filtration tools ------------------------------------------------------

    def leading_data(self, monos):
        """(e-degree, weight, monomials) of the leading terms among the
        nonempty monomials monos (a pair's numerator dict)."""
        n = max(self.e_degree(m) for m in monos)
        at_top = [m for m in monos if self.e_degree(m) == n]
        big = max(self.weight(m) for m in at_top)
        return n, big, {m for m in at_top if self.weight(m) == big}


def engine_from_datum(nd, eta, pmap):
    """The engine of a nilpotent datum: over Q when eta and pmap are None,
    and for a datum reduced mod p the reduced engine at the p-character eta
    with the p-th power map pmap in adapted coordinates."""
    return Enveloping(
        nd.field,
        [g.label for g in nd.generators],
        [g.parity for g in nd.generators],
        [g.weight for g in nd.generators],
        nd.brackets,
        nd.chi,
        nd.cobasis_count,
        eta=eta,
        pmap=pmap,
    )


def exponent_tuples(degrees, parities, cap, budget, tail):
    """The ordered PBW monomials over generators of the given degrees (each
    at least 1) and parities: exponent tuples with odd exponents at most 1,
    even ones at most cap (None: no cap) and degree sum(e_i d_i) at most
    budget (None: no bound, which needs a cap), yielded in (degree, tuple)
    order, each followed by tail."""
    tops = [1 if odd else cap for odd in parities]
    if budget is None:
        budget = sum(t * d for t, d in zip(tops, degrees))
    # degree -> the tuples over the last generators placed so far; putting
    # k in front, k ascending, keeps each list in tuple order
    suffixes = {0: [tail]}
    for d, top in zip(degrees[::-1], tops[::-1]):
        grown = {}
        hi = budget // d if top is None else min(top, budget // d)
        for k in range(hi + 1):
            for left, known in suffixes.items():
                if left + k * d <= budget:
                    grown.setdefault(left + k * d, []).extend(
                        (k,) + t for t in known)
        suffixes = grown
    for total in sorted(suffixes):
        yield from suffixes[total]
