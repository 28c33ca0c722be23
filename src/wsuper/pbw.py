"""Exact arithmetic in the enveloping algebra on nilpotent-adapted generators,
and in the induced module Q obtained by quotienting the left ideal generated
by z - chi(z) for z in m.

Monomials are exponent tuples over the adapted generator order (co-basis x, y,
u, v first, the generators of m last), so reducing to Q is a suffix rewrite.
Normal ordering is rightmost-disorder-first bubbling with memoized
single-generator products; odd squares contract through the bracket, and in
characteristic p an even generator reaching exponent p contracts through the
p-th power map plus the p-character.  A product a b is built monomial by
monomial of b from the products with their prefixes, each prefix once.

The adjoint action on Q (`ad_act`) forms no product in U: it is the left
action of U on Q itself, L_g on Q's monomials (`left_gen`, memoized per
(g, monomial)), less the reduced right products b^m b_g, which for g in m
are chi(g) b^m.  `left_gen` is the monomial-keyed twin of
`modp.ReducedQ._left_actor`, which acts on Q's basis indices with the
reduced datum's brackets and p-th power map and the engine's public eta.
That index-keyed actor stays, because the mod-p chain's action columns are
its hot loop; `modp.ReducedQ` takes only the right products m b_g from
`times_gen`.

Inside the engine coefficients are Python-int numerators over one
denominator per combination, in lowest terms (denominator 1 and residues mod
p in characteristic p); an Element's terms hold Fractions over Q and residues
mod p.  Every operation is a pure function of immutable inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import lowest, widen

# the pair of the empty combination
_EMPTY = ({}, 1)


class AmbientMismatch(ValueError):
    pass


class Element:
    """A finite linear combination of normal-ordered monomials."""

    __slots__ = ("engine", "terms")

    def __init__(self, engine, terms):
        self.engine = engine
        self.terms = terms

    def __add__(self, other):
        self._check(other)
        return Element(self.engine, self.engine._add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        f = self.engine.field
        neg = {m: f.neg(c) for m, c in other.terms.items()}
        return Element(self.engine, self.engine._add(self.terms, neg))

    def __mul__(self, other):
        self._check(other)
        return Element(self.engine, self.engine._mul(self.terms, other.terms))

    def scale(self, c):
        f = self.engine.field
        c = f.of(c)
        out = {}
        for m, v in self.terms.items():
            w = f.mul(c, v)
            if not f.is_zero(w):
                out[m] = w
        return Element(self.engine, out)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.engine is other.engine
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.engine), tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def parity(self):
        return self.engine.element_parity(self.terms)

    def coefficient(self, mono):
        return self.terms.get(mono, self.engine.field.zero)

    def _check(self, other):
        if not isinstance(other, Element) or other.engine is not self.engine:
            raise AmbientMismatch("elements live in different ambients")

    def __repr__(self):
        return "Element(%s)" % self.engine.format_element(self.terms)


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
        self._left_cache = {}

    # -- construction of elements -------------------------------------------

    def unit(self):
        return Element(self, {self.unit_mono: self.field.one})

    def zero(self):
        return Element(self, {})

    def gen(self, i):
        m = [0] * self.n_gens
        m[i] = 1
        return Element(self, {tuple(m): self.field.one})

    def element(self, terms):
        f = self.field
        clean = {}
        for m, c in terms.items():
            c = f.of(c)
            if not f.is_zero(c):
                clean[tuple(m)] = c
        return Element(self, clean)

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

    def format_element(self, terms):
        if not terms:
            return "0"
        bits = []
        for m in sorted(terms):
            parts = []
            for i, e in enumerate(m):
                if e == 1:
                    parts.append(self.labels[i])
                elif e > 1:
                    parts.append("%s^%d" % (self.labels[i], e))
            mono = "*".join(parts) if parts else "1"
            bits.append("(%s)%s" % (terms[m], mono))
        return " + ".join(bits)

    # -- core rewriting -------------------------------------------------------

    # Inside the engine a combination of monomials is a pair (nums, den): a
    # {monomial: int} dict over one positive denominator.  The multiply-adds
    # are integer operations (`scalars.widen`); each result is brought to
    # lowest terms (den and the numerators coprime, den 1 when empty) with one
    # gcd (`scalars.lowest`).  Characteristic p is the case den = 1, with
    # residues reduced by one % p per update.
    # Fractions appear only in Element terms (`_terms`), and `_add` below adds
    # those with the coefficients' own operators.

    def _add(self, a, b):
        p = self.field.char
        zero = self.field.zero
        out = dict(a)
        for m, c in b.items():
            v = out.get(m, zero) + c
            if p:
                v %= p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def _scaled(self, terms):
        """The pair of Element terms: integer numerators over the least
        common denominator (1 for residues mod p)."""
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

    def _terms(self, nums, den):
        """Element terms of a pair: Fractions over Q, residues mod p."""
        if self.field.char:
            return nums
        return {m: Fraction(c, den) for m, c in nums.items()}

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

    def _acc_gens(self, acc, den, mono, coeffs):
        """acc/den += mono * sum_k c_k b_k in place, for the pair coeffs =
        ({k: c_k}, cden); returns the denominator of acc."""
        nums, cden = coeffs
        for k, c in nums.items():
            tn, td = self.times_gen(mono, k)
            den = self._acc(acc, den, tn, c, cden * td)
        return den

    def times_gen(self, mono, g):
        """Normal form of (monomial) * b_g, as a pair in lowest terms.  The
        memo `_gen_cache` holds every one computed, as its numerator dict
        alone when the denominator is 1 (always, in characteristic p)."""
        key = (mono, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit if type(hit) is tuple else (hit, 1)
        p = self.field.char
        top = -1
        for i in range(self.n_gens - 1, -1, -1):
            if mono[i]:
                top = i
                break
        acc, den = {}, 1
        if top <= g:
            prefix = mono[:g] + (0,) + mono[g + 1:]
            if self.parities[g] and mono[g] == 1:
                # odd square: strip the trailing g and contract through
                # [g,g]/2
                den = self._acc_gens(acc, den, prefix, self._half_squares[g])
            elif p and not self.parities[g] and mono[g] == p - 1:
                # exponent cap: g^p = g^[p] + eta(g)^p, and eta(g)^p =
                # eta(g) in F_p
                den = self._acc_gens(acc, den, prefix,
                                     self._pmap_pairs.get(g, _EMPTY))
                den = self._acc(acc, den, {prefix: 1}, self.eta[g])
            else:
                acc[mono[:g] + (mono[g] + 1,) + mono[g + 1:]] = 1
        else:
            # bubble g past the trailing generator: b_top b_g =
            # (-1)^{|top||g|} b_g b_top + [b_top, b_g]
            m2 = mono[:top] + (mono[top] - 1,) + mono[top + 1:]
            swap = self.parities[top] and self.parities[g]
            inner, iden = self.times_gen(m2, g)
            for mm, c in inner.items():
                tn, td = self.times_gen(mm, top)
                den = self._acc(acc, den, tn, -c if swap else c, iden * td)
            den = self._acc_gens(acc, den, m2,
                                 self._bracket_pairs.get((top, g), _EMPTY))
        out = lowest(acc, den)
        self._gen_cache[key] = out if out[1] > 1 else out[0]
        return out

    def times_gen_terms(self, pair, g):
        """Normal form of (pair) * b_g, as a new pair in lowest terms."""
        nums, den = pair
        acc, out = {}, 1
        for m, c in nums.items():
            tn, td = self.times_gen(m, g)
            out = self._acc(acc, out, tn, c, den * td)
        return lowest(acc, out)

    def _prefix_product(self, known, m):
        """a b^m from the {monomial: a b^monomial} pairs known (the unit among
        them): (a b^m') b_t, with t the last generator of m and m' = m with
        that exponent lowered, is stored for every prefix m' it needs."""
        hit = known.get(m)
        if hit is None:
            top = len(m) - 1
            while not m[top]:
                top -= 1
            prefix = m[:top] + (m[top] - 1,) + m[top + 1:]
            hit = known[m] = self.times_gen_terms(
                self._prefix_product(known, prefix), top)
        return hit

    def _product(self, a, b):
        """a b for pairs: a times each monomial of b through its prefixes, so
        that each prefix is multiplied once."""
        known = {self.unit_mono: a}
        bnums, bden = b
        acc, den = {}, 1
        for m, c in bnums.items():
            pnums, pden = self._prefix_product(known, m)
            den = self._acc(acc, den, pnums, c, bden * pden)
        return lowest(acc, den)

    def _mul(self, a, b):
        """The product of two Element term dicts, as Element terms."""
        return self._terms(*self._product(self._scaled(a), self._scaled(b)))

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

    def q_reduce(self, elt):
        """Image in Q of an Element (or of Element terms)."""
        terms = elt.terms if isinstance(elt, Element) else elt
        return Element(self, self._terms(*self.q_reduce_pair(
            self._scaled(terms))))

    def is_q_element(self, elt):
        return all(all(m[g] == 0 for g in range(self.cobasis_count, self.n_gens))
                   for m in elt.terms)

    def q_mul(self, a, b):
        """Product in Q of two reduced classes via canonical lifts.  Well
        defined when the right factor is invariant; also used for plain left
        action of lifted elements."""
        a._check(b)
        prod = self._product(self._scaled(a.terms), self._scaled(b.terms))
        return Element(self, self._terms(*self.q_reduce_pair(prod)))

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
        The memo `_left_cache` holds the last two cases, keyed by (g, mono),
        as the numerator dict alone when the denominator is 1 (always, in
        characteristic p); the raised monomials and the unit cost less than
        their entries would."""
        hit = self._left_cache.get((g, mono))
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
        self._left_cache[g, mono] = out if out[1] > 1 else out[0]
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

    def ad_act_gen(self, g, q):
        """Class of [b_g, lift(q)] in Q: L_g q less (-1)^{|g||m|} c times
        the reduced b^m b_g over the terms c b^m of q, with L_g the left
        action of U on Q (`left_gen`, the monomial-keyed twin of
        `modp.ReducedQ._left_actor`, whose basis-index memo serves the
        mod-p chain's columns).  For z in m, b^m b_z is ordered and acts on
        Q by chi(z), so ad z = L_z - chi(z) on Q: the sign (-1)^{|z||m|}
        is kept, though chi vanishes on odd z."""
        nums, den = self._scaled(q.terms)
        acc, out = self._left_apply(g, (nums, den))
        pg = self.parities[g]
        if g >= self.cobasis_count:
            cn, cd = self._char_pairs[g]
            if cn:
                signed = {m: c if pg and self.mono_parity(m) else -c
                          for m, c in nums.items()}
                out = self._acc(acc, out, signed, cn, den * cd)
        else:
            for m, c in nums.items():
                tn, td = self.q_reduce_pair(self.times_gen(m, g))
                odd = pg and self.mono_parity(m)
                out = self._acc(acc, out, tn, c if odd else -c, den * td)
        return Element(self, self._terms(acc, out))

    def ad_act(self, z, q):
        """Class of [b_z, lift(q)] in Q for the generator index z, after
        checking that q is a reduced class: `ad_act_gen`, by the left action
        of U on Q, the route of `modp.ReducedQ._left_actor` in every
        characteristic."""
        if not self.is_q_element(q):
            raise AmbientMismatch("ad acts on reduced classes")
        return self.ad_act_gen(z, q)

    def _gen_mono(self, g):
        m = [0] * self.n_gens
        m[g] = 1
        return tuple(m)

    # -- filtration tools ------------------------------------------------------

    def leading_terms(self, q):
        """Monomials of maximal e-degree and, among those, maximal weight."""
        return self.leading_data(q)[2] if q.terms else set()

    def leading_data(self, q):
        """(e-degree, weight, monomials) of the leading terms, or None for
        zero."""
        if not q.terms:
            return None
        n = max(self.e_degree(m) for m in q.terms)
        at_top = [m for m in q.terms if self.e_degree(m) == n]
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
