"""Exact arithmetic in the enveloping algebra on nilpotent-adapted generators,
and in the induced module Q obtained by quotienting the left ideal generated
by z - chi(z) for z in m.

Monomials are exponent tuples over the adapted generator order (co-basis x, y,
u, v first, the generators of m last), so reducing to Q is a suffix rewrite.
Normal ordering is rightmost-disorder-first bubbling with memoized
single-generator products; odd squares contract through the bracket, and in
characteristic p an even generator reaching exponent p contracts through the
p-th power map plus the p-character.  Every operation is a pure function of
immutable inputs.
"""

from __future__ import annotations


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
    eta: even generator powers are capped at p-1 through g^p = g^[p] + eta(g)^p.
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
        self._gen_cache = {}

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

    # The per-term loops below do their arithmetic with the coefficients' own
    # operators: Fractions in characteristic 0, ints with one final % p in
    # characteristic p.

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

    def _acc(self, acc, terms, coeff):
        p = self.field.char
        if p:
            coeff %= p
        if not coeff:
            return
        zero = self.field.zero
        for m, c in terms.items():
            v = acc.get(m, zero) + coeff * c
            if p:
                v %= p
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)

    def times_gen(self, mono, g):
        """Normal form of (monomial) * b_g, as a terms dict."""
        key = (mono, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        f = self.field
        top = -1
        for i in range(self.n_gens - 1, -1, -1):
            if mono[i]:
                top = i
                break
        if top <= g:
            if self.parities[g] and mono[g] == 1:
                # odd square: strip the trailing g and contract through [g,g]
                prefix = list(mono)
                prefix[g] = 0
                half = f.div(f.one, f.of(2))
                acc = {}
                for k, c in self.brackets.get((g, g), {}).items():
                    self._acc(acc, self.times_gen(tuple(prefix), k), f.mul(half, c))
                out = acc
            elif (self.field.char > 0 and not self.parities[g]
                  and mono[g] == self.field.char - 1):
                # exponent cap: g^p = g^[p] + eta(g)^p
                prefix = list(mono)
                prefix[g] = 0
                prefix = tuple(prefix)
                acc = {}
                for k, c in self.pmap.get(g, {}).items():
                    self._acc(acc, self.times_gen(prefix, k), c)
                etap = f.pow(self.eta[g], self.field.char)
                self._acc(acc, {prefix: f.one}, etap)
                out = acc
            else:
                m2 = list(mono)
                m2[g] += 1
                out = {tuple(m2): f.one}
        else:
            # bubble g past the trailing generator: b_top b_g =
            # (-1)^{|top||g|} b_g b_top + [b_top, b_g]
            m2 = list(mono)
            m2[top] -= 1
            m2 = tuple(m2)
            sign = -1 if (self.parities[top] and self.parities[g]) else 1
            acc = {}
            inner = self.times_gen(m2, g)
            for mm, c in inner.items():
                cc = c if sign > 0 else f.neg(c)
                self._acc(acc, self.times_gen(mm, top), cc)
            for k, c in self.brackets.get((top, g), {}).items():
                self._acc(acc, self.times_gen(m2, k), c)
            out = acc
        self._gen_cache[key] = out
        return out

    def times_gen_terms(self, terms, g):
        """Normal form of (terms) * b_g, as a new terms dict."""
        acc = {}
        for m, c in terms.items():
            self._acc(acc, self.times_gen(m, g), c)
        return acc

    def _times_mono(self, mono, other):
        cur = {mono: self.field.one}
        for g, e in enumerate(other):
            for _ in range(e):
                cur = self.times_gen_terms(cur, g)
        return cur

    def _mul(self, a, b):
        f = self.field
        acc = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                prod = self._times_mono(m1, m2)
                self._acc(acc, prod, f.mul(c1, c2))
        return acc

    # -- the induced module Q -------------------------------------------------

    def q_reduce(self, elt):
        """Image in Q: trailing m-part generators act through chi (or eta)."""
        if isinstance(elt, Element):
            terms = elt.terms
        else:
            terms = elt
        f = self.field
        p = f.char
        zero = f.zero
        char_values = self.chi if self.eta is None else self.eta
        cb = self.cobasis_count
        tail = (0,) * (self.n_gens - cb)
        acc = {}
        for m, c in terms.items():
            val = c
            for g in range(cb, self.n_gens):
                e = m[g]
                if e:
                    cv = char_values[g]
                    if not cv:  # the term dies in Q
                        break
                    val *= f.pow(cv, e)
            else:
                mm = m[:cb] + tail
                v = acc.get(mm, zero) + val
                if p:
                    v %= p
                if v:
                    acc[mm] = v
                else:
                    acc.pop(mm, None)
        return Element(self, acc)

    def is_q_element(self, elt):
        return all(all(m[g] == 0 for g in range(self.cobasis_count, self.n_gens))
                   for m in elt.terms)

    def q_mul(self, a, b):
        """Product in Q of two reduced classes via canonical lifts.  Well
        defined when the right factor is invariant; also used for plain left
        action of lifted elements."""
        return self.q_reduce(a * b)

    def ad_act_gen(self, g, q):
        """Class of [b_g, lift(q)] in Q."""
        f = self.field
        out = {}
        left = self._mul({self._gen_mono(g): f.one}, q.terms)
        self._acc(out, self.q_reduce(left).terms, f.one)
        pg = self.parities[g]
        for m, c in q.terms.items():
            sign = -1 if (pg and self.mono_parity(m)) else 1
            right = self.q_reduce(self.times_gen(m, g))
            self._acc(out, right.terms, f.neg(c) if sign > 0 else c)
        return Element(self, out)

    def ad_act(self, z, q):
        """Class of [b_z, lift(q)] in Q for the generator index z, after
        checking that q is a reduced class."""
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
