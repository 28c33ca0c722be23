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

from dataclasses import dataclass


class AmbientMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FiltrationIndex:
    e_degree: int
    weight: int


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

    def support(self):
        return set(self.terms)

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
        if field.char > 0:
            assert self.eta is not None and self.pmap is not None, \
                "reduced engine needs a p-character and a p-th power map"
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

    def degree(self, mono):
        return sum(mono)

    def filtration_index(self, mono):
        return FiltrationIndex(self.e_degree(mono), self.weight(mono))

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

    def _add(self, a, b):
        f = self.field
        out = dict(a)
        for m, c in b.items():
            v = f.add(out.get(m, f.zero), c)
            if f.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return out

    def _acc(self, acc, terms, coeff):
        f = self.field
        if f.is_zero(coeff):
            return
        for m, c in terms.items():
            v = f.add(acc.get(m, f.zero), f.mul(coeff, c))
            if f.is_zero(v):
                acc.pop(m, None)
            else:
                acc[m] = v

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

    def _times_mono(self, mono, other):
        cur = {mono: self.field.one}
        for g, e in enumerate(other):
            for _ in range(e):
                nxt = {}
                for m, c in cur.items():
                    self._acc(nxt, self.times_gen(m, g), c)
                cur = nxt
        return cur

    def _mul(self, a, b):
        f = self.field
        acc = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                prod = self._times_mono(m1, m2)
                self._acc(acc, prod, f.mul(c1, c2))
        return acc

    def normalize(self, word, coeff=1):
        """Normal form of a word given as (generator, exponent) pairs, in any
        order; odd exponents beyond 1 contract, even ones cap mod p."""
        f = self.field
        cur = {self.unit_mono: f.of(coeff)}
        for g, e in word:
            for _ in range(e):
                nxt = {}
                for m, c in cur.items():
                    self._acc(nxt, self.times_gen(m, g), c)
                cur = nxt
        return Element(self, cur)

    # -- the induced module Q -------------------------------------------------

    def q_reduce(self, elt):
        """Image in Q: trailing m-part generators act through chi (or eta)."""
        if isinstance(elt, Element):
            terms = elt.terms
        else:
            terms = elt
        f = self.field
        char_values = self.chi if self.eta is None else self.eta
        acc = {}
        for m, c in terms.items():
            val = c
            dead = False
            for g in range(self.cobasis_count, self.n_gens):
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
            mm = m[: self.cobasis_count] + (0,) * (self.n_gens - self.cobasis_count)
            v = f.add(acc.get(mm, f.zero), val)
            if f.is_zero(v):
                acc.pop(mm, None)
            else:
                acc[mm] = v
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
        """z is a generator index or a coordinate vector over the generators."""
        assert self.is_q_element(q), "ad acts on reduced classes"
        if isinstance(z, int):
            return self.ad_act_gen(z, q)
        f = self.field
        acc = {}
        for i, c in enumerate(z):
            c = f.of(c)
            if f.is_zero(c):
                continue
            self._acc(acc, self.ad_act_gen(i, q).terms, c)
        return Element(self, acc)

    def _gen_mono(self, g):
        m = [0] * self.n_gens
        m[g] = 1
        return tuple(m)

    # -- filtration tools ------------------------------------------------------

    def pi_project(self, q, i, j):
        """Keep exactly the monomials with e-degree i and weight j."""
        terms = {m: c for m, c in q.terms.items()
                 if self.e_degree(m) == i and self.weight(m) == j}
        return Element(self, terms)

    def leading_terms(self, q):
        """Monomials of maximal e-degree and, among those, maximal weight."""
        if not q.terms:
            return set()
        n = max(self.e_degree(m) for m in q.terms)
        at_top = [m for m in q.terms if self.e_degree(m) == n]
        big = max(self.weight(m) for m in at_top)
        return {m for m in at_top if self.weight(m) == big}

    def leading_data(self, q):
        if not q.terms:
            return None
        n = max(self.e_degree(m) for m in q.terms)
        at_top = [m for m in q.terms if self.e_degree(m) == n]
        big = max(self.weight(m) for m in at_top)
        return n, big, {m for m in at_top if self.weight(m) == big}

    # -- closed-form left multiplication ---------------------------------------

    def closed_form_left_multiply(self, w, mono):
        """Left multiplication of a homogeneous element by the closed binomial
        and sign-table formula, bubbling w through the x and y blocks in one
        step.  Agrees with normalize; exercised against it in the tests."""
        from math import comb
        f = self.field
        par_w = w.parity()
        assert par_w is not None, "closed form needs a parity-homogeneous element"
        # block boundaries inside the co-basis: x then y then u then v
        xs = [i for i in range(self.cobasis_count) if self.labels[i][0] == "x"]
        ys = [i for i in range(self.cobasis_count) if self.labels[i][0] == "y"]
        tail = [i for i in range(self.n_gens) if i not in xs and i not in ys]
        a = [mono[i] for i in xs]
        b = [mono[i] for i in ys]
        acc = {}
        for ivec in _box(a):
            binom = 1
            for ai, ii in zip(a, ivec):
                binom *= comb(ai, ii)
            for jvec in _box(b):
                coeff = f.of(binom)
                # sign table: k_{t,0,0}=1, k_{t,0,1}=0,
                # k_{t,1,0}=(-1)^{|w|+j_1+..+j_{t-1}}, k_{t,1,1}=-k_{t,1,0}
                dead = False
                jsum = 0
                for tpos in range(len(b)):
                    bt, jt = b[tpos], jvec[tpos]
                    if bt == 0:
                        if jt:
                            dead = True
                            break
                        continue
                    if jt == 0:
                        k = -1 if (par_w + jsum) % 2 else 1
                    else:
                        k = 1 if (par_w + jsum) % 2 else -1
                    if k < 0:
                        coeff = f.neg(coeff)
                    jsum += jt
                if dead or f.is_zero(coeff):
                    continue
                if sum(ivec) % 2:
                    coeff = f.neg(coeff)
                # innermost first: ad x_1 .. ad x_m, then ad y_1 .. ad y_n
                bracket = w
                for gi, cnt in zip(xs, ivec):
                    for _ in range(cnt):
                        bracket = self._ad_in_u(gi, bracket)
                for tpos in range(len(ys)):
                    for _ in range(jvec[tpos]):
                        bracket = self._ad_in_u(ys[tpos], bracket)
                if bracket.is_zero():
                    continue
                prefix = [0] * self.n_gens
                for gi, ai, ii in zip(xs, a, ivec):
                    prefix[gi] = ai - ii
                for gi, bi, ji in zip(ys, b, jvec):
                    prefix[gi] = bi - ji
                suffix = [0] * self.n_gens
                for gi in tail:
                    suffix[gi] = mono[gi]
                term = self.element({tuple(prefix): f.one}) * bracket \
                    * self.element({tuple(suffix): f.one})
                self._acc(acc, term.terms, coeff)
        return Element(self, acc)

    def _ad_in_u(self, g, w):
        """[b_g, w] inside the enveloping algebra."""
        f = self.field
        left = self.gen(g) * w
        pw = w.parity()
        sign = -1 if (self.parities[g] and pw) else 1
        right = (w * self.gen(g)).scale(f.of(sign))
        return left - right


def _box(bounds):
    """All integer vectors 0 <= i_k <= bounds[k]."""
    if not bounds:
        yield ()
        return
    for rest in _box(bounds[1:]):
        for i in range(bounds[0] + 1):
            yield (i,) + rest


def engine_from_datum(nd):
    """Characteristic-zero engine of a nilpotent datum."""
    return Enveloping(
        nd.alg.field,
        [g.label for g in nd.generators],
        [g.parity for g in nd.generators],
        [g.weight for g in nd.generators],
        nd.brackets,
        nd.chi,
        nd.cobasis_count,
    )
