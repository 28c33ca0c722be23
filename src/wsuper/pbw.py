"""Exact arithmetic in the induced module Q of a nilpotent datum: the
enveloping algebra on nilpotent-adapted generators modulo the left ideal
generated by z - chi(z) for z in m (U itself for the zero nilpotent, where m
is 0), and its reduced version mod p.

A monomial is one packed Python int over the adapted generator order
(co-basis x, y, u, v first, the generators of m last).  Generator i owns a
field of `width` bits, generator 0 the most significant one, so that
b^a = sum a_i units[i] with units[i] = 2^(width (n - 1 - i)) for n
generators.  Comparing two packed monomials compares their exponent tuples
lexicographically, so every sort by monomial is the sort by tuple.  A class
in Q is a combination of co-basis monomials, and reducing a monomial to Q
reads the low fields, those of m.  Raising an exponent is + units[g],
lowering it - units[g]; the first generator of a monomial is read off its
bit_length; a letter of m is one mask; the parity is a popcount over the
low bit of each odd field.

Exactness.  The top bit of each field is a guard bit, and the bits below it
hold the exponents 0 .. max_exponent, so width = bit_length(max_exponent) +
1.  The bound is p - 1 for a reduced engine, whose rewriting caps an even
exponent at p - 1 and an odd one at 1.  Over Q it is the larger of
CHAR0_MAX_EXPONENT and the max_exponent the caller states, rounded up to
2^k - 1, the most that the bits below the guard hold: every co-basis
generator has e-degree at least 1 and the rewriting respects the Kazhdan
filtration, so a run that forms classes of e-degree at most D reaches no
exponent above D (`wchar0.WContext` states the degree of its relation
table, and its graded check runs on an engine that holds its degree).  Only an exponent raised in place can pass the bound,
from max_exponent into the guard bit; `encode` refuses a larger exponent
and each such raise tests its guard bit, so an overflow is an
ExponentOverflow naming the generator and never a carry into the next
field.  Exponent tuples remain where monomials leave the engine: `decode`,
the artifacts and the error messages.

Every class is normal-ordered by the left action of U on Q itself, L_g on
Q's monomials (`left_gen`, memoized per (g, monomial)); odd squares contract
through the bracket, and in characteristic p an even generator reaching
exponent p contracts through the p-th power map plus the p-character.  No
product in U is formed: the class of a b is lift(a) acting on the class of b
(`q_mul`), and the adjoint action (`ad_act`) is L_g less the right products
b^m b_g, b^m acting on the class of b_g, which for g in m is chi(g) b^m.
`left_gen` is the monomial-keyed twin of `modp.ReducedQ._left_actor`, which
acts on Q's basis indices with the reduced datum's brackets and p-th power
map and the engine's public eta, for the mod-p chain's action columns.

A combination of monomials is a pair (nums, den): Python-int numerators
keyed by packed monomial over one positive denominator, in lowest terms
(denominator 1 and residues mod p in characteristic p).  The pair is the
only form of a class in Q: the engine and the char-0 chain of `wchar0`
(generator solve, PBW descent, relation table, graded check) compute on
pairs alone, and `q_mul` and `ad_act` refuse a right operand with a letter
of m.  `_scaled` turns a dict of Field scalars into a pair.  Every operation
is a pure function of immutable inputs.
"""

from __future__ import annotations

from math import lcm

from .scalars import lowest, widen

# the pair of the empty combination
_EMPTY = ({}, 1)

# the least exponent bound of an engine over Q: 8-bit fields
CHAR0_MAX_EXPONENT = 127


class AmbientMismatch(ValueError):
    pass


class ExponentOverflow(OverflowError):
    """An exponent past the engine's bound: encoded, or raised into its
    field's guard bit."""


class Enveloping:
    """The enveloping algebra (and its reduced version mod p) of a nilpotent
    datum, with the module reduction onto Q.

    In characteristic p the engine is the reduced algebra at the p-character
    eta: even generator powers are capped at p-1 through g^p = g^[p] + eta(g)^p,
    where eta(g)^p = eta(g) since eta(g) lies in F_p.  Over Q, max_exponent
    is the caller's bound on the exponents its run reaches (see the module
    docstring); mod p it is ignored.
    """

    def __init__(self, field, labels, parities, weights, brackets, chi,
                 cobasis_count, eta=None, pmap=None, max_exponent=None):
        self.field = field
        self.labels = tuple(labels)
        self.parities = tuple(parities)
        self.weights = tuple(weights)
        self.n_gens = n = len(self.labels)
        self.brackets = {k: dict(v) for k, v in brackets.items()}
        self.chi = tuple(chi)
        self.cobasis_count = cb = cobasis_count
        self.e_degrees = tuple(w + 2 for w in self.weights)
        self.eta = None if eta is None else tuple(eta)
        self.pmap = None if pmap is None else {k: dict(v) for k, v in pmap.items()}
        if field.char > 0 and (self.eta is None or self.pmap is None):
            raise AmbientMismatch("reduced engine needs a p-character and a"
                                  " p-th power map")
        # the packing: see the module docstring
        if field.char:
            self.max_exponent = field.char - 1
        else:
            bound = max(CHAR0_MAX_EXPONENT, max_exponent or 0)
            self.max_exponent = (1 << bound.bit_length()) - 1
        self.width = w = self.max_exponent.bit_length() + 1
        self.digit_mask = (1 << w) - 1
        self.shifts = tuple(w * (n - 1 - i) for i in range(n))
        self.units = tuple(1 << s for s in self.shifts)
        # the bits of the fields of m, and the low bit of each odd field
        self.m_mask = self.fields_of(range(cb, n))
        self._odd_bits = sum(u for u, odd in zip(self.units, self.parities)
                             if odd)
        self._guards = tuple(u << (w - 1) for u in self.units)
        # the first generator of a monomial by its bit_length; the co-basis
        # count for the unit
        self._firsts = [cb] + [n - 1 - b // w for b in range(n * w)]
        # (e-degree, weight) per monomial, filled as asked (`grade`)
        self._grades = {}
        self.unit_mono = 0
        # the structure the rewriting reads, as pairs (see "core rewriting")
        self._bracket_pairs = {k: self._scaled(v)
                               for k, v in self.brackets.items()}
        half = field.div(field.one, field.of(2))
        self._half_squares = {
            g: self._scaled({k: field.mul(half, c) for k, c in
                             self.brackets.get((g, g), {}).items()})
            for g in range(n) if self.parities[g]}
        self._char_pairs = tuple(
            (c.numerator, c.denominator)
            for c in (self.chi if self.eta is None else self.eta))
        if field.char:
            self._pmap_pairs = {g: self._scaled(v)
                                for g, v in self.pmap.items()}
        self._gen_cache = {}

    # -- packed monomials -----------------------------------------------------

    def encode(self, expo):
        """The packed monomial of an exponent tuple; ExponentOverflow for
        an exponent outside 0 .. max_exponent."""
        if len(expo) != self.n_gens:
            raise ValueError("exponent tuple of length %d, not %d"
                             % (len(expo), self.n_gens))
        mono = 0
        for i, (a, u) in enumerate(zip(expo, self.units)):
            if not 0 <= a <= self.max_exponent:
                raise ExponentOverflow(
                    "exponent %d of generator %s is outside 0..%d"
                    % (a, self.labels[i], self.max_exponent))
            mono += a * u
        return mono

    def decode(self, mono):
        """The exponent tuple of a packed monomial."""
        mask = self.digit_mask
        return tuple(mono >> s & mask for s in self.shifts)

    def exponent(self, mono, g):
        """The exponent of generator g in a packed monomial."""
        return mono >> self.shifts[g] & self.digit_mask

    def fields_of(self, gens):
        """The mask of the fields of the generators gens."""
        return sum(self.digit_mask << self.shifts[g] for g in gens)

    def first(self, mono):
        """The first generator of a monomial, the co-basis count for the
        unit."""
        return self._firsts[mono.bit_length()]

    def raised(self, mono, g):
        """mono b_g as a monomial, its exponent of g raised by one;
        ExponentOverflow when that reaches the guard bit."""
        out = mono + self.units[g]
        if out & self._guards[g]:
            raise ExponentOverflow(
                "exponent of generator %s passes the engine's bound %d"
                % (self.labels[g], self.max_exponent))
        return out

    # -- labels and grading ---------------------------------------------------

    def mono_parity(self, mono):
        return (mono & self._odd_bits).bit_count() & 1

    def element_parity(self, terms):
        par = None
        for m in terms:
            p = self.mono_parity(m)
            if par is None:
                par = p
            elif par != p:
                return None
        return 0 if par is None else par

    def grade(self, mono):
        """(e-degree, weight) of a monomial, kept per monomial."""
        out = self._grades.get(mono)
        if out is None:
            expo = self.decode(mono)
            out = self._grades[mono] = (
                sum(a * d for a, d in zip(expo, self.e_degrees)),
                sum(a * w for a, w in zip(expo, self.weights)))
        return out

    def e_degree(self, mono):
        return self.grade(mono)[0]

    def cobasis_monomials(self, budget):
        """The co-basis monomials of e-degree at most budget (None: all of
        them, in characteristic p), packed and sorted by (e-degree,
        monomial); in characteristic p even exponents stop at p - 1."""
        n = self.cobasis_count
        cap = self.field.char - 1 if self.field.char else None
        return list(packed_monomials(self.e_degrees[:n], self.parities[:n],
                                     cap, budget, self.units[:n]))

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

    def q_mul(self, u, v):
        """The class in Q of lift(u) v for a pair u over all generators and
        a pair v of classes in Q, as a new pair in lowest terms: u, read as
        an element of U, acting on v, so that no product in U is formed; for
        classes u and v it is their product via canonical lifts, well
        defined when v is invariant.  Each term c b^m of u acts as
        L_{g_1}(... L_{g_r}(v)) for the letters g_1 <= ... <= g_r of m, each
        L_g by `_left_apply`.  The terms are taken in the order of their
        letters read from the last generator down, the order of their
        reversed exponent tuples, so that terms ending in the same letters
        follow each other, and only the current term's chain is kept:
        b^{m'} v for the tails m' of m, which the next term reuses as far as
        their letters agree.  AmbientMismatch when v has a letter of m."""
        self._check_class(v[0], "q_mul acts on reduced classes")
        nums, den = u
        acc, out = {}, 1
        # (letter, b^{m'} v) from the unit up; the unit's letter is -1
        chain = [(-1, v)]
        for letters, m in sorted((self._letters(m), m) for m in nums):
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

    def _letters(self, mono):
        """The letters of a monomial, each repeated by its exponent, from
        the last generator down."""
        letters = []
        while mono:
            g = self._firsts[mono.bit_length()]
            e = self.exponent(mono, g)
            letters[:0] = [g] * e
            mono -= e * self.units[g]
        return letters

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
        s = self._firsts[mono.bit_length()]
        if s == self.cobasis_count and g >= s:
            # g in m, on the unit
            cn, cd = self._char_pairs[g]
            return ({mono: cn}, cd) if cn else _EMPTY
        if g < s:
            return {mono + self.units[g]: 1}, 1
        p = self.field.char
        us = self.units[s]
        odd = self.parities[s] if g == s else 0
        if g == s and not odd and self.exponent(mono, s) != p - 1:
            return {self.raised(mono, g): 1}, 1
        if g > s:
            # b_g b_s = (-1)^{|g||s|} b_s b_g + [b_g, b_s]
            on = mono - us
            acc, den = self._left_apply(s, self.left_gen(g, on),
                                        self.parities[s] and self.parities[g])
            pairs = self._bracket_pairs.get((g, s), _EMPTY)
        elif odd:
            # the odd square b_s b_s = [b_s, b_s]/2
            on, acc, den = mono - us, {}, 1
            pairs = self._half_squares[s]
        else:
            # the cap b_s^p = b_s^[p] + eta(s)
            on, den = mono - (p - 1) * us, 1
            acc = {on: self.eta[s]} if self.eta[s] else {}
            pairs = self._pmap_pairs.get(s, _EMPTY)
        nums, cden = pairs
        for k, c in nums.items():
            tn, td = self.left_gen(k, on)
            den = self._acc(acc, den, tn, c, cden * td)
        out = lowest(acc, den)
        self._gen_cache[g, mono] = out if out[1] > 1 else out[0]
        return out

    def _left_apply(self, g, pair, neg=False):
        """L_g on a pair of classes in Q, or -L_g with neg, as a new pair
        (acc, den) that is not brought to lowest terms.  b_g only raises a
        monomial whose first generator is not below g (below its cap), and
        distinct monomials rise to distinct ones, so those terms are written
        without a sum; the others are `left_gen`'s."""
        nums, den = pair
        p = self.field.char
        u = self.units[g]
        field = self.digit_mask << self.shifts[g]
        # g's field when b_g b^m is not raised although g is m's first
        # generator: its cap, and for g in m the unit's 0; over Q an even
        # cap is never reached
        if g >= self.cobasis_count:
            capped = 0
        else:
            capped = u if self.parities[g] else (p - 1) * u
        firsts = self._firsts
        acc, rest = {}, []
        for m, c in nums.items():
            if neg:
                c = -c % p if p else -c
            s = firsts[m.bit_length()]
            if s > g:
                acc[m + u] = c
            elif s == g and m & field != capped:
                acc[self.raised(m, g)] = c
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
        inside = g >= self.cobasis_count
        cn, cd = self._char_pairs[g] if inside else (1, 1)
        if cn:
            if self.parities[g]:
                odd = self._odd_bits
                right = {m: c if (m & odd).bit_count() & 1 else -c
                         for m, c in nums.items()}
            else:
                right = {m: -c for m, c in nums.items()}
            if not inside:
                right, cd = self.q_mul((right, 1), ({self.units[g]: 1}, 1))
            out = self._acc(acc, out, right, cn, den * cd)
        return lowest(acc, out)

    def _check_class(self, nums, message):
        """AmbientMismatch(message) unless every monomial of nums is a
        co-basis monomial, so that nums/den is a class in Q."""
        tail_mask = self.m_mask
        for m in nums:
            if m & tail_mask:
                raise AmbientMismatch(message)

    # -- filtration tools ------------------------------------------------------

    def leading_data(self, monos):
        """(e-degree, weight, monomials) of the leading terms among the
        nonempty monomials monos (a pair's numerator dict)."""
        grades = self._grades
        best, top = None, []
        for m in monos:
            key = grades.get(m) or self.grade(m)
            if best is None or key > best:
                best, top = key, [m]
            elif key == best:
                top.append(m)
        return best[0], best[1], set(top)


def engine_from_datum(nd, eta, pmap, max_exponent=None):
    """The engine of a nilpotent datum: over Q when eta and pmap are None,
    its packed exponents bounded by max_exponent (see `Enveloping`), and
    for a datum reduced mod p the reduced engine at the p-character eta
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
        max_exponent=max_exponent,
    )


def packed_monomials(degrees, parities, cap, budget, places):
    """The ordered PBW monomials over generators of the given degrees (each
    at least 1) and parities, each the int sum(e_i places[i]) of its
    exponent tuple e: odd exponents at most 1, even ones at most cap (None:
    no cap) and degree sum(e_i d_i) at most budget (None: no bound, which
    needs a cap), yielded in (degree, tuple) order when the places pack
    generator 0 most significant, as an engine's `units` do."""
    tops = [1 if odd else cap for odd in parities]
    if budget is None:
        budget = sum(t * d for t, d in zip(tops, degrees))
    # degree -> the monomials over the last generators placed so far;
    # putting k in front, k ascending, keeps each list in tuple order
    suffixes = {0: [0]}
    for d, top, place in zip(degrees[::-1], tops[::-1], places[::-1]):
        grown = {}
        hi = budget // d if top is None else min(top, budget // d)
        for k in range(hi + 1):
            step = k * place
            for left, known in suffixes.items():
                if left + k * d <= budget:
                    grown.setdefault(left + k * d, []).extend(
                        [step + t for t in known] if k else known)
        suffixes = grown
    for total in sorted(suffixes):
        yield from suffixes[total]


def exponent_tuples(degrees, parities, cap, budget):
    """The monomials of `packed_monomials` as exponent tuples: packed in
    fields that hold every exponent, then read back."""
    width = max((1 if odd else budget // d if cap is None else cap
                 for d, odd in zip(degrees, parities)), default=0).bit_length()
    shifts = [width * (len(degrees) - 1 - i) for i in range(len(degrees))]
    mask = (1 << width) - 1
    for mono in packed_monomials(degrees, parities, cap, budget,
                                 [1 << s for s in shifts]):
        yield tuple(mono >> s & mask for s in shifts)
