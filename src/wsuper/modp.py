"""Reduction mod p: restricted structures, the finite-dimensional induced
module, reduced W-superalgebras, and the dimension identities that verify the
whole construction.

The rational nilpotent datum is reduced coefficient-wise (denominators must be
units mod p), the p-th power map comes from matrix p-th powers of the
realization, and every kernel and rank is computed by the sparse exact
elimination of `linalg` on {column: c} rows mod p; no vector set of a row is
ever a dense matrix.  The action columns of Q and the vectors of the reduced
W-superalgebra's PBW monomials come from the left action of U_eta on Q's
basis indices (`ReducedQ._left_actor`): a basis monomial is a mixed-radix
integer over its exponent caps, and the action of a generator is memoized
per basis index, in one memo per Q that the ad columns and the PBW vectors
share; no product in U is formed and no private name of the engine is read.
For z in m right multiplication acts on Q by eta(z), so ad z = L_z - eta(z)
and its columns need no right product; only the middle odd vector's ad
columns (odd r) take theirs from the same actor.  The Whittaker vectors are
the m-kernel, worked one generator at a time, each link on the previous
kernel's free columns.  Generator solving and the relation table reuse the
characteristic-zero machinery, the engine's left action on Q's monomials,
verbatim since it is generic over the base field.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .scalars import PrimeField
from .superalgebra import LieSuperalgebra, Coordinatizer, mat_pow, AlgebraError
from .nilpotent import AdaptedGenerator
from .pbw import engine_from_datum, exponent_tuples
from .wchar0 import WContext, SolverError


class ReductionError(ValueError):
    pass


def check_restriction(family, shape, p):
    """The admissible-prime conditions that cost O(1): p >= 3, a supported
    family, and for sl that p does not divide m - n; ReductionError naming
    the first that fails.  Primality is left to `admissible_field`."""
    m, n = shape
    if p < 3:
        why = "p must be an odd prime"
    elif family == "sl" and (m - n) % p == 0:
        why = "p divides m - n = %d" % (m - n)
    elif family not in ("gl", "sl", "osp"):
        why = "unsupported family %r" % family
    else:
        return
    raise ReductionError("p = %d rejected for %s%s: %s" % (p, family, shape, why))


def _madd(acc, terms, c, p):
    """acc += c terms in place, mod p, for {key: residue} dicts; entries
    that cancel are dropped."""
    get = acc.get
    for k, t in terms.items():
        x = (get(k, 0) + c * t) % p
        if x:
            acc[k] = x
        else:
            acc.pop(k, None)


def _reduce_matrix(gf, mat):
    return [[gf.of(x) for x in row] for row in mat]


def _reduce_table(gf, table):
    """A {key: {k: c}} table of structure constants mod p, zeros left out;
    ValueError when p divides a denominator."""
    out = {}
    for key, entries in table.items():
        reduced = {k: r for k, r in ((k, gf.of(c)) for k, c in entries.items())
                   if r}
        if reduced:
            out[key] = reduced
    return out


def admissible_field(family, shape, p):
    """F_p once p passes `check_restriction` and is prime; ReductionError
    otherwise, also for a p at or past `scalars.MILLER_RABIN_BOUND`, where
    the primality test is not proven exact.  The test costs 13 modular
    powers, so it needs no size gate of its own."""
    check_restriction(family, shape, p)
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise ReductionError(str(exc))


def reduce_mod_p(alg, p):
    """Reduce a rational algebra mod an odd prime, attach the p-th power map
    from the matrix realization, and verify restrictedness on basis pairs."""
    gf = admissible_field(alg.family, alg.shape, p)
    try:
        structure = _reduce_table(gf, alg.structure)
        gram = _reduce_matrix(gf, alg.gram) if alg.gram is not None else None
        realization = ([_reduce_matrix(gf, m) for m in alg.realization]
                       if alg.realization is not None else None)
    except ValueError as exc:
        raise ReductionError("p = %d divides a structure denominator: %s"
                             % (p, exc))
    if realization is None:
        raise ReductionError("p-th power map needs a matrix realization")
    coord = Coordinatizer(gf, realization)
    p_map = {}
    for b in alg.basis:
        if b.parity != 0:
            continue
        power = mat_pow(gf, realization[b.index], p)
        try:
            coords = coord.coords(power)
        except AlgebraError:
            raise ReductionError("p-th power of %s escapes the algebra" % b.label)
        p_map[b.index] = tuple(coords)
    base = LieSuperalgebra(gf, alg.basis, structure, gram=gram,
                           realization=realization, p_map=p_map,
                           family=alg.family, shape=alg.shape)
    return ModularAlgebra(base=base, p=p, coordinatizer=coord)


class ModularAlgebra(namedtuple("ModularAlgebra", "base p coordinatizer")):
    """base: the `LieSuperalgebra` over F_p; coordinatizer: the
    `Coordinatizer` of its realization."""
    __slots__ = ()

    @property
    def p_map(self):
        return self.base.p_map


class ModularDatum:
    """A nilpotent datum reduced mod p: same adapted generators, coefficients
    in F_p, plus the p-th power map expressed in adapted coordinates."""

    def __init__(self, nd, p):
        mod = reduce_mod_p(nd.alg, p)
        gf = mod.base.field
        self.nd = nd
        self.p = p
        self.field = gf
        try:
            self.brackets = _reduce_table(gf, nd.brackets)
            self.chi = tuple(gf.of(c) for c in nd.chi)
            vectors = [[gf.of(c) for c in g.vector] for g in nd.generators]
        except ValueError as exc:
            raise ReductionError("p = %d divides an adapted-basis denominator:"
                                 " %s" % (p, exc))
        self.generators = [
            AdaptedGenerator(tuple(v), g.parity, g.weight, g.label, g.kind)
            for g, v in zip(nd.generators, vectors)]
        # row k of the inverse holds the adapted coordinates of b_k
        try:
            inverse = linalg.invert(gf, vectors)
        except ValueError:
            raise ReductionError("adapted basis degenerates mod %d" % p)
        self.pmap_adapted = {}
        for i, g in enumerate(self.generators):
            if g.parity != 0:
                continue
            coords = {}
            for k, c in enumerate(p_power_coords(mod, g.vector)):
                _madd(coords, inverse[k], c, p)
            self.pmap_adapted[i] = dict(sorted(coords.items()))
        self.cobasis_count = nd.cobasis_count
        self.middle_norm = None if nd.middle_norm is None else gf.of(nd.middle_norm)
        # exponent caps must not truncate below the candidate filtration degree
        top = max((g.weight + 2 for g in nd.generators[: nd.cobasis_count]),
                  default=0)
        self.p_guard_ok = p > top
        self.p_guard_bound = top

    def __getattr__(self, name):
        # counts and index helpers fall through to the rational datum
        return getattr(self.__dict__["nd"], name)

    def eta_chi(self):
        """eta = chi itself."""
        return tuple(self.chi)

    def eta_samples(self):
        """chi, and chi shifted along the dual of the first even co-basis
        generator when there is one (such duals span the even annihilator of
        m intersected with the annihilator of the odd part)."""
        out = [("chi", self.eta_chi())]
        for i in range(self.cobasis_count):
            if self.generators[i].parity == 0:
                eta = list(self.eta_chi())
                eta[i] = self.field.add(eta[i], self.field.one)
                out.append(("chi+%s*" % self.generators[i].label, tuple(eta)))
                break
        return out

    def validate_eta(self, eta):
        gf = self.field
        if len(eta) != len(self.generators):
            raise ReductionError("eta has the wrong length")
        for i, g in enumerate(self.generators):
            if g.parity == 1 and not gf.is_zero(eta[i]):
                raise ReductionError("eta must vanish on odd generators")
            if i >= self.cobasis_count and not gf.is_zero(
                    gf.sub(eta[i], self.chi[i])):
                raise ReductionError("eta must agree with chi on m")


def reduce_datum(nd, p):
    return ModularDatum(nd, p)


def pbw_dim(p, parities):
    """p^a 2^b for a even and b odd generators: the number of reduced PBW
    monomials in them."""
    return p ** parities.count(0) * 2 ** parities.count(1)


# Bytes one basis monomial of Q costs in Python, measured when it was an
# exponent tuple (40 plus 8 per generator) with its list slot; the packed
# int that replaced the tuple takes 24 bytes plus 4 per 30 bits of its
# fields, so the estimate now over-counts the basis.  The 198 bytes
# measured for the 9 generators of gl(2|1) regular also counted an entry in
# a {monomial: index} dict that Q no longer keeps: the `at` list of
# `_basis_layout` replaced it.  That layout of the action columns added 98
# bytes more once built (tracemalloc, gl(2|1) regular at p = 5 and 7); the
# columns it builds take 0.6 KB less per column of each z in m
# (AD_COLUMN_BYTES), so the sum was covered.  The constant is kept as
# measured then; ROADMAP item 5 measures it again, with the preflight
# estimate it feeds.
MONOMIAL_BYTES = 128
MONOMIAL_BYTES_PER_GEN = 8
# Bytes one ad column of z in m costs on the way to the m-kernel: the sparse
# column and its share of a link's transposed rows, pivot rows and kernel
# basis.  Measured as the rise in the process's VmHWM over building the
# columns and the kernel on a built Q, when every column set was kept for
# the whole chain: 4.1 KB per column on gl(2|1) regular at p = 7 (2 x 19,208
# columns), 2.1 KB at p = 5 and 0.7 KB on sl(2|1) E12 at p = 5.  Each link
# now lets its set go once read, so this over-counts by what the dropped
# sets held; fill grows with dim Q, so on a larger Q it is a floor, not a
# bound.
AD_COLUMN_BYTES = 6144


def q_footprint(nd, p):
    """(dim Q, estimated bytes) of the reduced module at p, read off the
    datum before anything is built: the monomial basis, the sparse ad
    columns of m and the m-kernel's eliminations, and 16 bytes per entry of
    a dim W x dim Q matrix (dim W = p^l 2^q').  That last term is what the
    PBW monomial vectors of `reduced_w` took as a dense int64 matrix and its
    floating-point copy; they are sparse rows now, so it over-counts, and it
    is kept because it is what refuses gl(1|1) zero at p = 211.  It needs no
    primality test and is the one size gate on p."""
    gens = nd.generators
    dim = pbw_dim(p, [g.parity for g in gens[: nd.cobasis_count]])
    dim_w = pbw_dim(p, [0] * nd.l + [1] * nd.q_prime)
    basis = dim * (MONOMIAL_BYTES + MONOMIAL_BYTES_PER_GEN * len(gens))
    columns = AD_COLUMN_BYTES * len(nd.m_indices) * dim
    return dim, basis + columns + 2 * 8 * dim_w * dim


class ReducedQ:
    """The finite-dimensional induced module at a p-character eta: its
    monomial basis, checked and laid out once, one left actor with one memo
    (`_actor`), the sparse ad columns of each generator, and the m-kernel,
    also the Whittaker space, each built once."""

    def __init__(self, datum, eta, eta_label="chi"):
        datum.validate_eta(eta)
        self.datum = datum
        self.field = datum.field
        self.p = datum.p
        self.eta_label = eta_label
        self.engine = engine_from_datum(datum, tuple(eta), datum.pmap_adapted)
        self.basis = self.engine.cobasis_monomials(None)
        self._layout = self._basis_layout()
        self._acts = None
        self._inv_dim = {}
        self._inv_basis = {}
        self._mid_image = None

    @property
    def eta(self):
        """The p-character, read from the engine: the one eta that its left
        action, and so every column of Q, acts by.  It cannot be set."""
        return self.engine.eta

    @property
    def dim(self):
        return len(self.basis)

    def _pbw_dim(self, indices):
        return pbw_dim(self.p, [self.engine.parities[i] for i in indices])

    def vector_of(self, terms):
        """The {basis index: c} row of the class in Q with these terms, each
        packed monomial read by its mixed-radix code (`_basis_layout`).
        KeyError, with the exponent tuple, for a monomial that is not a
        basis monomial of Q: one with a letter of m, or with an exponent
        past its cap, whose digit would alias into the next one."""
        at, radix = self._layout[4], self._layout[5]
        e = self.engine
        caps = [2 if odd else self.p for odd in e.parities[:len(radix)]]
        places = list(zip(e.shifts, caps, radix))
        mask = e.digit_mask
        out = {}
        for m, c in terms.items():
            code = 0
            for shift, cap, r in places:
                x = m >> shift & mask
                if x >= cap:
                    raise KeyError(e.decode(m))
                code += x * r
            if m & e.m_mask or m >> e.width * e.n_gens:
                raise KeyError(e.decode(m))
            out[at[code]] = c
        return out

    # -- action matrices, as sparse columns ------------------------------------

    def _basis_layout(self):
        """Q's basis read as mixed-radix integers, built once, when Q is.  The
        code of a monomial has the exponent of co-basis generator i, read
        from its packed field by shift and mask, as its digit i, in base p
        for an even and 2 for an odd generator, the first generator the
        most significant.  Returned as (first, lower, upper,
        code, at, radix): per basis index j the first generator s of its
        monomial (the co-basis count for the unit), the indices of the
        monomial with s's exponent lowered and raised by one (-1 past the
        cap), and the code; `at` maps a code to its basis index; radix holds
        the place values of the digits.  This is the one check of Q's basis:
        SolverError names the first monomial out of place, or the count,
        when the basis is not every reduced PBW monomial, each once, in
        (e-degree, tuple) order."""
        e = self.engine
        cb = e.cobasis_count
        base = [2 if e.parities[i] else self.p for i in range(cb)]
        radix = [1] * cb
        for i in range(cb - 2, -1, -1):
            radix[i] = radix[i + 1] * base[i + 1]
        size = radix[0] * base[0] if cb else 1
        shifts, mask = e.shifts, e.digit_mask
        at = [-1] * size
        first, code = [], []
        prev = None
        for j, m in enumerate(self.basis):
            c, s, deg = 0, cb, 0
            ok = not m & e.m_mask and 0 <= m < 1 << e.width * e.n_gens
            for i in range(cb if ok else 0):
                x = m >> shifts[i] & mask
                if x >= base[i]:
                    ok = False
                    break
                if x:
                    if s == cb:
                        s = i
                    c += x * radix[i]
                    deg += x * e.e_degrees[i]
            key = (deg, m)
            if not ok or (prev is not None and key <= prev):
                raise SolverError(
                    "Q's basis has %s at index %d, out of the (e-degree,"
                    " tuple) order of the reduced PBW monomials"
                    % (e.decode(m), j))
            prev = key
            at[c] = j
            first.append(s)
            code.append(c)
        if len(code) != size:
            raise SolverError("Q's basis has %d monomials, not p^a 2^b ="
                              " %d" % (len(code), size))
        lower, upper = [-1] * size, [-1] * size
        for j, s in enumerate(first):
            if s < cb:
                c = code[j]
                lower[j] = at[c - radix[s]]
                if c // radix[s] % base[s] < base[s] - 1:
                    upper[j] = at[c + radix[s]]
        return first, lower, upper, code, at, radix

    def _left_actor(self):
        """(act, apply, memo): act(g, j) is L_g[j], the image of basis
        monomial j under left multiplication by b_g, as a {basis index: c}
        dict, by the left action of U_eta on Q itself: no product in U is
        formed.  With s the first generator of b^m = b_s b^m'' (m'' with s's
        exponent lowered by one):
        - on the unit, L_g[1] is b_g for a co-basis g and eta(g) for g in m
          (the engine's eta);
        - for g < s, L_g[m] is the raised monomial;
        - for g = s, it is the raised monomial below the cap, and at the cap
          the odd square [b_s, b_s]/2 = (p+1)/2 [b_s, b_s] acting on m'', or
          for even s b_s^[p] + eta(s) acting on m with s's exponent set to 0
          (eta(s)^p = eta(s) in F_p);
        - for g > s, L_g[m] = (-1)^{|g||s|} L_s(L_g[m'']) + L_[b_g,b_s][m''].
        The brackets and b_s^[p] are the datum's tables, in adapted
        coordinates.  apply(g, v, neg) is L_g(v), or -L_g(v) with neg, for
        a {basis index: c} vector v, as a new dict: the last case is
        apply(s, L_g[m''], neg) with neg when g and s are odd, plus the
        bracket terms, and `_lift_actor` acts by apply alone.  Every L_k[i]
        that act computes is kept in memo, at k * dim Q + i; an entry set
        back to None is computed again when asked for.  A result equal to
        another L_k[i] may be that dict itself, so results are read-only.
        Any order of requests gives the same results.  Each call makes a
        fresh actor; Q's own work shares one (`_actor`).  On osp(3|2) at
        p = 3, sl(2|1) E12 at p = 7, gl(2|1) regular at p = 5 and osp(1|2)
        regular at p = 11, the recursion was at most 4 calls deep in basis
        order and 23 in reverse order.  `pbw.Enveloping.left_gen` is its
        twin on monomials, through which the engine's `q_mul` and `ad_act`
        act on pairs in every characteristic."""
        first, lower, upper, code, at, radix = self._layout
        dim = self.dim
        p = self.p
        datum = self.datum
        cb = datum.cobasis_count
        odd = self.engine.parities
        eta = self.engine.eta
        brackets = datum.brackets
        pmaps = datum.pmap_adapted
        halves = {g: {k: (p + 1) // 2 * c % p for k, c in v.items()}
                  for (g, t), v in brackets.items() if g == t}
        memo = [None] * (len(odd) * dim)

        def apply(g, v, neg=False):
            # b_g only raises a monomial whose first generator is not below g
            # (below its cap), and distinct monomials rise to distinct ones,
            # so those terms are written without a sum and leave no memo
            # entry; the rest are summed as plain ints, reduced once at the end
            w, rest = {}, []
            for j, c in v.items():
                if neg:
                    c = p - c
                s = first[j]
                if s > g:
                    w[at[code[j] + radix[g]]] = c
                elif s == g and upper[j] >= 0:
                    w[upper[j]] = c
                else:
                    rest.append((j, c))
            if not rest:
                return w
            get = w.get
            row = g * dim
            for j, c in rest:
                for k, t in (memo[row + j] or act(g, j)).items():
                    w[k] = get(k, 0) + c * t
            return {k: y for k, x in w.items() if (y := x % p)}

        def act(g, j):
            v = memo[g * dim + j]
            if v is not None:
                return v
            s = first[j]
            if g < s:
                v = {at[code[j] + radix[g]]: 1}
            elif s == cb:
                # g in m, on the unit
                v = {j: eta[g]} if eta[g] else {}
            elif g == s and upper[j] >= 0:
                v = {upper[j]: 1}
            else:
                if g > s:
                    # b_g b_s = (-1)^{|g||s|} b_s b_g + [b_g, b_s]
                    on = lower[j]
                    v = apply(s, act(g, on), odd[g] and odd[s])
                    pairs = brackets.get((g, s))
                elif odd[s]:
                    # the odd square b_s b_s = [b_s, b_s]/2
                    on, v = lower[j], {}
                    pairs = halves.get(s)
                else:
                    # the cap b_s^p = b_s^[p] + eta(s)
                    on = at[code[j] - (p - 1) * radix[s]]
                    v = {on: eta[s]} if eta[s] else {}
                    pairs = pmaps.get(s)
                terms = [(act(k, on), c) for k, c in (pairs or {}).items()]
                if len(terms) == 1 and not v and terms[0][1] == 1:
                    v = terms[0][0]
                else:
                    for w, c in terms:
                        _madd(v, w, c, p)
            memo[g * dim + j] = v
            return v

        return act, apply, memo

    def _actor(self):
        """This Q's one `_left_actor`, made at its first use: the ad columns
        and the PBW vectors share its memo of L_g[j], so an image that both
        need is computed once.  `release_actor` empties it."""
        if self._acts is None:
            self._acts = self._left_actor()
        return self._acts

    def release_actor(self):
        """Empty the shared memo and let the actor go; the next left action
        makes a new one.  The memo is emptied here, not when the cyclic
        garbage collector reaches act, which refers to itself."""
        if self._acts is not None:
            self._acts[2].clear()
            self._acts = None

    def _left_action(self, gen_index, right=False):
        """The columns of left multiplication by b_g on Q, from the shared
        actor (`_actor`) in basis order; with right, paired with the classes
        R_g[j] of the right products b^m b_g (m basis monomial j) by the same
        actor: R_g[unit] = L_g[unit], and R_g[j] = L_s(R_g[lower j]) for the
        first generator s of m."""
        act, apply, _ = self._actor()
        cols = [act(gen_index, j) for j in range(self.dim)]
        if right:
            first, lower = self._layout[:2]
            rights = [cols[0]]
            for j in range(1, self.dim):
                rights.append(apply(first[j], rights[lower[j]]))
            cols = cols, rights
        return cols

    def _lift_actor(self):
        """lift(terms, v) is u v for the element u of U_eta with these
        {monomial: c} terms and a {basis index: c} vector v of Q, by the
        shared actor (`_actor`).  Each term c b^m acts as L_{g_1}(...
        L_{g_r}(v)), each L_g by the actor's apply; the tails b^{m'} v that
        the terms share are computed once per call, by the first generator
        f of m', b^{m'} v = L_f(b^{m' - e_f} v), and dropped when it
        returns.  The result is a new dict; v is only read."""
        apply = self._actor()[1]
        p = self.p
        first, units = self.engine.first, self.engine.units

        def on(m, tails):
            # b^m v, with tails holding b^{m'} v for the unit m' among others
            w = tails.get(m)
            if w is None:
                f = first(m)
                w = tails[m] = apply(f, on(m - units[f], tails))
            return w

        def lift(terms, v):
            tails = {0: v}
            out = {}
            for m, c in terms.items():
                _madd(out, on(m, tails), c, p)
            return out

        return lift

    def pbw_vectors(self, thetas, expos):
        """The {basis index: c} vector of the class theta^a in Q for each
        exponent tuple a of expos, by the left action of U_eta on Q: with k
        the first generator of a, theta^a 1 = theta_k (theta^{a-e_k} 1),
        where theta_k acts as its lift (`_lift_actor`).  Q is a left
        U_eta-module, so this is the class of the product theta^a in U,
        exactly, and no product in U is formed.  Each a - e_k must come
        before a in expos, as in (degree, tuple) order.  The shared memo
        serves the whole evaluation, with what the ad columns left in it."""
        lift = self._lift_actor()
        # mod p a value's pair has denominator 1: its numerators are the lift
        lifts = [th.value[0] for th in thetas]
        known = {}
        for a in expos:
            k = next((i for i, x in enumerate(a) if x), None)
            if k is None:
                # the unit is basis index 0
                known[a] = {0: 1}
            else:
                known[a] = lift(lifts[k],
                                known[a[:k] + (a[k] - 1,) + a[k + 1:]])
        return [known[a] for a in expos]

    def left_columns(self, gen_index):
        """Columns of left multiplication by b_g on Q, by `_left_action`;
        nothing in the mod-p row reads them.  It stays because
        `bench/benchtrace.py` wraps it (ROADMAP items 1, 7)."""
        return self._left_action(gen_index)

    def ad_columns(self, gen_index):
        """Columns of ad b_g on Q: L_g[m] - (-1)^{|g||m|} R_g[m] for each
        basis monomial m, with L_g[m] from `_left_action`, so the engine is
        not asked for it.  Built on each call, for the one link of the
        m-kernel chain that reads them; the memo's L_g[j], which most of
        the columns are, leave the memo with them, so that both are freed
        once the link drops the set.  A column whose right product is zero
        is the left column's own dict.

        For z in m the right product is known: R_z[unit] = L_z[unit] is
        eta(z) 1, and each later R_z[j] = L_s(R_z[lower j]) only raises a
        monomial, so R_z[j] = eta(z) m and column j is L_z[j] - eta(z) e_j,
        with eta Q's one eta, its engine's (eta vanishes on odd z).  Any
        other g, the middle odd vector of odd r, takes the classes R_g[m] of
        its right products m b_g from `_left_action` as well."""
        p = self.p
        if gen_index in self.datum.m_indices:
            cols = self._left_action(gen_index)
            eta_z = self.eta[gen_index]
            if eta_z:
                for j, col in enumerate(cols):
                    col = cols[j] = dict(col)
                    x = (col.get(j, 0) - eta_z) % p
                    if x:
                        col[j] = x
                    else:
                        del col[j]
        else:
            e = self.engine
            odd = e.parities[gen_index]
            cols, rights = self._left_action(gen_index, right=True)
            for j, (m, right) in enumerate(zip(self.basis, rights)):
                if right:
                    col = cols[j] = dict(cols[j])
                    _madd(col, right, 1 if odd and e.mono_parity(m) else -1,
                          p)
        start = gen_index * self.dim
        self._acts[2][start:start + self.dim] = [None] * self.dim
        return cols

    def _sub_key(self, sub):
        # m' = m when r is even
        if sub not in ("m", "mprime"):
            raise ValueError("unknown subalgebra %r" % (sub,))
        if sub == "m" or self.datum.mprime_indices == self.datum.m_indices:
            return "m"
        return "mprime"

    def _m_order(self):
        """m's generators sorted by (parity, weight, index), even ones first.
        The chain's result does not depend on the order, but its cost does:
        on gl(2|1) regular at p = 5 the rank-only chain, its ad columns
        included, took 0.24-0.26 s with w1 first and 0.54-0.56 s with v2
        first (Python 3.11, one CPU of a shared 2-vCPU host).  In every
        datum built here m is abelian, so this order meets the hypothesis
        that `_m_kernel` checks."""
        gens = self.datum.generators
        return sorted(self.datum.m_indices,
                      key=lambda z: (gens[z].parity, gens[z].weight, z))

    def _bracket_outside(self, a, b, span):
        """Whether [b_a, b_b] leaves the span of the generators in span, or
        eta does not vanish on it, read from the datum's table in both
        orders of the pair."""
        eta = self.eta
        for key in ((a, b), (b, a)):
            terms = self.datum.brackets.get(key, {})
            if (any(t not in span for t in terms)
                    or sum(c * eta[t] for t, c in terms.items()) % self.p):
                return True
        return False

    def _m_kernel(self, order, rank_only=False):
        """The joint kernel of ad z over the generators z in order, one link
        at a time, as a canonical kernel basis on Q; with rank_only, its
        dimension alone, from a rank at the last link; with no generators,
        the unit basis of Q.  No elimination sees more than dim Q rows.

        Each link is `linalg.kernel` of `linalg.transposed` columns.  The
        first takes the kernel K_1 of ad z_1 from its own dim Q sparse
        rows.  Each later link k works in K_1's coordinates: the previous
        kernel K is kept as rows c, canonical over K_1's rows, for the rows
        sum_r c_r K_1[r]; the images by ad z_k of K's rows are read on K's
        free columns (`_image`), and the kernel of ad z_k on K comes from
        their |K| transposed rows as new rows c.
        The last kernel is lifted to Q once, at the end.  Each link lets its
        column set go once its images are built (`ad_columns`).

        Why link k may read K's free columns alone: on Q, ad z = L_z - eta(z)
        for z in m, and L is a representation, so [ad z_i, ad z_k] =
        ad [z_i, z_k] + eta([z_i, z_k]).  When, for every i < k, [z_i, z_k]
        lies in the span of z_1, ..., z_{k-1} and eta vanishes on it, that
        commutator kills K = ker ad z_1 ∩ ... ∩ ker ad z_{k-1}, so for x in K
        ad z_i (ad z_k x) = ±ad z_k (ad z_i x) = 0: ad z_k maps K into
        itself.  A vector in the span of a canonical kernel basis is fixed
        by its entries at the basis's free columns, so ad z_k x is known
        from those entries, and the kernel of ad z_k on K from them.  The
        hypothesis is checked from the datum's brackets and eta before any
        column is built; SolverError names the first pair that breaks it.

        The combinations c of a canonical kernel basis K by the canonical
        kernel basis of c are canonical again, in the same order: the rows
        of K are sorted by their free columns f_r, row r is 1 at f_r and 0
        at the others', so c K is c_r at f_r; a c row with largest key s, 1
        there and 0 at the other free s', gives a row with largest key f_s,
        1 there and 0 at the other f_s'.  So are the rows c over K_1, and
        their lifts to Q."""
        labels = self.engine.labels
        for k in range(1, len(order)):
            for i in range(k):
                if self._bracket_outside(order[i], order[k], order[:k]):
                    raise SolverError(
                        "m-kernel chain: [%s, %s] is not in the span of %s"
                        " with eta zero on it, so ad %s need not map the"
                        " kernel of the links before it into itself"
                        % (labels[order[i]], labels[order[k]],
                           ", ".join(labels[z] for z in order[:k]),
                           labels[order[k]]))
        if not order:
            return self.dim if rank_only else [{j: self.field.one}
                                               for j in range(self.dim)]
        rows = linalg.transposed(self.ad_columns(order[0]), self.dim)
        if rank_only and len(order) == 1:
            return self.dim - linalg.rank(self.field, rows)
        base = linalg.kernel(self.field, rows, self.dim)
        coords = None  # K_1 itself
        for k, z in enumerate(order[1:], 2):
            size = len(base if coords is None else coords)
            rows = linalg.transposed(self._image(z, base, coords), size)
            if rank_only and k == len(order):
                return size - linalg.rank(self.field, rows)
            kernel = linalg.kernel(self.field, rows, size)
            coords = kernel if coords is None else [
                self._combine(coords, c) for c in kernel]
        return base if coords is None else [self._combine(base, c)
                                            for c in coords]

    def _image(self, gen_index, base, coords=None):
        """The images by ad b_g of the rows of a canonical kernel basis K,
        read on K's free columns and keyed by K's rows, streamed: K's
        coordinates of each image.  K is base, a canonical kernel basis on
        Q, or with coords the rows sum_r c_r base[r] for the rows c of
        coords, canonical over base's rows.  The sparse columns of ad b_g
        are restricted to K's free columns, in place, and combined by each
        row of base; with coords, those images are combined by each c, as
        restricting is linear.  They are ad b_g of K's rows itself when
        ad b_g maps the span of K into itself, which the caller has checked.
        The columns are built for this one use (`ad_columns`) and let go
        once combined."""
        cols = self.ad_columns(gen_index)
        free = [max(row) for row in base]
        at = ({f: r for r, f in enumerate(free)} if coords is None
              else {free[max(c)]: r for r, c in enumerate(coords)})
        for j, col in enumerate(cols):
            cols[j] = {at[i]: c for i, c in col.items() if i in at}
        if coords is None:
            for x in base:
                yield self._combine(cols, x)
            return
        images = [self._combine(cols, x) for x in base]
        del cols
        for c in coords:
            yield self._combine(images, c)

    def invariant_dimension(self, sub="m"):
        """Dimension of the joint kernel of ad z over the chosen subalgebra:
        for odd r the length of `invariant_subspace`, whose m basis the m'
        link needs; for even r that length once it has run, and otherwise
        the m chain with a rank at its last link."""
        key = self._sub_key(sub)
        if self.datum.r_odd:
            return len(self.invariant_subspace(key))
        if key not in self._inv_dim:
            self._inv_dim[key] = self._m_kernel(self._m_order(),
                                                rank_only=True)
        return self._inv_dim[key]

    def invariant_subspace(self, sub="m"):
        """Echelonized basis of the joint kernel of ad z over the chosen
        subalgebra, computed once per Q: the canonical kernel basis as a
        tuple of {column: c} rows, each 1 at its free column (its largest
        key) and 0 at the other rows' free columns.  m' = m + <v_mid> is one
        more link of the chain, on the m basis through the middle image."""
        key = self._sub_key(sub)
        basis = self._inv_basis.get(key)
        if basis is None:
            if key == "m":
                basis = self._m_kernel(self._m_order())
            else:
                inv_m = self.invariant_subspace("m")
                rows = linalg.transposed(self._middle_image(), len(inv_m))
                basis = [self._combine(inv_m, c) for c in
                         linalg.kernel(self.field, rows, len(inv_m))]
            basis = self._inv_basis[key] = tuple(basis)
            self._inv_dim[key] = len(basis)
        return basis

    def _combine(self, rows, coeffs):
        """The sum of c rows[r] over the entries r: c of coeffs, mod p, as a
        new dict: the products are summed as plain ints and each entry is
        reduced once, so no entry is dropped and written again on the way."""
        acc = {}
        get = acc.get
        for r, c in coeffs.items():
            for k, t in rows[r].items():
                acc[k] = get(k, 0) + c * t
        p = self.p
        return {k: y for k, x in acc.items() if (y := x % p)}

    def _middle_image(self):
        """Rows ad v_mid (x) for the rows x of the m-invariant basis K (odd
        r), in K's coordinates, computed once per Q (`_image`).  For z in m,
        [v_mid, z] lies in m with eta zero on it, so right multiplication by
        v_mid is well defined on Q and [ad z, ad v_mid] = ad [z, v_mid] kills
        Q^m: ad v_mid maps Q^m into itself.  That is checked from the
        datum's brackets and eta first; SolverError names a z that breaks
        it."""
        if self._mid_image is None:
            v, m = self.datum.v_mid_index, self.datum.m_indices
            for z in m:
                if self._bracket_outside(z, v, m):
                    labels = self.engine.labels
                    raise SolverError(
                        "[%s, %s] is not in m with eta zero on it, so ad %s"
                        " need not map Q^m into itself"
                        % (labels[v], labels[z], labels[v]))
            self._mid_image = tuple(self._image(v,
                                                self.invariant_subspace("m")))
        return self._mid_image

    def leading_columns(self, thetas, expos):
        """The basis index of x^a for each exponent tuple a of expos, with
        x_k the leading generator of theta_k (`WGenerator.leading_gen`):
        the leading monomial of theta^a.  Every leading generator is a
        co-basis generator and a's exponents lie inside Q's caps, so x^a is
        a basis monomial, read by its mixed-radix code (`_basis_layout`)."""
        at, radix = self._layout[4], self._layout[5]
        places = [radix[th.leading_gen] for th in thetas]
        return [at[sum(x * r for x, r in zip(a, places))] for a in expos]

    def rank_of(self, vectors, columns):
        """The rank mod p of {basis index: c} vectors on Q, exactly, read
        first on the given columns alone.  Restricting to columns is a
        linear map, so the restricted rank is at most the full rank, which
        is at most the count: a restricted rank equal to the count proves
        the full rank equal to it.  Otherwise the full vectors are ranked.
        `reduced_w` passes the leading columns x^a of the PBW vectors
        theta^a 1 (`leading_columns`), one per vector, whatever the parity
        of r, so the first rank is of a square |W| x |W| block, each vector
        1 at its own column; the full vectors are ranked only when that
        block is singular.  No kernel held by Q is read."""
        keep = set(columns)
        restricted = [{j: c for j, c in v.items() if j in keep}
                      for v in vectors]
        if linalg.rank_mod_p(restricted, self.p) == len(vectors):
            return len(vectors)
        return linalg.rank_mod_p(vectors, self.p)

    def whittaker_subspace(self):
        """Vectors on which every z in m acts by eta(z) under left
        multiplication: `invariant_subspace("m")` itself, since right
        multiplication by z acts on Q by eta(z), so ad z = L_z - eta(z)
        (`ad_columns`).  It stays because `bench/benchtrace.py` wraps it
        (ROADMAP items 1, 7)."""
        return self.invariant_subspace("m")

    def delta(self):
        """dim of the reduced enveloping algebra of m."""
        return self._pbw_dim(self.datum.m_indices)

    def dim_reduced_enveloping(self):
        return self._pbw_dim(range(self.engine.n_gens))


def build_reduced_q(datum, eta=None, eta_label="chi"):
    """Q at eta (chi by default); SolverError when its basis is not every
    reduced PBW monomial in order (`ReducedQ._basis_layout`)."""
    if eta is None:
        eta = datum.eta_chi()
    return ReducedQ(datum, eta, eta_label)


class ReducedW(namedtuple("ReducedW", "q context thetas pbw_exponents rank"
                                      " presentation pbw_ok warnings")):
    """rank: of the PBW monomials' vectors in Q, mod p."""
    __slots__ = ()

    @property
    def dim(self):
        return len(self.pbw_exponents)


def reduced_w(q):
    """Solve the generators over F_p at the module's eta, verify the PBW basis
    statement, and compute the relation table.  The PBW statement is the
    rank over F_p of the vectors theta^a 1 in Q of the ordered monomials,
    each from the one before it by the left action of a generator's lift
    (`ReducedQ.pbw_vectors`), against their count and dim Q^m; the rank is
    read on the vectors' leading columns x^a first, for both parities of r,
    and on all of Q only when those fall short (`ReducedQ.rank_of`).  Q's
    shared left actor is released after the vectors, the row's last left
    action on Q; the relation table takes its classes from the engine's
    left action."""
    datum = q.datum
    warnings = []
    if not datum.p_guard_ok:
        warnings.append("p = %d is not above the top candidate degree %d;"
                        " exponent caps may truncate identities"
                        % (datum.p, datum.p_guard_bound))
    ctx = WContext(datum, engine=q.engine)
    thetas = ctx.generators()
    expos = list(exponent_tuples(ctx.generator_degrees(),
                                 [th.parity for th in thetas], datum.p - 1,
                                 None))
    # ranked in their degree order; the reverse order fills in far more
    vectors = q.pbw_vectors(thetas, expos)
    # the row's last left action on Q
    q.release_actor()
    rank = q.rank_of(vectors, q.leading_columns(thetas, expos))
    inv_dim = q.invariant_dimension("m")
    pbw_ok = (rank == len(expos) == inv_dim)
    presentation = ctx.commutator_table()
    return ReducedW(q=q, context=ctx, thetas=thetas, pbw_exponents=expos,
                    rank=rank, presentation=presentation, pbw_ok=pbw_ok,
                    warnings=warnings)


class MoritaReport(namedtuple("MoritaReport",
                              "p eta_label dim_u delta dim_w ok")):
    __slots__ = ()


def morita_dim_check(q):
    """dim U_eta(g) = delta^2 dim U_eta(g, e) with delta = dim U_eta(m)."""
    dim_u = q.dim_reduced_enveloping()
    delta = q.delta()
    dim_w = q.invariant_dimension("m")
    return MoritaReport(p=q.p, eta_label=q.eta_label, dim_u=dim_u,
                        delta=delta, dim_w=dim_w,
                        ok=(dim_u == delta * delta * dim_w))


class RefinedInvariantsReport(namedtuple(
        "RefinedInvariantsReport", "p dim_m_invariants dim_mprime_invariants"
        " equal proper witness_ok")):
    __slots__ = ()

    @property
    def ok(self):
        return self.equal and self.proper and self.witness_ok


def mprime_invariants_check(q):
    """For odd r: the m'-invariants of Q equal the bracket image of the
    m-invariants under the middle odd vector, and sit properly inside the
    m-invariants (the middle vector class is the witness outside)."""
    datum = q.datum
    if not datum.r_odd:
        raise ValueError("the refined comparison needs odd r")
    p = q.p
    inv_m = q.invariant_subspace("m")
    inv_mp = q.invariant_subspace("mprime")
    image = q._middle_image()
    # the image lies in the m'-invariants and has their dimension; the m'
    # kernel is the kernel of c -> sum c_r image_r on the m basis, so by
    # rank-nullity the image has rank len(inv_m) - len(inv_mp).  The image
    # (`ReducedQ._middle_image`) and the m' basis lie in Q^m, so both are
    # compared in the m basis's coordinates, their entries at its free
    # columns, where the m' basis is canonical again
    at = {max(row): r for r, row in enumerate(inv_m)}
    coords = [{at[j]: c for j, c in row.items() if j in at} for row in inv_mp]
    equal = (len(inv_m) - len(inv_mp) == len(inv_mp)
             and _in_span(q, coords, image))
    proper = len(inv_mp) < len(inv_m)
    # witness: the middle vector class, the basis monomial b_mid, is
    # m-invariant but not m'-invariant
    wvec = [q.vector_of({q.engine.units[datum.v_mid_index]: 1})]
    in_m = _in_span(q, inv_m, wvec)
    in_mp = _in_span(q, inv_mp, wvec)
    return RefinedInvariantsReport(
        p=p, dim_m_invariants=len(inv_m), dim_mprime_invariants=len(inv_mp),
        equal=equal, proper=proper, witness_ok=in_m and not in_mp)


def _in_span(q, basis, vecs):
    """Whether every {column: c} row of vecs lies in the span of a canonical
    kernel basis on Q.  Each basis row is 1 at its free column, its largest
    key, and 0 at the other rows' free columns, so v is in the span exactly
    when v is the combination of the basis rows that v's entries at their
    free columns weight."""
    free = {max(row): r for r, row in enumerate(basis)}
    return all(q._combine(basis, {free[j]: c for j, c in v.items()
                                  if j in free}) == v
               for v in vecs)


def p_power_coords(mod, vec):
    """Coordinates of the p-th matrix power of an even element."""
    alg = mod.base
    power = mat_pow(alg.field, alg.realize(list(vec)), mod.p)
    return mod.coordinatizer.coords(power)
