"""Reduction mod p: restricted structures, the finite-dimensional induced
module, reduced W-superalgebras, and the dimension identities that verify the
whole construction.

The rational nilpotent datum is reduced coefficient-wise (denominators must be
units mod p), the p-th power map comes from matrix p-th powers of the
realization, and every kernel and rank is computed by the sparse exact
elimination of `linalg` on {column: c} rows mod p; no vector set of a row is
ever a dense matrix.  The action columns of Q, with their right products
m b_g, and the vectors of the reduced W-superalgebra's PBW monomials come
from the left action of U_eta on Q's basis indices (`ReducedQ._left_actor`):
a basis monomial is a mixed-radix integer over its exponent caps, and the
action of a generator is memoized per basis index, in one memo per Q that
the ad columns and the PBW vectors share; no product in U is formed and no
private name of the engine is read.  The Whittaker vectors are the
m-kernel, as ad z = L_z - eta(z) for z in m.  Generator solving and the
relation table reuse the characteristic-zero machinery, the engine's left
action on Q's monomials, verbatim since it is generic over the base field.
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


# Bytes one basis monomial of Q costs in Python: its exponent tuple (40 plus
# 8 per generator), its list slot and its entry in the index dict; measured
# at 198 bytes for the 9 generators of gl(2|1) regular.  The mixed-radix
# layout of the action columns adds 98 bytes more once built (tracemalloc,
# gl(2|1) regular at p = 5 and 7); the columns it builds take 0.6 KB less
# per column of each z in m (AD_COLUMN_BYTES), so the sum is still covered.
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
        self.eta = tuple(eta)
        self.eta_label = eta_label
        self.engine = engine_from_datum(datum, self.eta, datum.pmap_adapted)
        self.basis = self.engine.cobasis_monomials(None)
        self._layout = self._basis_layout()
        self._acts = None
        self._ad_cols = {}
        self._right_checked = set()
        self._right_mismatch = {}
        self._inv_dim = {}
        self._inv_basis = {}
        self._mid_image = None

    @property
    def dim(self):
        return len(self.basis)

    def _pbw_dim(self, indices):
        return pbw_dim(self.p, [self.engine.parities[i] for i in indices])

    def vector_of(self, terms):
        """The {basis index: c} row of the class in Q with these terms, each
        monomial read by its mixed-radix code (`_basis_layout`).  KeyError
        for a monomial that is not a basis monomial of Q: one with a letter
        of m, or with an exponent past its cap, whose digit would alias
        into the next one."""
        at, radix = self._layout[4], self._layout[5]
        cb = len(radix)
        caps = [2 if odd else self.p for odd in self.engine.parities[:cb]]
        out = {}
        for m, c in terms.items():
            if any(m[cb:]) or not all(0 <= x < b for x, b in zip(m, caps)):
                raise KeyError(m)
            out[at[sum(x * r for x, r in zip(m, radix))]] = c
        return out

    # -- action matrices, as sparse columns ------------------------------------

    def _basis_layout(self):
        """Q's basis read as mixed-radix integers, built once, when Q is.  The
        code of a monomial has the exponent of co-basis generator i as its
        digit i, in base p for an even and 2 for an odd generator, the first
        generator the most significant.  Returned as (first, lower, upper,
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
        tail = (0,) * (e.n_gens - cb)
        at = [-1] * size
        first, code = [], []
        prev = None
        for j, m in enumerate(self.basis):
            c, s, deg = 0, cb, 0
            ok = m[cb:] == tail
            for i in range(cb if ok else 0):
                x = m[i]
                if not 0 <= x < base[i]:
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
                    " tuple) order of the reduced PBW monomials" % (m, j))
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
        twin on monomials, which `q_mul` and `ad_act` use in every
        characteristic."""
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
        unit = self.engine.unit_mono

        def on(m, tails):
            # b^m v, with tails holding b^{m'} v for the unit m' among others
            w = tails.get(m)
            if w is None:
                f = next(i for i, x in enumerate(m) if x)
                w = tails[m] = apply(
                    f, on(m[:f] + (m[f] - 1,) + m[f + 1:], tails))
            return w

        def lift(terms, v):
            tails = {unit: v}
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
        lifts = [th.value.terms for th in thetas]
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
        nothing in the mod-p row reads them."""
        return self._left_action(gen_index)

    def ad_columns(self, gen_index):
        """Columns of ad b_g on Q: L_g[m] - (-1)^{|g||m|} R_g[m] for each
        basis monomial m, with L_g[m] and the class R_g[m] of the right
        product m b_g both from `_left_action`, so the engine is not asked
        for either; built once and kept until the link of the m-kernel
        chain that reads them takes them (`_take_ad_columns`).  A column
        whose right product is zero is the left column's own dict.

        For g in m, R_g[m] is compared exactly with eta(g) m while the set
        is built, and the first column where they differ is recorded for
        `right_action_mismatch`.  That check can catch little: R_g[unit] =
        L_g[unit] is eta(g) 1 with the engine's eta, and every later R_g[j]
        = L_s(R_g[lower j]) only raises a monomial, so a mismatch can only
        sit at column 0, where Q's eta and its engine's disagree."""
        cols = self._ad_cols.get(gen_index)
        if cols is None:
            e = self.engine
            odd = e.parities[gen_index]
            check = gen_index in self.datum.m_indices
            eta_g = self.eta[gen_index]
            cols, rights = self._left_action(gen_index, right=True)
            for j, (m, right) in enumerate(zip(self.basis, rights)):
                if check and right != ({j: eta_g} if eta_g else {}):
                    self._right_mismatch.setdefault(gen_index, j)
                if right:
                    col = cols[j] = dict(cols[j])
                    _madd(col, right,
                          1 if odd and e.mono_parity(m) else -1, self.p)
            if check:
                self._right_checked.add(gen_index)
            self._ad_cols[gen_index] = cols
        return cols

    def _take_ad_columns(self, gen_index):
        """`ad_columns` for the one link that reads them: the set leaves Q,
        and so do the memo's L_g[j], which most of its columns are, so that
        both are freed once the link drops them.  Asking again builds the
        set again."""
        cols = self.ad_columns(gen_index)
        del self._ad_cols[gen_index]
        if self._acts is not None:
            start = gen_index * self.dim
            self._acts[2][start:start + self.dim] = [None] * self.dim
        return cols

    def right_action_mismatch(self):
        """None when right multiplication by every z in m acts on Q by eta(z),
        so that ad z = L_z - eta(z) and the m-invariants are the Whittaker
        vectors; otherwise (z, column) of the first column where it does not.
        Read off the record `ad_columns` made; a z whose columns were never
        built has its set built here."""
        for z in self.datum.m_indices:
            if z not in self._right_checked:
                self.ad_columns(z)
            if z in self._right_mismatch:
                return z, self._right_mismatch[z]
        return None

    def _sub_key(self, sub):
        # m' = m when r is even
        if sub not in ("m", "mprime"):
            raise ValueError("unknown subalgebra %r" % (sub,))
        if sub == "m" or self.datum.mprime_indices == self.datum.m_indices:
            return "m"
        return "mprime"

    def _transposed(self, cols):
        """The dim Q rows of the matrix whose sparse columns (vectors on Q)
        cols streams in, one {column: c} dict per basis monomial, never a
        dense matrix.  They are handed out from the last basis monomial to
        the first and dropped once handed out.  The reduced row echelon form
        does not depend on the order, but the cost does: ad z lowers the
        e-degree and pivots sit at the lowest column, so rows from the top
        of the basis fill in least.  cols is let go once the rows are built,
        before the first is handed out."""
        rows = [{} for _ in range(self.dim)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows[i][j] = c
        del cols
        while rows:
            yield rows.pop()

    def _m_order(self):
        """m's generators sorted by (parity, weight, index), even ones first.
        The chain's result does not depend on the order, but its cost does:
        on gl(2|1) regular at p = 5 the kernel took 0.7 s with w1 first and
        1.5 s with v2 first (Python 3.11, a shared 2-vCPU host)."""
        gens = self.datum.generators
        return sorted(self.datum.m_indices,
                      key=lambda z: (gens[z].parity, gens[z].weight, z))

    def _m_kernel(self, order, rank_only=False):
        """The joint kernel of ad z over the generators z in order, one link
        at a time: the canonical kernel basis of ad z_1 from its own dim Q
        sparse rows, then the kernel of each later ad z on the previous
        basis (`_restricted_kernel`).  No elimination sees more than dim Q
        rows.  Each link lets its column set go once its rows are built
        (`_take_ad_columns`).  With rank_only, the dimension alone, from a
        rank at the last link; with no generators, the unit basis of Q."""
        if not order:
            return self.dim if rank_only else [{j: self.field.one}
                                               for j in range(self.dim)]
        rows = self._transposed(self._take_ad_columns(order[0]))
        if rank_only and len(order) == 1:
            return self.dim - linalg.rank(self.field, rows)
        basis = linalg.kernel_rows(self.field, *linalg.rref(self.field, rows),
                                   self.dim)
        for k, z in enumerate(order[1:], 2):
            basis = self._restricted_kernel(
                basis, self._image(z, basis), rank_only and k == len(order))
        return basis

    def _image(self, gen_index, basis):
        """The rows ad b_g (x) for the rows x of basis, streamed: each is the
        combination of the sparse columns of ad b_g that x's entries weight.
        The columns are taken for this one use (`_take_ad_columns`) and let
        go with the last row."""
        cols = self._take_ad_columns(gen_index)
        for x in basis:
            yield self._combine(cols, x)

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
                basis = self._restricted_kernel(self.invariant_subspace("m"),
                                                self._middle_image())
            basis = self._inv_basis[key] = tuple(basis)
            self._inv_dim[key] = len(basis)
        return basis

    def _restricted_kernel(self, basis, image, rank_only=False):
        """The kernel of a map on the span of a canonical kernel basis K,
        given the image of each row of K: the combinations c K with
        sum_r c_r image_r = 0, so c runs over the kernel of the image's
        transpose.  The transposed rows are built as the images stream in,
        and handed to the elimination from the last basis monomial down.
        With rank_only, the kernel's dimension alone.

        The combinations by the canonical kernel basis of c are canonical
        again, in the same order: the rows of K are sorted by their free
        columns f_r, row r is 1 at f_r and 0 at the others', so c K is c_r
        at f_r; a c row with largest key s, 1 there and 0 at the other free
        s', gives a row with largest key f_s, 1 there and 0 at the other
        f_s'."""
        rows = self._transposed(image)
        if rank_only:
            return len(basis) - linalg.rank(self.field, rows)
        kernel = linalg.kernel_rows(self.field, *linalg.rref(self.field, rows),
                                    len(basis))
        return [self._combine(basis, c) for c in kernel]

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
        r), computed once per Q (`_image`)."""
        if self._mid_image is None:
            self._mid_image = tuple(self._image(self.datum.v_mid_index,
                                                self.invariant_subspace("m")))
        return self._mid_image

    def rank_of(self, vectors):
        """The rank mod p of {basis index: c} vectors on Q, exactly.  When Q
        already holds the canonical m basis K (odd r), the vectors are first
        restricted to K's free columns.  The restriction is a linear map, so
        its rank is at most the full rank, which is at most the count: a
        restricted rank equal to the count proves the full rank equal to it.
        Otherwise, or when Q holds no K, the full vectors are ranked."""
        basis = self._inv_basis.get("m")
        if basis is not None:
            free = {max(row) for row in basis}
            restricted = [{j: c for j, c in v.items() if j in free}
                          for v in vectors]
            if linalg.rank_mod_p(restricted, self.p) == len(vectors):
                return len(vectors)
        return linalg.rank_mod_p(vectors, self.p)

    def whittaker_subspace(self):
        """Vectors on which every z in m acts by eta(z) under left
        multiplication: `invariant_subspace("m")` itself, since ad z =
        L_z - eta(z) once `right_action_mismatch` is None; SolverError
        naming z and the column otherwise."""
        mismatch = self.right_action_mismatch()
        if mismatch is not None:
            z, column = mismatch
            label = self.engine.labels[z]
            raise SolverError("right multiplication by %s does not act by"
                              " eta(%s) on column %d of Q" % (label, label,
                                                              column))
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
    read in m-kernel coordinates when Q holds that basis
    (`ReducedQ.rank_of`).  Q's shared left actor is released after the
    vectors, the row's last left action on Q; the relation table takes its
    classes from the engine's left action."""
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
                                 None, ()))
    # ranked in their degree order; the reverse order fills in far more
    vectors = q.pbw_vectors(thetas, expos)
    # the row's last left action on Q
    q.release_actor()
    rank = q.rank_of(vectors)
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
    # rank-nullity the image has rank len(inv_m) - len(inv_mp)
    equal = (len(inv_m) - len(inv_mp) == len(inv_mp)
             and _in_span(q, inv_mp, image))
    proper = len(inv_mp) < len(inv_m)
    # witness: the middle vector class, the basis monomial b_mid, is
    # m-invariant but not m'-invariant
    wvec = [q.vector_of(q.engine.gen(datum.v_mid_index).terms)]
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
