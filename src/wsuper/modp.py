"""Reduction mod p: restricted structures, the finite-dimensional induced
module, reduced W-superalgebras, and the dimension identities that verify the
whole construction.

The rational nilpotent datum is reduced coefficient-wise (denominators must be
units mod p), the p-th power map comes from matrix p-th powers of the
realization, and all kernels are computed by exact integer elimination mod p.
Generator solving reuses the characteristic-zero machinery verbatim since the
rewriting engine is generic over the base field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .scalars import PrimeField
from .superalgebra import LieSuperalgebra, Coordinatizer, mat_pow, AlgebraError
from .nilpotent import AdaptedGenerator
from .pbw import engine_from_datum, exponent_tuples
from .wchar0 import WContext, SolverError


class ReductionError(ValueError):
    pass


def restriction_condition(family, shape, p):
    """The admissible-prime condition per family."""
    m, n = shape
    if p < 3:
        return False, "p must be an odd prime"
    if not linalg.exact_mod_p(p):
        return False, ("p exceeds the float64 bound %d*(p-1)**2 + p < 2**53"
                       " of the mod-p kernel" % linalg.BLOCK)
    if family == "sl" and (m - n) % p == 0:
        return False, "p divides m - n = %d" % (m - n)
    if family not in ("gl", "sl", "osp"):
        return False, "unsupported family %r" % family
    return True, ""


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
    """F_p once p passes `restriction_condition`; ReductionError otherwise.
    The CLI calls it for every prime before it builds anything."""
    ok, why = restriction_condition(family, shape, p)
    if not ok:
        raise ReductionError("p = %d rejected for %s%s: %s"
                             % (p, family, shape, why))
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
    return ModularAlgebra(base=base, p=p,
                          restriction_ok={"family": alg.family,
                                          "shape": alg.shape, "p": p,
                                          "condition": "satisfied"},
                          coordinatizer=coord)


@dataclass
class ModularAlgebra:
    base: LieSuperalgebra
    p: int
    restriction_ok: dict
    coordinatizer: Coordinatizer

    @property
    def p_map(self):
        return self.base.p_map


class ModularDatum:
    """A nilpotent datum reduced mod p: same adapted generators, coefficients
    in F_p, plus the p-th power map expressed in adapted coordinates."""

    def __init__(self, nd, p):
        mod = reduce_mod_p(nd.alg, p)
        gf = PrimeField(p)
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
        change = [[vectors[j][i] for j in range(len(vectors))]
                  for i in range(nd.alg.dim)]
        try:
            change_inv = linalg.invert(gf, change)
        except ValueError:
            raise ReductionError("adapted basis degenerates mod %d" % p)
        self.pmap_adapted = {}
        for i, g in enumerate(self.generators):
            if g.parity != 0:
                continue
            coords_orig = p_power_coords(mod, g.vector)
            coords = linalg.mat_vec(gf, change_inv, coords_orig)
            self.pmap_adapted[i] = {t: c for t, c in enumerate(coords)
                                    if not gf.is_zero(c)}
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
# at 198 bytes for the 9 generators of gl(2|1) regular.
MONOMIAL_BYTES = 128
MONOMIAL_BYTES_PER_GEN = 8


def q_footprint(nd, p):
    """(dim Q, estimated bytes) of the reduced module at p, read off the
    datum before anything is built: the monomial basis, plus two dense int64
    matrices with the float64 copy that `linalg._echelon_mod_p` makes of
    each: the stack of the ad z for z in m, and the dim W x dim Q matrix of
    PBW monomial vectors in `reduced_w`, dim W = p^l 2^q'."""
    gens = nd.generators
    dim = pbw_dim(p, [g.parity for g in gens[: nd.cobasis_count]])
    dim_w = pbw_dim(p, [0] * nd.l + [1] * nd.q_prime)
    basis = dim * (MONOMIAL_BYTES + MONOMIAL_BYTES_PER_GEN * len(gens))
    return dim, basis + 2 * 8 * (len(nd.m_indices) * dim + dim_w) * dim


class ReducedQ:
    """The finite-dimensional induced module at a p-character eta, with its
    monomial basis and the action matrices."""

    def __init__(self, datum, eta, eta_label="chi"):
        datum.validate_eta(eta)
        self.datum = datum
        self.field = datum.field
        self.p = datum.p
        self.eta = tuple(eta)
        self.eta_label = eta_label
        self.engine = engine_from_datum(datum, self.eta, datum.pmap_adapted)
        self.basis = self.engine.cobasis_monomials(None)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self._ad_cols = {}
        self._left_cols = {}
        self._right_mismatch = {}
        self._inv_dim = {}
        self._inv_basis = {}
        self._mid_image = None

    @property
    def dim(self):
        return len(self.basis)

    def _pbw_dim(self, indices):
        return pbw_dim(self.p, [self.engine.parities[i] for i in indices])

    def expected_dim(self):
        return self._pbw_dim(range(self.datum.cobasis_count))

    def vector_of(self, elt):
        v = np.zeros(self.dim, dtype=np.int64)
        for m, c in elt.terms.items():
            v[self.index[m]] = c
        return v

    def element_of(self, vec):
        terms = {}
        for i, c in enumerate(vec):
            c = int(c) % self.p
            if c:
                terms[self.basis[i]] = c
        return self.engine.element(terms)

    # -- action matrices (sparse columns, dense on demand) ---------------------

    def _left_products(self, gen_index):
        """(m, b_g b^m) for every basis monomial m in basis order, the product
        unreduced.  Each is built from an earlier one: b_g b^m = (b_g b^m') b_t
        for the last generator t of m and m' = m with that exponent lowered,
        which precedes m because every co-basis e-degree is at least 1.  These
        are the products `Enveloping._times_mono` forms one generator at a
        time.  The basis is sorted by e-degree, so only the products of the
        last `reach` e-degrees are kept."""
        e = self.engine
        degrees = e.e_degrees[: e.cobasis_count]
        reach = max(degrees, default=0)
        levels = {}  # e-degree -> {m: b_g b^m}
        for m in self.basis:
            deg = e.e_degree(m)
            top = max((i for i, x in enumerate(m) if x), default=-1)
            if top < 0:
                prod = {e._gen_mono(gen_index): e.field.one}
            else:
                prefix = m[:top] + (m[top] - 1,) + m[top + 1:]
                base = levels.get(deg - degrees[top], {}).get(prefix)
                if base is None:
                    raise SolverError("the left product on %s needs its prefix"
                                      " %s earlier in the basis" % (m, prefix))
                prod = e.times_gen_terms(base, top)
            if deg not in levels:
                for low in [k for k in levels if k < deg - reach]:
                    del levels[low]
                levels[deg] = {}
            levels[deg][m] = prod
            yield m, prod

    def _column(self, terms):
        return {self.index[m]: c for m, c in terms.items()}

    def left_columns(self, gen_index):
        """Columns of left multiplication by b_g on Q: the classes of the
        prefix-built products of `_left_products`."""
        cols = self._left_cols.get(gen_index)
        if cols is None:
            q_reduce = self.engine.q_reduce
            cols = [self._column(q_reduce(left).terms)
                    for _, left in self._left_products(gen_index)]
            self._left_cols[gen_index] = cols
        return cols

    def ad_columns(self, gen_index):
        """Columns of ad b_g on Q: the class of b_g b^m - (-1)^{|g||m|} b^m b_g
        for each basis monomial m, with b_g b^m from `_left_products` and the
        right product b^m b_g reduced once.  For g in m that reduced right
        product is compared exactly with eta(g) m; the first column where they
        differ is kept for `right_action_mismatch`."""
        cols = self._ad_cols.get(gen_index)
        if cols is None:
            e = self.engine
            f = e.field
            odd = e.parities[gen_index]
            check = gen_index in self.datum.m_indices
            eta_g = self.eta[gen_index]
            cols = []
            for j, (m, left) in enumerate(self._left_products(gen_index)):
                right = e.q_reduce(e.times_gen(m, gen_index)).terms
                if check and right != ({m: eta_g} if eta_g else {}):
                    self._right_mismatch.setdefault(gen_index, j)
                img = e.q_reduce(left).terms
                sign = f.one if odd and e.mono_parity(m) else f.neg(f.one)
                e._acc(img, right, sign)
                cols.append(self._column(img))
            self._ad_cols[gen_index] = cols
        return cols

    def right_action_mismatch(self):
        """None when right multiplication by every z in m acts on Q by eta(z),
        so that ad z = L_z - eta(z) and the m-invariants are the Whittaker
        vectors; otherwise (z, column) of the first column where it does not."""
        for z in self.datum.m_indices:
            self.ad_columns(z)
            if z in self._right_mismatch:
                return z, self._right_mismatch[z]
        return None

    def _fill(self, out, cols):
        for j, col in enumerate(cols):
            for i, c in col.items():
                out[i, j] = c
        return out

    def _dense(self, cols):
        return self._fill(np.zeros((self.dim, self.dim), dtype=np.int64), cols)

    def left_matrix(self, gen_index):
        return self._dense(self.left_columns(gen_index))

    def ad_matrix(self, gen_index):
        return self._dense(self.ad_columns(gen_index))

    def _sub_indices(self, sub):
        if sub == "m":
            return self.datum.m_indices
        if sub == "mprime":
            return self.datum.mprime_indices
        raise ValueError("unknown subalgebra %r" % (sub,))

    def _sub_key(self, sub):
        # m' = m when r is even
        if self._sub_indices(sub) == self.datum.m_indices:
            return "m"
        return "mprime"

    def stacked_ad(self, sub):
        idx = self._sub_indices(sub)
        n = self.dim
        out = np.zeros((len(idx) * n, n), dtype=np.int64)
        for k, z in enumerate(idx):
            self._fill(out[k * n:(k + 1) * n], self.ad_columns(z))
        return out

    def invariant_dimension(self, sub="m"):
        """Dimension of the joint kernel of ad z over the chosen subalgebra;
        read from `invariant_subspace` when that has already run, and always
        for m' (whose kernel is found inside the m-kernel)."""
        key = self._sub_key(sub)
        if key == "mprime":
            return self.invariant_subspace(key).shape[0]
        if key not in self._inv_dim:
            stacked = self.stacked_ad(key)
            self._inv_dim[key] = self.dim - linalg.rank_mod_p(stacked, self.p)
        return self._inv_dim[key]

    def invariant_subspace(self, sub="m"):
        """Echelonized basis (rows, read-only) of the joint kernel of ad z
        over the chosen subalgebra, computed once per Q: the canonical
        kernel basis of `linalg.nullspace_mod_p`, identity on its free
        columns."""
        key = self._sub_key(sub)
        basis = self._inv_basis.get(key)
        if basis is None:
            if key == "m":
                basis = linalg.nullspace_mod_p(self.stacked_ad("m"), self.p)
            else:
                basis = self._mprime_invariants()
            basis.flags.writeable = False
            self._inv_basis[key] = basis
            self._inv_dim[key] = basis.shape[0]
        return basis

    def _middle_image(self):
        """Rows ad v_mid (x) for the rows x of the m-invariant basis (odd r),
        computed once per Q."""
        if self._mid_image is None:
            ad_v = self.ad_matrix(self.datum.v_mid_index)
            self._mid_image = (self.invariant_subspace("m") @ ad_v.T) % self.p
            self._mid_image.flags.writeable = False
        return self._mid_image

    def _mprime_invariants(self):
        # m' = m + <v_mid>, so Q^m' = ker(ad v_mid) on Q^m: with K the m
        # basis, c K for the c with c (K ad_v^T) = 0
        p = self.p
        c = linalg.nullspace_mod_p(self._middle_image().T, p)
        span = (c @ self.invariant_subspace("m")) % p
        # the canonical kernel basis is the reduced echelon form read from
        # the last column backwards
        rows = linalg.row_space_mod_p(span[:, ::-1], p)
        return np.ascontiguousarray(rows[::-1, ::-1])

    def whittaker_subspace(self):
        """Vectors on which every z in m acts by eta(z) under left
        multiplication."""
        blocks = []
        for z in self.datum.m_indices:
            mat = self.left_matrix(z)
            shift = int(self.eta[z]) % self.p
            mat = (mat - shift * np.eye(self.dim, dtype=np.int64)) % self.p
            blocks.append(mat)
        if not blocks:
            return np.eye(self.dim, dtype=np.int64)
        return linalg.nullspace_mod_p(np.concatenate(blocks, axis=0), self.p)

    def delta(self):
        """dim of the reduced enveloping algebra of m."""
        return self._pbw_dim(self.datum.m_indices)

    def dim_reduced_enveloping(self):
        return self._pbw_dim(range(self.engine.n_gens))


def build_reduced_q(datum, eta=None, eta_label="chi"):
    if eta is None:
        eta = datum.eta_chi()
    q = ReducedQ(datum, eta, eta_label)
    if q.dim != q.expected_dim():
        raise SolverError("reduced module dimension %d differs from p^a 2^b = %d"
                          % (q.dim, q.expected_dim()))
    return q


@dataclass
class ReducedW:
    q: ReducedQ
    context: WContext
    thetas: list
    pbw_exponents: list
    pbw_vectors: object      # numpy (count, dimQ)
    rank: int                # of pbw_vectors mod p
    presentation: object
    pbw_ok: bool
    warnings: list

    @property
    def dim(self):
        return len(self.pbw_exponents)

    def product(self, a_expo, b_expo):
        """Product of two PBW monomials, re-expressed in the PBW basis."""
        ctx = self.context
        left = ctx.eval_monomial(tuple(a_expo))
        right = ctx.eval_monomial(tuple(b_expo))
        return ctx.express_in_pbw(ctx.engine.q_mul(left, right))


def reduced_w(q):
    """Solve the generators over F_p at the module's eta, verify the PBW basis
    statement, and compute the relation table."""
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
    vectors = np.zeros((len(expos), q.dim), dtype=np.int64)
    for r, expo in enumerate(expos):
        ev = ctx.eval_monomial(expo)
        vectors[r] = q.vector_of(ev)
    rank = linalg.rank_mod_p(vectors, datum.p)
    inv_dim = q.invariant_dimension("m")
    pbw_ok = (rank == len(expos) == inv_dim)
    presentation = ctx.commutator_table()
    return ReducedW(q=q, context=ctx, thetas=thetas, pbw_exponents=expos,
                    pbw_vectors=vectors, rank=rank, presentation=presentation,
                    pbw_ok=pbw_ok, warnings=warnings)


@dataclass
class MoritaReport:
    p: int
    eta_label: str
    dim_u: int
    delta: int
    dim_w: int
    ok: bool


def morita_dim_check(q):
    """dim U_eta(g) = delta^2 dim U_eta(g, e) with delta = dim U_eta(m)."""
    dim_u = q.dim_reduced_enveloping()
    delta = q.delta()
    dim_w = q.invariant_dimension("m")
    return MoritaReport(p=q.p, eta_label=q.eta_label, dim_u=dim_u,
                        delta=delta, dim_w=dim_w,
                        ok=(dim_u == delta * delta * dim_w))


@dataclass
class RefinedInvariantsReport:
    p: int
    dim_m_invariants: int
    dim_mprime_invariants: int
    equal: bool
    proper: bool
    witness_ok: bool

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
    # the image lies in the m'-invariants and has their dimension
    equal = (len(linalg.row_space_mod_p(image, p)) == inv_mp.shape[0]
             and _in_span(inv_mp, image, p))
    proper = inv_mp.shape[0] < inv_m.shape[0]
    # witness: the middle vector class is m-invariant but not m'-invariant
    e = q.engine
    wit = e.q_reduce(e.gen(datum.v_mid_index))
    wvec = q.vector_of(wit)[None, :]
    in_m = _in_span(inv_m, wvec, p)
    in_mp = _in_span(inv_mp, wvec, p)
    return RefinedInvariantsReport(
        p=p, dim_m_invariants=int(inv_m.shape[0]),
        dim_mprime_invariants=int(inv_mp.shape[0]),
        equal=bool(equal), proper=bool(proper),
        witness_ok=bool(in_m and not in_mp))


def _in_span(basis, vecs, p):
    """Whether every row of vecs lies in the span of a canonical kernel
    basis.  Each basis row is 1 at its free column and 0 at the others and
    past it, so v is in the span exactly when v = v[free] basis mod p."""
    free = basis.shape[1] - 1 - np.argmax(basis[:, ::-1] != 0, axis=1)
    return bool(np.array_equal(vecs % p, (vecs[:, free] @ basis) % p))


# ---------------------------------------------------------------------------
# restrictedness property checks
# ---------------------------------------------------------------------------

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
            bx = alg.bracket(list(x), vec)
            by = alg.bracket(list(y), vec)
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


def p_power_coords(mod, vec):
    """Coordinates of the p-th matrix power of an even element."""
    alg = mod.base
    power = mat_pow(alg.field, alg.realize(list(vec)), mod.p)
    return mod.coordinatizer.coords(power)


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
        lhs = alg.bracket(list(xp), yfull)
        img = yfull
        for _ in range(p):
            img = alg.bracket(x, img)
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


def check_p_center_acts_zero(q):
    """x^p - x^[p] - eta(x)^p annihilates the reduced module, per even
    generator."""
    e = q.engine
    gf = e.field
    p = q.p
    for i in range(e.n_gens):
        if e.parities[i]:
            continue
        left = q.left_matrix(i)
        power = np.eye(q.dim, dtype=np.int64)
        for _ in range(p):
            power = (power @ left) % p
        xp = np.zeros((q.dim, q.dim), dtype=np.int64)
        for k, c in q.datum.pmap_adapted.get(i, {}).items():
            xp = (xp + int(c) * q.left_matrix(k)) % p
        etap = int(gf.pow(q.eta[i], p))
        total = (power - xp - etap * np.eye(q.dim, dtype=np.int64)) % p
        if total.any():
            return False, e.labels[i]
    return True, ""
