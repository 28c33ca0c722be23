"""Reduction mod p: restricted structures, the finite-dimensional induced
module, reduced W-superalgebras, and the dimension identities that verify the
whole construction.

The rational nilpotent datum is reduced coefficient-wise (denominators must be
units mod p), the p-th power map comes from matrix p-th powers of the
realization, and every kernel and rank is computed by the sparse exact
elimination of `linalg` on {column: c} rows mod p; no vector set of a row is
ever a dense matrix.
Generator solving reuses the characteristic-zero machinery verbatim since the
rewriting engine is generic over the base field.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    otherwise.  Primality costs O(sqrt p) divisions, so the CLI reaches
    this, through `reduce_datum`, only after `q_footprint` has refused every
    p whose Q cannot fit in memory."""
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


@dataclass
class ModularAlgebra:
    base: LieSuperalgebra
    p: int
    coordinatizer: Coordinatizer

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
                if c:
                    for t, x in inverse[k].items():
                        coords[t] = (coords.get(t, 0) + c * x) % p
            self.pmap_adapted[i] = {t: c for t, c in sorted(coords.items())
                                    if c}
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
# Bytes one ad column of z in m costs on the way to the m-kernel: the sparse
# column, kept for every link and the right-action check, and its share of
# a link's transposed rows, pivot rows and kernel basis.  Measured as the
# rise in peak RSS over building the columns and the kernel: 4.7 KB per
# column on gl(2|1) regular at p = 7 (2 x 19,208 columns), 2.7 KB at p = 5
# and 1.3 KB on sl(2|1) E12 at p = 5.  Fill grows with dim Q, so on a larger
# Q this is a floor, not a bound.
AD_COLUMN_BYTES = 6144


def q_footprint(nd, p):
    """(dim Q, estimated bytes) of the reduced module at p, read off the
    datum before anything is built: the monomial basis, the sparse ad
    columns of m and the m-kernel's eliminations, and 16 bytes per entry of
    a dim W x dim Q matrix (dim W = p^l 2^q').  That last term is what the
    PBW monomial vectors of `reduced_w` took as a dense int64 matrix and its
    floating-point copy; they are sparse rows now, so it over-counts, and it
    is kept because it is what refuses gl(1|1) zero at p = 211.  It needs no
    primality test and is the one size gate on p: dim Q is p^a 2^b, so a p
    whose Q fits is small enough for `PrimeField`'s test."""
    gens = nd.generators
    dim = pbw_dim(p, [g.parity for g in gens[: nd.cobasis_count]])
    dim_w = pbw_dim(p, [0] * nd.l + [1] * nd.q_prime)
    basis = dim * (MONOMIAL_BYTES + MONOMIAL_BYTES_PER_GEN * len(gens))
    columns = AD_COLUMN_BYTES * len(nd.m_indices) * dim
    return dim, basis + columns + 2 * 8 * dim_w * dim


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

    def vector_of(self, terms):
        """The {basis index: c} row of the class in Q with these terms."""
        return {self.index[m]: c for m, c in terms.items()}

    # -- action matrices, as sparse columns ------------------------------------

    def _left_products(self, gen_index):
        """(m, b_g b^m) for every basis monomial m in basis order, the product
        unreduced, as an engine pair (den 1).  Each is built from an earlier
        one: b_g b^m = (b_g b^m') b_t for the last generator t of m and m' = m
        with that exponent lowered, which precedes m because every co-basis
        e-degree is at least 1.  This is the prefix trie of
        `Enveloping._product`, walked in basis order: the basis is sorted by
        e-degree, so only the products of the last `reach` e-degrees are
        kept."""
        e = self.engine
        degrees = e.e_degrees[: e.cobasis_count]
        reach = max(degrees, default=0)
        levels = {}  # e-degree -> {m: b_g b^m}
        for m in self.basis:
            deg = e.e_degree(m)
            top = max((i for i, x in enumerate(m) if x), default=-1)
            if top < 0:
                prod = ({e._gen_mono(gen_index): 1}, 1)
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

    def left_columns(self, gen_index):
        """Columns of left multiplication by b_g on Q: the classes of the
        prefix-built products of `_left_products`."""
        cols = self._left_cols.get(gen_index)
        if cols is None:
            q_reduce = self.engine.q_reduce_pair
            cols = [self.vector_of(q_reduce(left)[0])
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
            odd = e.parities[gen_index]
            check = gen_index in self.datum.m_indices
            eta_g = self.eta[gen_index]
            cols = []
            for j, (m, left) in enumerate(self._left_products(gen_index)):
                right = e.q_reduce_pair(e.times_gen(m, gen_index))[0]
                if check and right != ({m: eta_g} if eta_g else {}):
                    self._right_mismatch.setdefault(gen_index, j)
                img = e.q_reduce_pair(left)[0]
                e._acc(img, 1, right, 1 if odd and e.mono_parity(m) else -1)
                cols.append(self.vector_of(img))
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

    def _sub_key(self, sub):
        # m' = m when r is even
        if sub not in ("m", "mprime"):
            raise ValueError("unknown subalgebra %r" % (sub,))
        if sub == "m" or self.datum.mprime_indices == self.datum.m_indices:
            return "m"
        return "mprime"

    def _stacked_rows(self, blocks):
        """The rows of matrices on Q stacked, each matrix given by its sparse
        columns: one {column: c} dict per (block k, row i), never a dense
        matrix.  They are handed out from the last basis monomial i to the
        first and dropped once handed out.  The reduced row echelon form does
        not depend on the order, but the cost does: ad z lowers the e-degree
        and pivots sit at the lowest column, so rows from the top of the
        basis fill in least."""
        rows = [{} for _ in range(len(blocks) * self.dim)]
        for k, cols in enumerate(blocks):
            for j, col in enumerate(cols):
                for i, c in col.items():
                    rows[i * len(blocks) + k][j] = c
        return _popping(rows)

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
        rows.  With rank_only, the dimension alone, from a rank at the last
        link; with no generators, the unit basis of Q."""
        if not order:
            return self.dim if rank_only else [{j: self.field.one}
                                               for j in range(self.dim)]
        rows = self._stacked_rows([self.ad_columns(order[0])])
        if rank_only and len(order) == 1:
            return self.dim - linalg.rank(self.field, rows)
        basis = self._kernel_basis(rows)
        for k, z in enumerate(order[1:], 2):
            cols = self.ad_columns(z)
            basis = self._restricted_kernel(
                basis, (self._combine(cols, x) for x in basis),
                rank_only and k == len(order))
        return basis

    def invariant_dimension(self, sub="m"):
        """Dimension of the joint kernel of ad z over the chosen subalgebra;
        read from `invariant_subspace` when that has already run, and always
        for m' (whose kernel is found inside the m-kernel).  Otherwise the
        m chain with a rank at its last link."""
        key = self._sub_key(sub)
        if key == "mprime":
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

    def _kernel_basis(self, rows):
        """The canonical kernel basis of sparse rows on Q's columns."""
        return linalg.kernel_rows(self.field, *linalg.rref(self.field, rows),
                                  self.dim)

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
        image_t = [{} for _ in range(self.dim)]
        for r, row in enumerate(image):
            for i, c in row.items():
                image_t[i][r] = c
        rows = _popping(image_t)
        if rank_only:
            return len(basis) - linalg.rank(self.field, rows)
        kernel = linalg.kernel_rows(self.field, *linalg.rref(self.field, rows),
                                    len(basis))
        # copied, because a sum's dict keeps the room of its cancelled terms:
        # on osp(3|2) at p = 3 the m and m' bases take 4.4 and 4.1 MB
        # uncopied, 2.9 and 2.0 MB copied
        return [dict(self._combine(basis, c)) for c in kernel]

    def _combine(self, rows, coeffs):
        """The sum of c rows[r] over the entries r: c of coeffs, mod p."""
        out = {}
        for r, c in coeffs.items():
            self.engine._acc(out, 1, rows[r], c)
        return out

    def _middle_image(self):
        """Rows ad v_mid (x) for the rows x of the m-invariant basis K (odd
        r), computed once per Q: each is the combination of the sparse
        columns of ad v_mid that x's entries weight."""
        if self._mid_image is None:
            cols = self.ad_columns(self.datum.v_mid_index)
            self._mid_image = tuple(self._combine(cols, x)
                                    for x in self.invariant_subspace("m"))
        return self._mid_image

    def whittaker_subspace(self):
        """Vectors on which every z in m acts by eta(z) under left
        multiplication: the canonical kernel basis of the L_z - eta(z)
        stacked, the same elimination as the m-invariants."""
        f = self.field
        blocks = []
        for z in self.datum.m_indices:
            cols = [dict(col) for col in self.left_columns(z)]
            for j, col in enumerate(cols):
                v = f.sub(col.get(j, f.zero), self.eta[z])
                if v:
                    col[j] = v
                else:
                    col.pop(j, None)
            blocks.append(cols)
        return tuple(self._kernel_basis(self._stacked_rows(blocks)))

    def delta(self):
        """dim of the reduced enveloping algebra of m."""
        return self._pbw_dim(self.datum.m_indices)

    def dim_reduced_enveloping(self):
        return self._pbw_dim(range(self.engine.n_gens))


def _popping(rows):
    """Hand out the rows from the last to the first, each dropped from the
    list once handed out."""
    while rows:
        yield rows.pop()


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
    rank: int                # of the PBW monomials' vectors in Q, mod p
    presentation: object
    pbw_ok: bool
    warnings: list

    @property
    def dim(self):
        return len(self.pbw_exponents)


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
    # ranked in their degree order; the reverse order fills in far more
    vectors = [q.vector_of(ctx.eval_monomial(expo).terms) for expo in expos]
    rank = linalg.rank_mod_p(vectors, datum.p)
    inv_dim = q.invariant_dimension("m")
    pbw_ok = (rank == len(expos) == inv_dim)
    presentation = ctx.commutator_table()
    return ReducedW(q=q, context=ctx, thetas=thetas, pbw_exponents=expos,
                    rank=rank, presentation=presentation, pbw_ok=pbw_ok,
                    warnings=warnings)


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
    equal = (linalg.rank_mod_p(list(image), p) == len(inv_mp)
             and _in_span(q, inv_mp, image))
    proper = len(inv_mp) < len(inv_m)
    # witness: the middle vector class is m-invariant but not m'-invariant
    e = q.engine
    wvec = [q.vector_of(e.q_reduce(e.gen(datum.v_mid_index)).terms)]
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
