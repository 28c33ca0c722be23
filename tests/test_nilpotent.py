from fractions import Fraction

import pytest

from wsuper import analyze_nilpotent, build_algebra, resolve_nilpotent, sl2_triple
from wsuper.nilpotent import (FormNormalizationError, NilpotentError,
                              symmetric_normal_basis, symplectic_normal_basis)
from wsuper.scalars import QQ


def coords(alg, label):
    v = [Fraction(0)] * alg.dim
    for b in alg.basis:
        if b.label == label:
            v[b.index] = Fraction(1)
    return v


def test_zero_triple(gl11):
    tr = sl2_triple(gl11, [Fraction(0)] * gl11.dim)
    assert tr.is_zero()


def test_sl21_triple_is_the_standard_one(sl21):
    tr = sl2_triple(sl21, coords(sl21, "E12"))
    # h = diag(1,-1,0), f = E21
    h_mat = sl21.realize(list(tr.h))
    assert [h_mat[i][i] for i in range(3)] == [1, -1, 0]
    assert list(tr.f) == coords(sl21, "E21")


def test_osp12_regular_triple_spans_even_part(osp12):
    e = resolve_nilpotent(osp12, "regular")
    tr = sl2_triple(osp12, e)
    from wsuper import linalg
    vecs = [list(tr.e), list(tr.h), list(tr.f)]
    assert linalg.rank(QQ, vecs) == 3


def test_odd_nilpotent_rejected(gl11):
    with pytest.raises(NilpotentError):
        sl2_triple(gl11, coords(gl11, "E12"))


def test_non_nilpotent_rejected(gl11):
    with pytest.raises(NilpotentError):
        sl2_triple(gl11, coords(gl11, "E11"))


def test_osp12_datum(nd_osp12_reg):
    nd = nd_osp12_reg
    assert nd.dims_tuple() == (1, 1, 0, 1, 0)
    assert nd.r_odd
    m_par = [nd.generators[i].parity for i in nd.m_indices]
    assert (m_par.count(0), m_par.count(1)) == (1, 0)
    mp_par = [nd.generators[i].parity for i in nd.mprime_indices]
    assert (mp_par.count(0), mp_par.count(1)) == (1, 1)
    assert nd.middle_norm == 2 and not nd.middle_normalized


def test_sl21_datum(nd_sl21_e12):
    nd = nd_sl21_e12
    assert nd.dims_tuple() == (2, 2, 0, 2, 1)
    m_par = [nd.generators[i].parity for i in nd.m_indices]
    assert (m_par.count(0), m_par.count(1)) == (1, 1)
    # dimension identity: dim g - dim g^e = 2 dim g(-2) + dim g(-1), per parity
    even = sum(1 for p in nd.alg.parities if p == 0)
    odd = nd.alg.dim - even
    dim_gm2 = nd.layer_dims.get((-2, 0), 0), nd.layer_dims.get((-2, 1), 0)
    dim_gm1 = nd.layer_dims.get((-1, 0), 0), nd.layer_dims.get((-1, 1), 0)
    assert even - nd.l == 2 * dim_gm2[0] + dim_gm1[0] == 2
    assert odd - nd.q == 2 * dim_gm2[1] + dim_gm1[1] == 2
    assert not nd.r_odd and nd.middle_norm is None
    assert nd.m_indices == nd.mprime_indices


def test_zero_datum_is_trivial(nd_gl11_zero):
    nd = nd_gl11_zero
    assert nd.dims_tuple() == (2, 2, 0, 0, 0)
    assert nd.m_indices == []
    assert nd.cobasis_count == nd.alg.dim
    assert all(c == 0 for c in nd.chi)
    assert len(nd.p_indices) == nd.alg.dim


def test_chi_is_normalized(nd_sl21_e12):
    # chi(f) = (e, f) = 1 after scaling
    nd = nd_sl21_e12
    fvec = list(nd.triple.f)
    f = nd.alg.field
    val = f.zero
    for i, ci in enumerate(nd.triple.e):
        for j, cj in enumerate(fvec):
            val = f.add(val, f.mul(f.mul(ci, cj), nd.gram[i][j]))
    assert val == 1


def test_gl22_both_nilpotents(gl22):
    nd1 = analyze_nilpotent(gl22, sl2_triple(gl22, coords(gl22, "E12")))
    assert nd1.dims_tuple() == (6, 4, 0, 4, 2)
    assert nd1.ef_normalized
    nd2 = analyze_nilpotent(gl22, sl2_triple(gl22, coords(gl22, "E34")))
    assert nd2.dims_tuple() == (6, 4, 0, 4, 2)
    # the two-block sum is isotropic for the supertrace form but the
    # structural decompositions still hold (the analyzer checks them)
    e = [a + b for a, b in zip(coords(gl22, "E12"), coords(gl22, "E34"))]
    nd3 = analyze_nilpotent(gl22, sl2_triple(gl22, e))
    assert not nd3.ef_normalized
    assert nd3.r == 0 and nd3.s == 0


def test_symplectic_path_gl31():
    alg = build_algebra("gl", 3, 1)
    nd = analyze_nilpotent(alg, sl2_triple(alg, coords(alg, "E13")))
    assert nd.s == 1
    # the symplectic pairing of u1, u2 follows the sign convention
    u1 = next(g for g in nd.generators if g.label == "u1")
    u2 = next(g for g in nd.generators if g.label == "u2")
    from wsuper.nilpotent import _chi_pair
    assert _chi_pair(nd, u1.vector, u2.vector) == -1
    assert _chi_pair(nd, u2.vector, u1.vector) == 1


def test_symmetric_normalizer_anisotropic_form_reports_obstruction():
    # the dot product on Q^2 has no rational isotropic vector
    vecs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    form = lambda a, b: a[0] * b[0] + a[1] * b[1]
    with pytest.raises(FormNormalizationError) as err:
        symmetric_normal_basis(QQ, vecs, form)
    assert err.value.achieved is not None


def test_symmetric_normalizer_hyperbolic():
    vecs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    form = lambda a, b: a[0] * b[1] + a[1] * b[0]
    basis, mid, normalized = symmetric_normal_basis(QQ, vecs, form)
    assert mid is None and normalized
    assert form(basis[0], basis[1]) == 1
    assert form(basis[0], basis[0]) == 0 and form(basis[1], basis[1]) == 0


def test_symplectic_normalizer_rescales():
    vecs = [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(3))]
    form = lambda a, b: a[0] * b[1] - a[1] * b[0]
    basis = symplectic_normal_basis(QQ, vecs, form)
    assert form(basis[0], basis[1]) == -1
    assert form(basis[1], basis[0]) == 1


def test_layer_pairing_nondegenerate(nd_sl21_e12):
    # g(i) pairs with g(-i) and the annihilator split was verified at build;
    # spot-check the layer dimensions are symmetric under negation
    dims = nd_sl21_e12.layer_dims
    for (wt, par), n in dims.items():
        assert dims.get((-wt, par), 0) == n
