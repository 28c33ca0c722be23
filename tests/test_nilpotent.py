import hashlib
import json
from fractions import Fraction

import pytest

from oracle import chi_pair
from wsuper import (analyze_nilpotent, build_algebra, cli, modp,
                    resolve_nilpotent, serialize, sl2_triple)
from wsuper.nilpotent import (FormNormalizationError, NilpotentError,
                              Sl2Triple, symmetric_normal_basis,
                              symplectic_normal_basis)
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
            val = f.add(val, f.mul(f.mul(ci, cj),
                                   f.mul(nd.form_scale, nd.alg.gram[i][j])))
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
    assert chi_pair(nd, u1.vector, u2.vector) == -1
    assert chi_pair(nd, u2.vector, u1.vector) == 1


def _at(v, i):
    """Coordinate i of a sparse {index: c} vector."""
    return v.get(i, 0)


def test_symmetric_normalizer_anisotropic_form_reports_obstruction():
    # the dot product on Q^2 has no rational isotropic vector
    vecs = [{0: Fraction(1)}, {1: Fraction(1)}]
    form = lambda a, b: _at(a, 0) * _at(b, 0) + _at(a, 1) * _at(b, 1)
    with pytest.raises(FormNormalizationError) as err:
        symmetric_normal_basis(vecs, form)
    assert err.value.achieved is not None


def test_symmetric_normalizer_hyperbolic():
    vecs = [{0: Fraction(1)}, {1: Fraction(1)}]
    form = lambda a, b: _at(a, 0) * _at(b, 1) + _at(a, 1) * _at(b, 0)
    basis, mid, normalized = symmetric_normal_basis(vecs, form)
    assert mid is None and normalized
    assert form(basis[0], basis[1]) == 1
    assert form(basis[0], basis[0]) == 0 and form(basis[1], basis[1]) == 0


def test_symmetric_normalizer_scales_a_square_middle_norm_to_one():
    vecs = [{0: Fraction(3)}]
    form = lambda a, b: 4 * _at(a, 0) * _at(b, 0)
    basis, mid, normalized = symmetric_normal_basis(vecs, form)
    assert basis == [{0: Fraction(1, 2)}] and mid == 1 and normalized
    assert form(basis[0], basis[0]) == 1


def test_symplectic_normalizer_rescales():
    vecs = [{0: Fraction(2)}, {1: Fraction(3)}]
    form = lambda a, b: _at(a, 0) * _at(b, 1) - _at(a, 1) * _at(b, 0)
    basis = symplectic_normal_basis(vecs, form)
    assert form(basis[0], basis[1]) == -1
    assert form(basis[1], basis[0]) == 1


def test_layer_pairing_nondegenerate(nd_sl21_e12):
    # g(i) pairs with g(-i) and the annihilator split was verified at build;
    # spot-check the layer dimensions are symmetric under negation
    dims = nd_sl21_e12.layer_dims
    for (wt, par), n in dims.items():
        assert dims.get((-wt, par), 0) == n


# sha256 of (algebra.json, nilpotent.json) from `nilpotent analyze`, taken
# with the dense Field-method analysis that the sparse one replaced
GOLDEN = {
    "gl31-regular": (
        ("gl", 3, 1, "regular"),
        "3956a1e09a6a6c7a602573b1522ca59be226f32225306a1d20ee48008d833e8b",
        "ad1896b8c929c984c36eaca3317a6f18646da7cbf81052a1c8a627c60652ca4f"),
    "gl31-E13": (
        ("gl", 3, 1, "E13"),
        "3956a1e09a6a6c7a602573b1522ca59be226f32225306a1d20ee48008d833e8b",
        "58a82304afbf1e94507e29bd0255861eb0a8b4aa7696d1221a841fcbc6a3da94"),
    "sl21-E12": (
        ("sl", 2, 1, "E12"),
        "1d8763e15247d1f68d17eba5cc8bff4e0504f64d879daca25fa981bda0cffc5c",
        "2ce1b440503b41cab7ff48e43ff3b6e7372de2dfccef98bb7c75c2293348f70f"),
    "gl22-E12": (
        ("gl", 2, 2, "E12"),
        "053dfdaacffac37e97cd02b6007d6fda93c719f988501d2c4ef426e4433f1b72",
        "dea71ff08e980d6f9f0dae78fafd581308bafcea4c4109038126dfbac6ae42d8"),
    "gl22-E34": (
        ("gl", 2, 2, "E34"),
        "053dfdaacffac37e97cd02b6007d6fda93c719f988501d2c4ef426e4433f1b72",
        "ad12ac66d55e14e441d03a4e80be1df9e692e0b72597eb54ce4c1b7cc7f7c59d"),
    "osp12-regular": (
        ("osp", 1, 2, "regular"),
        "10b0ec85d171feea791a6c9a45206afec51a67bb29064e5fa058b4c57a89345d",
        "5c0ce665e986eb585dd734db8370f079c8bc1e5a525f42965eb4aa2a33e90f92"),
    "osp22": (
        ("osp", 2, 2, "0,1,0,0,0,0,0,0"),
        "73fad24e723b61c7c43b32a74932049c87d93a7447f5c9c71b130d4198f0c372",
        "9a6cd5f074d836349440c769b8114e14483c656d9276984c17b15c2f1599a6ed"),
    "osp32-odd-r": (
        ("osp", 3, 2, "0,0,0,1,0,0,0,0,0,0,0,0"),
        "3e6d13a7aadf4e9723984cde64caec718b9e8438630fe2ba890e17bd902d9597",
        "6de2da0dd45259eac853c9fa21685c37bd1ee2650ffc4e257cde6cd6893c70e8"),
    "osp14": (
        ("osp", 1, 4, "0,0,1,0,0,0,0,0,-1,0,0,0,0,0"),
        "200d32a2c7528539415eb42b23f4871c238e0ddfe6f70ed3d4b1c97164102044",
        "45a977fe48f1ec3e3998ec7a49c69c2c4d37781ef2a757285f30910058e3ccca"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analysis_artifacts_reproduce_golden_digests(name, tmp_path,
                                                     monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    (family, m, n, nilpotent), algebra_sha, nilpotent_sha = GOLDEN[name]
    code = cli.main(["nilpotent", "analyze", "--family", family, "--m", str(m),
                     "--n", str(n), "--nilpotent", nilpotent,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digest("algebra.json") == algebra_sha
    assert digest("nilpotent.json") == nilpotent_sha


def test_analysis_over_f_p_is_refused(sl21, nd_sl21_e12):
    # the analysis is rational; the mod-p layer reduces the rational datum
    base = modp.reduce_mod_p(sl21, 3).base
    with pytest.raises(NilpotentError, match="over Q"):
        sl2_triple(base, [base.field.of(c) for c in coords(sl21, "E12")])
    triple = Sl2Triple(*(tuple(base.field.of(c) for c in getattr(
        nd_sl21_e12.triple, k)) for k in "ehf"))
    with pytest.raises(NilpotentError, match="over Q"):
        analyze_nilpotent(base, triple)


def test_analysis_of_a_serialized_f_p_algebra_is_refused(sl21, nd_sl21_e12):
    base = modp.reduce_mod_p(sl21, 3).base
    alg = serialize.algebra_from_json(
        json.loads(serialize.dump_json(serialize.algebra_to_json(base))))
    assert alg.field.char == 3
    data = json.loads(serialize.dump_json(
        serialize.nilpotent_to_json(nd_sl21_e12)))
    data["triple"] = {k: [str(base.field.of(c)) for c in getattr(
        nd_sl21_e12.triple, k)] for k in "ehf"}
    with pytest.raises(NilpotentError, match="over Q"):
        serialize.nilpotent_from_json(data, alg)
