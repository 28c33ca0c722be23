from fractions import Fraction

import pytest

from wsuper import build_algebra
from wsuper.linalg import mat_mul
from wsuper.superalgebra import (AlgebraError, DegenerateFormError,
                                 invariant_form, osp_form_matrix, supertrace)
from wsuper.scalars import QQ


def label_index(alg, label):
    for b in alg.basis:
        if b.label == label:
            return b.index
    raise KeyError(label)


def test_gl11_shape_and_even_part(gl11):
    assert gl11.dim_pair() == (2, 2)
    # even part is spanned by the two commuting diagonal units
    i, j = label_index(gl11, "E11"), label_index(gl11, "E22")
    assert gl11.parities[i] == 0 and gl11.parities[j] == 0
    assert gl11.bracket_basis(i, j) == ()
    assert gl11.bracket_basis(i, i) == ()


def test_sl21_supertraces_vanish(sl21):
    assert sl21.dim_pair() == (4, 4)
    for mat in sl21.realization:
        assert supertrace(QQ, mat, 2) == 0


def test_osp12_shape(osp12):
    assert osp12.dim_pair() == (3, 2)


def test_osp12_defining_condition(osp12):
    # every basis matrix satisfies b(Xu, w) + (-1)^{|X||u|} b(u, Xw) = 0
    B = osp_form_matrix(1, 2)
    N = 3
    for bv, X in zip(osp12.basis, osp12.realization):
        for a in range(N):
            for c in range(N):
                lhs = sum(X[i][a] * B[i][c] for i in range(N))
                sgn = -1 if (bv.parity == 1 and a >= 1) else 1
                rhs = sum(B[a][i] * X[i][c] for i in range(N))
                assert lhs + sgn * rhs == 0


def test_invalid_families():
    with pytest.raises(AlgebraError):
        build_algebra("osp", 1, 3)     # odd symplectic size
    with pytest.raises(AlgebraError):
        build_algebra("so", 3, 0)
    with pytest.raises(AlgebraError):
        build_algebra("gl", 0, 0)


def test_gl11_supertrace_form_values(gl11):
    g = invariant_form(gl11)
    i11, i22 = label_index(gl11, "E11"), label_index(gl11, "E22")
    e12, e21 = label_index(gl11, "E12"), label_index(gl11, "E21")
    assert g[i11][i11] == 1
    assert g[i11][i22] == 0
    assert g[i22][i22] == -1
    # even pairs odd to zero
    assert g[i11][e12] == 0 and g[e21][i22] == 0
    # odd pair is antisymmetric
    assert g[e12][e21] == -g[e21][e12] == 1


def test_form_axioms_exhaustive(sl21, osp12):
    # evenness and supersymmetry on all basis pairs, invariance on all triples
    for alg in (sl21, osp12):
        g = alg.gram
        d = alg.dim
        for i in range(d):
            for j in range(d):
                if alg.parities[i] != alg.parities[j]:
                    assert g[i][j] == 0
                sgn = -1 if (alg.parities[i] and alg.parities[j]) else 1
                assert g[i][j] == sgn * g[j][i]
        basis = [[Fraction(int(t == i)) for t in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                bij = alg.bracket(basis[i], basis[j])
                for k in range(d):
                    lhs = alg.form(bij, basis[k])
                    rhs = alg.form(basis[i], alg.bracket(basis[j], basis[k]))
                    assert lhs == rhs


def test_sl_nn_form_degenerates():
    alg = build_algebra("sl", 1, 1)
    with pytest.raises(DegenerateFormError):
        invariant_form(alg)


def test_supertrace_oracle_gl11(gl11):
    # recompute the gram against raw 2x2 matrix products
    for i in range(gl11.dim):
        for j in range(gl11.dim):
            prod = mat_mul(QQ, gl11.realization[i], gl11.realization[j])
            assert gl11.gram[i][j] == supertrace(QQ, prod, 1)
