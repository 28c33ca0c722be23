import functools
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from checks import canonical
from oracle import (check_axioms, check_p_map, dense_ad, dense_bracket,
                    dense_form, dense_gram, dense_structure, naive_mat_pow,
                    supertrace)
from wsuper import build_algebra, linalg
from wsuper.linalg import mat_mul
from wsuper.modp import reduce_mod_p
from wsuper.nilpotent import _ad_columns, _covector, _dot
from wsuper.superalgebra import (AlgebraError, Coordinatizer,
                                 DegenerateFormError, LieSuperalgebra,
                                 _bracket, invariant_form,
                                 mat_pow, osp_form_matrix,
                                 structure_from_realization,
                                 supertrace_gram)
from wsuper.scalars import QQ, PrimeField


def label_index(alg, label):
    for b in alg.basis:
        if b.label == label:
            return b.index
    raise KeyError(label)


def test_gl11_shape_and_even_part(gl11):
    assert (gl11.parities.count(0), gl11.parities.count(1)) == (2, 2)
    # even part is spanned by the two commuting diagonal units
    i, j = label_index(gl11, "E11"), label_index(gl11, "E22")
    assert gl11.parities[i] == 0 and gl11.parities[j] == 0
    assert (i, j) not in gl11.structure
    assert (i, i) not in gl11.structure


def test_sl21_supertraces_vanish(sl21):
    assert (sl21.parities.count(0), sl21.parities.count(1)) == (4, 4)
    for mat in sl21.realization:
        assert supertrace(QQ, mat, 2) == 0


def test_osp12_shape(osp12):
    assert (osp12.parities.count(0), osp12.parities.count(1)) == (3, 2)


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
                bij = dense_bracket(alg, basis[i], basis[j])
                for k in range(d):
                    lhs = dense_form(alg, bij, basis[k])
                    rhs = dense_form(alg, basis[i],
                                     dense_bracket(alg, basis[j], basis[k]))
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


# -- every axiom check fires on a corrupted copy of a table -------------------

def _table(alg):
    return {key: dict(entries) for key, entries in alg.structure.items()}


def _rebuild(alg, structure=None, gram=None, p_map=None):
    """A LieSuperalgebra on alg's basis from the given tables, alg's
    structure constants by default."""
    if structure is None:
        structure = _table(alg)
    return LieSuperalgebra(alg.field, alg.basis, structure, gram=gram,
                           realization=alg.realization, p_map=p_map,
                           family=alg.family, shape=alg.shape)


def test_unchanged_copies_rebuild(gl11, sl21):
    for alg in (gl11, sl21):
        _rebuild(alg, gram=[row[:] for row in alg.gram])
    mod = reduce_mod_p(gl11, 3).base
    _rebuild(mod, gram=mod.gram, p_map=dict(mod.p_map))


def test_flipped_constant_breaks_skew_symmetry(sl21):
    structure = _table(sl21)
    entries = next(entries for (i, j), entries in structure.items() if i != j)
    k = min(entries)
    entries[k] = -entries[k]
    with pytest.raises(AlgebraError, match="super skew-symmetry fails"):
        _rebuild(sl21, structure=structure)


def test_skew_consistent_change_breaks_jacobi(gl11):
    # [E11, E12] = 2 E12 and [E12, E11] = -2 E12 stay skew, but then
    # [E11, [E12, E21]] = 0 while [[E11, E12], E21] + [E12, [E11, E21]]
    # = E11 + E22
    e11, e12 = label_index(gl11, "E11"), label_index(gl11, "E12")
    structure = _table(gl11)
    structure[(e11, e12)] = {e12: Fraction(2)}
    structure[(e12, e11)] = {e12: Fraction(-2)}
    with pytest.raises(AlgebraError, match="super Jacobi fails"):
        _rebuild(gl11, structure=structure)


@pytest.mark.parametrize("alg, a, b, scale, triple", [
    ("gl11", "E11", "E12", 2, (0, 1, 2)),
    ("sl21", "E12", "E23", 3, (0, 1, 2)),
    ("gl21", "E21", "E13", 2, (1, 2, 3)),
    ("gl21", "E33", "E13", 5, (1, 5, 8))])
def test_jacobi_on_half_the_pairs_names_the_first_failing_triple(
        request, alg, a, b, scale, triple):
    # [b_a, b_b] scaled, and [b_b, b_a] with it, so skew-symmetry holds and
    # only Jacobi fails: the pairs j >= i name the same triple as every
    # pair does, the all-pairs oracle's first in lexicographic order; each
    # triple is the one named when every pair (i, j) was checked
    alg = request.getfixturevalue(alg)
    i, j = label_index(alg, a), label_index(alg, b)
    structure = _table(alg)
    sign = -1 if alg.parities[i] and alg.parities[j] else 1
    structure[(i, j)] = {k: scale * c for k, c in structure[(i, j)].items()}
    structure[(j, i)] = {k: -sign * c for k, c in structure[(i, j)].items()}
    message = "super Jacobi fails at (%d,%d,%d)" % triple
    with pytest.raises(AlgebraError) as oracle:
        check_axioms(alg.field, alg.parities, structure)
    assert str(oracle.value) == message
    with pytest.raises(AlgebraError) as got:
        _rebuild(alg, structure=structure)
    assert str(got.value) == message


def test_symmetric_gram_change_breaks_invariance(gl11):
    # (E11, E11) = 2 keeps the form even and supersymmetric, but then
    # ([E11, E12], E21) = 1 while (E11, [E12, E21]) = 2
    e11 = label_index(gl11, "E11")
    gram = [row[:] for row in gl11.gram]
    gram[e11][e11] += 1
    with pytest.raises(AlgebraError, match="form is not invariant"):
        _rebuild(gl11, gram=gram)


@pytest.mark.parametrize("i, j, message", [
    ("E11", "E12", "form is not even"),
    ("E11", "E22", "form is not supersymmetric"),
])
def test_one_sided_gram_change_breaks_evenness_or_supersymmetry(gl11, i, j,
                                                               message):
    gram = [row[:] for row in gl11.gram]
    gram[label_index(gl11, i)][label_index(gl11, j)] += 1
    with pytest.raises(AlgebraError, match=message):
        _rebuild(gl11, gram=gram)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)],
                         ids=["QQ", "F3", "F7"])
def test_mat_pow_equals_the_product_loop(sl21, field):
    # an sl(2|1) element with every basis vector in it, and a shifted one
    # that is not nilpotent
    x = [[field.of(c) for c in row] for row in sl21.realize(
        [Fraction(k + 1, 2) for k in range(sl21.dim)])]
    y = [[field.add(c, field.one) if i == j else c for j, c in enumerate(row)]
         for i, row in enumerate(x)]
    for a in (x, y):
        for k in list(range(10)) + [16, 31, 100]:
            assert mat_pow(field, a, k) == naive_mat_pow(field, a, k), k


def test_mat_pow_takes_logarithmically_many_products(monkeypatch):
    p = 100_003
    gf = PrimeField(p)
    calls = []
    original = linalg.mat_mul

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    # Fermat on the diagonal, and the unipotent [[1, 1], [0, 1]] ** p = 1
    assert mat_pow(gf, [[2, 0], [0, 3]], p) == [[2, 0], [0, 3]]
    assert mat_pow(gf, [[1, 1], [0, 1]], p) == [[1, 0], [0, 1]]
    # per power, 16 squarings and one product per set bit of p (24 in
    # all); the loop took p
    assert len(calls) == 2 * (p.bit_length() - 1 + bin(p).count("1")) == 48


def test_wrong_p_map_breaks_axiom_b(gl11):
    # [E11^[3], E12] must be (ad E11)^3 E12 = E12, so E11^[3] = 0 is wrong
    mod = reduce_mod_p(gl11, 3).base
    p_map = dict(mod.p_map)
    p_map[label_index(gl11, "E11")] = (0,) * mod.dim
    with pytest.raises(AlgebraError, match="restrictedness axiom \\(b\\) fails"):
        _rebuild(mod, gram=mod.gram, p_map=p_map)


# -- the integer checks against the Field-method axiom oracle -----------------

def _verdict(check, *args):
    """The message of the AlgebraError that check(*args) raises, or None."""
    try:
        check(*args)
    except AlgebraError as exc:
        return str(exc)
    return None


def _both_verdicts(alg, structure, gram, p_map=None):
    """(the constructor's verdict, the oracle's) on alg's basis."""
    return (_verdict(_rebuild, alg, structure, gram, p_map),
            _verdict(check_axioms, alg.field, alg.parities, structure, gram,
                     p_map))


def _shift_constant(field, structure, i, j, k, delta):
    entries = structure.setdefault((i, j), {})
    c = field.add(entries.get(k, field.zero), delta)
    if field.is_zero(c):
        del entries[k]
    else:
        entries[k] = c
    if not entries:
        del structure[(i, j)]


@st.composite
def _corruptions(draw):
    # gl(2|1), gl(3|1) and sl(2|2) have a sparse ad, whose empty columns the
    # per-pair checks skip; every p divides m - n = 0 of sl(2|2)
    shape = draw(st.sampled_from([("gl", 1, 1), ("sl", 2, 1), ("osp", 1, 2),
                                  ("osp", 3, 2), ("gl", 2, 1), ("gl", 3, 1),
                                  ("sl", 2, 2)]))
    alg = _algebra(shape, draw(st.sampled_from(
        [None] if shape == ("sl", 2, 2) else [None, 3, 5])))
    p = alg.field.char
    if p == 0:
        delta = draw(st.builds(Fraction, st.integers(-3, 3).filter(bool),
                               st.sampled_from([1, 2, 3])))
    else:
        delta = draw(st.integers(1, p - 1))
    index = st.integers(0, alg.dim - 1)
    return (alg, draw(st.sampled_from(["structure", "gram"])), draw(index),
            draw(index), draw(index), delta, draw(st.booleans()))


@settings(max_examples=160, deadline=None)
@given(_corruptions())
def test_integer_checks_agree_with_the_field_oracle(case):
    # one structure constant or gram entry moved by delta; with `mirror` its
    # partner moves too, so that skew-symmetry or supersymmetry still holds
    # and the later checks decide
    alg, target, i, j, k, delta, mirror = case
    f = alg.field
    sign = f.neg(f.one) if alg.parities[i] and alg.parities[j] else f.one
    structure = _table(alg)
    gram = [row[:] for row in alg.gram]
    if target == "structure":
        _shift_constant(f, structure, i, j, k, delta)
        if mirror and i != j:
            _shift_constant(f, structure, j, i, k, f.neg(f.mul(sign, delta)))
    else:
        gram[i][j] = f.add(gram[i][j], delta)
        if mirror and i != j:
            gram[j][i] = f.add(gram[j][i], f.mul(sign, delta))
    built, expected = _both_verdicts(alg, structure, gram, alg.p_map)
    assert built == expected


P_MAP_SHAPES = [("sl", 2, 1), ("osp", 1, 2), ("gl", 2, 1), ("osp", 1, 4)]


def _p_map_verdicts(alg, p_map):
    """(the constructor's verdict, the bracket-loop oracle's) on a p-map."""
    return (_verdict(_rebuild, alg, None, alg.gram, p_map),
            _verdict(check_p_map, alg.field, alg.parities, alg.structure,
                     p_map))


@st.composite
def _perturbed_p_maps(draw):
    """An algebra over F_p and its p-map with one coordinate of b_i^[p]
    moved by delta, delta = 0 the valid p-map; an odd i adds a p-map entry
    on an odd vector."""
    alg = _algebra(draw(st.sampled_from(P_MAP_SHAPES)),
                   draw(st.sampled_from([3, 5, 7, 11])))
    p = alg.field.char
    i = draw(st.integers(0, alg.dim - 1))
    k = draw(st.integers(0, alg.dim - 1))
    coords = list(alg.p_map.get(i, (0,) * alg.dim))
    coords[k] = (coords[k] + draw(st.integers(0, p - 1))) % p
    return alg, {**alg.p_map, i: tuple(coords)}


@settings(max_examples=100, deadline=None)
@given(_perturbed_p_maps())
def test_squaring_check_agrees_with_the_bracket_loop(case):
    # (ad x)^p by squaring against p brackets in a row: the same verdict and
    # the same message, which names the first failing basis pair
    alg, p_map = case
    built, expected = _p_map_verdicts(alg, p_map)
    assert built == expected


@pytest.mark.parametrize("shape", P_MAP_SHAPES, ids=lambda s: "%s%d%d" % s)
@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_squaring_check_agrees_on_every_shifted_p_map(shape, p):
    # the valid p-map passes both checks; then b_i^[p] + b_i for each even
    # b_i in turn, which both checks must judge alike
    alg = _algebra(shape, p)
    assert _p_map_verdicts(alg, alg.p_map) == (None, None)
    failed = 0
    for i, coords in alg.p_map.items():
        shifted = list(coords)
        shifted[i] = (shifted[i] + 1) % p
        built, expected = _p_map_verdicts(alg, {**alg.p_map,
                                                i: tuple(shifted)})
        assert built == expected
        failed += built is not None
    assert failed


def _halved(alg, label):
    """The structure constants and the supertrace gram of alg's realization
    with the basis vector `label` divided by 2."""
    t = label_index(alg, label)
    realization = [[[Fraction(c, 2) for c in row] for row in mat] if b == t
                   else mat for b, mat in enumerate(alg.realization)]
    return (structure_from_realization(QQ, realization, alg.parities),
            supertrace_gram(QQ, realization, alg.shape[0]))


def test_rescaled_sl21_builds_over_its_common_denominator(sl21):
    structure, gram = _halved(sl21, "E13")
    assert {c.denominator for entries in structure.values()
            for c in entries.values()} == {1, 2}
    assert {c.denominator for row in gram for c in row} == {1, 2}
    assert _both_verdicts(sl21, structure, gram) == (None, None)


@pytest.mark.parametrize("target, message", [
    ("structure", "super Jacobi fails"),
    ("gram", "form is not invariant"),
])
def test_rescaled_sl21_rejects_a_half_step(sl21, target, message):
    # [E13/2, E31] and [E31, E13/2] both move by H1/2, which keeps the
    # table skew; (H1, H1) moves by 1/2, which keeps the gram supersymmetric
    structure, gram = _halved(sl21, "E13")
    e13, e31, h1 = (label_index(sl21, b) for b in ("E13", "E31", "H1"))
    if target == "structure":
        _shift_constant(QQ, structure, e13, e31, h1, Fraction(1, 2))
        _shift_constant(QQ, structure, e31, e13, h1, Fraction(1, 2))
    else:
        gram[h1][h1] += Fraction(1, 2)
    built, expected = _both_verdicts(sl21, structure, gram)
    assert built == expected
    assert built.startswith(message)


# -- the sparse structure constants and gram against the dense oracle --------

SHAPES = [("gl", 1, 1), ("gl", 2, 1), ("gl", 2, 2), ("sl", 2, 1),
          ("sl", 2, 2), ("osp", 1, 2), ("osp", 2, 2), ("osp", 3, 2),
          ("osp", 1, 4)]


def _canonical_only(structure, gram):
    return (all(canonical(c) for entries in structure.values()
                for c in entries.values())
            and all(canonical(c) for row in gram for c in row))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%s%d%d" % s)
def test_sparse_structure_and_gram_equal_the_dense_oracle(shape):
    alg = build_algebra(*shape)
    realization = alg.realization
    assert alg.structure == dense_structure(QQ, realization, alg.parities)
    assert alg.gram == dense_gram(QQ, realization, shape[1])
    assert _canonical_only(alg.structure, alg.gram)


@pytest.mark.parametrize("shape, label", [
    (("sl", 2, 1), "E13"), (("gl", 2, 1), "E11"), (("gl", 2, 2), "E34"),
    (("osp", 1, 2), "G2"), (("osp", 3, 2), "G5")],
    ids=lambda v: v if isinstance(v, str) else "%s%d%d" % v)
def test_sparse_structure_and_gram_equal_the_dense_oracle_rescaled(shape,
                                                                   label):
    # one basis vector divided by 2: the constants and the gram pick up
    # halves and twos, and both routes must agree on them
    alg = build_algebra(*shape)
    structure, gram = _halved(alg, label)
    t = label_index(alg, label)
    realization = [[[Fraction(c, 2) for c in row] for row in mat] if b == t
                   else mat for b, mat in enumerate(alg.realization)]
    assert structure == dense_structure(QQ, realization, alg.parities)
    assert gram == dense_gram(QQ, realization, shape[1])
    assert structure != alg.structure
    assert _canonical_only(structure, gram)


def test_coordinates_of_a_matrix_outside_the_algebra_are_refused(sl21):
    # the identity has supertrace 2 - 1 = 1, so it is not in sl(2|1)
    coord = Coordinatizer(QQ, sl21.realization)
    with pytest.raises(AlgebraError, match="outside the algebra"):
        coord.coords([[Fraction(int(i == j)) for j in range(3)]
                      for i in range(3)])
    with pytest.raises(AlgebraError, match="outside the algebra"):
        coord.sparse_coords({0: Fraction(1), 4: Fraction(1),
                             8: Fraction(1)})
    e13 = sl21.realization[label_index(sl21, "E13")]
    assert coord.coords(e13) == [Fraction(int(b.label == "E13"))
                                 for b in sl21.basis]


# -- the sparse bracket, ad and form against the dense oracle -----------------

@functools.lru_cache(maxsize=None)
def _algebra(shape, p):
    alg = build_algebra(*shape)
    return alg if p is None else reduce_mod_p(alg, p).base


@st.composite
def _vector_pairs(draw):
    alg = _algebra(draw(st.sampled_from([("gl", 1, 1), ("sl", 2, 1),
                                          ("osp", 1, 2)])),
                   draw(st.sampled_from([None, 5])))
    if alg.field.char == 0:
        coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    else:
        coeff = st.integers(0, 4)
    vector = st.lists(coeff, min_size=alg.dim, max_size=alg.dim)
    return alg, draw(vector), draw(vector)


def _sparse(alg, v):
    return {i: c for i, c in enumerate(v) if not alg.field.is_zero(c)}


def _coords(alg, vec):
    """A sparse {index: c} vector as a coordinate list over alg's field."""
    out = [alg.field.zero] * alg.dim
    for k, c in vec.items():
        out[k] = alg.field.of(c)
    return out


def _sparse_bracket(alg, v, w):
    """[v, w] of coordinate lists through the sparse `_bracket`."""
    return _coords(alg, _bracket(alg.structure, _sparse(alg, v),
                                 _sparse(alg, w), {}))


@settings(max_examples=60, deadline=None)
@given(_vector_pairs())
def test_bracket_ad_and_form_match_the_dense_oracle(case):
    # the sparse bracket, the ad columns and the form through the gram's
    # rows that the nilpotent analysis reads, against the dense oracles
    alg, v, w = case
    f = alg.field
    sv, sw = _sparse(alg, v), _sparse(alg, w)
    assert _sparse_bracket(alg, v, w) == dense_bracket(alg, v, w)
    assert ([_coords(alg, col) for col in _ad_columns(alg, sv)]
            == [list(col) for col in zip(*dense_ad(alg, v))])
    rows = [_sparse(alg, row) for row in alg.gram]
    assert f.of(_dot(_covector(rows, sv), sw)) == dense_form(alg, v, w)


# -- super-Jacobi on random elements ------------------------------------------

JACOBI_SHAPES = [("gl", 1, 1), ("gl", 2, 1), ("gl", 1, 2), ("sl", 2, 1),
                 ("sl", 1, 2), ("osp", 1, 2), ("osp", 2, 2), ("osp", 3, 2)]


@st.composite
def _vector_triples(draw):
    alg = _algebra(draw(st.sampled_from(JACOBI_SHAPES)),
                   draw(st.sampled_from([None, 3, 5])))
    p = alg.field.char
    if p == 0:
        coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    else:
        coeff = st.integers(0, p - 1)
    vector = st.lists(coeff, min_size=alg.dim, max_size=alg.dim)
    return alg, draw(vector), draw(vector), draw(vector)


def _part(alg, v, parity):
    return [c if alg.parities[i] == parity else alg.field.zero
            for i, c in enumerate(v)]


@settings(max_examples=60, deadline=None)
@given(_vector_triples())
def test_super_jacobi_on_random_elements(case):
    # [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]] on the homogeneous
    # parts of three random elements, all eight parity choices
    alg, u, v, w = case
    f = alg.field
    br = functools.partial(_sparse_bracket, alg)
    for px, py, pz in product((0, 1), repeat=3):
        x, y, z = _part(alg, u, px), _part(alg, v, py), _part(alg, w, pz)
        sign = f.neg(f.one) if px and py else f.one
        rhs = [f.add(a, f.mul(sign, b))
               for a, b in zip(br(br(x, y), z), br(y, br(x, z)))]
        assert br(x, br(y, z)) == rhs


# -- checks that python -O must not strip ------------------------------------

STRIPPED_ASSERTS = """
import sys
from wsuper import analyze_nilpotent, build_algebra, resolve_nilpotent, sl2_triple
from wsuper.modp import reduce_mod_p
from wsuper.nilpotent import NilpotentError
from wsuper.superalgebra import AlgebraError, LieSuperalgebra
alg = build_algebra("sl", 2, 1)
nd = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(alg, "E12")))
try:
    nd.v_mid_index
except NilpotentError as exc:
    print(sys.flags.optimize, exc)
mod = reduce_mod_p(build_algebra("gl", 1, 1), 3).base
odd = mod.parities.index(1)
try:
    LieSuperalgebra(mod.field, mod.basis, mod.structure,
                    p_map={odd: (0,) * mod.dim})
except AlgebraError as exc:
    print(sys.flags.optimize, exc)
"""


def test_typed_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", STRIPPED_ASSERTS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 v_mid exists only for odd r (r = 2)\n"
                           "1 p-map defined on an odd vector (1)\n")
