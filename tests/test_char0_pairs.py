"""The char-0 chain of `wsuper.wchar0` on the engine's pairs: against the
Element path it replaced (`oracle.ElementChain`) on every CONFIGS row, in
characteristic 0 and mod p at each eta sample; the left products that the
relation table reads from the evaluation memo; and each check of the
relation table, made to fail on the pair path, raising its own error with
its own message."""

import pytest

from oracle import ElementChain, elt_q_reduce
from test_q_columns import CONFIGS
from wsuper import (analyze_nilpotent, build_algebra, reduce_datum,
                    resolve_nilpotent, sl2_triple)
from wsuper.pbw import engine_from_datum
from wsuper.scalars import lowest
from wsuper import wchar0
from wsuper.wchar0 import (LeadingShapeError, NotInvariantError, SolverError,
                           WContext)


def _contexts(nd, p):
    """(label, WContext) over Q, and over the datum reduced mod p at each
    eta sample."""
    yield "char0", WContext(nd)
    dat = reduce_datum(nd, p)
    for label, eta in dat.eta_samples():
        yield label, WContext(dat, engine=engine_from_datum(
            dat, eta, dat.pmap_adapted))


def _outcome(run):
    """run's result, or the type and message of the solver error it
    raises."""
    try:
        return run()
    except (SolverError, NotInvariantError, LeadingShapeError) as exc:
        return type(exc), str(exc)


def _unit(ng, *ks):
    expo = [0] * ng
    for k in ks:
        expo[k] += 1
    return tuple(expo)


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_pair_path_equals_the_element_path(request, nd, p):
    for label, ctx in _contexts(request.getfixturevalue(nd), p):
        ref = ElementChain(ctx)
        gens = ctx.generators()
        assert [g.value for g in gens] == ref.values, label
        # the relation table, or the error that stops it, is the Element
        # path's
        got = _outcome(lambda: ctx.commutator_table().relations)
        assert got == _outcome(ref.commutator_table), label
        ng = ctx.n_generators()
        for i in range(ng):
            for j in range(ng):
                a, b = gens[i].value, gens[j].value
                br = ctx.super_bracket(a, b)
                assert br == ref.super_bracket(a, b), (label, i, j)
                if type(got) is dict and i <= j:
                    poly = got[(i + 1, j + 1)]
                    assert ctx.evaluate(poly) == ref.evaluate(poly) == br
                    assert ctx.express_in_pbw(br) == poly
            assert ctx.is_invariant(gens[i].value)
        for expo in ctx._eval_cache:
            assert ctx.eval_monomial(expo) == ref.eval_monomial(expo)


def test_pair_path_equals_the_element_path_over_denominators(nd_osp32):
    # gl(3|1) regular: chi has denominator 4 and the brackets denominators
    # 2 and 3; osp(3|2) has odd r, its extra generator squaring to the
    # middle norm
    alg = build_algebra("gl", 3, 1)
    gl31 = analyze_nilpotent(alg, sl2_triple(alg, resolve_nilpotent(
        alg, "regular")))
    for nd in (gl31, nd_osp32):
        ctx = WContext(nd)
        ref = ElementChain(ctx)
        assert [g.value for g in ctx.generators()] == ref.values
        assert ctx.commutator_table().relations == ref.commutator_table()


@pytest.mark.parametrize("nd, p", CONFIGS)
def test_memo_left_products_equal_q_mul(request, nd, p):
    # for i < j the relation table reads theta_i theta_j as the PBW
    # monomial theta^{e_i + e_j}
    for label, ctx in _contexts(request.getfixturevalue(nd), p):
        e = ctx.engine
        gens = ctx.generators()
        ng = ctx.n_generators()
        for i in range(ng):
            for j in range(i + 1, ng):
                assert (ctx.eval_monomial(_unit(ng, i, j))
                        == e.q_mul(gens[i].value, gens[j].value)), (label, i, j)


# -- each check of the relation table fires on the pair path -----------------

@pytest.fixture(params=["char0", "mod5"])
def fresh_ctx(request, nd_sl21_e12):
    """A new WContext of sl(2|1) E12, over Q or mod 5 at eta = chi, with its
    generators solved."""
    nd = nd_sl21_e12
    if request.param == "char0":
        ctx = WContext(nd)
    else:
        dat = reduce_datum(nd, 5)
        ctx = WContext(dat, engine=engine_from_datum(dat, dat.eta_chi(),
                                                     dat.pmap_adapted))
    ctx.generators()
    return ctx


def _descent_target(ctx):
    """An exponent tuple a that the clean relation table's descent reads
    from the memo, not one of its left products theta^{e_i + e_j}, i < j,
    and not the unit; with the leading monomial of theta^a 1."""
    pres = ctx.commutator_table()
    for poly in pres.relations.values():
        for a in sorted(poly.terms):
            if sum(a) == 0 or (sum(a) == 2 and max(a) == 1):
                continue
            for m in ctx._eval_cache[a][0]:
                try:
                    if ctx._leading_to_expo(m) == a:
                        return a, m
                except LeadingShapeError:
                    pass
    raise AssertionError("no PBW monomial to corrupt")


def test_a_non_invariant_bracket_is_refused(fresh_ctx, monkeypatch):
    ctx, e = fresh_ctx, fresh_ctx.engine
    p = e.field.char
    g = next(g for g in range(e.cobasis_count)
             if not ctx.is_invariant(elt_q_reduce(e, e.gen(g))))
    junk = e._gen_mono(g)
    bracket = wchar0._super_sum

    def tainted(engine, left, right, both_odd):
        # the bracket plus the non-invariant b_g
        nums, den = bracket(engine, left, right, both_odd)
        nums = dict(nums)
        c = nums.get(junk, 0) + den
        nums[junk] = c % p if p else c
        if not nums[junk]:
            del nums[junk]
        return lowest(nums, den)

    monkeypatch.setattr(wchar0, "_super_sum", tainted)
    with pytest.raises(NotInvariantError,
                       match="^element is not invariant under ad m$"):
        ctx.commutator_table()


def test_a_non_descending_elimination_is_refused(fresh_ctx):
    ctx = fresh_ctx
    a, m = _descent_target(ctx)
    nums, den = ctx._eval_cache[a]
    # a term above theta^a's leading one, which its subtraction leaves
    ctx._eval_cache[a] = ({**nums, tuple(2 * x for x in m): 1}, den)
    with pytest.raises(SolverError,
                       match="^PBW elimination does not descend$"):
        ctx.commutator_table()


def test_a_lost_leading_term_is_refused(fresh_ctx):
    ctx = fresh_ctx
    a, m = _descent_target(ctx)
    nums, den = ctx._eval_cache[a]
    ctx._eval_cache[a] = ({k: c for k, c in nums.items() if k != m}, den)
    with pytest.raises(SolverError,
                       match="^evaluated monomial lost its leading term$"):
        ctx.commutator_table()


def test_an_evaluate_back_mismatch_is_refused(fresh_ctx, monkeypatch):
    monkeypatch.setattr(WContext, "_evaluate", lambda self, terms: ({}, 1))
    with pytest.raises(SolverError,
                       match="^PBW expression does not evaluate back$"):
        fresh_ctx.commutator_table()
