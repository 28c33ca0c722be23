"""Loaders for the JSON artifacts of `wsuper.serialize`, kept with the tests
that read the artifacts back: the round trips and the `SchemaError` cases.
Each loader re-runs the deterministic construction and checks the stored
data against it."""

from fractions import Fraction

from wsuper.nilpotent import Sl2Triple, analyze_nilpotent
from wsuper.scalars import QQ, PrimeField
from wsuper.serialize import SCHEMA, _fmt
from wsuper.superalgebra import BasisVector, LieSuperalgebra
from wsuper.wchar0 import ThetaPolynomial, WPresentation


class SchemaError(ValueError):
    pass


def parse_scalar(s, p=None):
    """Inverse of `wsuper.scalars.format_scalar`.  Rejects malformed input
    such as "1/0"."""
    if not isinstance(s, str):
        raise ValueError("scalar must be a string, got %r" % (s,))
    if p is None:
        if "/" in s:
            num, _, den = s.partition("/")
            d = int(den)
            if d == 0:
                raise ValueError("zero denominator in scalar %r" % s)
            return Fraction(int(num), d)
        return Fraction(int(s))
    v = int(s)
    if not 0 <= v < p:
        raise ValueError("residue %r out of range mod %d" % (s, p))
    return v


def _check_schema(data, kind):
    if data.get("schema") != SCHEMA:
        raise SchemaError("expected schema %r, got %r"
                          % (SCHEMA, data.get("schema")))
    if data.get("kind") != kind:
        raise SchemaError("expected kind %r, got %r" % (kind, data.get("kind")))


def _parse(field, s):
    if field.char == 0:
        return parse_scalar(s)
    if isinstance(s, int):
        if not 0 <= s < field.char:
            raise SchemaError("residue %r out of range mod %d" % (s, field.char))
        return s
    return parse_scalar(s, field.char)


def algebra_from_json(data):
    _check_schema(data, "algebra")
    p = data.get("p")
    field = QQ if p is None else PrimeField(p)
    basis = [BasisVector(b["index"], b["parity"], b["label"])
             for b in data["basis"]]
    structure = {}
    for i, j, entries in data["structure"]:
        structure[(i, j)] = {k: _parse(field, c) for k, c in entries}
    gram = (None if data["gram"] is None else
            [[_parse(field, x) for x in row] for row in data["gram"]])
    realization = (None if data["realization"] is None else
                   [[[_parse(field, x) for x in row] for row in mat]
                    for mat in data["realization"]])
    p_map = (None if data.get("p_map") is None else
             {i: tuple(_parse(field, c) for c in coords)
              for i, coords in data["p_map"]})
    shape = tuple(data["shape"]) if data.get("shape") else None
    return LieSuperalgebra(field, basis, structure, gram=gram,
                           realization=realization, p_map=p_map,
                           family=data.get("family"), shape=shape)


def nilpotent_from_json(data, alg):
    """Rebuild by re-running the analysis on the stored triple, then check the
    stored datum matches; the construction is deterministic so this is the
    identity on serialized outputs."""
    _check_schema(data, "nilpotent")
    f = alg.field
    triple = Sl2Triple(
        tuple(_parse(f, c) for c in data["triple"]["e"]),
        tuple(_parse(f, c) for c in data["triple"]["h"]),
        tuple(_parse(f, c) for c in data["triple"]["f"]),
    )
    nd = analyze_nilpotent(alg, triple)
    stored = [(g["label"], g["kind"], g["parity"], g["weight"],
               tuple(_parse(f, c) for c in g["vector"]))
              for g in data["generators"]]
    rebuilt = [(g.label, g.kind, g.parity, g.weight, g.vector)
               for g in nd.generators]
    if stored != rebuilt:
        raise SchemaError("stored nilpotent datum disagrees with the"
                          " deterministic reconstruction")
    if [_fmt(f, c) for c in nd.chi] != data["chi"]:
        raise SchemaError("stored chi disagrees with the reconstruction")
    return nd


def _poly_parse(field, nvars, data):
    return ThetaPolynomial(nvars, {tuple(m): _parse(field, c)
                                   for m, c in data})


def presentation_from_json(data, ctx):
    _check_schema(data, "wpresentation")
    f = ctx.engine.field
    gens = ctx.generators()
    if len(gens) != len(data["generators"]):
        raise SchemaError("generator count mismatch")
    for g, gd in zip(gens, data["generators"]):
        value = {ctx.engine.encode(m): _parse(f, c) for m, c in gd["value"]}
        if ctx.engine._scaled(value) != g.value:
            raise SchemaError("stored generator %s disagrees with the"
                              " deterministic solve" % gd["label"])
    nvars = ctx.n_generators()
    relations = {}
    for i, j, terms in data["relations"]:
        relations[(i, j)] = _poly_parse(f, nvars, terms)
    return WPresentation(generators=gens, relations=relations,
                         middle_norm=ctx.nd.middle_norm)
