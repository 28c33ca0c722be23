"""JSON and CSV artifacts: exact scalars as "num/den" strings over Q or plain
residues with a top-level "p" mod p, structure constants as index triples,
stable key order everywhere so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os

from .scalars import QQ, PrimeField, format_scalar, parse_scalar
from .superalgebra import BasisVector, LieSuperalgebra
from .nilpotent import Sl2Triple, analyze_nilpotent
from .wchar0 import ThetaPolynomial, WPresentation

SCHEMA = "wsuper/1"


class SchemaError(ValueError):
    pass


def _check_schema(data, kind):
    if data.get("schema") != SCHEMA:
        raise SchemaError("expected schema %r, got %r"
                          % (SCHEMA, data.get("schema")))
    if data.get("kind") != kind:
        raise SchemaError("expected kind %r, got %r" % (kind, data.get("kind")))


def _fmt(field, x):
    if field.char == 0:
        return format_scalar(x)
    return int(x) % field.char


def _parse(field, s):
    if field.char == 0:
        return parse_scalar(s)
    if isinstance(s, int):
        if not 0 <= s < field.char:
            raise SchemaError("residue %r out of range mod %d" % (s, field.char))
        return s
    return parse_scalar(s, field.char)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def algebra_to_json(alg):
    f = alg.field
    data = {
        "schema": SCHEMA,
        "kind": "algebra",
        "p": None if f.char == 0 else f.char,
        "family": alg.family,
        "shape": list(alg.shape) if alg.shape else None,
        "basis": [{"index": b.index, "parity": b.parity, "label": b.label}
                  for b in alg.basis],
        "structure": [
            [i, j, [[k, _fmt(f, c)] for k, c in sorted(entries.items())]]
            for (i, j), entries in sorted(alg.structure.items())
        ],
        "gram": None if alg.gram is None else
                [[_fmt(f, x) for x in row] for row in alg.gram],
        "realization": None if alg.realization is None else
                       [[[_fmt(f, x) for x in row] for row in mat]
                        for mat in alg.realization],
        "p_map": None if alg.p_map is None else
                 [[i, [_fmt(f, c) for c in coords]]
                  for i, coords in sorted(alg.p_map.items())],
    }
    return data


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


# ---------------------------------------------------------------------------
# nilpotent data
# ---------------------------------------------------------------------------

def nilpotent_to_json(nd):
    f = nd.alg.field
    return {
        "schema": SCHEMA,
        "kind": "nilpotent",
        "p": None if f.char == 0 else f.char,
        "triple": {
            "e": [_fmt(f, c) for c in nd.triple.e],
            "h": [_fmt(f, c) for c in nd.triple.h],
            "f": [_fmt(f, c) for c in nd.triple.f],
        },
        "weights_original": (list(nd.weights_original)
                             if nd.weights_original is not None else None),
        "form_scale": _fmt(f, nd.form_scale),
        "ef_normalized": nd.ef_normalized,
        "dims": {"l": nd.l, "q": nd.q, "s": nd.s, "r": nd.r, "t": nd.t,
                 "t_cb": nd.t_cb, "m_count": nd.m_count, "n_count": nd.n_count,
                 "cobasis_count": nd.cobasis_count},
        "middle_norm": None if nd.middle_norm is None else _fmt(f, nd.middle_norm),
        "middle_normalized": nd.middle_normalized,
        "chi": [_fmt(f, c) for c in nd.chi],
        "generators": [
            {"label": g.label, "kind": g.kind, "parity": g.parity,
             "weight": g.weight, "vector": [_fmt(f, c) for c in g.vector]}
            for g in nd.generators
        ],
    }


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


# ---------------------------------------------------------------------------
# W presentations
# ---------------------------------------------------------------------------

def _poly_json(field, poly):
    return [[list(mono), _fmt(field, c)]
            for mono, c in sorted(poly.terms.items())]


def _poly_parse(field, nvars, data):
    return ThetaPolynomial(nvars, {tuple(m): _parse(field, c)
                                   for m, c in data})


def presentation_to_json(pres, ctx):
    f = ctx.engine.field
    e = ctx.engine
    return {
        "schema": SCHEMA,
        "kind": "wpresentation",
        "p": None if f.char == 0 else f.char,
        "middle_norm": None if pres.middle_norm is None else _fmt(f, pres.middle_norm),
        "generators": [
            {"index": g.index, "label": g.label,
             "leading_label": e.labels[g.leading_gen], "parity": g.parity,
             "weight": g.weight, "filtration_degree": g.filtration_degree,
             "value": [[list(m), _fmt(f, c)]
                       for m, c in sorted(g.value.terms.items())]}
            for g in pres.generators
        ],
        "relations": [
            [i, j, _poly_json(f, poly)]
            for (i, j), poly in sorted(pres.relations.items())
        ],
    }


def presentation_from_json(data, ctx):
    _check_schema(data, "wpresentation")
    f = ctx.engine.field
    gens = ctx.generators()
    if len(gens) != len(data["generators"]):
        raise SchemaError("generator count mismatch")
    for g, gd in zip(gens, data["generators"]):
        value = {tuple(m): _parse(f, c) for m, c in gd["value"]}
        if value != g.value.terms:
            raise SchemaError("stored generator %s disagrees with the"
                              " deterministic solve" % gd["label"])
    nvars = ctx.n_generators()
    relations = {}
    for i, j, terms in data["relations"]:
        relations[(i, j)] = _poly_parse(f, nvars, terms)
    return WPresentation(generators=gens, relations=relations,
                         middle_norm=ctx.nd.middle_norm)


# ---------------------------------------------------------------------------
# reports and files
# ---------------------------------------------------------------------------

MODP_COLUMNS = ["family", "m", "n", "e_label", "p", "eta_label",
                "dim_Q", "delta", "dim_W", "morita_ok", "prop_small_ok",
                "pbw_ok"]


def modp_rows_to_csv(rows):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=MODP_COLUMNS, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({k: row[k] for k in MODP_COLUMNS})
    return buf.getvalue()


def dump_json(data):
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def atomic_write(path, text):
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
