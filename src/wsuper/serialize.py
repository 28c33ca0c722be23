"""JSON and CSV artifacts: exact scalars as "num/den" strings over Q or plain
residues with a top-level "p" mod p, structure constants as index triples,
stable key order everywhere so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction

from .scalars import format_scalar

SCHEMA = "wsuper/1"


def _fmt(field, x):
    if field.char == 0:
        return format_scalar(x)
    return int(x) % field.char


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


# ---------------------------------------------------------------------------
# W presentations
# ---------------------------------------------------------------------------

def _poly_json(field, poly):
    return [[list(mono), _fmt(field, c)]
            for mono, c in sorted(poly.terms.items())]


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
             # the pair (nums, den); den is 1 mod p
             "value": [[list(e.decode(m)), _fmt(f, Fraction(c, g.value[1]))]
                       for m, c in sorted(g.value[0].items())]}
            for g in pres.generators
        ],
        "relations": [
            [i, j, _poly_json(f, poly)]
            for (i, j), poly in sorted(pres.relations.items())
        ],
    }


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
    """Write text to path through a temp file renamed over it, so that no
    partial file is left under path; when the write or the rename raises,
    the temp file is removed and the error raised again."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
