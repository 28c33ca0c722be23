"""Per-layer tracing of a wsuper run, installed from outside the package.

`Tracer` replaces public functions and methods of the wsuper modules with
timing wrappers (attribute substitution) and puts the originals back when its
`with` block ends.  Each call becomes a span ``[name, start, end, parent,
attrs]`` kept in memory; `Tracer.dump` writes them once the run is over and
`summarize` turns a span list into the per-layer metrics.

Counts derived from call arguments and results (matrix cells, nonzeros,
`modp_ops`, `modp_bytes`) are computed from shapes, not measured.
"""

import functools
import json
import time
import weakref


def _cells(mat):
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return int(shape[0]), int(shape[1])
    rows = len(mat)
    return rows, (len(mat[0]) if rows else 0)


def _fraction_system(args, result):
    # solve_affine(field, mat, rhs)
    mat = args[1]
    rows, cols = _cells(mat)
    nnz = sum(1 for row in mat for c in row if c)
    return {"cells": rows * cols, "nnz": nnz}


def _modp_kernel(args, result):
    # rank_mod_p(mat, p) returns the rank, rref_mod_p(mat, p) (a, pivots)
    rows, cols = _cells(args[0])
    rank = result if isinstance(result, int) else len(result[1])
    return {"cells": rows * cols, "ops": rows * cols * rank,
            "bytes": 8 * rows * cols}


def _q_dim(args, result):
    return {"dim": result.dim}


def _written_bytes(args, result):
    # atomic_write(path, text)
    return {"bytes": len(args[1].encode("utf-8"))}


def _targets(tracer):
    """(owner, attribute, span name, attrs function) for every wrapped call.

    `cli` imported the set-up functions by name, so those are replaced in its
    namespace.  Everything else is reached through module or class attributes
    at call time, so replacing it at its home also catches internal callers,
    e.g. the Q rebuild inside `modp.reduced_w`."""
    from wsuper import cli, linalg, modp, pbw, serialize, wchar0
    return [
        (cli, "build_algebra", "superalgebra.build", None),
        (cli, "invariant_form", "superalgebra.form", None),
        (cli, "sl2_triple", "nilpotent.sl2_triple", None),
        (cli, "analyze_nilpotent", "nilpotent.analyze", None),
        (cli, "_modp_row", "cli.modp_row", None),
        (wchar0.WContext, "solve_theta", "wchar0.solve", None),
        (wchar0.WContext, "commutator_table", "wchar0.relations", None),
        (wchar0.WContext, "graded_check", "wchar0.graded", None),
        (pbw.Enveloping, "q_mul", "pbw.q_mul", None),
        (pbw.Enveloping, "ad_act", "pbw.ad_act", None),
        (linalg, "solve_affine", "linalg.solve_affine", _fraction_system),
        (linalg, "rank", "linalg.rank", None),
        (linalg, "rank_mod_p", "linalg.rank_mod_p", _modp_kernel),
        (linalg, "rref_mod_p", "linalg.rref_mod_p", _modp_kernel),
        (modp, "reduce_datum", "modp.reduce", None),
        (modp, "build_reduced_q", "modp.build_q", _q_dim),
        (modp.ReducedQ, "left_columns", "modp.q_columns",
         tracer._column_build),
        (modp.ReducedQ, "ad_columns", "modp.q_columns", tracer._column_build),
        (modp, "morita_dim_check", "modp.morita", None),
        (modp, "mprime_invariants_check", "modp.mprime", None),
        (modp, "reduced_w", "modp.reduced_w", None),
        (modp.ReducedQ, "whittaker_subspace", "modp.whittaker", None),
        (serialize, "atomic_write", "serialize.write", _written_bytes),
    ]


class Tracer:
    """Context manager: wraps the targets on entry, restores them on exit."""

    def __init__(self):
        self.spans = []
        self.memo_entries = 0
        self._stack = []
        self._saved = []
        self._finalizers = []
        self._column_lists = weakref.WeakKeyDictionary()

    def __enter__(self):
        from wsuper import pbw
        for owner, attr, name, attrs in _targets(self):
            self._replace(owner, attr,
                          self._wrap(name, getattr(owner, attr), attrs))
        self._replace(pbw.Enveloping, "__init__",
                      self._watch_engine(pbw.Enveloping.__init__))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for fin in self._finalizers:
            fin()
        return False

    def _replace(self, owner, attr, wrapper):
        # vars() keeps a class's own function, not a bound lookup result
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return wrapper

    def _column_build(self, args, result):
        # ReducedQ memoizes its column lists and returns the same list on a
        # hit; the lists live as long as their Q, so their ids stay unique
        ids = self._column_lists.setdefault(args[0], set())
        built = id(result) not in ids
        ids.add(id(result))
        return {"built": int(built)}

    def _watch_engine(self, init):
        tracer = self

        def record(cache):
            tracer.memo_entries += len(cache)

        @functools.wraps(init)
        def __init__(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            # the memo size is read when the engine dies or the trace ends
            tracer._finalizers.append(
                weakref.finalize(engine, record, engine._gen_cache))

        return __init__

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "memo_entries": self.memo_entries}, fh)


# (span name, report calls, report max inclusive time) in report order
SPANS = [
    ("superalgebra.build", False, False),
    ("superalgebra.form", False, False),
    ("nilpotent.sl2_triple", False, False),
    ("nilpotent.analyze", False, False),
    ("wchar0.solve", True, True),
    ("linalg.solve_affine", True, False),
    ("wchar0.relations", False, False),
    ("pbw.q_mul", True, False),
    ("pbw.ad_act", True, False),
    ("wchar0.graded", False, False),
    ("linalg.rank", True, False),
    ("linalg.rank_mod_p", True, False),
    ("linalg.rref_mod_p", True, False),
    ("modp.reduce", False, False),
    ("modp.build_q", True, False),
    ("modp.q_columns", False, False),
    ("modp.morita", False, False),
    ("modp.mprime", False, False),
    ("modp.reduced_w", False, False),
    ("modp.whittaker", False, False),
    ("cli.modp_row", True, False),
    ("serialize.write", False, False),
]


def summarize(trace):
    """Per-layer metrics, as {name: (value, unit)}, from a dumped trace."""
    spans = trace["spans"]
    incl, self_s, calls, longest = {}, {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), dur)

    def attrs_of(*names):
        return [a for n, _, _, _, a in spans if n in names and a]

    out = {}
    for name, with_calls, with_max in SPANS:
        out[name + "_s"] = (incl.get(name, 0.0), "s")
        out[name + "_self_s"] = (self_s.get(name, 0.0), "s")
        if with_calls:
            out[name + "_calls"] = (calls.get(name, 0), "count")
        if with_max:
            out[name + "_max_s"] = (longest.get(name, 0.0), "s")

    systems = attrs_of("linalg.solve_affine")
    out["linalg.solve_affine_max_cells"] = (
        max((a["cells"] for a in systems), default=0), "cells")
    out["linalg.solve_affine_max_nnz"] = (
        max((a["nnz"] for a in systems), default=0), "count")
    for name in ("linalg.rank_mod_p", "linalg.rref_mod_p"):
        out[name + "_max_cells"] = (
            max((a["cells"] for a in attrs_of(name)), default=0), "cells")
    kernels = attrs_of("linalg.rank_mod_p", "linalg.rref_mod_p")
    out["linalg.modp_ops"] = (sum(a["ops"] for a in kernels), "ops")
    out["linalg.modp_bytes"] = (sum(a["bytes"] for a in kernels), "bytes")
    out["modp.q_columns_calls"] = (
        sum(a["built"] for a in attrs_of("modp.q_columns")), "count")
    rows = calls.get("cli.modp_row", 0)
    out["modp.q_builds_per_row"] = (
        calls.get("modp.build_q", 0) / rows if rows else 0.0, "builds/row")
    out["modp.dim_q_max"] = (
        max((a["dim"] for a in attrs_of("modp.build_q")), default=0), "count")
    out["pbw.memo_entries"] = (trace["memo_entries"], "count")
    out["serialize.bytes"] = (
        sum(a["bytes"] for a in attrs_of("serialize.write")), "bytes")
    return out
