"""Batch driver.

Subcommands: `algebra build`, `nilpotent analyze`, `w solve`, `w relations`,
`modp suite`, `verify all`.  Artifacts are written atomically (temp file then
rename) so failed runs leave no partial files; identical configurations give
byte-identical outputs.  Exit codes: 0 all enabled checks passed, 1 check
failures (with failures.json), 2 configuration errors, 3 internal solver
failures.  The WSUPER_OUT environment variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import modp, serialize
from .nilpotent import FormNormalizationError, NilpotentError, analyze_nilpotent, \
    sl2_triple
from .presets import PresetError, resolve_nilpotent
from .superalgebra import AlgebraError, build_algebra, invariant_form
from .wchar0 import SolverError, WContext

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

ENV_OUT = "WSUPER_OUT"


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    family: str
    m: int
    n: int
    nilpotent: str = "zero"
    char0_enabled: bool = True
    relations: bool = True
    max_degree: int = 10
    primes: tuple = ()
    eta_sweep: bool = False
    out_dir: str = "."
    verify: bool = True


def resolve_out_dir(flag_value):
    env = os.environ.get(ENV_OUT)
    return env if env else flag_value


def _build(cfg):
    try:
        alg = build_algebra(cfg.family, cfg.m, cfg.n)
    except AlgebraError as exc:
        raise ConfigError(str(exc))
    return alg


def _analyze(cfg, alg):
    try:
        e = resolve_nilpotent(alg, cfg.nilpotent)
    except PresetError as exc:
        raise ConfigError(str(exc))
    triple = sl2_triple(alg, e)
    return analyze_nilpotent(alg, triple)


def run_pipeline(cfg):
    """Returns (exit_code, failures, artifacts written)."""
    out_dir = resolve_out_dir(cfg.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    failures = []
    written = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        serialize.atomic_write(path, text)
        written.append(path)

    try:
        alg = _build(cfg)
        invariant_form(alg)
        nd = _analyze(cfg, alg)
    except ConfigError:
        raise
    except (NilpotentError, AlgebraError) as exc:
        raise ConfigError(str(exc))
    emit("algebra.json", serialize.dump_json(serialize.algebra_to_json(alg)))
    emit("nilpotent.json", serialize.dump_json(serialize.nilpotent_to_json(nd)))

    ctx = None
    if cfg.char0_enabled:
        from .wchar0 import WPresentation
        ctx = WContext(nd)
        ctx.generators()
        if cfg.relations:
            top = max(g.filtration_degree for g in ctx.generators())
            if cfg.max_degree < top + 2:
                raise ConfigError("max Kazhdan degree %d is below the top"
                                  " generator degree %d plus two"
                                  % (cfg.max_degree, top))
            pres = ctx.commutator_table()
        else:
            pres = WPresentation(generators=ctx.generators(), relations={},
                                 middle_norm=nd.middle_norm)
        emit("wpresentation.json",
             serialize.dump_json(serialize.presentation_to_json(pres, ctx)))
        if cfg.verify:
            report = ctx.graded_check(cfg.max_degree)
            if not report.ok:
                failures.append({"check": "graded_dimensions",
                                 "detail": {"counts": report.pbw_counts,
                                            "series": report.symmetric_dims}})

    if cfg.primes:
        rows = []
        for p in cfg.primes:
            try:
                dat = modp.reduce_datum(nd, p)
            except modp.ReductionError as exc:
                raise ConfigError(str(exc))
            etas = dat.eta_samples(2) if cfg.eta_sweep else [("chi", dat.eta_chi())]
            for eta_label, eta in etas:
                rows.append(_modp_row(cfg, nd, dat, eta, eta_label, failures))
        emit("modp_report.csv", serialize.modp_rows_to_csv(rows))
        emit("modp_report.json", serialize.dump_json(
            {"schema": serialize.SCHEMA, "kind": "modp_report", "rows": rows}))

    if failures:
        emit("failures.json", serialize.dump_json(
            {"schema": serialize.SCHEMA, "kind": "failures",
             "failures": failures}))
        return EXIT_CHECK_FAILURES, failures, written
    return EXIT_OK, failures, written


def _modp_row(cfg, nd, dat, eta, eta_label, failures):
    q = modp.build_reduced_q(dat, eta, eta_label)
    if nd.r_odd:
        # the m' check needs the m-invariant basis; Morita reads its row count
        q.invariant_subspace("m")
    morita = modp.morita_dim_check(dat, eta=eta, eta_label=eta_label, q=q)
    if not morita.ok:
        failures.append({"check": "morita_dimension", "p": dat.p,
                         "eta": eta_label})
    if nd.r_odd:
        refined = modp.mprime_invariants_check(dat, eta=eta, q=q)
        prop_ok = refined.ok
        if not prop_ok:
            failures.append({"check": "mprime_invariants", "p": dat.p,
                             "eta": eta_label})
    else:
        # m' = m, the two invariant spaces coincide by definition
        prop_ok = True
    rw = modp.reduced_w(dat, eta, eta_label, with_relations=True, q=q)
    if not rw.pbw_ok:
        failures.append({"check": "pbw_basis", "p": dat.p, "eta": eta_label})
    # right multiplication by z in m acts by eta(z), so ad z = L_z - eta(z):
    # the Whittaker vectors are the m-invariants Morita already counted
    mismatch = q.right_action_mismatch()
    if mismatch is not None:
        z, column = mismatch
        failures.append({"check": "whittaker_dimension", "p": dat.p,
                         "eta": eta_label,
                         "detail": {"generator": q.engine.labels[z],
                                    "column": column}})
    elif morita.dim_w * q.delta() != q.dim:
        failures.append({"check": "whittaker_dimension", "p": dat.p,
                         "eta": eta_label})
    return {
        "family": cfg.family, "m": cfg.m, "n": cfg.n,
        "e_label": cfg.nilpotent, "p": dat.p, "eta_label": eta_label,
        "dim_Q": q.dim, "delta": q.delta(), "dim_W": morita.dim_w,
        "morita_ok": morita.ok, "prop_small_ok": prop_ok, "pbw_ok": rw.pbw_ok,
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common_args(p):
    p.add_argument("--family", required=True, choices=["gl", "sl", "osp"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=".")


def _nilpotent_args(p):
    p.add_argument("--nilpotent", default="zero",
                   help="zero, regular, E12-style label, or coordinates")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsuper",
        description="exact finite W-superalgebra computations over Q and F_p")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra").add_subparsers(dest="action", required=True)
    p = alg.add_parser("build")
    _common_args(p)

    nil = sub.add_parser("nilpotent").add_subparsers(dest="action", required=True)
    p = nil.add_parser("analyze")
    _common_args(p)
    _nilpotent_args(p)

    w = sub.add_parser("w").add_subparsers(dest="action", required=True)
    for action in ("solve", "relations"):
        p = w.add_parser(action)
        _common_args(p)
        _nilpotent_args(p)
        p.add_argument("--max-degree", type=int, default=10)

    mp = sub.add_parser("modp").add_subparsers(dest="action", required=True)
    p = mp.add_parser("suite")
    _common_args(p)
    _nilpotent_args(p)
    p.add_argument("--primes", default="3,5")
    p.add_argument("--eta-sweep", action="store_true")

    v = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    p = v.add_parser("all")
    _common_args(p)
    _nilpotent_args(p)
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--primes", default="3,5")
    p.add_argument("--eta-sweep", action="store_true")

    return parser


def _parse_primes(text):
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(int(item))
        except ValueError:
            raise ConfigError("bad prime %r" % item)
    return tuple(out)


def config_from_args(args):
    cfg = PipelineConfig(
        family=args.family, m=args.m, n=args.n,
        nilpotent=getattr(args, "nilpotent", "zero"),
        out_dir=args.out,
    )
    cmd = (args.command, args.action)
    if cmd == ("algebra", "build"):
        cfg.char0_enabled = False
        cfg.relations = False
        cfg.verify = False
        cfg.nilpotent = "zero"
    elif cmd == ("nilpotent", "analyze"):
        cfg.char0_enabled = False
        cfg.relations = False
        cfg.verify = False
    elif cmd == ("w", "solve"):
        cfg.relations = False
        cfg.verify = False
        cfg.max_degree = args.max_degree
    elif cmd == ("w", "relations"):
        cfg.verify = False
        cfg.max_degree = args.max_degree
    elif cmd == ("modp", "suite"):
        cfg.char0_enabled = False
        cfg.relations = False
        cfg.verify = False
        cfg.primes = _parse_primes(args.primes)
        cfg.eta_sweep = bool(args.eta_sweep)
    elif cmd == ("verify", "all"):
        cfg.max_degree = args.max_degree
        cfg.primes = _parse_primes(args.primes)
        cfg.eta_sweep = bool(args.eta_sweep)
    else:
        raise ConfigError("unknown command %r" % (cmd,))
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        code, failures, written = run_pipeline(cfg)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, FormNormalizationError) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    for path in written:
        print("wrote %s" % path)
    if failures:
        print("%d check(s) failed" % len(failures), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
