"""Batch driver.

Subcommands: `algebra build`, `nilpotent analyze`, `w solve`, `w relations`,
`modp suite`, `verify all`.  `COMMANDS` says how far each one runs the char-0
chain (generators, relations, graded check) and which options it takes; the
parser and the config are both read from it.  Artifacts are written
atomically (temp file then rename) so failed runs leave no partial files;
identical configurations give byte-identical outputs.  Exit codes: 0 all
enabled checks passed, 1 check failures (with failures.json), 2 the errors in
`CONFIG_ERRORS`, 3 those in `SOLVER_ERRORS`, 4 a stage that ran out of memory,
5 any other exception, an internal error (for 4 and 5 one stderr line names
the stage, and nothing more is written).  The WSUPER_OUT environment variable
overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import modp, serialize
from .nilpotent import NilpotentError, analyze_nilpotent, sl2_triple
from .pbw import AmbientMismatch
from .presets import PresetError, resolve_nilpotent
from .superalgebra import AlgebraError, build_algebra, invariant_form
from .wchar0 import (LeadingShapeError, NotInvariantError, SolverError,
                     WContext, WPresentation)

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MEMORY = 4
EXIT_INTERNAL = 5

ENV_OUT = "WSUPER_OUT"


class ConfigError(ValueError):
    pass


class StageMemoryError(MemoryError):
    """A MemoryError raised inside a pipeline stage; str() names the stage."""


class InternalError(Exception):
    """Any other exception raised inside a pipeline stage; str() names the
    stage, the exception's type and its message."""


# every error a run can end in, by exit code (FormNormalizationError is a
# NilpotentError, DegenerateFormError an AlgebraError)
CONFIG_ERRORS = (ConfigError, AlgebraError, NilpotentError, PresetError,
                 modp.ReductionError)
SOLVER_ERRORS = (SolverError, NotInvariantError, LeadingShapeError,
                 AmbientMismatch)


@contextmanager
def _stage(name):
    """Re-raise a MemoryError of the block as a StageMemoryError naming it,
    and an exception outside CONFIG_ERRORS and SOLVER_ERRORS as an
    InternalError naming it."""
    try:
        yield
    except MemoryError:
        raise StageMemoryError(name) from None
    except CONFIG_ERRORS + SOLVER_ERRORS:
        raise
    except Exception as exc:
        raise InternalError("%s: %s: %s" % (name, type(exc).__name__, exc)) \
            from exc


# How far the char-0 chain runs; each stage includes the ones before it.
CHAR0_NONE, CHAR0_SOLVE, CHAR0_RELATIONS, CHAR0_GRADED = range(4)

# The options each option group adds beyond --family, --m, --n and --out;
# their destinations are PipelineConfig fields.
OPTIONS = {
    "nilpotent": (("--nilpotent", {
        "default": "zero",
        "help": "zero, regular, E12-style label, or coordinates"}),),
    "max_degree": (("--max-degree", {"type": int, "default": 10}),),
    "primes": (("--primes", {"default": "3,5"}),
               ("--eta-sweep", {"action": "store_true"})),
}

# (command, action) -> (how far the char-0 chain runs, its option groups).
# The degree bound guards the graded check, which only `verify all` runs.
COMMANDS = {
    ("algebra", "build"): (CHAR0_NONE, ()),
    ("nilpotent", "analyze"): (CHAR0_NONE, ("nilpotent",)),
    ("w", "solve"): (CHAR0_SOLVE, ("nilpotent",)),
    ("w", "relations"): (CHAR0_RELATIONS, ("nilpotent",)),
    ("modp", "suite"): (CHAR0_NONE, ("nilpotent", "primes")),
    ("verify", "all"): (CHAR0_GRADED, ("nilpotent", "max_degree", "primes")),
}


@dataclass
class PipelineConfig:
    family: str
    m: int
    n: int
    nilpotent: str = "zero"
    char0: int = CHAR0_GRADED
    max_degree: int = 10
    primes: tuple = ()
    eta_sweep: bool = False
    out_dir: str = "."


def resolve_out_dir(flag_value):
    env = os.environ.get(ENV_OUT)
    return env if env else flag_value


def run_pipeline(cfg):
    """Returns (exit_code, failures, artifacts written).  Every step that
    computes or writes runs inside a `_stage`."""
    with _stage("set-up"):
        for p in cfg.primes:  # a rejected prime leaves no artifact
            modp.check_restriction(cfg.family, (cfg.m, cfg.n), p)
        out_dir = resolve_out_dir(cfg.out_dir)
        os.makedirs(out_dir, exist_ok=True)
    failures = []
    written = []

    def emit(name, render):
        # render() gives the artifact's text
        path = os.path.join(out_dir, name)
        with _stage("writing %s" % name):
            serialize.atomic_write(path, render())
        written.append(path)

    with _stage("algebra build"):
        alg = build_algebra(cfg.family, cfg.m, cfg.n)
        invariant_form(alg)
    with _stage("nilpotent analysis"):
        e = resolve_nilpotent(alg, cfg.nilpotent)
        nd = analyze_nilpotent(alg, sl2_triple(alg, e))
    datums = _preflight(nd, cfg.primes)
    if cfg.char0 >= CHAR0_SOLVE:
        with _stage("char-0 solve"):
            ctx = WContext(nd)
            if cfg.char0 >= CHAR0_GRADED:
                # the generator degrees are known before any is solved
                top = max(ctx.generator_degrees())
                if cfg.max_degree < top + 2:
                    raise ConfigError("max Kazhdan degree %d is below the top"
                                      " generator degree %d plus two"
                                      % (cfg.max_degree, top))
    emit("algebra.json",
         lambda: serialize.dump_json(serialize.algebra_to_json(alg)))
    emit("nilpotent.json",
         lambda: serialize.dump_json(serialize.nilpotent_to_json(nd)))

    if cfg.char0 >= CHAR0_SOLVE:
        with _stage("char-0 solve"):
            gens = ctx.generators()
            if cfg.char0 >= CHAR0_RELATIONS:
                pres = ctx.commutator_table()
            else:
                pres = WPresentation(generators=gens, relations={},
                                     middle_norm=nd.middle_norm)
        emit("wpresentation.json", lambda: serialize.dump_json(
            serialize.presentation_to_json(pres, ctx)))
        if cfg.char0 >= CHAR0_GRADED:
            with _stage("char-0 solve"):
                report = ctx.graded_check(cfg.max_degree)
            if not report.ok:
                failures.append({"check": "graded_dimensions",
                                 "detail": {"counts": report.pbw_counts,
                                            "series": report.symmetric_dims}})

    if cfg.primes:
        rows = []
        for dat in datums:
            etas = dat.eta_samples() if cfg.eta_sweep else [("chi", dat.eta_chi())]
            for eta_label, eta in etas:
                with _stage("mod-p row, p = %d, eta = %s" % (dat.p, eta_label)):
                    rows.append(_modp_row(cfg, nd, dat, eta, eta_label,
                                          failures))
        emit("modp_report.csv", lambda: serialize.modp_rows_to_csv(rows))
        emit("modp_report.json", lambda: serialize.dump_json(
            {"schema": serialize.SCHEMA, "kind": "modp_report", "rows": rows}))

    if failures:
        emit("failures.json", lambda: serialize.dump_json(
            {"schema": serialize.SCHEMA, "kind": "failures",
             "failures": failures}))
        return EXIT_CHECK_FAILURES, failures, written
    return EXIT_OK, failures, written


def _preflight(nd, primes):
    """The datum reduced mod each prime, for the mod-p rows.  A prime whose Q
    would not fit in physical memory is refused first, for every prime,
    before anything is allocated or written; then each reduction tests that
    p is prime (`modp.admissible_field`) and refuses a p that divides a
    denominator of the datum."""
    for p in primes:
        with _stage("mod-p preflight, p = %d" % p):
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            dim, need = modp.q_footprint(nd, p)
        if need > memory:
            raise ConfigError("p = %d: dim Q = %d needs about %d bytes, more"
                              " than the %d bytes of physical memory"
                              % (p, dim, need, memory))
    datums = []
    for p in primes:
        with _stage("mod-p reduction, p = %d" % p):
            datums.append(modp.reduce_datum(nd, p))
    return datums


def _modp_row(cfg, nd, dat, eta, eta_label, failures):
    def fail(check, **detail):
        failures.append({"check": check, "p": dat.p, "eta": eta_label,
                         "detail": detail})

    q = modp.build_reduced_q(dat, eta, eta_label)
    if nd.r_odd:
        # the m' check needs the m-invariant basis; Morita reads its row count
        q.invariant_subspace("m")
    morita = modp.morita_dim_check(q)
    if not morita.ok:
        fail("morita_dimension", dim_u=morita.dim_u, delta=morita.delta,
             dim_w=morita.dim_w)
    if nd.r_odd:
        refined = modp.mprime_invariants_check(q)
        prop_ok = refined.ok
        if not prop_ok:
            fail("mprime_invariants", dim_m_invariants=refined.dim_m_invariants,
                 dim_mprime_invariants=refined.dim_mprime_invariants,
                 equal=refined.equal, proper=refined.proper,
                 witness_ok=refined.witness_ok)
    else:
        # m' = m, the two invariant spaces coincide by definition
        prop_ok = True
    rw = modp.reduced_w(q)
    for warning in rw.warnings:
        print("warning: p = %d, eta = %s: %s" % (dat.p, eta_label, warning),
              file=sys.stderr)
    if not rw.pbw_ok:
        fail("pbw_basis", rank=rw.rank, monomials=rw.dim,
             invariant_dim=morita.dim_w)
    # right multiplication by z in m acts by eta(z), so ad z = L_z - eta(z):
    # the Whittaker vectors are the m-invariants Morita already counted
    mismatch = q.right_action_mismatch()
    if mismatch is not None:
        z, column = mismatch
        fail("whittaker_dimension", generator=q.engine.labels[z], column=column)
    elif morita.dim_w * q.delta() != q.dim:
        fail("whittaker_dimension", dim_W=morita.dim_w, delta=q.delta(),
             dim_Q=q.dim)
    return {
        "family": cfg.family, "m": cfg.m, "n": cfg.n,
        "e_label": cfg.nilpotent, "p": dat.p, "eta_label": eta_label,
        "dim_Q": q.dim, "delta": q.delta(), "dim_W": morita.dim_w,
        "morita_ok": morita.ok, "prop_small_ok": prop_ok, "pbw_ok": rw.pbw_ok,
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsuper",
        description="exact finite W-superalgebra computations over Q and F_p")
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for (command, action), (_, groups) in COMMANDS.items():
        if command not in actions:
            actions[command] = sub.add_parser(command).add_subparsers(
                dest="action", required=True)
        p = actions[command].add_parser(action)
        p.add_argument("--family", required=True, choices=["gl", "sl", "osp"])
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", dest="out_dir", default=".")
        for group in groups:
            for flag, spec in OPTIONS[group]:
                p.add_argument(flag, **spec)
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
    fields = vars(args).copy()
    char0, _ = COMMANDS[fields.pop("command"), fields.pop("action")]
    if "primes" in fields:
        fields["primes"] = _parse_primes(fields["primes"])
    return PipelineConfig(char0=char0, **fields)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, failures, written = run_pipeline(config_from_args(args))
    except CONFIG_ERRORS as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SOLVER_ERRORS as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        where = ": %s" % exc if isinstance(exc, StageMemoryError) else ""
        print("out of memory%s" % where, file=sys.stderr)
        return EXIT_MEMORY
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    for path in written:
        print("wrote %s" % path)
    if failures:
        print("%d check(s) failed" % len(failures), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
