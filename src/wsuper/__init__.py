"""Exact finite W-superalgebra computations for gl(m|n), sl(m|n) and osp(m|2k)
with a nilpotent datum: normal ordering in the induced module Q (U itself for
the zero nilpotent) by the left action of U, generator and relation
extraction over the rationals, and the fully finite-dimensional reduced
theory mod p.
"""

from .superalgebra import AlgebraError, build_algebra
from .nilpotent import NilpotentError, analyze_nilpotent, sl2_triple
from .pbw import AmbientMismatch
from .presets import PresetError, resolve_nilpotent
from .wchar0 import (LeadingShapeError, NotInvariantError, SolverError,
                     WContext)
from .modp import (ReductionError, build_reduced_q, morita_dim_check,
                   mprime_invariants_check, reduce_datum, reduced_w)

# the README's library surface
__all__ = [
    "build_algebra", "resolve_nilpotent", "sl2_triple", "analyze_nilpotent",
    "WContext", "reduce_datum", "build_reduced_q", "reduced_w",
    "morita_dim_check", "mprime_invariants_check",
    "AlgebraError", "NilpotentError", "PresetError", "ReductionError",
    "SolverError", "NotInvariantError", "LeadingShapeError", "AmbientMismatch",
]
__version__ = "0.1.0"
