"""Exact finite W-superalgebra computations for gl(m|n), sl(m|n) and osp(m|2k)
with a nilpotent datum: PBW normal ordering over Q, generator and relation
extraction, and the fully finite-dimensional reduced theory mod p.
"""

from .scalars import QQ, PrimeField, format_scalar, parse_scalar
from .superalgebra import (AlgebraError, BasisVector, DegenerateFormError,
                           LieSuperalgebra, build_algebra, invariant_form)
from .nilpotent import (FormNormalizationError, NilpotentData, NilpotentError,
                        Sl2Triple, analyze_nilpotent, sl2_triple)
from .pbw import AmbientMismatch, Element, Enveloping, FiltrationIndex, \
    engine_from_datum
from .wchar0 import (GradedReport, LeadingShapeError, NotInvariantError,
                     SolverError, ThetaPolynomial, WContext, WGenerator,
                     WPresentation)
from .modp import (ModularAlgebra, ModularDatum, MoritaReport, ReducedQ,
                   ReducedW, ReductionError, build_reduced_q,
                   check_graded_p_map, check_p_center_acts_zero,
                   check_restrictedness, morita_dim_check,
                   mprime_invariants_check, reduce_datum, reduce_mod_p,
                   reduced_w)
from .presets import PresetError, resolve_nilpotent
from .cli import PipelineConfig, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
