"""Verification toolkit for additive maps that preserve n-th powers."""

import types

from .errors import GuardError
from .freealg import (
    ALPHABET,
    COMMUTATIVE,
    NONCOMMUTATIVE,
    FreePoly,
    ParseError,
    abelianize,
    linear_form,
    parse_expr,
    substitute_linear,
    to_string,
)
from .identities import (
    HIdentity,
    combine,
    evaluate,
    identity_to_string,
    is_homogeneous,
    parse_identity,
    seed,
    substitute,
)
from .derivation import (
    BUILTIN_SCRIPTS,
    Certificate,
    DerivationScript,
    InSpan,
    NotInSpan,
    Trace,
    consequence_check,
    generate_instances,
    replay,
    trace_to_text,
    verify_certificate,
)
from .models import (
    AdditiveMap,
    FiniteRing,
    SearchHit,
    gap_witness_model,
    is_n_jordan,
    is_n_ring,
    make_zm,
    matrix_ring,
    paper_examples,
    ring_from_spec,
    search,
    strict_upper,
)
from .cstar_num import (
    LinearMapC,
    check_corollary_2_6,
    check_theorem_2_7,
    classify_njordan_functionals,
    op_norm_sup,
    sample_batch,
    step2_reduction_check,
)

__version__ = "0.1.0"

# The public API is every name imported above; the submodules are not part of it.
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, types.ModuleType))
)
