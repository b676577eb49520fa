"""Exact equivalence testing for finitary stochastic process models.

Decides whether two parametrizations (hidden Markov models, quantum random
walks, or probabilistic automata) generate the same distribution over
infinite symbol streams, in time polynomial in the representation size.
"""

from .basis import Basis, compute_basis
from .equivalence import (
    ALL_CHECKS_PASSED,
    BASIC_MATRIX_MISMATCH,
    DIMENSION_MISMATCH,
    INITIAL_ROW_MISMATCH,
    ONE_STEP_MISMATCH,
    EquivalenceVerdict,
    test_equivalence,
    test_equivalence_pfa,
)
from .models import (
    Alphabet,
    HmmModel,
    PfaModel,
    QrwModel,
    validate,
)
from .model_io import (
    ModelSyntaxError,
    ModelValidationError,
    parse_model,
    serialize_model,
)
from .oracle import (
    BruteResult,
    BudgetExceededError,
    brute_equiv,
    enumerate_probs,
)
from .representation import (
    LinearRepresentation,
    compile_hmm,
    compile_model,
    compile_pfa,
    compile_qrw,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, ComplexScalar

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS_PASSED",
    "Alphabet",
    "BASIC_MATRIX_MISMATCH",
    "Basis",
    "BruteResult",
    "BudgetExceededError",
    "ComplexScalar",
    "DEFAULT_TOLERANCE",
    "DIMENSION_MISMATCH",
    "EXACT",
    "EquivalenceVerdict",
    "FLOAT",
    "HmmModel",
    "INITIAL_ROW_MISMATCH",
    "LinearRepresentation",
    "ModelSyntaxError",
    "ModelValidationError",
    "ONE_STEP_MISMATCH",
    "PfaModel",
    "QrwModel",
    "brute_equiv",
    "compile_hmm",
    "compile_model",
    "compile_pfa",
    "compile_qrw",
    "compute_basis",
    "enumerate_probs",
    "parse_model",
    "serialize_model",
    "test_equivalence",
    "test_equivalence_pfa",
    "validate",
]
