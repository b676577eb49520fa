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
    STOP_SYMBOL,
    acceptance_probability,
    pfa_to_hmm,
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
    ProbTable,
    brute_equiv,
    enumerate_probs,
    hankel_rank,
    process_dimension,
)
from .representation import (
    BackwardVector,
    ForwardVector,
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
    "BackwardVector",
    "Basis",
    "BruteResult",
    "BudgetExceededError",
    "ComplexScalar",
    "DEFAULT_TOLERANCE",
    "DIMENSION_MISMATCH",
    "EXACT",
    "EquivalenceVerdict",
    "FLOAT",
    "ForwardVector",
    "HmmModel",
    "INITIAL_ROW_MISMATCH",
    "LinearRepresentation",
    "ModelSyntaxError",
    "ModelValidationError",
    "ONE_STEP_MISMATCH",
    "PfaModel",
    "ProbTable",
    "QrwModel",
    "STOP_SYMBOL",
    "acceptance_probability",
    "brute_equiv",
    "compile_hmm",
    "compile_model",
    "compile_pfa",
    "compile_qrw",
    "compute_basis",
    "enumerate_probs",
    "hankel_rank",
    "parse_model",
    "pfa_to_hmm",
    "process_dimension",
    "serialize_model",
    "test_equivalence",
    "test_equivalence_pfa",
    "validate",
]
