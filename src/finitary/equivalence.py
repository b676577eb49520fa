"""Decision procedure: do two parametrizations generate the same process?

Two representations are compared through the basis pair (I, J) of the one
with the larger dimension (x's on a tie): equal dimensions, equal block
entries p(w v), and equal one-step extensions p(w a v) together force the
full processes to coincide.  The check runs in O(|alphabet| * n^4) overall
and enumerates no words.

Every exact "not equivalent" verdict carries a witness word.  When the
dimensions differ, the larger basis's block is invertible, of rank
dim_big, while the other model's values on the same words form a submatrix
of its Hankel array, of rank at most dim_small; so some block entry differs.
Automata are compared through their acceptance series pi . M_v . F
(Tzeng, SIAM J. Comput. 21(2), 1992), so a witness is a word whose
acceptance probabilities differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import compute_basis
from .linalg import dot
# pfa_to_hmm and compile_hmm are unused here; perfbench/tracing.py wraps them
from .models import Alphabet, PfaModel, Word, pfa_to_hmm  # noqa: F401
from .representation import (LinearRepresentation, compile_hmm,  # noqa: F401
                             compile_pfa)
from .scalars import DEFAULT_TOLERANCE, FLOAT, scalars_equal

DIMENSION_MISMATCH = "dimension-mismatch"
BASIC_MATRIX_MISMATCH = "basic-matrix-mismatch"
INITIAL_ROW_MISMATCH = "initial-row-mismatch"
ONE_STEP_MISMATCH = "one-step-mismatch"
ALL_CHECKS_PASSED = "all-checks-passed"


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    reason: str
    witness: Word | None
    details: tuple | None  # (p_x, p_y) at the witness, when one exists
    dim_x: int
    dim_y: int
    alphabet: Alphabet
    mode: str
    tolerance: float | None  # None in exact mode

    @property
    def within_tolerance(self) -> bool:
        """True when equivalence was decided numerically, not exactly."""
        return self.equivalent and self.tolerance is not None


def test_equivalence(lr_x: LinearRepresentation, lr_y: LinearRepresentation,
                     tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Verdict for two representations over the same alphabet and mode.

    In float mode a dimension mismatch whose block entries all agree within
    the tolerance is reported without a witness.
    """
    if lr_x.alphabet != lr_y.alphabet:
        raise ValueError("alphabet mismatch")
    if lr_x.mode != lr_y.mode:
        raise ValueError("scalar mode mismatch")
    mode = lr_x.mode
    reported_tol = tolerance if mode == FLOAT else None

    basis_x = compute_basis(lr_x, tolerance)
    basis_y = compute_basis(lr_y, tolerance)
    same_dim = basis_x.dim == basis_y.dim
    y_drives = basis_y.dim > basis_x.dim
    big, lr_big, lr_small = ((basis_y, lr_y, lr_x) if y_drives
                             else (basis_x, lr_x, lr_y))

    def verdict(equivalent, reason, witness=None, p_big=None, p_small=None):
        details = None
        if witness is not None:
            details = (p_small, p_big) if y_drives else (p_big, p_small)
        return EquivalenceVerdict(equivalent, reason, witness, details,
                                  basis_x.dim, basis_y.dim, lr_x.alphabet,
                                  mode, reported_tol)

    def eq(x, y):
        return scalars_equal(x, y, mode, tolerance)

    forwards_small = [lr_small.forward(w) for w in big.col_words]
    backwards_small = [lr_small.backward(v) for v in big.row_words]

    for wi, w in enumerate(big.col_words):
        for vi, v in enumerate(big.row_words):
            p_big = big.matrix[vi][wi]
            p_small = dot(forwards_small[wi].coords, backwards_small[vi].coords)
            if not eq(p_big, p_small):
                if not same_dim:
                    reason = DIMENSION_MISMATCH
                elif w == ():
                    reason = INITIAL_ROW_MISMATCH
                else:
                    reason = BASIC_MATRIX_MISMATCH
                return verdict(False, reason, w + v, p_big, p_small)
    if not same_dim:
        return verdict(False, DIMENSION_MISMATCH)

    # T[a] . backward(v) does not depend on the column word: build it once
    num_symbols = len(lr_x.alphabet)
    steps_big = [[lr_big.extend_backward(a, bv).coords for bv in big.backwards]
                 for a in range(num_symbols)]
    steps_small = [[lr_small.extend_backward(a, bv).coords
                    for bv in backwards_small] for a in range(num_symbols)]
    for wi, w in enumerate(big.col_words):
        for a in range(num_symbols):
            for vi, v in enumerate(big.row_words):
                p_big = dot(big.forwards[wi].coords, steps_big[a][vi])
                p_small = dot(forwards_small[wi].coords, steps_small[a][vi])
                if not eq(p_big, p_small):
                    return verdict(False, ONE_STEP_MISMATCH, w + (a,) + v,
                                   p_big, p_small)

    return verdict(True, ALL_CHECKS_PASSED)


def test_equivalence_pfa(pfa_x: PfaModel, pfa_y: PfaModel,
                         tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Automaton equivalence: equal acceptance probability on every word."""
    return test_equivalence(compile_pfa(pfa_x), compile_pfa(pfa_y), tolerance)
