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

Every compared value is a product of scaled vectors, p = s * i with a
rational scale s and, in exact mode, an integer dot product i of coprime
coordinates.  The big side's block entries are the column scan's integers;
the small model's vectors on the same words are built one step from their
parent word.  Two values are compared without forming either: s * i ==
t * j is tested as s.num * t.den * i == t.num * s.den * j, all integers,
with those factors taken once per row word and once per column word.
``Fraction`` values are built only for a witness's ``details``.  In float
mode the scales are 1.0 and the values themselves are compared within the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import compute_basis
from .linalg import dot
# pfa_to_hmm and compile_hmm are unused here; perfbench/tracing.py wraps them
from .models import Alphabet, PfaModel, Word, pfa_to_hmm  # noqa: F401
from .representation import (LinearRepresentation,  # noqa: F401
                             compile_hmm, compile_pfa)
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

    exact = mode != FLOAT

    def factors(s, t):
        """(f, g) with s * i == t * j iff f * i == g * j."""
        return ((s.numerator * t.denominator, t.numerator * s.denominator)
                if exact else (1, 1))

    def same(f, i, g, j):
        return f * i == g * j if exact else scalars_equal(i, j, mode, tolerance)

    # a kept row's parent word need not be kept itself, so build on demand
    memo_f = {(): lr_small.scaled_forward(())}
    memo_b = {(): lr_small.scaled_backward(())}

    def forward_small(w):
        if w not in memo_f:
            memo_f[w] = lr_small.step_forward(forward_small(w[:-1]), w[-1])
        return memo_f[w]

    def backward_small(v):
        if v not in memo_b:
            memo_b[v] = lr_small.step_backward(v[0], backward_small(v[1:]))
        return memo_b[v]

    forwards_small = [forward_small(w) for w in big.col_words]
    backwards_small = [backward_small(v) for v in big.row_words]

    col_factors = [factors(fb.scale, fs.scale)
                   for fb, fs in zip(big.forwards, forwards_small)]
    row_factors = [factors(bb.scale, bs.scale)
                   for bb, bs in zip(big.backwards, backwards_small)]
    for wi, w in enumerate(big.col_words):
        fs = forwards_small[wi]
        cf_big, cf_small = col_factors[wi]
        for vi, v in enumerate(big.row_words):
            bs = backwards_small[vi]
            rf_big, rf_small = row_factors[vi]
            i_big = big.block[vi][wi]
            i_small = dot(fs.coords, bs.coords)
            if not same(cf_big * rf_big, i_big, cf_small * rf_small, i_small):
                if not same_dim:
                    reason = DIMENSION_MISMATCH
                elif w == ():
                    reason = INITIAL_ROW_MISMATCH
                else:
                    reason = BASIC_MATRIX_MISMATCH
                return verdict(
                    False, reason, w + v,
                    big.backwards[vi].scale * big.forwards[wi].scale * i_big,
                    fs.scale * bs.scale * i_small)
    if not same_dim:
        return verdict(False, DIMENSION_MISMATCH)

    # T[a] . backward(v) does not depend on the column word: build it once
    num_symbols = len(lr_x.alphabet)
    steps_big = [[lr_big.step_backward(a, bv) for bv in big.backwards]
                 for a in range(num_symbols)]
    steps_small = [[lr_small.step_backward(a, bv) for bv in backwards_small]
                   for a in range(num_symbols)]
    step_factors = [[factors(sb.scale, ss.scale) for sb, ss in zip(*pair)]
                    for pair in zip(steps_big, steps_small)]
    for wi, w in enumerate(big.col_words):
        fb, fs = big.forwards[wi], forwards_small[wi]
        cf_big, cf_small = col_factors[wi]
        for a in range(num_symbols):
            for vi, v in enumerate(big.row_words):
                sb, ss = steps_big[a][vi], steps_small[a][vi]
                rf_big, rf_small = step_factors[a][vi]
                i_big = dot(fb.coords, sb.coords)
                i_small = dot(fs.coords, ss.coords)
                if not same(cf_big * rf_big, i_big, cf_small * rf_small,
                            i_small):
                    return verdict(False, ONE_STEP_MISMATCH, w + (a,) + v,
                                   fb.scale * sb.scale * i_big,
                                   fs.scale * ss.scale * i_small)

    return verdict(True, ALL_CHECKS_PASSED)


def test_equivalence_pfa(pfa_x: PfaModel, pfa_y: PfaModel,
                         tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Automaton equivalence: equal acceptance probability on every word."""
    return test_equivalence(compile_pfa(pfa_x), compile_pfa(pfa_y), tolerance)
