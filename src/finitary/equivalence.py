"""Decision procedure: do two parametrizations generate the same process?

Two representations are compared through the basis pair (I, J) of the one
with the larger dimension (x's on a tie): equal dimensions, equal block
entries p(w v), and equal one-step extensions p(w a v) together force the
full processes to coincide.  Both are one comparison of the words w m v,
for w in J, v in I and a middle m: first m empty (the block), then, when
the dimensions are equal, m = a for each symbol.  The column word w is
scanned outermost, then m, then the row word v, which fixes the first
difference found and so the witness.  Each word is compared once, at its
first split (w a v with w a in J or a v in I in the block pass): a later
split was equal, or the check would have returned.  In exact mode every
split of a word gives the same value, so skipping it changes no verdict,
witness or value.  In float mode each split rounds differently and is
judged with a tolerance, so a word is judged at its first split only.
The check runs in O(|alphabet| * n^4) overall and enumerates no words.

In exact mode x's basis is built first, and y's scans run only as far as
the words can depend on them.  y's dimension is at most its state count
n_y, and at most the r_y rows its row scan accepts: those span its
backward vectors B, so d_y = rank(F B) <= r_y.  When either bound is at
most d_x, y's basis could never be the strictly larger one, so x's words
are the words the check would use with both bases built, and the block
pass runs on them before y's column scan (before its row scan too, when
n_y <= d_x).  A block that agrees puts x's invertible d_x x d_x block in
y's Hankel array, so d_y = d_x.  A block that differs builds the rest of
y's basis, on the row scan if it ran, for the reported dimension.  Float
mode builds both bases: under a tolerance an agreeing block bounds no
numerical rank.

Every exact "not equivalent" verdict carries a witness word.  When the
dimensions differ, the larger basis's block is invertible, of rank the
larger dimension, while the other model's values on the same words form a
submatrix of its Hankel array, of rank at most the smaller dimension; so
some block entry differs.
Automata are compared through their acceptance series pi . M_v . F
(Tzeng, SIAM J. Comput. 21(2), 1992), so a witness is a word whose
acceptance probabilities differ.

Every compared value is a product of scaled vectors, p = s * i with a
rational scale s and, in exact mode, an integer dot product i of coprime
coordinates, dot(forward coords, backward coords) on both sides.  The
larger basis supplies only the words, and on each word x's value is
compared with y's, the order of a witness's ``details``.  Every vector
compared, on either side, is read from a vector cache when first
compared, a column w as the forward vector of w and a row m v as the
mirror's forward vector of m v reversed, so a word either scan already
built is not built again.
Two values are compared without forming either: s * i == t * j is tested
as s.num * t.den * i == t.num * s.den * j, with those factors taken once
per row word and once per column word and pass.
``Fraction`` values are built only for a witness's ``details``.  In float
mode the scales are 1.0, so the factors are 1 and the dot products are
compared within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import basis
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


def test_equivalence(lr_x: LinearRepresentation, lr_y: LinearRepresentation,
                     tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Verdict for two representations over the same symbols and mode; y's
    steps are read in x's alphabet order, and a witness is a word over x's.

    In float mode a dimension mismatch whose block entries all agree within
    the tolerance is reported without a witness.
    """
    lr_y = lr_y.in_order_of(lr_x.alphabet)
    if lr_x.mode != lr_y.mode:
        raise ValueError("scalar mode mismatch")
    mode = lr_x.mode

    basis_x = compute_basis(lr_x, tolerance)
    dim_x = basis_x.dim
    # y's scans run only as far as they can change the words (module
    # docstring); without a basis, dim_y <= dim_x
    rows_y = basis_y = None
    if mode == FLOAT:
        basis_y = compute_basis(lr_y, tolerance)
    elif lr_y.dimension > dim_x:
        rows_y = basis.row_generator(lr_y, tolerance)
        if len(rows_y) > dim_x:
            basis_y = basis.basis_from_rows(lr_y, rows_y, tolerance)
    words = (basis_y if basis_y is not None and basis_y.dim > dim_x
             else basis_x)

    def paired(word, rep_x, rep_y):
        """(x's vector, y's vector, f_x, f_y) of a word: with s and t the
        two scales, s * i == t * j iff f_x * i == f_y * j."""
        vx, vy = rep_x.scaled_forward(word), rep_y.scaled_forward(word)
        a, b = vx.scale.as_integer_ratio()
        c, d = vy.scale.as_integer_ratio()
        return vx, vy, a * d, c * b

    rows = {}  # m v -> paired backward vectors, built when first compared
    compared = set()  # every word w m v compared so far, by either pass

    def first_difference(middles):
        """(w, m, w m v, (p_x, p_y)) at the first word w m v on which the
        models differ, or None: w in J outermost, then m in ``middles``,
        then v in I.  A word compared before is skipped: it was equal (in
        float mode, at that split), or the check would have returned."""
        mvs = [(m, m + v) for m in middles for v in words.row_words]
        for w in words.col_words:
            fx, fy, cf_x, cf_y = paired(w, lr_x, lr_y)
            for m, mv in mvs:
                word = w + mv
                if word in compared:
                    continue
                compared.add(word)
                if mv not in rows:
                    rows[mv] = paired(mv[::-1], lr_x.mirror, lr_y.mirror)
                bx, by, rf_x, rf_y = rows[mv]
                i_x = dot(fx.coords, bx.coords)
                i_y = dot(fy.coords, by.coords)
                if not scalars_equal(cf_x * rf_x * i_x, cf_y * rf_y * i_y,
                                     mode, tolerance):
                    return w, m, word, (fx.scale * bx.scale * i_x,
                                        fy.scale * by.scale * i_y)
        return None

    # the block is the empty middle; the one-step extensions need equal
    # dimensions, and the rows m v do not depend on the column word
    found = first_difference([()])
    if basis_y is None and found is not None:
        basis_y = (compute_basis(lr_y, tolerance) if rows_y is None
                   else basis.basis_from_rows(lr_y, rows_y, tolerance))
    # an agreeing block puts x's invertible block in y's Hankel array
    dim_y = dim_x if basis_y is None else basis_y.dim
    same_dim = dim_x == dim_y
    if found is None and same_dim:
        found = first_difference([(a,) for a in range(len(lr_x.alphabet))])
    equivalent = found is None and same_dim
    witness = details = None
    if found is None:
        reason = ALL_CHECKS_PASSED if same_dim else DIMENSION_MISMATCH
    else:
        w, m, witness, details = found
        if m:
            reason = ONE_STEP_MISMATCH
        elif not same_dim:
            reason = DIMENSION_MISMATCH
        elif w == ():
            reason = INITIAL_ROW_MISMATCH
        else:
            reason = BASIC_MATRIX_MISMATCH
    return EquivalenceVerdict(equivalent, reason, witness, details,
                              dim_x, dim_y, lr_x.alphabet, mode,
                              tolerance if mode == FLOAT else None)


def test_equivalence_pfa(pfa_x: PfaModel, pfa_y: PfaModel,
                         tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Automaton equivalence: equal acceptance probability on every word."""
    return test_equivalence(compile_pfa(pfa_x), compile_pfa(pfa_y), tolerance)
