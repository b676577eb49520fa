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

Every exact "not equivalent" verdict carries a witness word.  When the
dimensions differ, the larger basis's block is invertible, of rank
dim_big, while the other model's values on the same words form a submatrix
of its Hankel array, of rank at most dim_small; so some block entry differs.
Automata are compared through their acceptance series pi . M_v . F
(Tzeng, SIAM J. Comput. 21(2), 1992), so a witness is a word whose
acceptance probabilities differ.

Every compared value is a product of scaled vectors, p = s * i with a
rational scale s and, in exact mode, an integer dot product i of coprime
coordinates, dot(forward coords, backward coords) on both sides.  The big
basis contributes only its words: every vector compared, on either side,
is read from a vector cache when first compared, a column w as the forward
vector of w and a row m v as the mirror's forward vector of m v reversed,
so a word either scan already built is not built again.
Two values are compared without forming either: s * i == t * j is tested
as s.num * t.den * i == t.num * s.den * j, with those factors taken once
per row word and once per column word and pass.
``Fraction`` values are built only for a witness's ``details``.  In float
mode the scales are 1.0, so the factors are 1 and the dot products are
compared within the tolerance.
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

    def factors(s, t):
        """(f, g) with s * i == t * j iff f * i == g * j."""
        (a, b), (c, d) = s.as_integer_ratio(), t.as_integer_ratio()
        return a * d, c * b

    def same(f, i, g, j):
        return scalars_equal(f * i, g * j, mode, tolerance)

    def paired(word, scaled_big, scaled_small):
        """(big vector, small vector, factors) of a word."""
        vb, vs = scaled_big(word), scaled_small(word)
        return vb, vs, factors(vb.scale, vs.scale)

    rows = {}  # m v -> paired backward vectors, built when first compared
    compared = set()  # every word w m v compared so far, by either pass

    def first_difference(middles):
        """(w, m, w m v, p_big, p_small) at the first word w m v on which
        the models differ, or None: w in J outermost, then m in
        ``middles``, then v in I.  A word compared before is skipped: it
        was equal (in float mode, at that split), or the check would have
        returned."""
        mvs = [(m, m + v) for m in middles for v in big.row_words]
        for w in big.col_words:
            fb, fs, (cf_big, cf_small) = paired(
                w, lr_big.scaled_forward, lr_small.scaled_forward)
            for m, mv in mvs:
                word = w + mv
                if word in compared:
                    continue
                compared.add(word)
                if mv not in rows:
                    rows[mv] = paired(mv[::-1], lr_big.mirror.scaled_forward,
                                      lr_small.mirror.scaled_forward)
                bb, bs, (rf_big, rf_small) = rows[mv]
                i_big = dot(fb.coords, bb.coords)
                i_small = dot(fs.coords, bs.coords)
                if not same(cf_big * rf_big, i_big, cf_small * rf_small,
                            i_small):
                    return (w, m, word, fb.scale * bb.scale * i_big,
                            fs.scale * bs.scale * i_small)
        return None

    # the block is the empty middle; the one-step extensions need equal
    # dimensions, and the rows m v do not depend on the column word
    found = first_difference([()])
    if found is None and same_dim:
        found = first_difference([(a,) for a in range(len(lr_x.alphabet))])
    if found is None:
        return verdict(same_dim,
                       ALL_CHECKS_PASSED if same_dim else DIMENSION_MISMATCH)
    w, m, witness, p_big, p_small = found
    if m:
        reason = ONE_STEP_MISMATCH
    elif not same_dim:
        reason = DIMENSION_MISMATCH
    elif w == ():
        reason = INITIAL_ROW_MISMATCH
    else:
        reason = BASIC_MATRIX_MISMATCH
    return verdict(False, reason, witness, p_big, p_small)


def test_equivalence_pfa(pfa_x: PfaModel, pfa_y: PfaModel,
                         tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceVerdict:
    """Automaton equivalence: equal acceptance probability on every word."""
    return test_equivalence(compile_pfa(pfa_x), compile_pfa(pfa_y), tolerance)
