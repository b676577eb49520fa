"""Small generating index pair for a process, via breadth-first candidate scan.

The Hankel array of a process has entry p(w v) at row v, column w.  A basis is
a pair of word lists (rows, columns) whose square sub-block has full process
rank.  It is found in three steps:

1. Row candidates grow by prepending one symbol to an accepted word.  A word
   is accepted when its backward vector is independent of those accepted so
   far; acceptance is decided against per-state generator vectors, which can
   overshoot the process rank (unreachable parts of the state space still
   count), so a third step prunes.
2. Column candidates grow by appending one symbol.  A word w is accepted when
   the column (p(w v)) over the accepted rows is independent.  The number of
   accepted columns is exactly the process dimension.  The column is B f_w,
   with f_w the forward vector of w and B the matrix of accepted backward
   vectors, so the test takes one of two routes:
   * full row rank (r = n rows, exact mode): B is invertible, so the
     columns are independent exactly when the forward vectors are, and the
     tester judges f_w itself in Q^n.  It accepts the same words, in the
     same order, and stops at the same point as the other route.
   * otherwise (r < n, or float mode): the tester judges the r pairings
     dot(f_w, b_v), one per accepted row.
3. The rows kept leave a square invertible block, by one rule.  When
   there are as many columns as rows, every row is kept.  Otherwise the
   kept rows are the sorted pivot rows of a tester that judged the block's
   columns: step 2's own tester on the pairing route, or, on the forward
   route, a fresh one fed the pairings of each accepted column.  In exact
   mode a pivot is the first nonzero entry of a reduced column, and each
   reduced column is zero at the pivots found before it, so the number of
   pivots up to row i is the rank of rows 0..i of the accepted columns:
   the pivot rows are exactly the rows independent of their predecessors
   (``reduce_rows``).  In float mode the pivots come from partial
   pivoting; there are always ``dim`` of them, and the tolerance judges
   the block's entries once, in step 2.

Candidates are processed first-in-first-out, created in alphabet order.  The
queue holds (accepted word, symbol) pairs, and a candidate's vector is
asked of the representation by word only when the candidate is popped; a
word's vector is built once, with one matrix-vector product from its
parent's, and the I/J check in ``equivalence`` reads the same vectors.
A scan stops as soon as its tester is full: n independent vectors span all
of Q^n, so every candidate still queued would be rejected (for the column
scan, n is the number of accepted rows).  The row scan still counts those
candidates in ``row_iterations``, which is the number of candidates an
exhaustive scan decides: at most |alphabet| times the representation
dimension.

The scans carry each vector as ``scale * coords`` (``ScaledVector``); in
exact mode the coordinates are coprime integers.  Step 2's pairings are
the integer products dot(coords_w, coords_v), which differ from p(w v) by
one nonzero factor per row and one per column, so every independence test
runs on integers with the same outcome; the forward route judges coords_w,
with about half their bits.  The tester screens each test on residues mod
a word-size prime and confirms only rejections on the integers
(``linalg``), so a scan that fills without a late rejection does almost no
exact elimination.  ``Basis`` keeps only the
words and the scans' scaled vectors: the block is not stored, and each of
its true values, scale_w * scale_v * dot, is built from one column vector
and one row vector when first read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .linalg import IndependenceTester, dot
from .models import Word
from .representation import LinearRepresentation, ScaledVector
from .scalars import DEFAULT_TOLERANCE, EXACT


@dataclass(frozen=True)
class Basis:
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    backwards: tuple[ScaledVector, ...]  # scan vector of each row word
    forwards: tuple[ScaledVector, ...]  # scan vector of each column word
    dim: int
    row_iterations: int  # candidates decided by the row scan

    @cached_property
    def matrix(self) -> tuple:
        """Entry [i][j] = p(col_words[j] + row_words[i]); square."""
        return tuple(tuple(bv.scale * fv.scale * dot(fv.coords, bv.coords)
                           for fv in self.forwards)
                     for bv in self.backwards)


def _scan(tester: IndependenceTester, vector, extend, entry,
          num_symbols: int):
    """Breadth-first scan from the empty word: the accepted vectors and the
    number of candidates decided after the root.

    ``vector(word)`` is the representation's cached vector of a word,
    ``extend(word, a)`` a child candidate's word and ``entry(vector)`` what
    the tester judges.  Once the tester is full the queued candidates are
    counted as decided (rejected) without being built.
    """
    root = vector(())
    if not tester.try_insert(entry(root)):
        return [], 0
    accepted = [root]
    queue = deque(((), a) for a in range(num_symbols))
    decided = 0
    while queue and tester.rank < tester.dimension:
        decided += 1
        candidate = vector(extend(*queue.popleft()))
        if tester.try_insert(entry(candidate)):
            accepted.append(candidate)
            queue.extend((candidate.word, a) for a in range(num_symbols))
    return accepted, decided + len(queue)


def row_generator(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE):
    """Accepted row words with scaled backward vectors, plus the candidate
    count.

    A zero final vector yields no rows: the series is zero.
    """
    backwards, iterations = _scan(
        IndependenceTester(lr.dimension, lr.mode, tolerance),
        lr.scaled_backward, lambda v, a: (a,) + v, lambda bv: bv.coords,
        len(lr.alphabet))
    return [bv.word for bv in backwards], backwards, iterations


def column_basis(lr: LinearRepresentation, row_words, backwards,
                 tolerance: float = DEFAULT_TOLERANCE):
    """Accepted column words with scaled forward vectors, and the indices
    of the rows kept, in scan order, given the row scan output.

    In exact mode with full row rank (as many rows as the representation
    dimension) the matrix B of backward vectors is invertible, so the
    tester judges the forward coordinates themselves.  Otherwise it judges
    column w as dot(forward coords, backward coords) for every row: the
    values p(w v) up to one nonzero factor per row and one per column,
    which leaves the independence of columns (and of rows) unchanged.  A
    square block keeps every row; otherwise the kept rows are the pivot
    rows of a tester that judged the pairings.  The columns are not kept.
    A zero empty-word column yields no columns: the series is zero.
    """
    r = len(row_words)
    full = lr.mode == EXACT and r == lr.dimension
    tester = IndependenceTester(r, lr.mode, tolerance)

    def pairings(fv: ScaledVector) -> tuple:
        return tuple(dot(fv.coords, bv.coords) for bv in backwards)

    forwards, _ = _scan(tester, lr.scaled_forward, lambda w, a: w + (a,),
                        (lambda fv: fv.coords) if full else pairings,
                        len(lr.alphabet))
    if len(forwards) == r:
        keep = list(range(r))
    else:
        if full:
            tester = IndependenceTester(r)
            for fv in forwards:
                tester.try_insert(pairings(fv))
        keep = sorted(tester.pivots)
    return [fv.word for fv in forwards], forwards, keep


def reduce_rows(matrix, mode: str = EXACT,
                tolerance: float = DEFAULT_TOLERANCE) -> list[int]:
    """Indices of rows independent of their predecessors, in scan order.

    In exact mode these are the rows ``column_basis`` keeps.  The library
    does not call it: the tests use it as their reference for the kept
    rows, and ``perfbench/tracing.py`` wraps it.
    """
    if not matrix:
        return []
    tester = IndependenceTester(len(matrix[0]), mode, tolerance)
    return [i for i, row in enumerate(matrix) if tester.try_insert(row)]


def compute_basis(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE) -> Basis:
    row_words, backwards, iterations = row_generator(lr, tolerance)
    col_words, forwards, keep = column_basis(
        lr, row_words, backwards, tolerance)
    return Basis(
        row_words=tuple(row_words[i] for i in keep),
        col_words=tuple(col_words),
        backwards=tuple(backwards[i] for i in keep),
        forwards=tuple(forwards),
        dim=len(col_words),
        row_iterations=iterations,
    )
