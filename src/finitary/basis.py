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
   vectors, so the tester judges the r pairings dot(f_w, b_v), one per
   accepted row.  At full row rank (r = n rows, exact mode) B is
   invertible, so the columns are independent exactly when the forward
   vectors are, and a first scan judges f_w itself in Q^n.  It accepts the
   same words, in the same order, as the pairing scan.  When it fills, the
   block is square; otherwise (a padded model, or states never reached)
   the pairing scan runs on the same cached vectors.
3. The rows kept leave a square invertible block.  A square block keeps
   every row.  Otherwise the kept rows are the sorted pivot rows of the
   pairing scan's tester, which has one pivot per accepted column.  In
   exact mode a pivot is the first nonzero entry of a reduced column, and
   each reduced column is zero at the pivots found before it, so the
   number of pivots up to row i is the rank of rows 0..i of the accepted
   columns: the pivot rows are exactly the rows independent of their
   predecessors (``reduce_rows``).  In float mode the pivots come from
   partial pivoting.

Candidates are processed first-in-first-out: the empty word, then the
|alphabet| children of each accepted word, in alphabet order, each the word
with one symbol appended.  The row scan runs on the mirror representation
(``LinearRepresentation.mirror``), whose forward vector of v reversed is
the backward vector of v, so appending a symbol there prepends it to the
row word.  A candidate's vector is built only when the candidate is
popped, once, with one vector-matrix product from its parent's; the I/J
check in ``equivalence`` reads the same vectors.  A scan stops as soon as
its tester is full, so every candidate still queued would be rejected: n
independent vectors span all of Q^n (Q^r for the column scan, over r
rows), or, in exact mode, the row scan has certified that its vectors span
all it can reach (``linalg``).  Each accepted word queues |alphabet|
candidates: a row scan accepting r <= n rows pops at most 1 + |alphabet| r.

In exact mode the basis is a fact of the process: equivalent models get the
same one.  Scan order is by length, then alphabetical (row words read right
to left).  Each b_v lies in the span of the accepted vectors of words no
later than v (a rejected v by the test, an unqueued a u as M_a times u's
combination), and the Hankel row p(. v) is a fixed linear image of b_v.  So
a column's pairings with the accepted rows fix its whole Hankel column, and
J is the first d words whose Hankel columns are independent of those of the
words before them.  J's columns span all others, so the kept rows are the
row words whose Hankel rows are independent of those of every earlier word.

The scans carry each vector as ``scale * coords`` (``ScaledVector``, a
named tuple ``(word, scale, coords)`` from the representation's cache,
seeded with the root); in exact mode the coordinates are coprime integers.
Step 2's pairings are the integer products dot(coords_w, coords_v), which
differ from p(w v) by one nonzero factor per row and one per column, so
every independence test runs on integers with the same outcome; the
forward route judges coords_w, with about half their bits.  The tester
screens each test on residues mod a word-size prime and confirms only
rejections on the integers (``linalg``), so a scan that fills without a
late rejection does almost no exact elimination.  ``Basis`` keeps only the
scans' scaled vectors, which carry their words: the block is not stored,
and each of its true values, scale_w * scale_v * dot, is built from one
column vector and one row vector when first read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .linalg import IndependenceTester, dot, integral
from .models import Word
from .representation import LinearRepresentation, ScaledVector
from .scalars import DEFAULT_TOLERANCE, EXACT


@dataclass(frozen=True)
class Basis:
    backwards: tuple[ScaledVector, ...]  # scan vector of each row word
    forwards: tuple[ScaledVector, ...]  # scan vector of each column word

    @property
    def row_words(self) -> tuple[Word, ...]:
        return tuple(bv.word for bv in self.backwards)

    @property
    def col_words(self) -> tuple[Word, ...]:
        return tuple(fv.word for fv in self.forwards)

    @property
    def dim(self) -> int:
        return len(self.forwards)

    @cached_property
    def matrix(self) -> tuple:
        """Entry [i][j] = p(col_words[j] + row_words[i]); square."""
        return tuple(tuple(bv.scale * fv.scale * dot(fv.coords, bv.coords)
                           for fv in self.forwards)
                     for bv in self.backwards)


def _scan(tester: IndependenceTester, lr: LinearRepresentation,
          entry) -> list:
    """Breadth-first scan of ``lr``'s cached forward vectors from the empty
    word: the accepted vectors.

    ``entry(vector)`` is what the tester judges, and a child candidate
    appends one symbol to its parent's word.  The scan stops once the
    tester is full; the candidates still queued are never built.
    """
    accepted = []
    queue = deque([()])
    while queue and not tester.full:
        candidate = lr.scaled_forward(queue.popleft())
        if tester.try_insert(entry(candidate)):
            accepted.append(candidate)
            queue.extend(candidate.word + (a,)
                         for a in range(len(lr.alphabet)))
    return accepted


def row_generator(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE) -> list:
    """Scaled backward vectors of the accepted row words, each carrying its
    word: the mirror's forward vectors, relabelled with their words
    reversed.

    A zero final vector yields no rows: the series is zero.
    """
    mirror = lr.mirror
    # span generators (``linalg``): each candidate is its parent times
    # M_a transposed, that is M_a times its parent
    generators = ((mirror.scaled_forward(()).coords,
                   [m for _, m in lr.integer_steps])
                  if lr.mode == EXACT else None)
    accepted = _scan(
        IndependenceTester(lr.dimension, lr.mode, tolerance, generators),
        mirror, lambda bv: bv.coords)
    return [v._replace(word=v.word[::-1]) for v in accepted]


def column_basis(lr: LinearRepresentation, backwards,
                 tolerance: float = DEFAULT_TOLERANCE):
    """Scaled forward vectors of the accepted column words, each carrying
    its word, and the indices of the rows kept, in scan order, given the
    row scan's vectors (steps 2 and 3 of the module docstring).

    A square block keeps every row without reading the tester's pivots:
    in exact mode that would put every screened column through exact
    elimination (``linalg``).  A zero empty-word column yields no
    columns: the series is zero.
    """
    r = len(backwards)

    def scan(entry):
        tester = IndependenceTester(r, lr.mode, tolerance)
        forwards = _scan(tester, lr, entry)
        return forwards, tester

    if lr.mode == EXACT and r == lr.dimension:
        forwards, _ = scan(lambda fv: fv.coords)
        if len(forwards) == r:
            return forwards, list(range(r))
    forwards, tester = scan(
        lambda fv: tuple(dot(fv.coords, bv.coords) for bv in backwards))
    return forwards, (list(range(r)) if len(forwards) == r
                      else sorted(tester.pivots))


def reduce_rows(matrix, mode: str = EXACT,
                tolerance: float = DEFAULT_TOLERANCE) -> list[int]:
    """Indices of rows independent of their predecessors, in scan order.

    In exact mode these are the rows ``column_basis`` keeps.  The library
    does not call it: the tests use it as their reference for the kept
    rows, and ``perfbench/tracing.py`` wraps it.  Each row is split by
    ``integral``, so its entries may be ``Fraction``.
    """
    if not matrix:
        return []
    tester = IndependenceTester(len(matrix[0]), mode, tolerance)
    return [i for i, row in enumerate(matrix)
            if tester.try_insert(integral(row, mode)[1])]


def basis_from_rows(lr: LinearRepresentation, backwards,
                    tolerance: float = DEFAULT_TOLERANCE) -> Basis:
    """The basis of ``lr`` given its row scan's vectors: the column scan
    and the rows it keeps."""
    forwards, keep = column_basis(lr, backwards, tolerance)
    return Basis(tuple(backwards[i] for i in keep), tuple(forwards))


def compute_basis(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE) -> Basis:
    return basis_from_rows(lr, row_generator(lr, tolerance), tolerance)
