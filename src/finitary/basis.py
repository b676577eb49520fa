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
   accepted columns is exactly the process dimension.
3. Rows whose restriction to the accepted columns is dependent on earlier
   rows are dropped, leaving a square invertible block.

Candidates are processed first-in-first-out, created in alphabet order, and
carry their backward/forward vectors so each extension costs one
matrix-vector product.  The total number of row candidates examined is at
most |alphabet| times the representation dimension.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .linalg import IndependenceTester, dot
from .models import Word
from .representation import BackwardVector, ForwardVector, LinearRepresentation
from .scalars import DEFAULT_TOLERANCE, EXACT


@dataclass(frozen=True)
class Basis:
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    matrix: tuple  # entry [i][j] = p(col_words[j] + row_words[i]), square
    backwards: tuple[BackwardVector, ...]  # per row word
    forwards: tuple[ForwardVector, ...]  # per column word
    dim: int
    row_iterations: int  # candidates examined by the row scan


def row_generator(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE):
    """Accepted row words with backward vectors, plus the candidate count.

    A zero final vector yields no rows: the series is zero.
    """
    tester = IndependenceTester(lr.dimension, lr.mode, tolerance)
    root = BackwardVector((), lr.fin)
    if not tester.try_insert(root.coords):
        return [], [], 0
    words: list[Word] = [()]
    backwards: list[BackwardVector] = [root]
    queue: deque[BackwardVector] = deque(
        lr.extend_backward(a, root) for a in range(len(lr.alphabet)))
    iterations = 0
    while queue:
        iterations += 1
        candidate = queue.popleft()
        if tester.try_insert(candidate.coords):
            words.append(candidate.word)
            backwards.append(candidate)
            queue.extend(lr.extend_backward(a, candidate)
                         for a in range(len(lr.alphabet)))
    return words, backwards, iterations


def column_basis(lr: LinearRepresentation, row_words, backwards,
                 tolerance: float = DEFAULT_TOLERANCE):
    """Accepted column words with forward vectors, given the row scan output.

    A zero empty-word column yields no columns: the series is zero.
    """
    tester = IndependenceTester(len(row_words), lr.mode, tolerance)

    def column(fv: ForwardVector) -> tuple:
        return tuple(dot(fv.coords, bv.coords) for bv in backwards)

    root = ForwardVector((), lr.init)
    if not tester.try_insert(column(root)):
        return [], []
    words: list[Word] = [()]
    forwards: list[ForwardVector] = [root]
    queue: deque[ForwardVector] = deque(
        lr.extend_forward(root, a) for a in range(len(lr.alphabet)))
    while queue:
        candidate = queue.popleft()
        if tester.try_insert(column(candidate)):
            words.append(candidate.word)
            forwards.append(candidate)
            queue.extend(lr.extend_forward(candidate, a)
                         for a in range(len(lr.alphabet)))
    return words, forwards


def reduce_rows(matrix, mode: str = EXACT,
                tolerance: float = DEFAULT_TOLERANCE) -> list[int]:
    """Indices of rows independent of their predecessors, in scan order."""
    if not matrix:
        return []
    tester = IndependenceTester(len(matrix[0]), mode, tolerance)
    return [i for i, row in enumerate(matrix) if tester.try_insert(row)]


def compute_basis(lr: LinearRepresentation,
                  tolerance: float = DEFAULT_TOLERANCE) -> Basis:
    row_words, backwards, iterations = row_generator(lr, tolerance)
    col_words, forwards = column_basis(lr, row_words, backwards, tolerance)
    raw = [[dot(fv.coords, bv.coords) for fv in forwards] for bv in backwards]
    keep = reduce_rows(raw, lr.mode, tolerance)
    if len(keep) != len(col_words):
        # cannot happen in exact mode; a float tolerance judged the same
        # entries inconsistently between the column and row passes
        raise ArithmeticError(
            "row reduction disagrees with column count; "
            "adjust the tolerance for this model")
    return Basis(
        row_words=tuple(row_words[i] for i in keep),
        col_words=tuple(col_words),
        matrix=tuple(tuple(raw[i]) for i in keep),
        backwards=tuple(backwards[i] for i in keep),
        forwards=tuple(forwards),
        dim=len(col_words),
        row_iterations=iterations,
    )
