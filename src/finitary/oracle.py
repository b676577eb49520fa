"""Brute-force reference answers for cross-checking the basis machinery.

Everything here enumerates words outright and recomputes products with plain
loops in the model's scalars.  It shares with the candidate-driven scans in
``basis`` only each representation's stored steps ``(scale, M)``, read here as
T[a] = scale * M, and the rank and independence routines of ``linalg``; the
scans' integer vector steps (``step_forward``, ``step_backward``) are never
called.  Exponential in the word length by design, so every entry point takes
an explicit budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .linalg import IndependenceTester, dot, mat_vec, rank, vec_mat
from .models import Word
from .representation import LinearRepresentation
from .scalars import DEFAULT_TOLERANCE, zero

DEFAULT_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    pass


def extend_prefix(lr: LinearRepresentation, row: tuple, a: int) -> tuple:
    """row . T[a], computed as scale * (row . M)."""
    scale, m = lr.integer_steps[a]
    return tuple(scale * x for x in vec_mat(row, m))


def extend_suffix(lr: LinearRepresentation, a: int, col: tuple) -> tuple:
    """T[a] . col, computed as scale * (M . col)."""
    scale, m = lr.integer_steps[a]
    return tuple(scale * x for x in mat_vec(m, col))


def prefix_vector(lr: LinearRepresentation, word: Word) -> tuple:
    """init . T[w1] ... T[wt], the forward vector of ``word``."""
    row = lr.init
    for a in word:
        row = extend_prefix(lr, row, a)
    return row


def suffix_vector(lr: LinearRepresentation, word: Word) -> tuple:
    """T[w1] ... T[wt] . fin, the backward vector of ``word``."""
    col = lr.fin
    for a in reversed(word):
        col = extend_suffix(lr, a, col)
    return col


def _check_budget(num_symbols: int, max_len: int, budget: int, what: str,
                  pairs: bool = False):
    """Raise unless a table of all words up to ``max_len`` (of all pairs
    of them, with ``pairs``) fits ``budget`` entries, counting no further
    than the budget: a full count could run to millions of digits."""
    limit = isqrt(max(budget, 0)) if pairs else budget
    count, length = (max_len + 1, max_len) if num_symbols == 1 else (1, 0)
    while count <= limit and length < max_len:
        length += 1
        count += num_symbols ** length
    if count > limit:
        raise BudgetExceededError(
            f"{what} needs {'at least ' if length < max_len else ''}"
            f"{count * count if pairs else count} entries, budget is {budget}")


def _all_words(num_symbols: int, max_len: int) -> list[Word]:
    words: list[Word] = []
    for t in range(max_len + 1):
        words.extend(itertools.product(range(num_symbols), repeat=t))
    return words


@dataclass(frozen=True)
class ProbTable:
    max_len: int
    entries: dict


def enumerate_probs(lr: LinearRepresentation, max_len: int,
                    budget: int = DEFAULT_BUDGET) -> ProbTable:
    """Word probabilities for every word up to ``max_len``.

    Left-to-right products, one generation of words per length, each
    extending the prefix vectors of the one before; the prefix vector is
    the only reuse.  The entries come in that order, shortlex.
    """
    ns = len(lr.alphabet)
    _check_budget(ns, max_len, budget, "probability table")
    entries: dict = {}
    origin = zero(lr.mode)  # a float table holds floats even where dot is 0
    generation = [((), lr.init)]
    while generation:
        for word, row in generation:
            entries[word] = origin + dot(row, lr.fin)
        generation = [(word + (a,), extend_prefix(lr, row, a))
                      for word, row in generation if len(word) < max_len
                      for a in range(ns)]
    return ProbTable(max_len, entries)


@dataclass(frozen=True)
class BruteResult:
    equal_up_to: bool
    witness: Word | None
    values: tuple | None


def brute_equiv(lr_x: LinearRepresentation, lr_y: LinearRepresentation,
                max_len: int, tolerance: float = 0.0,
                budget: int = DEFAULT_BUDGET) -> BruteResult:
    """Compare every word up to ``max_len``; first difference wins, scanning
    x's table in the order it is built: shorter words first and symbols in
    x's alphabet order.  ``tolerance`` zero means literal equality.  Both
    representations must have the same symbols and the scalar mode, as in
    ``test_equivalence``; words are over x's alphabet."""
    lr_y = lr_y.in_order_of(lr_x.alphabet)
    if lr_x.mode != lr_y.mode:
        raise ValueError("scalar mode mismatch")
    table_x = enumerate_probs(lr_x, max_len, budget)
    table_y = enumerate_probs(lr_y, max_len, budget)
    for word, px in table_x.entries.items():
        py = table_y.entries[word]
        if (px != py) if tolerance == 0.0 else (abs(px - py) > tolerance):
            return BruteResult(False, word, (px, py))
    return BruteResult(True, None, None)


def hankel_rank(lr: LinearRepresentation, max_len: int,
                budget: int = DEFAULT_BUDGET,
                tolerance: float = DEFAULT_TOLERANCE) -> int:
    """Rank of the block with rows and columns both over all words up to
    ``max_len``.  Stabilizes at the process dimension once ``max_len``
    reaches the representation dimension."""
    ns = len(lr.alphabet)
    _check_budget(ns, max_len, budget, "Hankel block", pairs=True)
    words = _all_words(ns, max_len)
    prefix_rows = [prefix_vector(lr, w) for w in words]
    suffix_cols = [suffix_vector(lr, v) for v in words]
    block = [[dot(row, col) for row in prefix_rows] for col in suffix_cols]
    return rank(block, lr.mode, tolerance)


def process_dimension(lr: LinearRepresentation,
                      budget: int = DEFAULT_BUDGET,
                      tolerance: float = DEFAULT_TOLERANCE) -> int:
    """Process dimension by exhaustive span saturation.

    Enumerates whole generations of prefix products (all words of length t,
    not just the independent ones) until one full generation adds nothing to
    the span; the same for suffix products.  A generation that adds nothing
    proves the span complete, because the next generation consists of
    one-step extensions of its members.  The process dimension is then the
    rank of the basis-against-basis pairing, which equals the rank of the
    unbounded Hankel array.
    """
    ns = len(lr.alphabet)
    n = lr.dimension

    def saturate(start, extend):
        tester = IndependenceTester(n, lr.mode, tolerance)
        kept = []
        if tester.try_insert(start):
            kept.append(start)
        generation = [start]
        seen = 1
        while True:
            generation = [extend(vec, a) for vec in generation for a in range(ns)]
            seen += len(generation)
            if seen > budget:
                raise BudgetExceededError(
                    f"span saturation needs more than {budget} vectors")
            added = False
            for vec in generation:
                if tester.try_insert(vec):
                    kept.append(vec)
                    added = True
            if not added:
                return kept

    prefix_basis = saturate(lr.init, lambda vec, a: extend_prefix(lr, vec, a))
    suffix_basis = saturate(lr.fin, lambda vec, a: extend_suffix(lr, a, vec))
    pairing = [[dot(p, s) for p in prefix_basis] for s in suffix_basis]
    return rank(pairing, lr.mode, tolerance)
