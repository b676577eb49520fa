"""Independent reference routes to a representation's process dimension.

These are the routes the acceptance criteria and the unit tests compare the
basis algorithm against, and they are exponential by design: ``hankel_rank``
takes the rank of the literal block of all words up to a length against all
words up to that length, and ``process_dimension`` enumerates whole
generations of prefix and suffix products until one adds nothing to the span.
They recompute products with plain loops in the model's scalars, reading each
representation's stored steps ``(scale, M)`` as T[a] = scale * M, and share
with the scans only ``IndependenceTester``; the scans' integer vector steps
(``scaled_forward``, ``scaled_backward``) are never called.
"""

import itertools
from math import isqrt

from finitary.linalg import IndependenceTester, dot, integral, mat_vec
from finitary.models import Word
from finitary.oracle import DEFAULT_BUDGET, BudgetExceededError
from finitary.representation import LinearRepresentation
from finitary.scalars import DEFAULT_TOLERANCE, EXACT


def extend_suffix(lr: LinearRepresentation, a: int, col: tuple) -> tuple:
    """T[a] . col, computed as scale * (M . col)."""
    scale, m = lr.integer_steps[a]
    return tuple(scale * x for x in mat_vec(m, col))


def prefix_vector(lr: LinearRepresentation, word: Word) -> tuple:
    """init . T[w1] ... T[wt], the forward vector of ``word``."""
    row = lr.init
    for a in word:
        row = lr.extend_prefix(row, a)
    return row


def suffix_vector(lr: LinearRepresentation, word: Word) -> tuple:
    """T[w1] ... T[wt] . fin, the backward vector of ``word``."""
    col = lr.fin
    for a in reversed(word):
        col = extend_suffix(lr, a, col)
    return col


def _all_words(num_symbols: int, max_len: int) -> list[Word]:
    words: list[Word] = []
    for t in range(max_len + 1):
        words.extend(itertools.product(range(num_symbols), repeat=t))
    return words


def rank(matrix, mode: str = EXACT, tolerance: float = DEFAULT_TOLERANCE) -> int:
    rows = [tuple(r) for r in matrix]
    if not rows:
        return 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    tester = IndependenceTester(width, mode, tolerance)
    for r in rows:
        tester.try_insert(integral(r, mode)[1])
    return tester.rank


def hankel_rank(lr: LinearRepresentation, max_len: int,
                budget: int = DEFAULT_BUDGET,
                tolerance: float = DEFAULT_TOLERANCE) -> int:
    """Rank of the block with rows and columns both over all words up to
    ``max_len``.  Stabilizes at the process dimension once ``max_len``
    reaches the representation dimension."""
    ns = len(lr.alphabet)
    # the block has an entry per pair of words, so it fits the budget when
    # the words number at most its square root; count no further than that
    limit = isqrt(max(budget, 0))
    count, length = (max_len + 1, max_len) if ns == 1 else (1, 0)
    while count <= limit and length < max_len:
        length += 1
        count += ns ** length
    if count > limit:
        raise BudgetExceededError(
            f"Hankel block needs {'at least ' if length < max_len else ''}"
            f"{count * count} entries, budget is {budget}")
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

        def insert(vec):
            return tester.try_insert(integral(vec, lr.mode)[1])

        kept = []
        if insert(start):
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
                if insert(vec):
                    kept.append(vec)
                    added = True
            if not added:
                return kept

    prefix_basis = saturate(lr.init, lr.extend_prefix)
    suffix_basis = saturate(lr.fin, lambda vec, a: extend_suffix(lr, a, vec))
    pairing = [[dot(p, s) for p in prefix_basis] for s in suffix_basis]
    return rank(pairing, lr.mode, tolerance)
