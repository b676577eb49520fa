"""Brute-force word probabilities and comparisons for the ``oracle`` command.

Everything here enumerates words outright and recomputes products in the
model's scalars, one ``LinearRepresentation.extend_prefix`` per symbol.  It
shares with the candidate-driven scans in ``basis`` only each
representation's stored steps; the scans' integer vector step
(``scaled_forward``, of a representation or of its mirror) is never
called.  Exponential in the word length by design, so every entry point
takes an explicit budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import dot
from .models import Word
from .representation import LinearRepresentation
from .scalars import DEFAULT_TOLERANCE, scalars_equal, zero

DEFAULT_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    pass


def _check_budget(num_symbols: int, max_len: int, budget: int):
    """Raise unless a table of all words up to ``max_len`` fits ``budget``
    entries, counting no further than the budget: a full count could run
    to millions of digits."""
    count, length = (max_len + 1, max_len) if num_symbols == 1 else (1, 0)
    while count <= budget and length < max_len:
        length += 1
        count += num_symbols ** length
    if count > budget:
        raise BudgetExceededError(
            "probability table needs "
            f"{'at least ' if length < max_len else ''}{count} entries, "
            f"budget is {budget}")


def enumerate_probs(lr: LinearRepresentation, max_len: int,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """Word probabilities for every word up to ``max_len``, as a dict from
    word to probability.

    Left-to-right products, one generation of words per length, each
    extending the prefix vectors of the one before; the prefix vector is
    the only reuse.  The entries come in that order, shortlex.
    """
    ns = len(lr.alphabet)
    _check_budget(ns, max_len, budget)
    entries: dict = {}
    origin = zero(lr.mode)  # a float table holds floats even where dot is 0
    generation = [((), lr.init)]
    while generation:
        for word, row in generation:
            entries[word] = origin + dot(row, lr.fin)
        generation = [(word + (a,), lr.extend_prefix(row, a))
                      for word, row in generation if len(word) < max_len
                      for a in range(ns)]
    return entries


@dataclass(frozen=True)
class BruteResult:
    equal_up_to: bool
    witness: Word | None
    values: tuple | None


def brute_equiv(lr_x: LinearRepresentation, lr_y: LinearRepresentation,
                max_len: int, tolerance: float = DEFAULT_TOLERANCE,
                budget: int = DEFAULT_BUDGET) -> BruteResult:
    """Compare every word up to ``max_len``; first difference wins, scanning
    x's table in the order it is built: shorter words first and symbols in
    x's alphabet order.  Values compare by ``scalars_equal``: literal
    equality in exact mode, within ``tolerance`` in float mode.  Both
    representations must have the same symbols and the scalar mode, as in
    ``test_equivalence``; words are over x's alphabet."""
    lr_y = lr_y.in_order_of(lr_x.alphabet)
    if lr_x.mode != lr_y.mode:
        raise ValueError("scalar mode mismatch")
    table_x = enumerate_probs(lr_x, max_len, budget)
    table_y = enumerate_probs(lr_y, max_len, budget)
    for word, px in table_x.items():
        py = table_y[word]
        if not scalars_equal(px, py, lr_x.mode, tolerance):
            return BruteResult(False, word, (px, py))
    return BruteResult(True, None, None)
