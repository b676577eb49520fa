"""Incremental linear independence testing and small vector products.

The equivalence machinery asks one question over and over: does this vector
extend the span of the ones accepted so far?  ``IndependenceTester`` keeps the
accepted vectors in row-echelon form so each query costs one elimination pass,
O(n * rank), instead of refactoring the whole collection.

Exact mode decides zero by literal equality.  Float mode treats an entry as
zero when it is negligible relative to the largest pivot accepted so far
(relative tolerance, default 1e-9).
"""

from __future__ import annotations

from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, MODES


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    total = 0
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vec_mat(v, m):
    """Row vector times matrix."""
    if len(v) != len(m):
        raise ValueError(f"vector length {len(v)} does not match {len(m)} rows")
    width = len(m[0]) if m else 0
    out = [0] * width
    for vi, row in zip(v, m):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] = out[j] + vi * x
    return tuple(out)


def mat_vec(m, v):
    """Matrix times column vector."""
    if m and len(m[0]) != len(v):
        raise ValueError(f"vector length {len(v)} does not match {len(m[0])} columns")
    return tuple(dot(row, v) for row in m)


class IndependenceTester:
    """Grows a set of independent vectors, kept in echelon form.

    Invariant: every stored row has zero entries at all pivot columns of the
    rows stored before it, so one forward elimination pass fully reduces a
    candidate.
    """

    def __init__(self, dimension: int, mode: str = EXACT,
                 tolerance: float = DEFAULT_TOLERANCE):
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        if mode not in MODES:
            raise ValueError(f"unknown scalar mode: {mode!r}")
        self.dimension = dimension
        self.mode = mode
        self.tolerance = tolerance
        self._rows: list[list] = []
        self._pivots: list[int] = []
        self._scale = 0.0  # largest |pivot| accepted, float mode only

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduced(self, vector) -> list:
        r = list(vector)
        for row, p in zip(self._rows, self._pivots):
            factor = r[p] / row[p]
            if factor:
                for j, x in enumerate(row):
                    if x:
                        r[j] = r[j] - factor * x
        return r

    def try_insert(self, vector) -> bool:
        """Insert if independent of the accepted set; report whether it was."""
        if len(vector) != self.dimension:
            raise ValueError(
                f"vector has length {len(vector)}, expected {self.dimension}")
        r = self._reduced(vector)
        if self.mode == EXACT:
            pivot = next((i for i, x in enumerate(r) if x != 0), None)
        else:
            pivot = None
            if r:
                best = max(range(len(r)), key=lambda i: abs(r[i]))
                magnitude = abs(r[best])
                reference = self._scale
                if reference == 0.0:
                    reference = max((abs(x) for x in vector), default=0.0)
                if reference > 0.0 and magnitude > self.tolerance * reference:
                    pivot = best
        if pivot is None:
            return False
        self._rows.append(r)
        self._pivots.append(pivot)
        if self.mode == FLOAT:
            self._scale = max(self._scale, abs(r[pivot]))
        return True


def rank(matrix, mode: str = EXACT, tolerance: float = DEFAULT_TOLERANCE) -> int:
    rows = [tuple(r) for r in matrix]
    if not rows:
        return 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    tester = IndependenceTester(width, mode, tolerance)
    for r in rows:
        tester.try_insert(r)
    return tester.rank
