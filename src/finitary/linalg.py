"""Incremental linear independence testing and small vector products.

The equivalence machinery asks one question over and over: does this vector
extend the span of the ones accepted so far?  ``IndependenceTester`` keeps the
accepted vectors in row-echelon form so each query costs one elimination pass,
O(n * rank), instead of refactoring the whole collection.

Exact mode works on integers.  Independence does not change when a vector
is scaled by a nonzero number, so ``integral`` splits an exact vector into
one rational scale and coprime integer coordinates; that scale is the one
``Fraction`` it builds.  ``primitive`` does the same for an integer vector
with an integer content and builds none; the scans call it after every
integer step, and the tester on every all-``int`` candidate, which is
every candidate a scan asks about.  The tester eliminates fraction-free
(Bareiss, Math. Comp. 22, 1968), dividing out the content of the candidate
after every step, and builds no ``Fraction`` while it reduces a candidate;
zero is literal equality.  Float mode treats an entry as zero
when it is negligible relative to the largest pivot accepted so far
(relative tolerance, default 1e-9).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, MODES


def integral(vector, mode: str):
    """``(scale, coords)`` with ``vector == scale * coords``.

    In exact mode ``coords`` are coprime integers and ``scale`` a
    ``Fraction`` (0 for the zero vector); entries may be ``int`` or
    ``Fraction``.  A float vector comes back unchanged with scale 1.0.
    """
    if mode != EXACT:
        return 1.0, vector
    den = lcm(*(x.denominator for x in vector))
    content, coords = primitive([x.numerator * (den // x.denominator)
                                 for x in vector])
    return Fraction(content, den), coords


def primitive(ints):
    """``(content, coords)`` with ``ints == content * coords``: the
    non-negative gcd of an integer vector and its coprime quotient."""
    content = gcd(*ints)
    if content > 1:
        return content, tuple(x // content for x in ints)
    return content, tuple(ints)


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
    candidate.  Pivots are distinct, so at most ``dimension`` vectors are
    accepted; a full tester rejects every candidate without reducing it.
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

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot coordinate of each accepted vector, in acceptance order."""
        return tuple(self._pivots)

    def _reduced_exact(self, vector) -> list:
        if all(type(x) is int for x in vector):
            r = list(primitive(vector)[1])
        else:
            r = list(integral(vector, EXACT)[1])
        for row, p in zip(self._rows, self._pivots):
            x = r[p]
            if x:
                # r <- y*r - x*row with x/y in lowest terms, then divide
                # out the content of r, keeping its entries coprime
                y = row[p]
                g = gcd(x, y)
                if g > 1:
                    x //= g
                    y //= g
                r = [y * a - x * b if b else y * a for a, b in zip(r, row)]
                content = gcd(*r)
                if content > 1:
                    r = [a // content for a in r]
        return r

    def _reduced_float(self, vector) -> list:
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
        if len(self._rows) == self.dimension:
            return False  # ``dimension`` independent vectors span everything
        if self.mode == EXACT:
            r = self._reduced_exact(vector)
            pivot = next((i for i, x in enumerate(r) if x != 0), None)
        else:
            r = self._reduced_float(vector)
            pivot = None
            # a residue left at a taken pivot is rounding noise: never
            # reuse one (the tester is not full, so a free coordinate exists)
            best = max((i for i in range(len(r)) if i not in self._pivots),
                       key=lambda i: abs(r[i]))
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
