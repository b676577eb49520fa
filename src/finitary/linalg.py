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
integer step, and the tester on every vector it reduces exactly.

The exact tester screens each candidate mod ``PRIME``.  It keeps the
residues of the accepted vectors in echelon form with unit pivots and
reduces the candidate's residues against them.  A nonzero remainder proves
independence over Q: the residues of the accepted vectors and the candidate
then have a minor that is nonzero mod ``PRIME``, so the same minor of the
integer vectors is a nonzero integer (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 5).  Such a candidate is accepted at once and waits
for the exact echelon.  A zero remainder proves nothing, so the tester
first puts the waiting vectors into the exact echelon and then reduces the
candidate there, which decides it.  Reading ``pivots`` also puts them in, so
``pivots``, ``rank`` and every answer are exact.  When the exact reduction
accepts a candidate whose remainder was zero, the prime divides a nonzero
minor (an unlucky prime).  The accepted residues are then dependent, so a
remainder would prove nothing: the tester drops the screen and decides
every later candidate exactly.
A scan whose candidates are independent until it fills, as a full-rank
scan's are after its first few words, then does no exact elimination.

The exact echelon is fraction-free (Bareiss, Math. Comp. 22, 1968): the
tester divides out the content of the candidate after every step and
builds no ``Fraction`` while it reduces a candidate; zero is literal
equality.  Float mode treats an entry as zero when it is negligible
relative to the largest pivot accepted so far (relative tolerance, default
1e-9).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import DEFAULT_TOLERANCE, EXACT, MODES

PRIME = 1073741789  # the largest prime below 2**30: a residue is one digit


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
    # a plain left-to-right sum: from Python 3.12 the builtin ``sum``
    # compensates float rounding, so it would make float output depend on
    # the Python version
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

    In exact mode a candidate is first reduced mod ``PRIME`` against an
    echelon form of residues with unit pivots.  A nonzero remainder accepts
    it at once, and it waits in ``_pending`` until the exact echelon is
    needed: by a zero remainder, which an exact reduction must confirm, or
    by a read of ``pivots``.
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
        # exact mode only: accepted vectors not yet in ``_rows``, and the
        # echelon form of the residues of every accepted vector while the
        # screen is on
        self._pending: list = []
        self._residues: list[list[int]] = []
        self._residue_pivots: list[int] = []
        self._screen = mode == EXACT

    @property
    def rank(self) -> int:
        return len(self._rows) + len(self._pending)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot coordinate of each accepted vector, in acceptance order."""
        self._catch_up()
        return tuple(self._pivots)

    def _screened(self, vector) -> bool:
        """Whether the residues of an integer vector mod ``PRIME`` are
        independent of those accepted so far; if so they are stored."""
        prime = PRIME
        r = [x % prime for x in vector]
        for row, p in zip(self._residues, self._residue_pivots):
            c = r[p] % prime
            if c:
                # entries stay below rank * prime**2 in size; reduce once
                r = [a - c * b for a, b in zip(r, row)]
        r = [a % prime for a in r]
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        inverse = pow(r[pivot], -1, prime)
        self._residues.append([a * inverse % prime for a in r])
        self._residue_pivots.append(pivot)
        return True

    def _reduced_exact(self, vector) -> list:
        r = list(primitive(vector)[1])
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

    def _insert_exact(self, vector) -> bool:
        r = self._reduced_exact(vector)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        self._rows.append(r)
        self._pivots.append(pivot)
        return True

    def _catch_up(self) -> None:
        """Put the vectors the screen accepted into the exact echelon, in
        acceptance order; each is accepted, since the screen proved them
        independent."""
        pending, self._pending = self._pending, []
        for vector in pending:
            self._insert_exact(vector)

    def _try_exact(self, vector) -> bool:
        if not all(type(x) is int for x in vector):
            vector = integral(vector, EXACT)[1]
        if not self._screen:
            return self._insert_exact(vector)
        if self._screened(vector):
            self._pending.append(vector)
            return True
        self._catch_up()
        if not self._insert_exact(vector):
            return False
        # dependent mod PRIME but not over Q: PRIME divides a nonzero minor.
        # The accepted residues are now dependent, so a nonzero remainder
        # would no longer prove independence; decide exactly from here on
        self._screen = False
        return True

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
        if self.rank == self.dimension:
            return False  # ``dimension`` independent vectors span everything
        if self.mode == EXACT:
            return self._try_exact(vector)
        r = self._reduced_float(vector)
        # a residue left at a taken pivot is rounding noise: never reuse one
        # (the tester is not full, so a free coordinate exists)
        best = max((i for i in range(len(r)) if i not in self._pivots),
                   key=lambda i: abs(r[i]))
        magnitude = abs(r[best])
        reference = self._scale
        if reference == 0.0:
            reference = max((abs(x) for x in vector), default=0.0)
        if not (reference > 0.0 and magnitude > self.tolerance * reference):
            return False
        self._rows.append(r)
        self._pivots.append(best)
        self._scale = max(self._scale, magnitude)
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
