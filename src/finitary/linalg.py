"""Incremental linear independence testing and small vector products.

The equivalence machinery asks one question over and over: does this vector
extend the span of the ones accepted so far?  ``IndependenceTester`` keeps the
accepted vectors in row-echelon form so each query costs one elimination pass,
O(n * rank), instead of refactoring the whole collection.

Exact mode works on integers.  Independence does not change when a vector
is scaled by a nonzero number, so ``integral`` splits an exact vector into
one rational scale and coprime integer coordinates; that scale is the one
``Fraction`` it builds.  ``gaussian`` splits a walk's complex entries the
same way, into ``(re, im)`` integer pairs.  ``primitive`` does the same
for an integer vector with an integer content and builds none; the scans
call it after every integer step, and the tester on every vector it
reduces exactly.

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

A scan that cannot fill (a model with a cloned state) would confirm every
late rejection exactly.  Given the scan's generators, a zero remainder at
rank k of n first tries a span certificate, once per rank and only when
(n - k) * n <= k * k, as it costs about (n - k) * |A| * n * n word-size
operations.  The free-column basis Z of the null space of the residue
echelon is lifted by rational reconstruction (bound sqrt(PRIME / 2); ibid.)
to integer pairs (a, b), a = b x mod ``PRIME`` with 0 < b < ``PRIME``,
scaled by the lcm of the b and checked once, in integers: it must kill the
root and be mapped into its own span by every step.  The integer Z is the
residue Z times a unit, so a check mod ``PRIME`` would refuse nothing more.
The lifted Z is the identity on its free columns, so its null space has
dimension k; holding the root and closed under the steps, it holds every
vector of the scan, and the k accepted vectors, independent over Q, span
it.  The tester is then full, for any prime; else the rejection is confirmed.

The exact echelon is fraction-free: each step cross-multiplies the
candidate with a stored row and then divides out the candidate's content
(not the previous pivot), so it builds no ``Fraction`` while it reduces
a candidate; zero is literal equality.  Float mode treats an entry as zero
when it is negligible relative to the largest pivot accepted so far
(relative tolerance, default 1e-9).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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


def gaussian(entries, mode: str):
    """``(scale, pairs)`` with entry ``i == scale * complex(*pairs[i])``:
    ``integral`` of the real and imaginary parts together, so an exact
    walk's entries become Gaussian integers over one denominator."""
    scale, flat = integral([x for z in entries for x in (z.re, z.im)], mode)
    return scale, list(zip(flat[0::2], flat[1::2]))


def times_conj(x, y):
    """``x * conj(y)`` for complex numbers as ``(re, im)`` pairs."""
    return (x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1])


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


def _annihilator(rows, pivots, dimension: int):
    """The free columns of residue rows in echelon form with unit pivots,
    and the free-column basis of their null space mod ``PRIME``: one row
    per free column f, 1 at f and 0 at the other free columns."""
    rows = list(rows)
    for i in range(len(rows) - 1, 0, -1):  # clear pivot columns upwards
        for j in range(i):
            c = rows[j][pivots[i]]
            rows[j] = [(a - c * b) % PRIME for a, b in zip(rows[j], rows[i])]
    row_of = {p: row for p, row in zip(pivots, rows)}
    free = [f for f in range(dimension) if f not in row_of]
    return free, [[-row_of[j][f] % PRIME if j in row_of else int(j == f)
                   for j in range(dimension)] for f in free]


def _rational(x: int):
    """(a, b), b > 0, with a = b x mod ``PRIME``, |a|, b <= sqrt(PRIME / 2)."""
    bound = isqrt(PRIME // 2)
    r0, r1, s0, s1 = PRIME, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) <= bound:  # otherwise there is no such pair: None
        return (r1, s1) if s1 > 0 else (-r1, -s1)


def _closed(free, kernel, scale: int, root, steps) -> bool:
    """Whether z . root is zero and z . M lies in the span of the rows z of
    ``kernel`` (``scale`` at their own free column, 0 at the others), for
    every such z and step M."""
    images = (vec_mat(z, m) for m in steps for z in kernel)
    return (all(dot(z, root) == 0 for z in kernel)
            and all(scale * x == sum(u[f] * z[j] for f, z in
                                     zip(free, kernel))
                    for u in images for j, x in enumerate(u)))


def _certified(rows, pivots, dimension: int, root, steps) -> bool:
    """Whether the span certificate (module docstring) holds."""
    free, kernel = _annihilator(rows, pivots, dimension)
    lifted = [[_rational(x) for x in z] for z in kernel]
    if any(None in z for z in lifted):
        return False
    scale = lcm(*(b for z in lifted for _, b in z))
    kernel = [[a * (scale // b) for a, b in z] for z in lifted]
    return _closed(free, kernel, scale, root, steps)


class IndependenceTester:
    """Grows a set of independent vectors, kept in echelon form.

    Invariant: every stored row has zero entries at all pivot columns of the
    rows stored before it, so one forward elimination pass fully reduces a
    candidate.  Pivots are distinct, so at most ``dimension`` vectors are
    accepted; a full tester rejects every candidate without reducing it.

    In exact mode a candidate is an integer vector (``integral`` splits a
    rational one), and one the screen accepts waits in ``_pending`` until
    the exact echelon is needed (module docstring).  ``generators`` is
    ``(root, steps)`` when every candidate is the column vector ``root``
    times integer matrices in ``steps`` on the left, M v, which a row z
    kills exactly when z M kills v.  A span certificate can then make the
    tester full early.
    """

    def __init__(self, dimension: int, mode: str = EXACT,
                 tolerance: float = DEFAULT_TOLERANCE, generators=None):
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
        self._generators = generators
        self._certificate_rank = -1  # rank of the last certificate tried
        self._spanned = False  # certified: every vector offered is dependent

    @property
    def rank(self) -> int:
        return len(self._rows) + len(self._pending)

    @property
    def full(self) -> bool:
        """Whether every further candidate is known to be dependent."""
        return self._spanned or self.rank == self.dimension

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
        if not self._screen:
            return self._insert_exact(vector)
        if self._screened(vector):
            self._pending.append(vector)
            return True
        k, n = self.rank, self.dimension
        if (self._generators and k != self._certificate_rank
                and (n - k) * n <= k * k):  # once per rank, where cheap
            self._certificate_rank = k
            if _certified(self._residues, self._residue_pivots, n,
                          *self._generators):
                self._spanned = True
                return False
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
        if self.full:
            return False  # the accepted vectors span every candidate
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
