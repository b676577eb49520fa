"""Linear word-series form shared by every model class.

A representation is an initial row vector, one square step matrix per symbol,
and a final column vector; the probability of a word is the product

    p(v) = init . T[v1] . T[v2] ... T[vt] . fin

Hidden Markov models and automata land here directly; an automaton's p(v) is
its probability of reading v and then stopping.  Quantum walks need two
twists:

* The walk acts on self-adjoint k x k matrices (collapse of Q by the step
  operator for symbol a is (PaU) Q (PaU)*, with Pa the projection onto the
  coordinates labeled a).  That space is realized with n = k*k real
  coordinates: Re Q[m1,m2] for m1 <= m2, then Im Q[m1,m2] for m1 < m2, rows
  scanned top to bottom.  In these coordinates the trace functional and the
  density matrix of the initial wave become plain real vectors, and each step
  operator becomes a real n x n matrix.
* The step operators compose against the letter order (the last letter acts
  outermost), so the stored per-symbol matrices are the transposes of the
  coordinate matrices; the reversal is then absorbed by reading the product
  left to right as above.

A representation stores one step per symbol as ``(scale, M)`` with
T[a] = scale * M: in exact mode M is a coprime integer matrix and scale a
``Fraction``; in float mode scale is 1.0 and M is T[a] itself.  That is its
only stored form, and one routine, ``_step``, builds it: the rows of T[a]
come as rational weights times integer rows, and the whole matrix is split
once, by the rule ``linalg.integral`` applies to a vector.  ``compile_hmm``
and ``compile_pfa`` pass the numerators of the model's row laws (see
``models``) as those rows, so in exact mode the ``Fraction``s they build
are one scale per symbol and the entries of init and fin.  ``compile_qrw``
takes U and psi0 as the walk split them once each with ``linalg.gaussian``
(``QrwModel.split``): ``(re, im)`` pairs, Gaussian integers over one
denominator in exact mode and the floats themselves in float mode.  It
builds the coordinates of the one conjugation Q -> U Q U* from products
of those pairs, once, and each T[a] is that conjugation with every
coordinate not labeled a on both sides cleared: the square of U's scale
times an integer matrix, with no complex rational multiplied.

A forward vector (init times a prefix product) and a backward vector (a
suffix product times fin) extend by one symbol in O(n^2) and pair up via
p(w a v) = forward(w) . T[a] . backward(v).  The backward vector of v is
the forward vector of v reversed in the mirror representation ``mirror``,
(fin, T[a] transposed, init), whose series is p(v reversed) (Berstel &
Reutenauer, *Noncommutative Rational Series with Applications*, CUP 2011).
The basis scans and the equivalence check read them as ``ScaledVector``s,
named tuples ``(word, scale, coords)`` equal to ``scale * coords``, with
coprime integer coordinates in exact mode: one step multiplies the
integer coordinates by M, divides out their content and builds one
``Fraction``, the new scale.  Float vectors carry scale 1.0.  A cache
seeded with the root keeps each word's vector; ``scaled_forward`` builds
it once, one step from the word one symbol shorter, and no other route
steps a scaled vector.
``prob`` and ``prob_bilinear`` instead compute in the model's scalars
straight from the stored steps and never reduce a vector;
``extend_prefix`` is that step for a row, ``scale * (row . M)``, and
``oracle``'s probability tables take it too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .linalg import dot, integral, primitive, times_conj, vec_mat
from .models import HmmModel, Model, PfaModel, QrwModel, Word
from .scalars import EXACT, one, zero


class ScaledVector(NamedTuple):
    """A forward or backward vector equal to ``scale * coords``."""
    word: Word
    scale: object
    coords: tuple


@dataclass(frozen=True)
class LinearRepresentation:
    alphabet: object
    integer_steps: tuple  # per symbol (scale, M) with T[a] == scale * M
    init: tuple
    fin: tuple
    mode: str

    def in_order_of(self, alphabet) -> "LinearRepresentation":
        """This representation with its steps in ``alphabet``'s symbol
        order: itself, cache and all, when the order is already that one."""
        if alphabet == self.alphabet:
            return self
        if set(alphabet.symbols) != set(self.alphabet.symbols):
            raise ValueError("alphabet mismatch")
        return replace(self, alphabet=alphabet, integer_steps=tuple(
            self.integer_steps[self.alphabet.index(s)]
            for s in alphabet.symbols))

    @cached_property
    def _forwards(self) -> dict:
        """word -> ScaledVector, seeded with the root; not a field, so
        ``dataclasses.replace`` starts a fresh one."""
        return {(): ScaledVector((), *integral(self.init, self.mode))}

    @cached_property
    def mirror(self) -> "LinearRepresentation":
        """The mirror representation (fin, T[a] transposed, init): its
        forward vector of v reversed is the backward vector of v.  Not a
        field, so ``dataclasses.replace`` starts without one."""
        return LinearRepresentation(
            self.alphabet,
            tuple((s, tuple(zip(*m))) for s, m in self.integer_steps),
            self.fin, self.init, self.mode)

    @property
    def dimension(self) -> int:
        return len(self.init)

    def _symbol(self, a: int) -> int:
        if not 0 <= a < len(self.integer_steps):
            raise ValueError(f"symbol index out of range: {a}")
        return a

    def extend_prefix(self, row: tuple, a: int) -> tuple:
        """row . T[a] in the model's scalars, computed as scale * (row . M)."""
        scale, m = self.integer_steps[self._symbol(a)]
        return tuple(scale * x for x in vec_mat(row, m))

    def prob(self, word: Word):
        row = self.init
        for a in word:
            row = self.extend_prefix(row, a)
        # ``dot`` skips zero terms, so an all-zero sum is the integer 0
        return zero(self.mode) + dot(row, self.fin)

    def scaled_forward(self, word: Word) -> ScaledVector:
        """The forward vector of ``word``, from the cache: a word missing
        there is built by one step from the cached vector of ``word[:-1]``."""
        cache = self._forwards
        end = len(word)
        while word[:end] not in cache:
            end -= 1
        sv = cache[word[:end]]
        for a in word[end:]:
            step_scale, m = self.integer_steps[self._symbol(a)]
            scale, coords = 1.0, vec_mat(sv.coords, m)
            if self.mode == EXACT:
                content, coords = primitive(coords)
                scale = Fraction(
                    sv.scale.numerator * step_scale.numerator * content,
                    sv.scale.denominator * step_scale.denominator)
            sv = ScaledVector(sv.word + (a,), scale, coords)
            cache[sv.word] = sv
        return sv

    def prob_bilinear(self, row: tuple, a: int | None, col: tuple):
        """p(w a v) from the prefix row init . T[w] and the suffix column
        T[v] . fin, or p(w v) when there is no middle symbol."""
        self._check(row)
        self._check(col)
        if a is None:
            return dot(row, col)
        scale, m = self.mirror.integer_steps[self._symbol(a)]
        return scale * dot(row, vec_mat(col, m))

    def _check(self, coords):
        if len(coords) != self.dimension:
            raise ValueError(
                f"vector length {len(coords)} does not match representation "
                f"dimension {self.dimension}")


def _step(rows, mode: str):
    """``(scale, M)`` for the matrix whose row i is ``num / den * r`` for
    ``rows[i] == (num, den, r)``, ``r`` any integers in exact mode: the
    rows go over the lcm of the ``den``, and the whole matrix is split once
    by ``primitive``, the rule ``integral`` applies to a vector.  In float
    mode scale is 1.0 and row i is ``num * r``."""
    if mode != EXACT:
        return 1.0, tuple([tuple([num * x for x in r]) for num, _, r in rows])
    common = lcm(*[den for _, den, _ in rows])
    weights = [num * (common // den) for num, den, _ in rows]
    content, flat = primitive([w * x for w, (_, _, r) in zip(weights, rows)
                               for x in r])
    width = len(flat) // len(rows)
    return Fraction(content, common), tuple([
        flat[i:i + width] for i in range(0, len(flat), width)])


def compile_hmm(hmm: HmmModel) -> LinearRepresentation:
    """T[a][i][j] = E[i][a] * M[i][j]: row i of T[a] is the numerators of
    M's row law times E[i][a]'s, over the product of the two laws'
    denominators.  In exact mode the only ``Fraction``s built are the |A|
    scales, the entries of pi and fin's 1."""
    mode = hmm.mode
    _, transition, emission = hmm.laws
    steps = tuple(
        _step([(e_nums[a], e_den * den, nums)
               for (e_den, e_nums), (den, nums) in zip(emission, transition)],
              mode)
        for a in range(len(hmm.alphabet)))
    fin = (one(mode),) * hmm.num_states
    return LinearRepresentation(hmm.alphabet, steps, hmm.initial, fin, mode)


def compile_pfa(pfa: PfaModel) -> LinearRepresentation:
    """The acceptance series pi . M_v . F: the probability of reading v and
    then stopping (Tzeng, SIAM J. Comput. 21(2), 1992).  Row i of M_a is a
    slice of the numerators of state i's law, over its denominator."""
    n = pfa.num_states
    _, states = pfa.laws
    steps = tuple(
        _step([(1, den, nums[1 + a * n:1 + (a + 1) * n])
               for den, nums in states], pfa.mode)
        for a in range(len(pfa.alphabet)))
    return LinearRepresentation(pfa.alphabet, steps, pfa.initial,
                                pfa.final, pfa.mode)


def compile_qrw(qrw: QrwModel) -> LinearRepresentation:
    """Row j of T[a] holds the coordinates of Pa U E_j U* Pa for the basis
    element j = (m1, m2).  U E_j U* is x y* + y x*, with x and y columns
    m1 and m2 of U: x x* alone for a diagonal Re element, and i x in place
    of x for an Im element.  These rows are built once, and T[a] is them
    with each coordinate (p, q) cleared unless both p and q are labeled a.
    U and psi0 come split by ``gaussian`` (``qrw.split``), so in exact
    mode every product is of integers and T[a] is u_scale**2 times an
    integer matrix."""
    k = qrw.num_coordinates
    mode = qrw.mode
    re_pairs = [(m1, m2) for m1 in range(k) for m2 in range(m1, k)]
    im_pairs = [(m1, m2) for m1 in range(k) for m2 in range(m1 + 1, k)]
    (u_scale, u), (w_scale, wave) = qrw.split

    def coords(x, y):
        """Coordinates of x y* + y x*, or of x x* when y is x."""
        h = {}
        for p, q in re_pairs:
            re, im = times_conj(x[p], y[q])
            if y is not x:
                re2, im2 = times_conj(y[p], x[q])
                re, im = re + re2, im + im2
            h[p, q] = re, im
        return [h[pq][0] for pq in re_pairs] + [h[pq][1] for pq in im_pairs]

    cols = [u[m::k] for m in range(k)]
    rows = [coords(cols[m1], cols[m2]) for m1, m2 in re_pairs]
    rows += [coords([(-im, re) for re, im in cols[m1]], cols[m2])
             for m1, m2 in im_pairs]
    labels = qrw.labels
    u2 = u_scale ** 2
    steps = []
    for a in range(len(qrw.alphabet)):
        # Pa Q Pa keeps coordinate (p, q) when p and q are both labeled a
        kept = [labels[p] == a == labels[q] for p, q in re_pairs + im_pairs]
        scale, m = _step([(1, 1, [x if on else 0 for x, on in zip(row, kept)])
                          for row in rows], mode)
        steps.append((u2 * scale, m))

    w2 = w_scale ** 2
    init = tuple(w2 * x for x in coords(wave, wave))
    fin = tuple(one(mode) if m1 == m2 else zero(mode)
                for (m1, m2) in re_pairs) + tuple(zero(mode) for _ in im_pairs)
    return LinearRepresentation(qrw.alphabet, tuple(steps), init, fin, mode)


def compile_model(model: Model) -> LinearRepresentation:
    """Any model to its word-series form: word probabilities for hidden
    Markov models and walks, acceptance probabilities for automata."""
    if isinstance(model, HmmModel):
        return compile_hmm(model)
    if isinstance(model, QrwModel):
        return compile_qrw(model)
    if isinstance(model, PfaModel):
        return compile_pfa(model)
    raise TypeError(f"not a model: {type(model).__name__}")
