"""Linear word-series form shared by every model class.

A representation is an initial row vector, one square step matrix per symbol,
and a final column vector; the probability of a word is the product

    p(v) = init . T[v1] . T[v2] ... T[vt] . fin

Hidden Markov models land here directly.  Quantum walks need two twists:

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

Forward vectors (init times a prefix product) and backward vectors (a suffix
product times fin) extend by one symbol in O(n^2) and pair up via
p(w a v) = forward(w) . T[a] . backward(v).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import dot, mat_vec, vec_mat
from .models import HmmModel, Model, PfaModel, QrwModel, Word, pfa_to_hmm
from .scalars import ComplexScalar, complex_i, one, zero


@dataclass(frozen=True)
class ForwardVector:
    word: Word
    coords: tuple


@dataclass(frozen=True)
class BackwardVector:
    word: Word
    coords: tuple


@dataclass(frozen=True)
class LinearRepresentation:
    alphabet: object
    matrices: tuple  # one n x n step matrix per symbol, alphabet order
    init: tuple
    fin: tuple
    mode: str

    @property
    def dimension(self) -> int:
        return len(self.init)

    def _matrix(self, a: int):
        if not 0 <= a < len(self.matrices):
            raise ValueError(f"symbol index out of range: {a}")
        return self.matrices[a]

    def prob(self, word: Word):
        row = self.init
        for a in word:
            row = vec_mat(row, self._matrix(a))
        return dot(row, self.fin)

    def forward(self, word: Word) -> ForwardVector:
        fv = ForwardVector((), self.init)
        for a in word:
            fv = self.extend_forward(fv, a)
        return fv

    def extend_forward(self, fv: ForwardVector, a: int) -> ForwardVector:
        self._check(fv.coords)
        return ForwardVector(fv.word + (a,), vec_mat(fv.coords, self._matrix(a)))

    def backward(self, word: Word) -> BackwardVector:
        bv = BackwardVector((), self.fin)
        for a in reversed(word):
            bv = self.extend_backward(a, bv)
        return bv

    def extend_backward(self, a: int, bv: BackwardVector) -> BackwardVector:
        self._check(bv.coords)
        return BackwardVector((a,) + bv.word, mat_vec(self._matrix(a), bv.coords))

    def prob_bilinear(self, fv: ForwardVector, a: int | None, bv: BackwardVector):
        """p(w a v) from cached ends, or p(w v) when no middle symbol."""
        self._check(fv.coords)
        self._check(bv.coords)
        if a is None:
            return dot(fv.coords, bv.coords)
        return dot(fv.coords, mat_vec(self._matrix(a), bv.coords))

    def _check(self, coords):
        if len(coords) != self.dimension:
            raise ValueError(
                f"vector length {len(coords)} does not match representation "
                f"dimension {self.dimension}")


def compile_hmm(hmm: HmmModel) -> LinearRepresentation:
    n = hmm.num_states
    matrices = []
    for a in range(len(hmm.alphabet)):
        matrices.append(tuple(
            tuple(hmm.emission[i][a] * hmm.transition[i][j] for j in range(n))
            for i in range(n)))
    fin = tuple(one(hmm.mode) for _ in range(n))
    return LinearRepresentation(hmm.alphabet, tuple(matrices),
                                hmm.initial, fin, hmm.mode)


def compile_pfa(pfa: PfaModel) -> LinearRepresentation:
    """The acceptance series pi . M_v . F: the probability of reading v and
    then stopping.  Unlike ``compile_model``, no stop symbol is added."""
    return LinearRepresentation(pfa.alphabet, pfa.transitions, pfa.initial,
                                pfa.final, pfa.mode)


def _coordinate_pairs(k: int):
    re_pairs = [(m1, m2) for m1 in range(k) for m2 in range(m1, k)]
    im_pairs = [(m1, m2) for m1 in range(k) for m2 in range(m1 + 1, k)]
    return re_pairs, im_pairs


def _coords_of(matrix, re_pairs, im_pairs) -> tuple:
    re_part = [matrix[m1][m2].re for (m1, m2) in re_pairs]
    im_part = [matrix[m1][m2].im for (m1, m2) in im_pairs]
    return tuple(re_part + im_part)


def compile_qrw(qrw: QrwModel) -> LinearRepresentation:
    k = qrw.num_coordinates
    mode = qrw.mode
    re_pairs, im_pairs = _coordinate_pairs(k)
    n = len(re_pairs) + len(im_pairs)
    z, o = zero(mode), one(mode)
    czero = ComplexScalar(z, z)
    iunit = complex_i(mode)

    def outer(u, w):
        conj = [x.conjugate() for x in w]
        return [[ui * wj for wj in conj] for ui in u]

    def madd(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def msub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def scale_i(m):
        return [[iunit * x for x in row] for row in m]

    matrices = []
    for a in range(len(qrw.alphabet)):
        # columns of Pa U: evolution with rows not labeled a zeroed out
        cols = []
        for m in range(k):
            cols.append([qrw.evolution[i][m] if qrw.labels[i] == a else czero
                         for i in range(k)])
        # image of each coordinate basis element under Q -> (PaU) Q (PaU)*
        images = []
        for (m1, m2) in re_pairs:
            if m1 == m2:
                images.append(outer(cols[m1], cols[m1]))
            else:
                images.append(madd(outer(cols[m1], cols[m2]),
                                   outer(cols[m2], cols[m1])))
        for (m1, m2) in im_pairs:
            images.append(msub(scale_i(outer(cols[m1], cols[m2])),
                               scale_i(outer(cols[m2], cols[m1]))))
        # transposed coordinate matrix: row j is the image of basis element j
        matrices.append(tuple(_coords_of(img, re_pairs, im_pairs)
                              for img in images))

    density = outer(list(qrw.wave), list(qrw.wave))
    init = _coords_of(density, re_pairs, im_pairs)
    fin = tuple(o if m1 == m2 else z for (m1, m2) in re_pairs) + \
        tuple(z for _ in im_pairs)
    return LinearRepresentation(qrw.alphabet, tuple(matrices), init, fin, mode)


def compile_model(model: Model) -> LinearRepresentation:
    """Any model to its word-series form; automata get the stop reduction."""
    if isinstance(model, HmmModel):
        return compile_hmm(model)
    if isinstance(model, QrwModel):
        return compile_qrw(model)
    if isinstance(model, PfaModel):
        return compile_hmm(pfa_to_hmm(model))
    raise TypeError(f"not a model: {type(model).__name__}")
