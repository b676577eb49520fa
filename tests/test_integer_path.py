"""The scans run on integer vectors with one rational scale each; these
properties tie every value they report back to the reference products in
the model's scalars (``LinearRepresentation.prob`` and the
reference ``prefix_vector``/``suffix_vector``)."""

import random
from collections import deque
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import equivalence
from finitary.basis import (Basis, column_basis, compute_basis, reduce_rows,
                            row_generator)
from finitary.linalg import IndependenceTester, dot
from finitary.models import HmmModel, PfaModel
from finitary.representation import ScaledVector, compile_model, compile_pfa

import generators as g
from conftest import from_matrices, step_matrices
from reference import prefix_vector, suffix_vector

SEEDS = st.integers(0, 2**32 - 1)


def random_hmm_lr(rng):
    return compile_model(g.random_hmm(rng, rng.randint(1, 5), rng.randint(1, 3)))


def random_qrw_lr(rng):
    k = rng.randint(2, 3)
    return compile_model(g.random_qrw(rng, k, rng.randint(1, k)))


def random_pfa_lr(rng):
    """An acceptance series; about half the final weights are zeroed, so
    some automata never stop at all."""
    pfa = g.random_pfa(rng, rng.randint(1, 4), rng.randint(1, 3))
    final = tuple(x if rng.random() < 0.5 else Fraction(0) for x in pfa.final)
    return compile_pfa(PfaModel(pfa.alphabet, pfa.initial, pfa.transitions,
                                final))


def padded_hmm_lr(rng):
    """A series whose row scan overshoots the process dimension, with a
    dropped row before kept ones: symbol a has one emission probability in
    every reachable state, so row "a" adds nothing to the reachable part,
    while a block of unreachable random states makes it independent."""
    n, ns = rng.randint(2, 4), 3
    c = Fraction(rng.randint(1, 3), 4)
    reachable = compile_model(HmmModel(
        g.alphabet(ns), g.rational_distribution(rng, n),
        tuple(g.rational_distribution(rng, n) for _ in range(n)),
        tuple((c,) + tuple((1 - c) * x
                           for x in g.rational_distribution(rng, ns - 1))
              for _ in range(n))))
    hidden = compile_model(g.random_hmm(rng, rng.randint(1, 3), ns))
    pad_a = (Fraction(0),) * hidden.dimension
    pad_b = (Fraction(0),) * n
    matrices = tuple(tuple(row + pad_a for row in ma)
                     + tuple(pad_b + row for row in mb)
                     for ma, mb in zip(step_matrices(reachable),
                                       step_matrices(hidden)))
    return from_matrices(reachable.alphabet, matrices, reachable.init + pad_a,
                         reachable.fin + hidden.fin, reachable.mode)


def split_hmm_lr(rng):
    """A random HMM with one state cloned: two states share one backward
    vector, so the row scan never fills its tester."""
    hmm = g.random_hmm(rng, rng.randint(1, 4), rng.randint(1, 3))
    return compile_model(g.split_hmm_state(rng, hmm))


BUILDERS = (random_hmm_lr, random_qrw_lr, random_pfa_lr, padded_hmm_lr,
            split_hmm_lr)


def assert_basis_matches_reference(lr):
    basis = compute_basis(lr)
    assert len(basis.matrix) == basis.dim
    for i, v in enumerate(basis.row_words):
        for j, w in enumerate(basis.col_words):
            assert basis.matrix[i][j] == lr.prob(w + v)
    for sv, reference in (
            [(bv, suffix_vector(lr, bv.word)) for bv in basis.backwards]
            + [(fv, prefix_vector(lr, fv.word)) for fv in basis.forwards]):
        assert all(isinstance(x, int) for x in sv.coords)
        assert tuple(sv.scale * x for x in sv.coords) == reference


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_basis_values_and_vectors_match_the_reference(seed):
    rng = random.Random(seed)
    for build in BUILDERS:
        assert_basis_matches_reference(build(rng))


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_pivot_rows_are_the_rows_reduce_rows_picks(seed):
    # the kept rows come from the column scan's pivots; a separate
    # elimination over the true values p(w v) of every scanned row against
    # the accepted columns must keep the same rows
    rng = random.Random(seed)
    for build in BUILDERS:
        lr = build(rng)
        basis = compute_basis(lr)
        row_words = [bv.word for bv in row_generator(lr)]
        block = [[lr.prob(w + v) for w in basis.col_words] for v in row_words]
        keep = reduce_rows(block, lr.mode)
        assert basis.row_words == tuple(row_words[i] for i in keep)


def same_alphabet_pair(rng, build):
    lr_x = build(rng)
    while True:
        lr_y = build(rng)
        if lr_y.alphabet == lr_x.alphabet:
            return lr_x, lr_y


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_witness_details_are_the_probabilities(seed):
    rng = random.Random(seed)
    for build in BUILDERS:
        lr_x, lr_y = same_alphabet_pair(rng, build)
        v = equivalence.test_equivalence(lr_x, lr_y)
        if v.equivalent:
            assert v.witness is None
            continue
        px, py = lr_x.prob(v.witness), lr_y.prob(v.witness)
        assert px != py
        assert v.details == (px, py)


# --- test-side reference for the scans and the check ----------------------
#
# A plain breadth-first scan that builds every candidate's vector when its
# parent is accepted and decides every candidate, with independence judged
# by a separate Fraction elimination on true values; and the I/J check on
# ``prob`` values.  The program's scans stop once their tester is full and
# build vectors lazily; its check compares cross-multiplied integers.


def fraction_rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_scan(root, children, value):
    """Accepted vectors and their values."""
    accepted, values = [], []
    queue = [root]
    while queue:
        candidate = queue.pop(0)
        candidate_value = value(candidate)
        if fraction_rank(values + [candidate_value]) > len(values):
            accepted.append(candidate)
            values.append(candidate_value)
            queue.extend(children(candidate))
    return accepted, values


def reference_basis(lr) -> Basis:
    symbols = range(len(lr.alphabet))

    def backward(v):
        """The backward vector of v, the mirror's forward vector of v
        reversed, carrying v."""
        sv = lr.mirror.scaled_forward(v[::-1])
        return ScaledVector(v, sv.scale, sv.coords)

    rows, row_values = reference_scan(
        backward(()),
        lambda bv: [backward((a,) + bv.word) for a in symbols],
        lambda bv: suffix_vector(lr, bv.word))
    cols, col_values = reference_scan(
        lr.scaled_forward(()),
        lambda fv: [lr.scaled_forward(fv.word + (a,)) for a in symbols],
        lambda fv: [dot(prefix_vector(lr, fv.word), b) for b in row_values])
    kept = []  # rows independent of their predecessors in p(w v)
    for i in range(len(rows)):
        block = [[column[k] for column in col_values] for k in kept + [i]]
        if fraction_rank(block) > len(kept):
            kept.append(i)
    return Basis(tuple(rows[i] for i in kept), tuple(cols))


def reference_verdict(lr_x, lr_y, basis_x, basis_y) -> tuple:
    """(equivalent, reason, witness, details, dim_x, dim_y) of the I/J
    check on the larger of the two reference bases, every value from
    ``prob``."""
    dims = (basis_x.dim, basis_y.dim)
    y_drives = basis_y.dim > basis_x.dim
    big, lr_big, lr_small = ((basis_y, lr_y, lr_x) if y_drives
                             else (basis_x, lr_x, lr_y))

    def differ(reason, word):
        p_big, p_small = lr_big.prob(word), lr_small.prob(word)
        details = (p_small, p_big) if y_drives else (p_big, p_small)
        return (False, reason, word, details) + dims

    for w in big.col_words:
        for v in big.row_words:
            if lr_big.prob(w + v) != lr_small.prob(w + v):
                if basis_x.dim != basis_y.dim:
                    return differ(equivalence.DIMENSION_MISMATCH, w + v)
                if w == ():
                    return differ(equivalence.INITIAL_ROW_MISMATCH, w + v)
                return differ(equivalence.BASIC_MATRIX_MISMATCH, w + v)
    if basis_x.dim != basis_y.dim:
        return (False, equivalence.DIMENSION_MISMATCH, None, None) + dims
    for w in big.col_words:
        for a in range(len(lr_x.alphabet)):
            for v in big.row_words:
                word = w + (a,) + v
                if lr_big.prob(word) != lr_small.prob(word):
                    return differ(equivalence.ONE_STEP_MISMATCH, word)
    return (True, equivalence.ALL_CHECKS_PASSED, None, None) + dims


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_basis_equals_the_exhaustive_scan(seed):
    rng = random.Random(seed)
    for build in BUILDERS:
        lr = build(rng)
        basis, reference = compute_basis(lr), reference_basis(lr)
        assert basis == reference
        assert basis.matrix == reference.matrix


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_verdict_equals_the_fraction_check(seed):
    rng = random.Random(seed)
    for build in BUILDERS:
        lr_x, lr_y = same_alphabet_pair(rng, build)
        pairs = [(lr_x, lr_y), (lr_y, lr_x), (lr_x, lr_x)]
        if build is random_hmm_lr:
            hmm = g.random_hmm(rng, rng.randint(1, 4), rng.randint(1, 3))
            pairs.append((compile_model(hmm),
                          compile_model(g.split_hmm_state(rng, hmm))))
        models = {id(lr): lr for pair in pairs for lr in pair}
        bases = {key: reference_basis(lr) for key, lr in models.items()}
        for x, y in pairs:
            v = equivalence.test_equivalence(x, y)
            assert (v.equivalent, v.reason, v.witness, v.details,
                    v.dim_x, v.dim_y) == \
                reference_verdict(x, y, bases[id(x)], bases[id(y)])


def pairing_basis(lr) -> Basis:
    """The basis with every column judged as its pairings dot(forward
    coords, backward coords) with the accepted rows, and the rows kept at
    that scan's own pivots, at any row rank."""
    backwards = row_generator(lr)
    tester = IndependenceTester(len(backwards), lr.mode)
    forwards = []
    queue = deque([(None, None)])
    while queue and tester.rank < tester.dimension:
        parent, a = queue.popleft()
        fv = lr.scaled_forward(() if parent is None else parent.word + (a,))
        if tester.try_insert([dot(fv.coords, bv.coords) for bv in backwards]):
            forwards.append(fv)
            queue.extend((fv, a) for a in range(len(lr.alphabet)))
    keep = sorted(tester.pivots)
    return Basis(tuple(backwards[i] for i in keep), tuple(forwards))


def test_full_row_rank_forward_route_equals_the_pairing_scan():
    # at full row rank the column scan judges forward coordinates; it must
    # accept the same words with the same vectors and keep the same rows
    # as the scan on pairings, also when the dimension is below the row
    # count (padded HMMs; two states, the second never reached: rows (),
    # a; one column).  Walks and dense float HMMs whose dimension is below
    # their row count run on pairings, and must keep the same rows as
    # well.
    rng = random.Random(21)
    lrs = [compile_model(g.random_hmm(rng, rng.randint(1, 8),
                                      rng.randint(1, 3))) for _ in range(30)]
    lrs += [compile_pfa(g.random_pfa(rng, rng.randint(1, 6),
                                     rng.randint(1, 3))) for _ in range(30)]
    lrs += [padded_hmm_lr(rng) for _ in range(20)]
    unreached = compile_model(HmmModel(
        g.alphabet(2), (Fraction(1), Fraction(0)),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))))
    full = [lr for lr in lrs + [unreached]
            if len(row_generator(lr)) == lr.dimension]
    walks = [lr for lr in (random_qrw_lr(rng) for _ in range(60))
             if compute_basis(lr).dim < len(row_generator(lr))]
    floats = [lr for lr in (compile_model(g.random_dense_float_hmm(
        rng, rng.randint(12, 20), 2)) for _ in range(12))
        if compute_basis(lr).dim < len(row_generator(lr))]
    non_square = [lr for lr in full if compute_basis(lr).dim < lr.dimension]
    assert len(full) > 40 and unreached in full
    assert len(non_square) > 15 and len(walks) > 5 and len(floats) > 5
    for lr in full + walks + floats:
        basis = compute_basis(lr)
        assert basis == pairing_basis(lr)
    assert compute_basis(unreached).dim == 1
    assert compute_basis(unreached).row_words == ((),)


def test_full_rank_scans_stop_at_the_nth_acceptance(monkeypatch):
    # an HMM's row scan always rejects the one-letter candidate of the last
    # symbol (the one-letter backward vectors sum to the root's), so a
    # scan does not insert exactly n times; it stops at the n-th acceptance
    n = 8
    hmm = g.random_hmm(random.Random(7), n, 2)
    lr = compile_model(hmm)
    results = []
    insert = IndependenceTester.try_insert

    def recording(self, vector):
        results.append(insert(self, vector))
        return results[-1]
    monkeypatch.setattr(IndependenceTester, "try_insert", recording)
    backwards = row_generator(lr)
    assert len(backwards) == n and results[-1] and sum(results) == n
    # so it judges, and builds, fewer than the 1 + |alphabet| n candidates
    # an exhaustive scan decides
    assert len(lr.mirror._forwards) == len(results) < \
        1 + len(hmm.alphabet) * n
    results.clear()
    assert len(column_basis(lr, backwards)[0]) == n
    assert results[-1] and sum(results) == n
    assert len(compute_basis(lr).row_words) == n
