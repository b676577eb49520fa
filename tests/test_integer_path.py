"""The scans run on integer vectors with one rational scale each; these
properties tie every value they report back to the ``Fraction`` reference
API of ``LinearRepresentation`` (``prob``, ``forward``, ``backward``)."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import equivalence
from finitary.basis import compute_basis, reduce_rows, row_generator
from finitary.models import HmmModel, PfaModel
from finitary.representation import (LinearRepresentation, compile_model,
                                     compile_pfa)

import generators as g

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
                     for ma, mb in zip(reachable.matrices, hidden.matrices))
    return LinearRepresentation(reachable.alphabet, matrices,
                                reachable.init + pad_a,
                                reachable.fin + hidden.fin, reachable.mode)


BUILDERS = (random_hmm_lr, random_qrw_lr, random_pfa_lr, padded_hmm_lr)


def assert_basis_matches_reference(lr):
    basis = compute_basis(lr)
    assert len(basis.matrix) == basis.dim
    for i, v in enumerate(basis.row_words):
        for j, w in enumerate(basis.col_words):
            assert basis.matrix[i][j] == lr.prob(w + v)
    for sv, reference in ([(bv, lr.backward(bv.word)) for bv in basis.backwards]
                          + [(fv, lr.forward(fv.word)) for fv in basis.forwards]):
        assert all(isinstance(x, int) for x in sv.coords)
        assert tuple(sv.scale * x for x in sv.coords) == reference.coords


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
        row_words = row_generator(lr)[0]
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
