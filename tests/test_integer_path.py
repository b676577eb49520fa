"""The scans run on integer vectors with one rational scale each; these
properties tie every value they report back to the ``Fraction`` reference
API of ``LinearRepresentation`` (``prob``, ``forward``, ``backward``)."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import equivalence
from finitary.basis import compute_basis
from finitary.models import PfaModel
from finitary.representation import compile_model, compile_pfa

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


BUILDERS = (random_hmm_lr, random_qrw_lr, random_pfa_lr)


def assert_basis_matches_reference(lr):
    basis = compute_basis(lr)
    assert len(basis.matrix) == basis.dim
    for i, v in enumerate(basis.row_words):
        for j, w in enumerate(basis.col_words):
            assert basis.matrix[i][j] == lr.prob(w + v)
    for bv in basis.backwards:
        assert bv.coords == lr.backward(bv.word).coords
    for fv in basis.forwards:
        assert fv.coords == lr.forward(fv.word).coords


@settings(deadline=None, max_examples=40)
@given(SEEDS)
def test_basis_values_and_vectors_match_the_reference(seed):
    rng = random.Random(seed)
    for build in BUILDERS:
        assert_basis_matches_reference(build(rng))


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
