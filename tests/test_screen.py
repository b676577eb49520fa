"""The exact tester screens candidates mod ``linalg.PRIME`` and confirms
only rejections exactly.  Every output must be the same as with any other
prime, however unlucky, and the screen must leave a full-rank scan almost
no exact elimination to do."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import linalg
from finitary.basis import column_basis, compute_basis, row_generator
from finitary.equivalence import test_equivalence as decide
from finitary.linalg import IndependenceTester
from finitary.representation import compile_model, compile_pfa

import generators as g

UNLUCKY = (2, 3, 101)


def _model_pairs(rng):
    """(compile, x, y) triples: seeded HMMs against permuted, split and
    blended copies and against independent models, automata and walks."""
    hmm = g.random_hmm(rng, rng.randint(1, 6), rng.randint(1, 3))
    other = g.random_hmm(rng, hmm.num_states, len(hmm.alphabet))
    pfa = g.random_pfa(rng, rng.randint(1, 5), rng.randint(1, 3))
    k = rng.randint(2, 3)
    qrw = g.random_qrw(rng, k, rng.randint(1, k))
    return [
        (compile_model, hmm, g.permute_hmm(rng, hmm)),
        (compile_model, hmm, g.split_hmm_state(rng, hmm)),
        (compile_model, g.blend_hmm_state(rng, hmm), hmm),
        (compile_model, hmm, other),
        (compile_pfa, pfa, g.permute_pfa(rng, pfa)),
        (compile_pfa, pfa, g.random_pfa(rng, pfa.num_states,
                                        len(pfa.alphabet))),
        (compile_model, qrw, g.rephase_qrw(rng, qrw)),
        (compile_model, qrw, g.permute_qrw_block(rng, qrw)),
    ]


def _outputs(pairs):
    out = []
    for compile_, x, y in pairs:
        lr_x, lr_y = compile_(x), compile_(y)
        out.append((compute_basis(lr_x), compute_basis(lr_y),
                    vars(decide(lr_x, lr_y)), vars(decide(lr_y, lr_x))))
    return out


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_an_unlucky_prime_changes_no_basis_and_no_verdict(seed):
    pairs = _model_pairs(random.Random(seed))
    expected = _outputs(pairs)
    for prime in UNLUCKY:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PRIME", prime)
            assert _outputs(pairs) == expected, prime


def test_full_rank_scans_leave_only_the_structural_rejection_exact(
        monkeypatch):
    # an HMM's one-letter backward vectors sum to the root's, so the row
    # scan rejects its last one-letter candidate: the root and the first
    # letter are reduced exactly then, and so is the candidate.  Every
    # other candidate up to the n-th acceptance is accepted by its
    # residues, so the count stays 3 as n grows, and the forward column
    # scan, which has no rejection before it fills, reduces none.
    calls = []
    reduced = IndependenceTester._reduced_exact

    def counting(self, vector):
        calls.append(vector)
        return reduced(self, vector)
    monkeypatch.setattr(IndependenceTester, "_reduced_exact", counting)
    for n in (12, 24):
        lr = compile_model(g.random_hmm(random.Random(n), n, 2))
        calls.clear()
        words, backwards, _ = row_generator(lr)
        assert len(words) == n and len(calls) == 3
        calls.clear()
        assert len(column_basis(lr, words, backwards)[0]) == n
        assert calls == []
