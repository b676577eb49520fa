import random
from fractions import Fraction

from finitary import equivalence
from finitary.basis import compute_basis, reduce_rows, row_generator
from finitary.linalg import dot
from finitary.representation import compile_model
from finitary.scalars import EXACT

import generators as g
from conftest import corpus_lr, corpus_names, from_matrices, row_candidates
from reference import prefix_vector, rank, suffix_vector

F = Fraction


def values(sv):
    """The vector a ``ScaledVector`` stands for (exact mode)."""
    return tuple(sv.scale * x for x in sv.coords)


class TestRowGenerator:
    def test_padded_model_overshoots_then_reduces(self):
        # three states but only two behaviors: the raw row scan sees three
        # independent backward vectors (the unreachable split is visible
        # from the state side), the block reduction drops one.  The scan
        # fills at its third acceptance, having judged (), a, b and aa
        lr = corpus_lr("padded_3state.hmm")
        backwards = row_generator(lr)
        assert [bv.word for bv in backwards] == [(), (0,), (0, 0)]
        assert row_candidates(lr) == 4
        basis = compute_basis(lr)
        assert basis.row_words == ((), (0,))
        assert basis.dim == 2

    def test_iteration_bound(self):
        # each accepted row queues one candidate per symbol, so the scan
        # judges at most 1 + |alphabet| * r candidates, r <= n the rows
        # it finds
        for name in corpus_names():
            lr = corpus_lr(name)
            rows = len(row_generator(lr))
            symbols = len(lr.alphabet.symbols)
            assert row_candidates(lr) <= 1 + symbols * rows, name
            assert rows <= lr.dimension, name

    def test_zero_fin_rejected(self):
        # the row scan rejects a zero final vector and the basis is empty:
        # the zero series, e.g. of an automaton that never stops, has dim 0
        lr = from_matrices(g.alphabet(1), (((F(1),),),), (F(1),), (F(0),),
                           EXACT)
        assert row_generator(lr) == []
        basis = compute_basis(lr)
        assert basis.dim == 0 and row_candidates(lr) == 1
        assert basis.row_words == basis.col_words == basis.matrix == ()

    def test_unreachable_fin_gives_dim_zero(self):
        # final weight only on a state the initial vector never reaches
        lr = from_matrices(
            g.alphabet(1), (((F(1), F(0)), (F(0), F(1))),),
            (F(1), F(0)), (F(0), F(1)), EXACT)
        assert compute_basis(lr).dim == 0


class TestComputeBasis:
    def test_corpus_dimensions(self):
        # frozen from the exhaustive rank oracle (see test_oracle for the
        # cross-check that stays live)
        expected = {
            "biased.hmm": 1,
            "coin.hmm": 1,
            "constant_a_1state.hmm": 1,
            "constant_a_2state.hmm": 1,
            "distinct_2state.hmm": 2,
            "hadamard.qrw": 1,
            "half_stop.pfa": 1,
            "identity.qrw": 1,
            "loop_ab.pfa": 2,
            "loop_ab_swapped.pfa": 2,
            "padded_3state.hmm": 2,
            "stop_now.pfa": 1,
            "swap.qrw": 2,
            "trivial_vertex_k2.qrw": 1,
            "trivial_vertex_k3.qrw": 1,
        }
        assert set(expected) == set(corpus_names())
        for name, dim in expected.items():
            assert compute_basis(corpus_lr(name)).dim == dim, name

    def test_padded_block_values(self):
        basis = compute_basis(corpus_lr("padded_3state.hmm"))
        assert basis.col_words == ((), (0,))
        assert basis.matrix == ((F(1), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_block_is_invertible_and_consistent(self):
        for name in corpus_names():
            lr = corpus_lr(name)
            basis = compute_basis(lr)
            assert len(basis.row_words) == basis.dim
            assert len(basis.col_words) == basis.dim
            assert rank(basis.matrix, lr.mode) == basis.dim, name
            # entry [i][j] really is p(col + row)
            if lr.mode == EXACT:
                for i, v in enumerate(basis.row_words):
                    for j, w in enumerate(basis.col_words):
                        assert basis.matrix[i][j] == lr.prob(w + v), name

    def test_cached_vectors_match_their_words(self):
        # the cached vectors are the scans' own scale * coords forms.  The
        # generated HMM keeps the row word (1, 0), which reads differently
        # reversed: a row labelled with its mirror's word would not match
        hmm = compile_model(g.random_hmm(random.Random(26), 4, 2))
        assert (1, 0) in compute_basis(hmm).row_words
        for lr in [corpus_lr(name) for name in
                   ("swap.qrw", "loop_ab.pfa", "distinct_2state.hmm")] + [hmm]:
            basis = compute_basis(lr)
            for bv in basis.backwards:
                assert values(bv) == suffix_vector(lr, bv.word)
            for fv in basis.forwards:
                assert values(fv) == prefix_vector(lr, fv.word)

    def test_empty_word_always_present(self):
        for name in corpus_names():
            basis = compute_basis(corpus_lr(name))
            assert basis.row_words[0] == ()
            assert basis.col_words[0] == ()

    def test_dim_bounded_by_state_dimension(self):
        rng = random.Random(9)
        for _ in range(20):
            lr = compile_model(g.random_hmm(rng, rng.randint(1, 4),
                                            rng.randint(1, 3)))
            basis = compute_basis(lr)
            assert 1 <= basis.dim <= lr.dimension
            assert row_candidates(lr) <= \
                len(lr.alphabet.symbols) * lr.dimension + 1


class TestReduceRows:
    def test_drops_dependent_rows(self):
        m = [(F(1), F(0)), (F(2), F(0)), (F(0), F(1))]
        assert reduce_rows(m) == [0, 2]

    def test_empty(self):
        assert reduce_rows([]) == []

    def test_keeps_scan_order(self):
        m = [(F(0), F(1)), (F(1), F(1)), (F(1), F(0))]
        assert reduce_rows(m) == [0, 1]


def test_basis_probabilities_agree_between_cached_and_direct():
    # dot of cached forward/backward pairs is the same number prob() builds
    # symbol by symbol; guards the transposition convention
    rng = random.Random(14)
    for _ in range(6):
        lr = compile_model(g.random_qrw(rng, 2, 2))
        basis = compute_basis(lr)
        for fv in basis.forwards:
            for bv in basis.backwards:
                assert dot(values(fv), values(bv)) == lr.prob(fv.word + bv.word)


def _planted_pairs(rng):
    """Models with their equivalent rewrites: an HMM with its permuted,
    split and blended copies, an automaton with its permuted copy, and a
    walk with its rephased and block-permuted copies."""
    ns = rng.randint(1, 3)
    hmm = g.random_hmm(rng, rng.randint(1, 6), ns)
    pfa = g.random_pfa(rng, rng.randint(1, 4), ns)
    k = rng.randint(2, 3)
    qrw = g.random_qrw(rng, k, rng.randint(1, k))
    return ([(hmm, rewrite(rng, hmm)) for rewrite in
             (g.permute_hmm, g.split_hmm_state, g.blend_hmm_state)]
            + [(pfa, g.permute_pfa(rng, pfa))]
            + [(qrw, rewrite(rng, qrw)) for rewrite in
               (g.rephase_qrw, g.permute_qrw_block)])


def test_equivalent_models_share_their_basis():
    # in exact mode the basis is a fact of the process (``basis``
    # docstring): two models the check calls equivalent, in either order,
    # get the same row words, column words and block
    pairs = [(corpus_lr(x), corpus_lr(y)) for x, y in (
        ("constant_a_1state.hmm", "constant_a_2state.hmm"),
        ("loop_ab.pfa", "loop_ab_swapped.pfa"),
        ("trivial_vertex_k2.qrw", "trivial_vertex_k3.qrw"))]
    for seed in range(150):
        pairs += [(compile_model(x), compile_model(y))
                  for x, y in _planted_pairs(random.Random(seed))]
    assert len(pairs) == 903
    for x, y in pairs:
        assert equivalence.test_equivalence(x, y).equivalent
        assert equivalence.test_equivalence(y, x).equivalent
        bx, by = compute_basis(x), compute_basis(y.in_order_of(x.alphabet))
        assert (bx.row_words, bx.col_words, bx.matrix) == \
            (by.row_words, by.col_words, by.matrix)
