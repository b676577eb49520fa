import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from finitary import equivalence, representation
from finitary.basis import compute_basis
from finitary.models import Alphabet, HmmModel
from finitary.oracle import BudgetExceededError, brute_equiv, enumerate_probs
from finitary.representation import LinearRepresentation, compile_model
from finitary.scalars import FLOAT

import generators as g
import reference
from conftest import corpus_lr, corpus_names, load_corpus_model
from reference import (
    extend_suffix,
    hankel_rank,
    prefix_vector,
    process_dimension,
    suffix_vector,
)

F = Fraction


class TestEnumerateProbs:
    def test_coin_table(self):
        table = enumerate_probs(corpus_lr("coin.hmm"), 2)
        assert table == {
            (): F(1),
            (0,): F(1, 2), (1,): F(1, 2),
            (0, 0): F(1, 4), (0, 1): F(1, 4),
            (1, 0): F(1, 4), (1, 1): F(1, 4),
        }

    def test_swap_walk_table(self):
        # deterministic alternation b, a, b: all other words carry zero
        table = enumerate_probs(corpus_lr("swap.qrw"), 3)
        nonzero = {w: p for w, p in table.items() if p != 0}
        assert nonzero == {(): 1, (1,): 1, (1, 0): 1, (1, 0, 1): 1}

    def test_level_sums(self):
        for name in corpus_names():
            lr = corpus_lr(name)
            table = enumerate_probs(lr, 3)
            ns = len(lr.alphabet.symbols)
            if name.endswith(".pfa"):
                # an automaton stops or reads on from every state,
                # fin + sum_a M_a 1 = 1: the mass left after v is what
                # stops there plus the mass left after each v a
                ones = dataclasses.replace(lr, fin=(F(1),) * lr.dimension)
                mass = enumerate_probs(ones, 3)
                assert mass[()] == 1, name
                for w in itertools.chain.from_iterable(
                        itertools.product(range(ns), repeat=t)
                        for t in range(3)):
                    assert mass[w] == table[w] + sum(
                        mass[w + (a,)] for a in range(ns)), (name, w)
                continue
            for t in range(4):
                total = sum(table[w]
                            for w in itertools.product(range(ns), repeat=t))
                if lr.mode == "exact":
                    assert total == 1, (name, t)
                else:
                    assert total == pytest.approx(1.0, abs=1e-12), (name, t)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_probs(corpus_lr("coin.hmm"), 30)


class TestBruteEquiv:
    def test_first_difference_is_shortest_then_lexicographic(self):
        res = brute_equiv(corpus_lr("coin.hmm"), corpus_lr("biased.hmm"), 3)
        assert not res.equal_up_to
        assert res.witness == (0,)
        assert res.values == (F(1, 2), F(1, 3))

    def test_equal_pair(self):
        res = brute_equiv(corpus_lr("constant_a_2state.hmm"),
                          corpus_lr("constant_a_1state.hmm"), 5)
        assert res.equal_up_to
        assert res.witness is None and res.values is None

    def test_float_tolerance(self):
        lr = corpus_lr("hadamard.qrw")
        assert brute_equiv(lr, lr, 3, tolerance=1e-9).equal_up_to

    def test_default_tolerance_is_the_package_default(self):
        # a float HMM and its permuted copy round differently, 1.0 vs
        # 0.9999999999999999 at the empty word; test_equivalence calls them
        # equivalent at its default tolerance, and so must brute_equiv
        rng = random.Random(5)
        x = g.random_dense_float_hmm(rng, 4, 2)
        lr_x, lr_y = compile_model(x), compile_model(g.permute_hmm(rng, x))
        assert equivalence.test_equivalence(lr_x, lr_y).equivalent
        assert brute_equiv(lr_x, lr_y, 4).equal_up_to
        exact = brute_equiv(lr_x, lr_y, 4, tolerance=0.0)
        assert not exact.equal_up_to
        assert exact.witness == () and exact.values == (1.0, 0.9999999999999999)

    def test_alphabet_size_checked(self):
        with pytest.raises(ValueError):
            brute_equiv(corpus_lr("coin.hmm"),
                        corpus_lr("trivial_vertex_k2.qrw"), 2)

    def test_alphabet_checked(self):
        # same size, other symbols: the words are not the same words; the
        # alphabet is checked first, as test_equivalence does
        coin = load_corpus_model("coin.hmm")
        renamed = dataclasses.replace(coin, alphabet=Alphabet(("x", "y")))
        renamed_float = HmmModel(Alphabet(("x", "y")), (1.0,), ((1.0,),),
                                 ((0.5, 0.5),), mode=FLOAT)
        for other in (renamed, renamed_float):
            with pytest.raises(ValueError, match=r"^alphabet mismatch$"):
                brute_equiv(compile_model(coin), compile_model(other), 3)

    def test_mode_checked(self):
        # an exact 1/2 against a float 0.5000000000000001 is no comparison
        coin = corpus_lr("coin.hmm")
        near = HmmModel(g.alphabet(2), (1.0,), ((1.0,),),
                        ((0.5000000000000001, 0.4999999999999999),),
                        mode=FLOAT)
        for pair in ((coin, compile_model(near)), (compile_model(near), coin)):
            with pytest.raises(ValueError, match=r"^scalar mode mismatch$"):
                brute_equiv(*pair, 3)


class TestRankOracles:
    def test_known_ranks(self):
        assert hankel_rank(corpus_lr("coin.hmm"), 2) == 1
        assert hankel_rank(corpus_lr("swap.qrw"), 4) == 2
        assert hankel_rank(corpus_lr("loop_ab.pfa"), 4) == 2

    def test_two_oracles_and_the_basis_agree(self):
        # three independent routes to the same number: the literal block
        # rank, span saturation, and the basis construction under test
        for name in corpus_names():
            lr = corpus_lr(name)
            spans = process_dimension(lr)
            assert compute_basis(lr).dim == spans, name
            if lr.dimension <= 5:
                assert hankel_rank(lr, lr.dimension) == spans, name

    def test_agreement_on_random_models(self):
        rng = random.Random(31)
        for _ in range(15):
            lr = compile_model(g.random_hmm(rng, rng.randint(1, 4), 2))
            assert hankel_rank(lr, lr.dimension) == process_dimension(lr)

    def test_rank_monotone_in_word_length(self):
        lr = corpus_lr("loop_ab.pfa")
        ranks = [hankel_rank(lr, t) for t in range(5)]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 2

    def test_budgets(self):
        lr = corpus_lr("swap.qrw")
        with pytest.raises(BudgetExceededError):
            hankel_rank(lr, 12, budget=100)
        with pytest.raises(BudgetExceededError):
            process_dimension(lr, budget=2)

    def test_hankel_budget_is_checked_before_enumerating(self, monkeypatch):
        def enumerate_all(*args):
            raise AssertionError("words enumerated before the budget check")

        monkeypatch.setattr(reference, "_all_words", enumerate_all)
        with pytest.raises(BudgetExceededError,
                           match="Hankel block needs at least 49 entries, "
                                 "budget is 10"):
            hankel_rank(corpus_lr("swap.qrw"), 12, budget=10)
        # a count that is complete is printed as it is
        with pytest.raises(BudgetExceededError,
                           match="Hankel block needs 225 entries, "
                                 "budget is 100"):
            hankel_rank(corpus_lr("coin.hmm"), 3, budget=100)


class TestBudgetCounts:
    @pytest.mark.parametrize("max_len, message", [
        (6, "probability table needs 127 entries, budget is 100"),
        (7, "probability table needs at least 127 entries, budget is 100"),
        (60000, "probability table needs at least 127 entries, "
                "budget is 100"),
    ])
    def test_a_refusal_counts_no_further_than_the_budget(self, max_len,
                                                         message):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_probs(corpus_lr("coin.hmm"), max_len, budget=100)
        assert str(info.value) == message

    def test_one_symbol_counts_in_one_step(self):
        one = Alphabet(("a",))
        lr = compile_model(HmmModel(one, (F(1),), ((F(1),),), ((F(1),),)))
        with pytest.raises(BudgetExceededError) as info:
            enumerate_probs(lr, 30_000_000, budget=100)
        assert str(info.value) == ("probability table needs 30000001 "
                                   "entries, budget is 100")


def test_reference_never_takes_the_scans_steps(monkeypatch):
    # the reference reads the stored steps plainly; if it shared the scans'
    # vector steps or their reduction, a wrong step scale would change both
    # sides of every reference test the same way
    lrs = [corpus_lr("distinct_2state.hmm"),
           compile_model(g.random_hmm(random.Random(37), 4, 2))]
    computed = [compute_basis(lr).dim for lr in lrs]

    def refuse(*args):
        raise AssertionError("reference route took a scan step")

    monkeypatch.setattr(LinearRepresentation, "scaled_forward", refuse)
    monkeypatch.setattr(representation, "primitive", refuse)
    monkeypatch.setattr(representation, "integral", refuse)
    for lr, dim in zip(lrs, computed):
        word = (0, 1, 1)
        p = lr.prob(word)
        row, col = prefix_vector(lr, (0,)), suffix_vector(lr, (1,))
        assert lr.prob_bilinear(row, 1, col) == p
        assert lr.prob_bilinear(lr.extend_prefix(row, 1), None, col) == p
        assert lr.prob_bilinear(row, None, extend_suffix(lr, 1, col)) == p
        assert enumerate_probs(lr, 3)[word] == p
        assert hankel_rank(lr, lr.dimension) == process_dimension(lr) == dim
