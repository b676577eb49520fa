import random
from fractions import Fraction

import pytest

# the decision entry points are named test_*, which pytest would otherwise
# try to collect from this module; keep them behind the module name
from finitary import equivalence
from finitary.equivalence import (
    ALL_CHECKS_PASSED,
    BASIC_MATRIX_MISMATCH,
    DIMENSION_MISMATCH,
    INITIAL_ROW_MISMATCH,
    ONE_STEP_MISMATCH,
)
from finitary.models import HmmModel, acceptance_probability
from finitary.representation import compile_model
from finitary.scalars import FLOAT

import generators as g
from conftest import corpus_names, load_corpus_model

F = Fraction


def corpus_lr(name):
    return compile_model(load_corpus_model(name))


class TestVerdicts:
    def test_two_state_constant_equals_one_state_constant(self):
        # both emit a forever; sizes differ, process does not
        v = equivalence.test_equivalence(corpus_lr("constant_a_2state.hmm"),
                             corpus_lr("constant_a_1state.hmm"))
        assert v.equivalent
        assert v.reason == ALL_CHECKS_PASSED
        assert (v.dim_x, v.dim_y) == (1, 1)
        assert v.witness is None and v.details is None
        assert v.tolerance is None  # exact run

    def test_coin_vs_biased(self):
        v = equivalence.test_equivalence(corpus_lr("coin.hmm"), corpus_lr("biased.hmm"))
        assert not v.equivalent
        assert v.reason == ONE_STEP_MISMATCH
        assert v.witness == (0,)
        assert v.details == (F(1, 2), F(1, 3))

    def test_dimension_mismatch_witness_when_x_drives(self):
        # the larger basis's block is invertible and the smaller model's
        # entries are not, so one of them certifies the difference
        x, y = corpus_lr("swap.qrw"), corpus_lr("identity.qrw")
        v = equivalence.test_equivalence(x, y)
        assert not v.equivalent
        assert v.reason == DIMENSION_MISMATCH
        assert (v.dim_x, v.dim_y) == (2, 1)
        assert v.witness == (0,)
        assert v.details == (x.prob(v.witness), y.prob(v.witness)) == (0, 1)

    def test_dimension_mismatch_witness_when_y_drives(self):
        # the larger basis is y's; details stay in (x, y) order
        x, y = corpus_lr("identity.qrw"), corpus_lr("swap.qrw")
        v = equivalence.test_equivalence(x, y)
        assert not v.equivalent
        assert v.reason == DIMENSION_MISMATCH
        assert (v.dim_x, v.dim_y) == (1, 2)
        assert v.witness == (0,)
        assert v.details == (x.prob(v.witness), y.prob(v.witness)) == (1, 0)

    def test_reflexive_on_corpus(self):
        for name in corpus_names():
            lr = corpus_lr(name)
            v = equivalence.test_equivalence(lr, lr, tolerance=0.0)
            assert v.equivalent and v.reason == ALL_CHECKS_PASSED, name

    def test_symmetric_verdict(self):
        pairs = [("coin.hmm", "biased.hmm"),
                 ("constant_a_2state.hmm", "constant_a_1state.hmm"),
                 ("swap.qrw", "identity.qrw")]
        for a, b in pairs:
            assert equivalence.test_equivalence(corpus_lr(a), corpus_lr(b)).equivalent == \
                equivalence.test_equivalence(corpus_lr(b), corpus_lr(a)).equivalent

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            equivalence.test_equivalence(corpus_lr("coin.hmm"),
                             corpus_lr("trivial_vertex_k2.qrw"))

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            equivalence.test_equivalence(corpus_lr("coin.hmm"), corpus_lr("hadamard.qrw"))


def _alternating_chain(initial):
    # two states that swap every step, each pinned to one symbol
    return HmmModel(g.alphabet(2), initial,
                    ((F(0), F(1)), (F(1), F(0))),
                    ((F(1), F(0)), (F(0), F(1))))


def _sticky_chain(stay):
    # symmetric two-state chain; marginals are 1/2 regardless of stickiness
    return HmmModel(g.alphabet(2), (F(1, 2), F(1, 2)),
                    ((stay, 1 - stay), (1 - stay, stay)),
                    ((F(1), F(0)), (F(0), F(1))))


class TestReasonClassification:
    def test_initial_row_mismatch(self):
        # deterministic abab... against the fair mixture of both phases:
        # equal dimensions, but p(a) differs, an empty-column block entry
        x = _alternating_chain((F(1), F(0)))
        y = _alternating_chain((F(1, 2), F(1, 2)))
        v = equivalence.test_equivalence(compile_model(x), compile_model(y))
        assert not v.equivalent
        assert v.reason == INITIAL_ROW_MISMATCH
        assert v.witness == (0,)
        assert v.details == (F(1), F(1, 2))

    def test_basic_matrix_mismatch(self):
        # same marginals, different stickiness: the first difference is the
        # interior block entry p(aa)
        x = _sticky_chain(F(2, 3))
        y = _sticky_chain(F(3, 4))
        v = equivalence.test_equivalence(compile_model(x), compile_model(y))
        assert not v.equivalent
        assert v.reason == BASIC_MATRIX_MISMATCH
        assert v.witness == (0, 0)
        assert v.details == (F(1, 3), F(3, 8))

    def test_witness_always_certifies(self):
        # whichever block entry fired, the reported word must really take
        # different probabilities under the two models
        rng = random.Random(77)
        seen = set()
        for _ in range(60):
            lr_x = compile_model(g.random_hmm(rng, rng.randint(1, 3), 2))
            lr_y = compile_model(g.random_hmm(rng, rng.randint(1, 3), 2))
            v = equivalence.test_equivalence(lr_x, lr_y)
            if v.equivalent:
                continue
            seen.add(v.reason)
            px, py = lr_x.prob(v.witness), lr_y.prob(v.witness)
            assert px != py
            assert v.details == (px, py)
        assert seen  # at least some non-equivalent pairs showed up


class TestCrossClass:
    def test_hmm_equals_qrw(self):
        # a one-state emit-a-forever chain and the identity walk generate
        # the same constant process
        v = equivalence.test_equivalence(corpus_lr("constant_a_1state.hmm"),
                                         corpus_lr("identity.qrw"))
        assert v.equivalent
        assert (v.dim_x, v.dim_y) == (1, 1)

    def test_trivial_walks_of_different_size(self):
        v = equivalence.test_equivalence(corpus_lr("trivial_vertex_k2.qrw"),
                             corpus_lr("trivial_vertex_k3.qrw"))
        assert v.equivalent

    def test_coin_vs_hadamard_float_twin(self):
        # the float-mode walk is a fair coin; compare against a float coin
        coin = HmmModel(g.alphabet(2), (1.0,), ((1.0,),), ((0.5, 0.5),),
                        mode=FLOAT)
        v = equivalence.test_equivalence(compile_model(coin),
                                         corpus_lr("hadamard.qrw"))
        assert v.equivalent
        assert v.within_tolerance
        assert v.tolerance == pytest.approx(1e-9)


class TestPlantedPairs:
    def test_hmm_rewrites_judged_equivalent(self):
        rng = random.Random(40)
        for _ in range(10):
            base = g.random_hmm(rng, rng.randint(1, 4), rng.randint(1, 3))
            for rewrite in (g.permute_hmm, g.split_hmm_state,
                            g.blend_hmm_state):
                twin = rewrite(rng, base)
                v = equivalence.test_equivalence(compile_model(base), compile_model(twin))
                assert v.equivalent, rewrite.__name__

    def test_qrw_rewrites_judged_equivalent(self):
        rng = random.Random(41)
        for _ in range(6):
            base = g.random_qrw(rng, rng.choice((2, 3)), rng.choice((1, 2)))
            for rewrite in (g.rephase_qrw, g.permute_qrw_block):
                twin = rewrite(rng, base)
                v = equivalence.test_equivalence(compile_model(base), compile_model(twin))
                assert v.equivalent, rewrite.__name__


class TestPfaVerdicts:
    def test_permuted_automaton_equivalent(self):
        v = equivalence.test_equivalence_pfa(load_corpus_model("loop_ab.pfa"),
                                 load_corpus_model("loop_ab_swapped.pfa"))
        assert v.equivalent
        # acceptance-series dimensions; the stop-symbol processes have 3
        assert (v.dim_x, v.dim_y) == (2, 2)

    def test_witness_is_an_acceptance_word(self):
        # the acceptance series are compared directly, so the witness is a
        # word whose stopping probabilities differ
        x = load_corpus_model("half_stop.pfa")
        y = load_corpus_model("stop_now.pfa")
        v = equivalence.test_equivalence_pfa(x, y)
        assert not v.equivalent
        assert v.reason == INITIAL_ROW_MISMATCH
        assert (v.dim_x, v.dim_y) == (1, 1)
        assert v.witness == ()
        assert v.details == (F(1, 2), F(1))
        assert acceptance_probability(x, v.witness) != \
            acceptance_probability(y, v.witness)

    def test_random_pfa_witnesses_certify(self):
        rng = random.Random(55)
        for _ in range(30):
            x = g.random_pfa(rng, rng.randint(1, 3), 2)
            y = g.random_pfa(rng, rng.randint(1, 3), 2)
            v = equivalence.test_equivalence_pfa(x, y)
            if not v.equivalent:
                assert v.details == (acceptance_probability(x, v.witness),
                                     acceptance_probability(y, v.witness))
                assert v.details[0] != v.details[1]

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            equivalence.test_equivalence_pfa(g.random_pfa(random.Random(1), 2, 1),
                                 g.random_pfa(random.Random(1), 2, 2))
