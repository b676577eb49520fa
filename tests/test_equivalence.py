import random
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

# the decision entry points are named test_*, which pytest would otherwise
# try to collect from this module; keep them behind the module name
from finitary import basis as basis_module
from finitary import equivalence, oracle, representation
from finitary.basis import compute_basis, row_generator
from finitary.cli import main
from finitary.equivalence import (
    ALL_CHECKS_PASSED,
    BASIC_MATRIX_MISMATCH,
    DIMENSION_MISMATCH,
    INITIAL_ROW_MISMATCH,
    ONE_STEP_MISMATCH,
)
from finitary.linalg import dot
from finitary.model_io import serialize_model
from finitary.models import Alphabet, HmmModel, PfaModel
from finitary.representation import compile_model, compile_pfa
from finitary.scalars import EXACT, FLOAT, scalars_equal

import generators as g
from conftest import (corpus_lr, corpus_names, exact_copy, from_matrices,
                      load_corpus_model)

F = Fraction


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

    def test_float_dimension_mismatch_without_witness(self):
        # y's dimension is 2, but on the words of either basis its values
        # agree with x's within the tolerance: neither order has a witness
        x, y = _close_float_pair()
        for a, b in ((x, y), (y, x)):
            v = equivalence.test_equivalence(compile_model(a), compile_model(b))
            assert not v.equivalent
            assert v.reason == DIMENSION_MISMATCH
            assert (v.dim_x, v.dim_y) == (a.num_states, b.num_states)
            assert v.witness is None and v.details is None

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_float_dimension_mismatch_without_witness_cli(self, tmp_path,
                                                          order):
        paths = []
        for name, model in zip("xy", _close_float_pair()):
            path = tmp_path / f"{name}.hmm"
            path.write_text(serialize_model(model), encoding="utf-8")
            paths.append(str(path))
        args = ["equiv", paths[order[0]], paths[order[1]]]
        text = CliRunner().invoke(main, args)
        assert text.exit_code == 1
        assert text.stdout.startswith("not equivalent: dimension-mismatch\n")
        assert "witness:" not in text.stdout
        res = CliRunner().invoke(main, args + ["--format", "json"])
        assert res.exit_code == 1
        assert '"witness": null' in res.stdout
        assert '"values": null' in res.stdout

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


def _close_float_pair():
    """A one-state float HMM and a two-state one whose emissions differ
    from it by 5e-05 per state, in opposite directions."""
    third, d = 1 / 3, 5e-05
    abc = Alphabet(("a", "b", "c"))
    x = HmmModel(abc, (1.0,), ((1.0,),), ((third, third, third),), FLOAT)
    y = HmmModel(abc, (0.5, 0.5), ((0.7, 0.3), (0.3, 0.7)),
                 ((third + d, third - d, third),
                  (third - d, third + d, third)), FLOAT)
    return x, y


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

    def test_one_step_witness_scans_columns_before_symbols(self):
        # both models start at e1 and share fin and T[a]; y adds u z^T with
        # init . u = 0 to T[b] and redraws T[c].  The block agrees and both
        # c and aba differ: the check scans (w, a, v) with the column word
        # w outermost, so it reports c at w = (); a scan with the symbol
        # outermost would report aba first
        ab = Alphabet(("a", "b", "c"))

        def rows(text):
            return tuple(tuple(F(e) for e in row.split())
                         for row in text.split(";"))
        t_a = rows("-1 1/2 0; 0 0 1/3; 0 2 -3/2")
        t_b = rows("1 0 -1; -1/3 -1/2 -1/3; -2 1 -1/2")
        t_c = rows("1 0 -3/2; -1 -2/3 -3; 2 0 -1")
        t_b_y = rows("1 0 -1; -1/3 -7/6 -1/3; -2 2 -1/2")
        t_c_y = rows("0 -1/3 -3/2; 3/2 -1 -1/2; 3/2 -3 2/3")
        init, fin = (F(1), F(0), F(0)), (F(-1), F(0), F(-1))
        x = from_matrices(ab, (t_a, t_b, t_c), init, fin, EXACT)
        y = from_matrices(ab, (t_a, t_b_y, t_c_y), init, fin, EXACT)
        v = equivalence.test_equivalence(x, y)
        assert (v.equivalent, v.reason, v.dim_x, v.dim_y) == \
            (False, ONE_STEP_MISMATCH, 3, 3)
        assert v.witness == ab.parse_word("c")
        assert v.details == (F(1, 2), F(3, 2))
        aba = ab.parse_word("aba")
        assert x.prob(aba) != y.prob(aba)

    def test_equal_exact_pair_multiplies_no_fractions(self, monkeypatch):
        # every comparison runs on integers; a Fraction product is built
        # only for a witness's details
        rng = random.Random(8)
        hmm = g.random_hmm(rng, 8, 2)
        x, y = compile_model(hmm), compile_model(g.permute_hmm(rng, hmm))
        products = []
        mul = Fraction.__mul__

        def counting(a, b):
            products.append((a, b))
            return mul(a, b)
        monkeypatch.setattr(Fraction, "__mul__", counting)
        v = equivalence.test_equivalence(x, y)
        monkeypatch.undo()
        assert v.equivalent and (v.dim_x, v.dim_y) == (8, 8)
        assert products == []


@pytest.mark.parametrize("kind", ["hmm", "pfa"])
def test_each_vector_is_stepped_once(monkeypatch, kind):
    # the scans and the I/J check share each representation's vectors: no
    # word's forward or backward vector is built twice, and the check's
    # one-step rows a v reuse the row scan's candidates
    rng = random.Random(8)
    if kind == "hmm":
        hmm = g.random_hmm(rng, 8, 2)
        x, y = compile_model(hmm), compile_model(g.permute_hmm(rng, hmm))
    else:
        pfa = g.random_pfa(rng, 5, 2)
        x, y = compile_pfa(pfa), compile_pfa(g.permute_pfa(rng, pfa))
    built = []
    step = representation.vec_mat

    def counting(*args):
        built.append(1)
        return step(*args)

    monkeypatch.setattr(representation, "vec_mat", counting)
    v = equivalence.test_equivalence(x, y)
    monkeypatch.undo()
    assert v.equivalent and v.dim_x == v.dim_y > 1
    # every vector but the root of a cache is one step, and each step
    # lands in its cache: a second build of a word would count twice.  A
    # backward vector is its mirror's forward vector
    cached = sum(len(cache) - 1 for lr in (x, y)
                 for cache in (lr._forwards, lr.mirror._forwards))
    assert cached > 4 * v.dim_x
    assert len(built) == cached


@pytest.mark.parametrize("n, symbols", [(6, 2), (8, 3)])
def test_each_row_word_is_paired_once(monkeypatch, n, symbols):
    # the check keeps each row word's vectors and factors (``rows``) for
    # every later column word.  It stays: building them once per column
    # word instead cost equal pairs 1.034x the CPU time on hmm-exact and
    # 1.020x on pfa-exact in paired runs.  A paired word reads two scales,
    # and the check pairs d column words and at most d (2 + |alphabet|)
    # row words; without the cache this reads 120 and 320, not 50 and 82
    rng = random.Random(n)
    hmm = g.random_hmm(rng, n, symbols)
    x, y = compile_model(hmm), compile_model(g.permute_hmm(rng, hmm))
    calls = []
    ratio = Fraction.as_integer_ratio

    def counting(self):
        calls.append(self)
        return ratio(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counting)
    v = equivalence.test_equivalence(x, y)
    monkeypatch.undo()
    assert v.equivalent and v.dim_x == n
    assert len(calls) <= 2 * v.dim_x * (3 + symbols)


def test_each_word_is_compared_once(monkeypatch):
    # a word w a v with w a in J or a v in I is compared in the block pass,
    # and a block word with two splits w v at its first: on an equal pair
    # the check takes two dot products per distinct word w m v
    rng = random.Random(8)
    hmm = g.random_hmm(rng, 8, 2)
    x, y = compile_model(hmm), compile_model(g.permute_hmm(rng, hmm))
    calls = []
    dot = equivalence.dot

    def counting(u, v):
        calls.append(1)
        return dot(u, v)
    monkeypatch.setattr(equivalence, "dot", counting)
    v = equivalence.test_equivalence(x, y)
    basis = compute_basis(x)
    triples = [w + m + v for w in basis.col_words for m in [(), (0,), (1,)]
               for v in basis.row_words]
    assert v.equivalent and v.dim_x == 8
    assert len(calls) == 2 * len(set(triples)) < len(triples)


def _every_triple(lr_x, lr_y):
    """(equivalent, reason, witness, details) from comparing p(w m v) by
    ``prob`` on every triple, in the check's order: the block, then, at
    equal dimensions, each symbol; w outermost, then m, then v.  In float
    mode p(w m v) is the split's own value, forward(w) . backward(m v),
    and two values agree within the default tolerance, at every split."""
    def value(lr, w, mv):
        if lr.mode == FLOAT:
            return dot(lr.scaled_forward(w).coords,
                       lr.mirror.scaled_forward(mv[::-1]).coords)
        return lr.prob(w + mv)
    basis_x, basis_y = compute_basis(lr_x), compute_basis(lr_y)
    big = basis_y if basis_y.dim > basis_x.dim else basis_x
    same_dim = basis_x.dim == basis_y.dim
    passes = [[()]]
    if same_dim:
        passes.append([(a,) for a in range(len(lr_x.alphabet))])
    for middles in passes:
        for w in big.col_words:
            for m in middles:
                for v in big.row_words:
                    p_x, p_y = value(lr_x, w, m + v), value(lr_y, w, m + v)
                    if scalars_equal(p_x, p_y, lr_x.mode):
                        continue
                    if m:
                        reason = ONE_STEP_MISMATCH
                    elif not same_dim:
                        reason = DIMENSION_MISMATCH
                    elif w == ():
                        reason = INITIAL_ROW_MISMATCH
                    else:
                        reason = BASIC_MATRIX_MISMATCH
                    return False, reason, w + m + v, (p_x, p_y)
    return (same_dim, ALL_CHECKS_PASSED if same_dim else DIMENSION_MISMATCH,
            None, None)


def _redrawn_last_step(rng):
    """A random representation over three symbols and a copy with the last
    symbol's step redrawn.  When the scans fill before reaching that
    symbol the blocks agree, and the pair first differs one step out."""
    n = rng.randint(2, 3)

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 4))

    def matrix():
        return tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    steps = [matrix() for _ in range(3)]
    init = tuple(entry() for _ in range(n))
    fin = tuple(entry() for _ in range(n))
    return [from_matrices(g.alphabet(3), m, init, fin, EXACT)
            for m in (steps, steps[:2] + [matrix()])]


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_the_check_reports_what_comparing_every_triple_reports(seed):
    # skipping the words compared before changes no verdict, reason,
    # witness or value, in either order; in float mode a word is judged at
    # its first split only, and judging it at every split changes nothing
    rng = random.Random(seed)
    hmm = g.random_hmm(rng, rng.randint(1, 5), rng.randint(1, 3))
    dense = g.random_dense_float_hmm(rng, rng.randint(2, 12),
                                     rng.randint(1, 3))
    pairs = [
        _redrawn_last_step(rng),
        [compile_model(hmm), compile_model(g.permute_hmm(rng, hmm))],
        [compile_model(hmm), compile_model(g.split_hmm_state(rng, hmm))],
        [compile_model(hmm), compile_model(g.random_hmm(
            rng, rng.randint(1, 5), len(hmm.alphabet)))],
        [compile_model(dense), compile_model(g.permute_hmm(rng, dense))],
        [compile_model(dense), compile_model(g.random_dense_float_hmm(
            rng, rng.randint(2, 12), len(dense.alphabet)))],
    ]
    for x, y in pairs + [pair[::-1] for pair in pairs]:
        v = equivalence.test_equivalence(x, y)
        assert (v.equivalent, v.reason, v.witness, v.details) == \
            _every_triple(x, y)


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_float_dimension_is_at_most_the_exact_one(n, seed):
    # the same dense float HMM read exactly, each float as the dyadic
    # rational it is: the float dim is at most the exact one, and a
    # permuted copy stays equivalent in both modes
    rng = random.Random(seed)
    hmm = g.random_dense_float_hmm(rng, n, 2)
    twin = g.permute_hmm(rng, hmm)
    x, y = compile_model(hmm), compile_model(twin)
    assert compute_basis(x).dim <= compute_basis(exact_copy(x)).dim
    assert equivalence.test_equivalence(x, y).equivalent
    assert equivalence.test_equivalence(exact_copy(x),
                                        exact_copy(y)).equivalent


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
        assert g.acceptance_probability(x, v.witness) != \
            g.acceptance_probability(y, v.witness)

    def test_random_pfa_witnesses_certify(self):
        rng = random.Random(55)
        for _ in range(30):
            x = g.random_pfa(rng, rng.randint(1, 3), 2)
            y = g.random_pfa(rng, rng.randint(1, 3), 2)
            v = equivalence.test_equivalence_pfa(x, y)
            if not v.equivalent:
                assert v.details == (g.acceptance_probability(x, v.witness),
                                     g.acceptance_probability(y, v.witness))
                assert v.details[0] != v.details[1]

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            equivalence.test_equivalence_pfa(g.random_pfa(random.Random(1), 2, 1),
                                 g.random_pfa(random.Random(1), 2, 2))


def _zero_heavy_pairs(rng):
    """Sparse HMMs started in one state and sparse automata with states
    that never stop, each against an independent model and against an
    equivalent rewrite."""
    ns = rng.randint(1, 3)
    hmm = g.sparse_hmm(rng, rng.randint(1, 3), ns)
    pfa = g.sparse_pfa(rng, rng.randint(1, 4), ns)
    return [
        (compile_model(hmm),
         compile_model(g.sparse_hmm(rng, rng.randint(1, 4), ns))),
        (compile_model(hmm), compile_model(g.split_hmm_state(rng, hmm))),
        (compile_pfa(pfa), compile_pfa(g.sparse_pfa(rng, rng.randint(1, 4),
                                                    ns))),
        (compile_pfa(pfa), compile_pfa(g.permute_pfa(rng, pfa))),
    ]


def test_zero_heavy_models_agree_with_brute_force():
    # two series of ranks at most n_x and n_y that differ do so on a word
    # shorter than n_x + n_y.  Zero-heavy models reach blocks that keep
    # fewer rows than the row scan found, row scans that stop below n
    # (by the span certificate or an empty queue), and the pairing rerun
    # after a full row scan
    rng = random.Random(29)
    reasons, blocks = Counter(), Counter()
    for _ in range(25):
        for x, y in _zero_heavy_pairs(rng):
            for lr_x, lr_y in ((x, y), (y, x)):
                v = equivalence.test_equivalence(lr_x, lr_y)
                brute = oracle.brute_equiv(
                    lr_x, lr_y, lr_x.dimension + lr_y.dimension - 1)
                assert v.equivalent == brute.equal_up_to
                if not v.equivalent:
                    assert v.details == (lr_x.prob(v.witness),
                                         lr_y.prob(v.witness))
                    assert v.details[0] != v.details[1]
                reasons[v.reason] += 1
            for lr in (x, y):
                rows, n = len(row_generator(lr)), lr.dimension
                dim = compute_basis(lr).dim
                blocks["non-square"] += dim < rows
                blocks["short row scan"] += rows < n
                blocks["pairing rerun"] += rows == n > dim
    assert len(reasons) >= 4 and min(blocks.values()) >= 10, \
        (reasons, blocks)


def _never_stopping(n):
    """An automaton of n states over a and b that never stops: the zero
    acceptance series."""
    move = tuple(tuple(F(1, 2 * n) for _ in range(n)) for _ in range(n))
    return PfaModel(g.alphabet(2), (F(1),) + (F(0),) * (n - 1),
                    (move, move), (F(0),) * n)


def _rewritten(model, rewrite, seed):
    """A model and a rewrite of it, compiled."""
    return [compile_model(model),
            compile_model(rewrite(random.Random(seed), model))]


def _differ_after_rows(seed):
    """x and a split copy of another HMM of x's size: y's row scan finds
    at most x's dimension of rows, and the block differs."""
    rng = random.Random(seed)
    x = compile_model(g.random_hmm(rng, 3, 2))
    return x, compile_model(g.split_hmm_state(rng, g.random_hmm(rng, 3, 2)))


def _corpus_pair(a, b):
    return corpus_lr(a), corpus_lr(b)


# name: (pair builder, (row scans, column scans) deciding (x, y) and
# deciding (y, x)).  x's basis is always built, one scan each; (1, 1)
# skips y's scans, (2, 1) runs y's row scan only, (2, 2) builds both bases
SKIP_CASES = {
    "permuted HMMs": (lambda: _rewritten(
        g.random_hmm(random.Random(1), 5, 2), g.permute_hmm, 1),
        (1, 1), (1, 1)),
    "permuted automata": (lambda: _rewritten(
        g.random_pfa(random.Random(3), 4, 2), g.permute_pfa, 2),
        (1, 1), (1, 1)),
    # a walk's representation has k^2 coordinates and its row scan about
    # k rows, so y's row scan runs and its column scan does not
    "rephased walks": (lambda: _rewritten(
        g.random_qrw(random.Random(3), 2, 2), g.rephase_qrw, 4),
        (2, 1), (2, 1)),
    "split HMMs": (lambda: _rewritten(
        g.random_hmm(random.Random(6), 4, 2), g.split_hmm_state, 6),
        (2, 1), (1, 1)),
    "blended HMMs": (lambda: _rewritten(
        g.random_hmm(random.Random(7), 4, 2), g.blend_hmm_state, 7),
        (2, 1), (1, 1)),
    "independent HMMs": (lambda: [compile_model(g.random_hmm(
        random.Random(seed), 4, 2)) for seed in (8, 9)], (2, 2), (2, 2)),
    "differ after y's row scan": (lambda: _differ_after_rows(10),
                                  (2, 2), (2, 2)),
    "float permuted HMMs": (lambda: _rewritten(
        g.random_dense_float_hmm(random.Random(12), 4, 2), g.permute_hmm,
        11), (2, 2), (2, 2)),
    "constant_a 1 and 2 states": (lambda: _corpus_pair(
        "constant_a_1state.hmm", "constant_a_2state.hmm"), (2, 1), (1, 1)),
    "biased and coin": (lambda: _corpus_pair("biased.hmm", "coin.hmm"),
                        (1, 1), (1, 1)),
    "distinct_2state and coin": (lambda: _corpus_pair(
        "distinct_2state.hmm", "coin.hmm"), (2, 2), (2, 2)),
    "coin and padded_3state": (lambda: _corpus_pair(
        "coin.hmm", "padded_3state.hmm"), (2, 2), (2, 2)),
    "never-stopping automata": (lambda: [compile_model(_never_stopping(n))
                                         for n in (1, 2)], (2, 1), (2, 1)),
}

# (equivalent, reason, dim_x, dim_y, witness) deciding (x, y)
CORPUS_VERDICTS = {
    "constant_a 1 and 2 states": (True, ALL_CHECKS_PASSED, 1, 1, None),
    "biased and coin": (False, ONE_STEP_MISMATCH, 1, 1, "a"),
    "distinct_2state and coin": (False, DIMENSION_MISMATCH, 2, 1, "a"),
    "coin and padded_3state": (False, DIMENSION_MISMATCH, 1, 2, "aa"),
    "never-stopping automata": (True, ALL_CHECKS_PASSED, 0, 0, None),
}


@pytest.mark.parametrize("case", SKIP_CASES)
def test_y_scans_run_only_as_far_as_the_verdict_needs(monkeypatch, case):
    # in exact mode y's scans stop once x's basis bounds y's dimension;
    # the verdict is the one separate bases, every short word and the
    # witness's probabilities give, in both orders
    build, *expected_scans = SKIP_CASES[case]
    pair = build()
    for (lr_x, lr_y), expected in zip((pair, pair[::-1]), expected_scans):
        scans = Counter()
        for name in ("row_generator", "column_basis"):
            def counting(*args, _scan=getattr(basis_module, name),
                         _name=name):
                scans[_name] += 1
                return _scan(*args)
            monkeypatch.setattr(basis_module, name, counting)
        v = equivalence.test_equivalence(lr_x, lr_y)
        monkeypatch.undo()
        assert (scans["row_generator"], scans["column_basis"]) == expected
        assert (v.dim_x, v.dim_y) == (compute_basis(lr_x).dim,
                                      compute_basis(lr_y).dim)
        brute = oracle.brute_equiv(lr_x, lr_y,
                                   lr_x.dimension + lr_y.dimension - 1)
        assert v.equivalent == brute.equal_up_to
        if not v.equivalent:
            assert v.details == (lr_x.prob(v.witness), lr_y.prob(v.witness))
            assert not scalars_equal(*v.details, lr_x.mode)
        if case in CORPUS_VERDICTS and lr_x is pair[0]:
            witness = (None if v.witness is None
                       else lr_x.alphabet.format_word(v.witness))
            assert (v.equivalent, v.reason, v.dim_x, v.dim_y, witness) == \
                CORPUS_VERDICTS[case]
