import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import models, representation
from finitary.linalg import (dot, gaussian, integral, primitive, times_conj,
                             vec_mat)
from finitary.model_io import parse_model, serialize_model
from finitary.models import HmmModel, QrwModel, validate
from finitary.representation import (
    compile_hmm,
    compile_model,
    compile_pfa,
    compile_qrw,
)
from finitary.scalars import EXACT, FLOAT

import generators as g
from conftest import (corpus_lr, corpus_names, from_matrices,
                      load_corpus_model, step_matrices)
from reference import prefix_vector, suffix_vector

F = Fraction


def times_column(m, col):
    """M . col, one ``dot`` per row."""
    return tuple(dot(row, col) for row in m)


def values(sv):
    """The vector a ``ScaledVector`` stands for (exact mode)."""
    return tuple(sv.scale * c for c in sv.coords)


class TestHmmCompilation:
    def test_coin_word_probabilities(self):
        # fair coin, i.i.d.: every length-t word has probability 2^-t
        lr = corpus_lr("coin.hmm")
        assert lr.prob(()) == 1
        assert lr.prob((0,)) == F(1, 2)
        assert lr.prob((0, 1)) == F(1, 4)
        assert lr.prob((1, 1, 0)) == F(1, 8)

    def test_step_matrix_entries(self):
        # T_a[i][j] = emission[i][a] * transition[i][j]
        hmm = load_corpus_model("distinct_2state.hmm")
        t = step_matrices(compile_hmm(hmm))
        n = hmm.num_states
        for a in range(2):
            for i in range(n):
                for j in range(n):
                    assert t[a][i][j] == \
                        hmm.emission[i][a] * hmm.transition[i][j]

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1))
    def test_steps_are_the_integral_of_the_products(self, seed):
        # one-state models, zero transition rows and a symbol that no
        # state emits (a zero matrix, scale 0) included
        rng = random.Random(seed)
        n, ns = rng.randint(1, 5), rng.randint(1, 3)
        hmm = g.random_hmm(rng, n, ns)
        silent = rng.randrange(ns) if rng.random() < 0.4 else None
        hmm = HmmModel(
            hmm.alphabet, hmm.initial,
            tuple((F(0),) * n if rng.random() < 0.15 else row
                  for row in hmm.transition),
            tuple(tuple(F(0) if a == silent else x for a, x in enumerate(row))
                  for row in hmm.emission))
        products = tuple(
            tuple(tuple(hmm.emission[i][a] * hmm.transition[i][j]
                        for j in range(n)) for i in range(n))
            for a in range(ns))
        lr = compile_hmm(hmm)
        for (scale, m), t in zip(lr.integer_steps, products, strict=True):
            want_scale, flat = integral([x for row in t for x in row], EXACT)
            assert scale == want_scale
            assert m == tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if silent is not None:
            assert lr.integer_steps[silent][0] == 0
        assert step_matrices(lr) == products
        for t in range(3):
            for w in itertools.product(range(ns), repeat=t):
                row = hmm.initial
                for a in w:
                    row = vec_mat(row, products[a])
                assert lr.prob(w) == sum(row, F(0))

    def test_float_matrices_are_the_products(self):
        hmm = g.random_dense_float_hmm(random.Random(4), 4, 2)
        lr = compile_hmm(hmm)
        assert step_matrices(lr) == tuple(
            tuple(tuple(e[a] * x for x in row)
                  for e, row in zip(hmm.emission, hmm.transition))
            for a in range(2))
        assert all(scale == 1.0 for scale, _ in lr.integer_steps)

    def test_one_product_per_state_and_symbol(self, monkeypatch):
        # T[a] = E[., a] * M is built from the integer numerators of the
        # two row laws, so no Fraction is multiplied at all
        hmm = g.random_hmm(random.Random(8), 6, 3)
        calls = []
        original = Fraction.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Fraction, "__mul__", counting)
        compile_hmm(hmm)
        assert len(calls) == 0

    def test_fin_is_all_ones(self):
        lr = corpus_lr("padded_3state.hmm")
        assert all(x == 1 for x in lr.fin)


def walk_prob(qrw, word):
    """||P_vt U ... P_v1 U psi0||^2 straight from the walk's definition,
    on (re, im) tuples in the walk's scalars."""
    psi = qrw.wave
    for a in word:
        step = []
        for row, label in zip(qrw.evolution, qrw.labels):
            re = im = 0
            if label == a:
                for (ur, ui), (pr, pi) in zip(row, psi):
                    re += ur * pr - ui * pi
                    im += ur * pi + ui * pr
            step.append((re, im))
        psi = step
    return sum(re * re + im * im for re, im in psi)


def floated(qrw):
    def f(z):
        return float(z[0]), float(z[1])
    return QrwModel(qrw.alphabet, qrw.labels,
                    tuple(tuple(f(z) for z in row) for row in qrw.evolution),
                    tuple(f(z) for z in qrw.wave), FLOAT)


def reference_walks():
    walks = [load_corpus_model(name) for name in corpus_names()
             if name.endswith(".qrw")]
    for k in range(1, 7):
        for seed in range(3):
            rng = random.Random(100 * k + seed)
            walks.append(g.random_qrw(rng, k, rng.randint(1, min(k, 3))))
    return walks


class TestQrwCompilation:
    @pytest.mark.parametrize("qrw", reference_walks())
    def test_prob_matches_the_walk_definition(self, qrw):
        words = [w for t in range(4)
                 for w in itertools.product(range(len(qrw.alphabet)),
                                            repeat=t)]
        if qrw.mode == EXACT:
            lr = compile_qrw(qrw)
            for w in words:
                assert lr.prob(w) == walk_prob(qrw, w), w
        copy = floated(qrw)
        lr = compile_qrw(copy)
        for w in words:
            assert lr.prob(w) == pytest.approx(walk_prob(copy, w), abs=1e-12)

    @pytest.mark.parametrize("qrw", [
        load_corpus_model(name) for name in corpus_names()
        if name.endswith(".qrw")] + [
        g.random_qrw(r, k, r.randint(1, min(k, len(g.SYMBOLS))))
        for k in range(1, 6)
        for r in map(random.Random, range(100 * k, 100 * k + 12))])
    def test_steps_are_the_integral_of_the_matrices(self, qrw):
        # each step is the one split of its whole matrix T[a], though a row
        # of T[a] may have a common factor of its own; a float step is T[a]
        lr = compile_qrw(qrw)
        n = lr.dimension
        for step, t in zip(lr.integer_steps, step_matrices(lr), strict=True):
            scale, flat = integral([x for row in t for x in row], qrw.mode)
            assert step == (scale, tuple(tuple(flat[i * n:(i + 1) * n])
                                         for i in range(n)))
            if qrw.mode != EXACT:
                assert step == (1.0, t)

    def test_fraction_products_in_compile_and_validate(self, monkeypatch):
        # U and psi0 are split into integers once; each step then needs
        # one rational product for its scale, init one per coordinate, and
        # each entry of U U* one per part
        qrw = g.random_qrw(random.Random(6), 6, 3)
        calls = []
        for name in ("__mul__", "__rmul__"):
            def counting(self, other, original=getattr(Fraction, name)):
                calls.append(1)
                return original(self, other)
            monkeypatch.setattr(Fraction, name, counting)
        compile_qrw(qrw)
        assert len(calls) <= 2 * 3 + 2 * 6 * 6
        calls.clear()
        validate(qrw)
        assert len(calls) <= 2 * 6 * 6 + 2

    def test_one_conjugation_serves_every_symbol(self, monkeypatch):
        # the k*k rows of U E_j U* are built once for all symbols: a
        # diagonal Re row takes the 10 products x x* of its k = 4
        # coordinate pairs (p, q), each of the 12 other rows 20, x y* and
        # y x*; psi0's own coordinates take 10 more.  Rebuilding the rows
        # from Pa U for each of the 3 symbols would take 3 * 280 + 10
        qrw = g.random_qrw(random.Random(4), 4, 3)
        assert len(qrw.alphabet) == 3
        calls = []

        def counting(x, y):
            calls.append(1)
            return times_conj(x, y)

        monkeypatch.setattr(representation, "times_conj", counting)
        compile_qrw(qrw)
        assert len(calls) == 4 * 10 + 12 * 20 + 10

    def test_loading_and_compiling_split_each_entry_once(self, monkeypatch):
        # one gaussian of U and one of psi0 serve validation and compile
        calls = []

        def counting(entries, mode):
            calls.append(len(entries))
            return gaussian(entries, mode)

        for module in (models, representation):
            monkeypatch.setattr(module, "gaussian", counting, raising=False)
        for qrw in reference_walks():
            calls.clear()
            text = serialize_model(qrw)
            lr = compile_model(parse_model(text))
            assert sorted(calls) == sorted([qrw.num_coordinates ** 2,
                                            qrw.num_coordinates])
            assert lr == compile_qrw(qrw)

    def test_dimension_is_k_squared(self):
        assert corpus_lr("swap.qrw").dimension == 4
        assert corpus_lr("trivial_vertex_k3.qrw").dimension == 9

    def test_swap_walk_alternates(self):
        # U swaps the two coordinates, psi0 sits on the a-coordinate, so
        # the observed sequence is deterministic: b, a, b, a, ...
        lr = corpus_lr("swap.qrw")
        assert lr.prob((1,)) == 1
        assert lr.prob((0,)) == 0
        assert lr.prob((1, 0)) == 1
        assert lr.prob((1, 0, 1)) == 1
        assert lr.prob((1, 1)) == 0

    def test_identity_walk_is_constant(self):
        lr = corpus_lr("identity.qrw")
        for t in range(5):
            assert lr.prob((0,) * t) == 1

    def test_hadamard_is_a_float_fair_coin(self):
        lr = corpus_lr("hadamard.qrw")
        for word in [(0,), (1,)]:
            assert lr.prob(word) == pytest.approx(0.5, abs=1e-12)
        for word in itertools.product(range(2), repeat=2):
            assert lr.prob(word) == pytest.approx(0.25, abs=1e-12)

    def test_level_sums_are_exactly_one(self):
        # collapse probabilities over all coordinates sum to 1, so every
        # level of the word tree carries total mass 1, with no rounding
        # in exact mode
        for name in ("swap.qrw", "trivial_vertex_k3.qrw"):
            lr = corpus_lr(name)
            ns = len(lr.alphabet.symbols)
            for t in range(4):
                total = sum(lr.prob(w)
                            for w in itertools.product(range(ns), repeat=t))
                assert total == 1, (name, t)

    def test_random_qrw_probabilities_are_rational_and_normalized(self):
        rng = random.Random(20)
        for _ in range(5):
            qrw = g.random_qrw(rng, rng.choice((2, 3)), 2)
            lr = compile_qrw(qrw)
            for t in range(3):
                total = F(0)
                for w in itertools.product(range(2), repeat=t):
                    p = lr.prob(w)
                    assert isinstance(p, (Fraction, int))
                    assert 0 <= p <= 1
                    total += p
                assert total == 1


@pytest.fixture(scope="module")
def lr():
    return compile_model(g.random_hmm(random.Random(5), 3, 2))


class TestVectorAlgebra:
    def test_forward_matches_prob(self, lr):
        for t in range(4):
            for w in itertools.product(range(2), repeat=t):
                row = prefix_vector(lr, w)
                assert lr.prob_bilinear(row, None, lr.fin) == lr.prob(w)

    def test_backward_reverses_word_order(self, lr):
        # suffix product: T_a (T_b fin), built right to left
        t = step_matrices(lr)
        assert suffix_vector(lr, (0, 1)) == \
            times_column(t[0], times_column(t[1], lr.fin))

    def test_bilinear_split_invariance(self, lr):
        word = (0, 1, 1, 0, 1)
        p = lr.prob(word)
        for cut in range(len(word) + 1):
            row = prefix_vector(lr, word[:cut])
            col = suffix_vector(lr, word[cut:])
            assert lr.prob_bilinear(row, None, col) == p
        for cut in range(len(word)):
            row = prefix_vector(lr, word[:cut])
            col = suffix_vector(lr, word[cut + 1:])
            assert lr.prob_bilinear(row, word[cut], col) == p

    def test_symbol_out_of_range(self, lr):
        with pytest.raises(ValueError, match="out of range"):
            lr.prob((7,))
        with pytest.raises(ValueError, match="out of range"):
            lr.prob_bilinear(lr.init, 2, lr.fin)

    def test_scaled_vectors_match_reference(self, lr):
        for t in range(4):
            for w in itertools.product(range(2), repeat=t):
                # a backward vector is the mirror's forward vector of
                # the word reversed
                for sv, word, ref in (
                        (lr.scaled_forward(w), w, prefix_vector(lr, w)),
                        (lr.mirror.scaled_forward(w[::-1]), w[::-1],
                         suffix_vector(lr, w))):
                    assert sv.word == word
                    assert all(type(c) is int for c in sv.coords)
                    assert math.gcd(*sv.coords) == 1
                    assert values(sv) == ref

    def test_replace_starts_a_fresh_cache(self, lr):
        # the vector cache is not part of the value: a copy with another
        # fin builds its own vectors, and a filled cache changes neither
        # equality nor the hash
        cached = lr.mirror.scaled_forward((0,))
        other = dataclasses.replace(
            lr, fin=tuple(F(i) for i in range(lr.dimension)))
        sv = other.mirror.scaled_forward((0,))
        assert values(sv) == \
            suffix_vector(other, (0,)) != suffix_vector(lr, (0,))
        assert lr.mirror.scaled_forward((0,)) is cached
        copy = dataclasses.replace(lr)
        assert copy == lr and hash(copy) == hash(lr)

    def test_scaled_step_symbol_checked(self, lr):
        for a in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                lr.scaled_forward((a,))
            with pytest.raises(ValueError, match="out of range"):
                lr.mirror.scaled_forward((a,))

    def test_vector_length_checked(self, lr):
        # the one method that takes vectors from its caller checks them
        with pytest.raises(ValueError, match="does not match"):
            lr.prob_bilinear((F(1),), 0, lr.fin)
        with pytest.raises(ValueError, match="does not match"):
            lr.prob_bilinear(lr.init, None, (F(1),))


class TestMirror:
    @staticmethod
    def exact_lrs():
        """Exact HMMs, walks and automata: the corpus and the generators."""
        lrs = [corpus_lr(name) for name in corpus_names()]
        rng = random.Random(26)
        for build in (g.random_hmm, g.random_qrw, g.random_pfa):
            lrs += [compile_model(build(rng, n, k))
                    for n, k in ((2, 2), (3, 3))]
        return [lr for lr in lrs if lr.mode == EXACT]

    def test_mirror_reads_words_reversed(self):
        # the mirror (fin, T[a] transposed, init) has p~(v) = p(v
        # reversed), and its forward vectors are the backward vectors
        for lr in self.exact_lrs():
            for t in range(4):
                for v in itertools.product(range(len(lr.alphabet)),
                                           repeat=t):
                    assert lr.mirror.prob(v[::-1]) == lr.prob(v)
                    assert values(lr.mirror.scaled_forward(v[::-1])) == \
                        suffix_vector(lr, v)

    def test_transposed_row_product_is_the_column_product(self):
        # bit for bit in float mode: the same nonzero products, summed in
        # the same order from the integer 0
        rng = random.Random(26)
        for _ in range(50):
            n = rng.randint(1, 6)
            m = tuple(tuple(rng.choice((0.0, rng.random(), -rng.random()))
                            for _ in range(n)) for _ in range(n))
            c = tuple(rng.choice((0.0, rng.random())) for _ in range(n))
            assert vec_mat(c, tuple(zip(*m))) == times_column(m, c)

    def test_mirror_is_derived_once(self):
        lr = compile_model(g.random_hmm(random.Random(5), 3, 2))
        mirror = lr.mirror
        assert mirror is lr.mirror
        assert step_matrices(mirror) == tuple(
            tuple(zip(*t)) for t in step_matrices(lr))
        assert (mirror.init, mirror.fin) == (lr.fin, lr.init)
        # not a field: copies start a fresh mirror, and a derived one
        # changes neither equality nor the hash
        copy = dataclasses.replace(lr)
        assert copy == lr and hash(copy) == hash(lr)
        assert copy.mirror is not mirror and copy.mirror == mirror
        reordered = compile_model(g.reverse_alphabet(
            g.random_hmm(random.Random(5), 3, 2))).in_order_of(lr.alphabet)
        assert reordered == lr and reordered.mirror is not mirror
        assert reordered.mirror == mirror
        assert lr.in_order_of(lr.alphabet).mirror is mirror


class TestCompileDispatch:
    def test_pfa_compiles_to_acceptance_series(self):
        pfa = load_corpus_model("half_stop.pfa")
        assert compile_model(pfa) == compile_pfa(pfa)
        pfa = g.random_pfa(random.Random(2), 4, 3)
        assert step_matrices(compile_pfa(pfa)) == pfa.transitions

    def test_conservation_for_all_corpus_models(self):
        # a process: the one-step extensions of any word sum to its own
        # probability, (sum_a T_a) fin == fin.  An automaton: every state
        # stops or reads on, fin + (sum_a M_a) 1 == 1
        for name in corpus_names():
            lr = corpus_lr(name)
            automaton = name.endswith(".pfa")
            summed = (1,) * lr.dimension if automaton else lr.fin
            total = list(lr.fin) if automaton else [0] * lr.dimension
            for m in step_matrices(lr):
                img = times_column(m, summed)
                total = [x + y for x, y in zip(total, img)]
            if lr.mode == "exact":
                assert tuple(total) == tuple(summed), name
            else:
                assert all(abs(x - y) < 1e-12
                           for x, y in zip(total, summed)), name

    @pytest.mark.parametrize("model", [
        g.random_hmm(random.Random(8), 6, 3),
        g.random_pfa(random.Random(8), 6, 3),
        g.random_qrw(random.Random(4), 4, 3),
        g.random_dense_float_hmm(random.Random(8), 6, 3),
        g.random_float_pfa(random.Random(8), 6, 3),
        floated(g.random_qrw(random.Random(4), 4, 3))])
    def test_one_split_per_step(self, model, monkeypatch):
        # each exact step matrix is split once, as a whole
        calls = []

        def counting(ints):
            calls.append(1)
            return primitive(ints)

        monkeypatch.setattr(representation, "primitive", counting)
        compile_model(model)
        assert len(calls) == (3 if model.mode == EXACT else 0)

    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            compile_model(object())
        with pytest.raises(TypeError, match="not a model: object"):
            validate(object())


class TestFromMatrices:
    def test_exact_matrices_split_into_scale_and_integers(self):
        lr = from_matrices(
            g.alphabet(2), [((F(1, 2), 0), (F(1, 4), F(3, 4))),
                            ((0, 0), (0, 0))], (F(1), 0), (1, 1), EXACT)
        assert lr.integer_steps == ((F(1, 4), ((2, 0), (1, 3))),
                                    (0, ((0, 0), (0, 0))))
        assert all(type(x) is int for _, m in lr.integer_steps
                   for row in m for x in row)

    def test_float_matrices_are_their_own_steps(self):
        lr = from_matrices(
            g.alphabet(1), [((0.5, 0.25), (0.0, 1.0))], (1.0, 0.0),
            (1.0, 1.0), FLOAT)
        assert lr.integer_steps == ((1.0, ((0.5, 0.25), (0.0, 1.0))),)

    def test_a_float_in_an_exact_matrix_is_refused(self):
        with pytest.raises(TypeError,
                           match="float entry in an exact-mode model"):
            from_matrices(g.alphabet(1), [((0.5,),)], (F(1),), (F(1),), EXACT)


class TestInOrderOf:
    MODELS = {"hmm": lambda rng: g.random_hmm(rng, 3, 3),
              "qrw": lambda rng: g.random_qrw(rng, 3, 3),
              "pfa": lambda rng: g.random_pfa(rng, 3, 3)}

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_steps_follow_the_other_order(self, kind):
        model = self.MODELS[kind](random.Random(5))
        lr = compile_model(model)
        reversed_lr = compile_model(g.reverse_alphabet(model))
        assert reversed_lr != lr
        assert reversed_lr.in_order_of(lr.alphabet) == lr
        assert lr.in_order_of(reversed_lr.alphabet) == reversed_lr

    def test_same_order_keeps_the_cache(self):
        lr = corpus_lr("coin.hmm")
        lr.scaled_forward((0, 1))
        same = lr.in_order_of(load_corpus_model("biased.hmm").alphabet)
        assert same is lr

    def test_other_symbols_rejected(self):
        lr = corpus_lr("coin.hmm")
        for other in ("half_stop.pfa", "trivial_vertex_k2.qrw"):
            with pytest.raises(ValueError, match="alphabet mismatch"):
                lr.in_order_of(load_corpus_model(other).alphabet)
