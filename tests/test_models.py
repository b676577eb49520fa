import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary.models import (
    Alphabet,
    HmmModel,
    PfaModel,
    QrwModel,
    acceptance_probability,
    pfa_to_hmm,
    validate,
)
from finitary.representation import compile_hmm
from finitary.scalars import FLOAT, ComplexScalar

import generators as g
from conftest import corpus_names, load_corpus_model

F = Fraction


class TestAlphabet:
    def test_parse_word_concatenated(self):
        ab = Alphabet(("a", "b"))
        assert ab.parse_word("abba") == (0, 1, 1, 0)

    def test_parse_word_empty_forms(self):
        ab = Alphabet(("a", "b"))
        assert ab.parse_word("") == ()
        assert ab.parse_word("□") == ()

    def test_parse_word_comma_and_space(self):
        ab = Alphabet(("up", "down"))
        assert ab.parse_word("up,down") == (0, 1)
        assert ab.parse_word("down up") == (1, 0)

    def test_format_word(self):
        ab = Alphabet(("a", "b"))
        assert ab.format_word(()) == "□"
        assert ab.format_word((0, 1)) == "ab"
        multi = Alphabet(("up", "down"))
        assert multi.format_word((1, 0)) == "down up"

    def test_format_parse_round_trip(self):
        ab = Alphabet(("a", "b", "c"))
        for t in range(4):
            for word in itertools.product(range(3), repeat=t):
                assert ab.parse_word(ab.format_word(word)) == word

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            Alphabet(("a",)).parse_word("b")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_reserved_characters_rejected(self):
        for bad in ("x:y", "x#", "x,y", "□"):
            with pytest.raises(ValueError):
                Alphabet((bad,))


class TestShapeChecks:
    def test_hmm_ragged_transition(self):
        with pytest.raises(ValueError, match="n x n"):
            HmmModel(Alphabet(("a",)), (F(1),), ((F(1), F(0)),), ((F(1),),))

    def test_hmm_emission_width(self):
        with pytest.raises(ValueError, match="alphabet"):
            HmmModel(Alphabet(("a", "b")), (F(1),), ((F(1),),), ((F(1),),))

    def test_qrw_label_out_of_range(self):
        one = ComplexScalar(F(1), F(0))
        with pytest.raises(ValueError, match="label"):
            QrwModel(Alphabet(("a",)), (1,), ((one,),), (one,))

    def test_pfa_matrix_count(self):
        with pytest.raises(ValueError, match="per symbol"):
            PfaModel(Alphabet(("a", "b")), (F(1),), (((F(0),),),), (F(1),))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            HmmModel(Alphabet(("a",)), (), (), ())


class TestValidate:
    def test_clean_corpus(self):
        for name in corpus_names():
            assert validate(load_corpus_model(name)) == [], name

    def test_hmm_bad_initial_sum(self):
        m = HmmModel(Alphabet(("a",)), (F(9, 10),), ((F(1),),), ((F(1),),))
        assert validate(m) == ["pi sums to 9/10"]

    def test_hmm_negative_and_row_sum(self):
        m = HmmModel(Alphabet(("a",)), (F(1),), ((F(-1),),), ((F(1),),))
        # a negative entry also throws the row sum off; both are reported
        assert validate(m) == ["M[0][0] is negative", "M row 0 sums to -1"]

    def test_hmm_emission_row(self):
        m = HmmModel(Alphabet(("a", "b")), (F(1),), ((F(1),),),
                     ((F(1, 2), F(1, 3)),))
        assert validate(m) == ["E row 0 sums to 5/6"]

    def test_qrw_non_unitary(self):
        half = ComplexScalar(F(1, 2), F(0))
        one = ComplexScalar(F(1), F(0))
        m = QrwModel(Alphabet(("a",)), (0,), ((half,),), (one,))
        assert "unitarity violated at entry (0,0)" in validate(m)

    def test_qrw_bad_wave_norm(self):
        one = ComplexScalar(F(1), F(0))
        m = QrwModel(Alphabet(("a",)), (0,), ((one,),),
                     (ComplexScalar(F(1, 2), F(0)),))
        assert "psi0 has squared norm 1/4" in validate(m)

    def test_qrw_unused_symbol(self):
        one = ComplexScalar(F(1), F(0))
        m = QrwModel(Alphabet(("a", "b")), (0,), ((one,),), (one,))
        assert "symbol b labels no coordinate" in validate(m)

    def test_pfa_outgoing_mass(self):
        m = PfaModel(Alphabet(("a",)), (F(1),), (((F(1, 3),),),), (F(1, 3),))
        assert validate(m) == ["state 0 outgoing mass sums to 2/3"]

    def test_float_mode_tolerance(self):
        m = HmmModel(Alphabet(("a", "b")), (1.0,), ((1.0,),),
                     ((0.5, 0.5 + 1e-12),), mode=FLOAT)
        assert validate(m) == []
        assert validate(m, tolerance=1e-15) != []


def _spoiled(rng, row):
    """``row`` with, at random, one entry shifted by a fraction, one negated
    or every entry zeroed; usually left alone."""
    row = list(row)
    roll = rng.random()
    i = rng.randrange(len(row))
    if roll < 0.2:
        row[i] += F(rng.choice((-1, 1)), rng.randint(1, 12))
    elif roll < 0.35:
        row[i] = -row[i] - F(1, rng.randint(1, 5))
    elif roll < 0.45:
        row = [F(0)] * len(row)
    return tuple(row)


def _fraction_sum_violations(model):
    """The exact row laws checked with ``Fraction`` sums: the reference
    for ``validate``'s integer sums."""
    out = []

    def law(entries, where, names):
        for x, name in zip(entries, names):
            if x < 0:
                out.append(f"{name} is negative")
        total = sum(entries, F(0))
        if total != 1:
            out.append(f"{where} sums to {total}")

    def rows(name, matrix):
        for i, row in enumerate(matrix):
            law(row, f"{name} row {i}",
                [f"{name}[{i}][{j}]" for j in range(len(row))])

    law(model.initial, "pi", [f"pi[{i}]" for i in range(model.num_states)])
    if isinstance(model, HmmModel):
        rows("M", model.transition)
        rows("E", model.emission)
        return out
    for i in range(model.num_states):
        names = [f"F[{i}]"]
        entries = [model.final[i]]
        for a, symbol in enumerate(model.alphabet.symbols):
            names += [f"Ma {symbol}[{i}][{j}]" for j in range(model.num_states)]
            entries += model.transitions[a][i]
        law(entries, f"state {i} outgoing mass", names)
    return out


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_exact_validation_matches_fraction_sums(seed):
    rng = random.Random(seed)
    n, ns = rng.randint(1, 4), rng.randint(1, 3)
    if rng.random() < 0.5:
        m = g.random_hmm(rng, n, ns)
        model = HmmModel(m.alphabet, _spoiled(rng, m.initial),
                         tuple(_spoiled(rng, r) for r in m.transition),
                         tuple(_spoiled(rng, r) for r in m.emission))
    else:
        m = g.random_pfa(rng, n, ns)
        model = PfaModel(m.alphabet, _spoiled(rng, m.initial),
                         tuple(tuple(_spoiled(rng, r) for r in ma)
                               for ma in m.transitions),
                         _spoiled(rng, m.final))
    assert validate(model) == _fraction_sum_violations(model)


class TestStopReduction:
    def test_rejects_stop_symbol_in_alphabet(self):
        m = PfaModel(Alphabet(("$",)), (F(1),), (((F(0),),),), (F(1),))
        with pytest.raises(ValueError, match="stop symbol"):
            pfa_to_hmm(m)

    def test_state_count_and_alphabet(self):
        pfa = g.random_pfa(random.Random(3), 3, 2)
        hmm = pfa_to_hmm(pfa)
        assert hmm.num_states == 3 * 2 + 1
        assert hmm.alphabet.symbols == ("a", "b", "$")
        assert validate(hmm) == []

    def test_acceptance_matches_stop_terminated_words(self):
        # the whole point of the reduction: for every word v over the
        # original alphabet, P(v then stop) equals the reduced process
        # probability of v followed by $
        rng = random.Random(11)
        for _ in range(12):
            pfa = g.random_pfa(rng, rng.randint(1, 3), rng.randint(1, 2))
            lr = compile_hmm(pfa_to_hmm(pfa))
            ns = len(pfa.alphabet)
            stop = ns  # index of $ in the extended alphabet
            for t in range(4):
                for word in itertools.product(range(ns), repeat=t):
                    assert lr.prob(word + (stop,)) == \
                        acceptance_probability(pfa, word)

    def test_half_stop_acceptances(self):
        # one state, emits a with 1/2 and stops with 1/2:
        # P(stop at once) = 1/2, P(a then stop) = 1/4
        pfa = load_corpus_model("half_stop.pfa")
        assert acceptance_probability(pfa, ()) == F(1, 2)
        assert acceptance_probability(pfa, (0,)) == F(1, 4)
