import dataclasses
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
    pfa_to_hmm,
    validate,
)
from finitary.representation import compile_hmm
from finitary.scalars import EXACT, FLOAT

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

    @pytest.mark.parametrize("symbol", ["a b", "a\tb", "a\nb"])
    def test_inner_whitespace_rejected(self, symbol):
        with pytest.raises(ValueError) as info:
            Alphabet((symbol,))
        assert str(info.value) == f"bad alphabet symbol: {symbol!r}"

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
        one = (F(1), F(0))
        with pytest.raises(ValueError, match="label"):
            QrwModel(Alphabet(("a",)), (1,), ((one,),), (one,))

    @pytest.mark.parametrize("labels,evolution,wave,mode,message", [
        ((), (), (), EXACT, "model needs at least one coordinate"),
        ((0, 0), ((1, 0),), (1, 0), EXACT, "evolution matrix must be k x k"),
        ((0, 0), ((1, 0), (0,)), (1, 0), EXACT,
         "evolution matrix must be k x k"),
        ((0,), ((1, 0), (0, 1)), (1, 0), EXACT,
         "labels must assign a symbol to each coordinate"),
        ((0, 0, 0), ((1, 0), (0, 1)), (1, 0), EXACT,
         "labels must assign a symbol to each coordinate"),
        ((0,), ((1,),), (1,), "double", "unknown scalar mode: 'double'"),
    ])
    def test_qrw_shape_and_mode_messages(self, labels, evolution, wave,
                                         mode, message):
        with pytest.raises(ValueError) as info:
            QrwModel(Alphabet(("a",)), labels, evolution, wave, mode)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry,mode", [
        ((F(1),), EXACT),
        ((F(1), F(0), F(0)), EXACT),
        ((1.0, F(0)), EXACT),
        ((F(1), 0.0), FLOAT),
    ])
    def test_qrw_entry_must_be_a_pair_in_the_mode(self, entry, mode):
        # an entry is a number or a pair (re, im) of scalars in the mode
        one = (F(1), F(0)) if mode == EXACT else (1.0, 0.0)
        with pytest.raises((TypeError, ValueError)):
            QrwModel(Alphabet(("a",)), (0,), ((entry,),), (one,), mode)
        with pytest.raises((TypeError, ValueError)):
            QrwModel(Alphabet(("a",)), (0,), ((one,),), (entry,), mode)

    def test_pfa_matrix_count(self):
        with pytest.raises(ValueError, match="per symbol"):
            PfaModel(Alphabet(("a", "b")), (F(1),), (((F(0),),),), (F(1),))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            HmmModel(Alphabet(("a",)), (), (), ())
        with pytest.raises(ValueError, match="at least one state"):
            PfaModel(Alphabet(("a",)), (), ((),), ())

    def test_pfa_final_length(self):
        with pytest.raises(ValueError,
                           match="final vector must have n entries"):
            PfaModel(Alphabet(("a",)), (F(1),), (((F(0),),),), (F(1), F(0)))

    def test_pfa_ragged_transition(self):
        with pytest.raises(ValueError,
                           match="transition matrices must be n x n"):
            PfaModel(Alphabet(("a",)), (F(1),), (((F(0), F(0)),),), (F(1),))

    @pytest.mark.parametrize("cls", [HmmModel, PfaModel])
    def test_unknown_mode(self, cls):
        with pytest.raises(ValueError, match="unknown scalar mode: 'double'"):
            cls(Alphabet(("a",)), (F(1),), ((F(1),),), ((F(1),),),
                mode="double")


class TestRowLaws:
    def test_laws_are_canonical_integer_rows(self):
        m = HmmModel(Alphabet(("a", "b")), (F(1, 2), F(1, 2)),
                     ((F(1, 3), F(2, 3)), (F(1), F(0))),
                     ((F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))))
        assert m.laws == ((2, (1, 1)), ((3, (1, 2)), (1, (1, 0))),
                          ((4, (1, 3)), (2, (1, 1))))
        pfa = PfaModel(Alphabet(("a", "b")), (F(1), F(0)),
                       (((F(1, 4), F(0)), (F(0), F(1, 4))),
                        ((F(0), F(1, 4)), (F(1, 4), F(1, 4)))),
                       (F(1, 2), F(1, 4)))
        # state i: F[i], then row i of Ma a and of Ma b
        assert pfa.laws == ((1, (1, 0)),
                            ((4, (2, 1, 0, 0, 1)), (4, (1, 0, 1, 1, 1))))

    @pytest.mark.parametrize("name", [n for n in corpus_names()
                                      if not n.endswith(".qrw")])
    def test_a_model_built_from_its_laws_reads_back_its_entries(self, name):
        model = load_corpus_model(name)
        again = type(model)(model.alphabet, mode=model.mode, laws=model.laws)
        assert again == model
        fields = (("initial", "transition", "emission")
                  if isinstance(model, HmmModel)
                  else ("initial", "transitions", "final"))
        for field in fields:
            assert getattr(again, field) == getattr(model, field)

    def test_a_float_law_is_its_row_over_one(self):
        m = HmmModel(Alphabet(("a", "b")), (0.5, 0.5),
                     ((0.25, 0.75), (1.0, 0.0)), ((1, 0), (0.5, 0.5)), FLOAT)
        assert m.laws == ((1, (0.5, 0.5)), ((1, (0.25, 0.75)), (1, (1.0, 0.0))),
                          ((1, (1.0, 0.0)), (1, (0.5, 0.5))))
        pfa = PfaModel(Alphabet(("a",)), (1.0,), (((0.25,),),), (0.75,),
                       FLOAT)
        assert pfa.laws == ((1, (1.0,)), ((1, (0.75, 0.25)),))
        assert pfa.final == (0.75,) and type(pfa.final[0]) is float

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_a_built_model_stores_only_its_laws(self, mode):
        rng = random.Random(7)
        if mode == EXACT:
            hmm, pfa = g.random_hmm(rng, 3, 2), g.random_pfa(rng, 3, 2)
        else:
            hmm = g.random_dense_float_hmm(rng, 3, 2)
            pfa = g.random_float_pfa(rng, 3, 2)
        for model, fields in ((hmm, ("initial", "transition", "emission")),
                              (pfa, ("initial", "transitions", "final"))):
            assert set(vars(model)) == {"alphabet", "laws", "mode"}
            for field in fields:
                getattr(model, field)
            assert set(vars(model)) == {"alphabet", "laws", "mode", *fields}

    def test_replace_keeps_the_laws(self):
        coin = load_corpus_model("coin.hmm")
        renamed = dataclasses.replace(coin, alphabet=Alphabet(("x", "y")))
        assert renamed.laws == coin.laws
        assert renamed.emission == coin.emission

    def test_entries_or_laws_not_both(self):
        coin = load_corpus_model("coin.hmm")
        with pytest.raises(TypeError, match="entries or their laws"):
            HmmModel(coin.alphabet, coin.initial, coin.transition,
                     coin.emission, laws=coin.laws)
        with pytest.raises(TypeError, match="entries or their laws"):
            PfaModel(coin.alphabet, coin.initial)


def _walk(u, psi, mode=EXACT):
    """A two-coordinate walk over a b from (re, im) pairs."""
    return QrwModel(Alphabet(("a", "b")), (0, 1), u, psi, mode)


# a 3/5 4/5 rotation with its second column turned by 5/13 + 12/13 i:
# unitary, with denominators 5, 13 and 65 side by side
MIXED_U = (((F(3, 5), F(0)), (F(-4, 13), F(-48, 65))),
           ((F(4, 5), F(0)), (F(3, 13), F(36, 65))))
MIXED_PSI = ((F(3, 5), F(0)), (F(0), F(4, 5)))
FLOAT_U = (((0.6, 0.0), (0.8, 0.0)), ((0.8, 0.0), (-0.6, 0.0)))
FLOAT_U_OFF = (((0.6 + 1e-7, 0.0), (0.8, 0.0)), FLOAT_U[1])
FLOAT_PSI = ((1.0, 0.0), (0.0, 0.0))
FLOAT_PSI_OFF = ((1.00000005, 0.0), (0.0, 0.0))


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
        half = (F(1, 2), F(0))
        one = (F(1), F(0))
        m = QrwModel(Alphabet(("a",)), (0,), ((half,),), (one,))
        assert "unitarity violated at entry (0,0)" in validate(m)

    def test_qrw_bad_wave_norm(self):
        one = (F(1), F(0))
        m = QrwModel(Alphabet(("a",)), (0,), ((one,),), ((F(1, 2), F(0)),))
        assert "psi0 has squared norm 1/4" in validate(m)

    def test_qrw_unused_symbol(self):
        one = (F(1), F(0))
        m = QrwModel(Alphabet(("a", "b")), (0,), ((one,),), (one,))
        assert "symbol b labels no coordinate" in validate(m)

    def test_qrw_mixed_denominators(self):
        assert validate(_walk(MIXED_U, MIXED_PSI)) == []

    def test_qrw_perturbed_entry_names_its_row(self):
        # U[1][0] + 1/100: row 1 loses its norm and its orthogonality to
        # row 0, and row 0 keeps its norm
        u = (MIXED_U[0], ((F(81, 100), F(0)), MIXED_U[1][1]))
        assert validate(_walk(u, MIXED_PSI)) == [
            "unitarity violated at entry (0,1)",
            "unitarity violated at entry (1,0)",
            "unitarity violated at entry (1,1)"]

    def test_qrw_perturbed_wave_norm(self):
        psi = (MIXED_PSI[0], (F(1, 65), F(4, 5)))
        assert validate(_walk(MIXED_U, psi)) == [
            "psi0 has squared norm 4226/4225"]

    def test_float_qrw_unitarity_within_tolerance(self):
        m = _walk(FLOAT_U_OFF, FLOAT_PSI, FLOAT)
        assert validate(m) == ["unitarity violated at entry (0,0)",
                               "unitarity violated at entry (0,1)",
                               "unitarity violated at entry (1,0)"]
        assert validate(m, tolerance=1e-6) == []

    def test_float_qrw_norm_within_tolerance(self):
        m = _walk(FLOAT_U, FLOAT_PSI_OFF, FLOAT)
        assert validate(m) == ["psi0 has squared norm 1.0000001000000023"]
        assert validate(m, tolerance=1e-6) == []

    def test_pfa_outgoing_mass(self):
        m = PfaModel(Alphabet(("a",)), (F(1),), (((F(1, 3),),),), (F(1, 3),))
        assert validate(m) == ["state 0 outgoing mass sums to 2/3"]

    def test_float_mode_tolerance(self):
        m = HmmModel(Alphabet(("a", "b")), (1.0,), ((1.0,),),
                     ((0.5, 0.5 + 1e-12),), mode=FLOAT)
        assert validate(m) == []
        assert validate(m, tolerance=1e-15) != []

    def test_float_nan_entries_are_reported(self):
        nan = float("nan")
        m = HmmModel(Alphabet(("a",)), (nan,), ((1.0,),), ((1.0,),), FLOAT)
        assert validate(m) == ["pi sums to nan"]
        pfa = PfaModel(Alphabet(("a",)), (1.0,), (((nan,),),), (0.5,), FLOAT)
        assert validate(pfa) == ["state 0 outgoing mass sums to nan"]

    def test_float_sums_run_left_to_right(self):
        # ten 0.1s added one at a time make 0.9999999999999999; a
        # compensated sum (the builtin from Python 3.12) makes 1.0
        m = HmmModel(Alphabet(("a",)), (0.1,) * 10,
                     tuple(tuple(float(i == j) for j in range(10))
                           for i in range(10)),
                     ((1.0,),) * 10, FLOAT)
        assert validate(m, tolerance=0.0) == ["pi sums to 0.9999999999999999"]

    def test_exact_negative_entries_ignore_the_tolerance(self):
        m = HmmModel(Alphabet(("a", "b")), (F(1),), ((F(1),),),
                     ((F(-1, 10**12), F(1) + F(1, 10**12)),))
        assert validate(m, tolerance=1.0) == ["E[0][0] is negative"]


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
                        g.acceptance_probability(pfa, word)

    def test_half_stop_acceptances(self):
        # one state, emits a with 1/2 and stops with 1/2:
        # P(stop at once) = 1/2, P(a then stop) = 1/4
        pfa = load_corpus_model("half_stop.pfa")
        assert g.acceptance_probability(pfa, ()) == F(1, 2)
        assert g.acceptance_probability(pfa, (0,)) == F(1, 4)
