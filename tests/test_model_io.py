import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary.model_io import (
    ModelSyntaxError,
    ModelValidationError,
    parse_model,
    serialize_model,
)
from finitary.models import HmmModel, PfaModel, QrwModel

import generators as g
from conftest import CORPUS_DIR, corpus_names


class TestCorpusRoundTrip:
    def test_parse_serialize_parse(self):
        for name in corpus_names():
            text = (CORPUS_DIR / name).read_text()
            model = parse_model(text)
            canonical = serialize_model(model)
            assert parse_model(canonical) == model, name
            # canonical form is a fixpoint
            assert serialize_model(parse_model(canonical)) == canonical, name

    def test_kinds_by_extension(self):
        kinds = {"hmm": HmmModel, "qrw": QrwModel, "pfa": PfaModel}
        for name in corpus_names():
            model = parse_model((CORPUS_DIR / name).read_text())
            assert isinstance(model, kinds[name.rsplit(".", 1)[1]]), name


class TestGeneratedRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_random_models_round_trip(self, seed):
        rng = random.Random(seed)
        models = [
            g.random_hmm(rng, rng.randint(1, 4), rng.randint(1, 3)),
            g.random_pfa(rng, rng.randint(1, 3), rng.randint(1, 2)),
            g.random_qrw(rng, rng.randint(2, 3), 2),
            g.random_dense_float_hmm(rng, rng.randint(1, 4), 2),
        ]
        for model in models:
            assert parse_model(serialize_model(model)) == model

    def test_layout_insensitive(self):
        # inline vs per-row layout and extra blank/comment lines all parse
        # to the same model
        inline = "kind: hmm\nmode: exact\nalphabet: a b\nn: 2\n" \
                 "pi: 1 0\nM: 1/2 1/2 1 0\nE: 1 0 0 1\n"
        spread = """
# two states
kind: hmm
mode: exact
alphabet: a b
n: 2
pi:
  1 0
M:
  1/2 1/2   # leaves half the mass in place
  1 0
E:
  1 0
  0 1
"""
        assert parse_model(inline) == parse_model(spread)


GOOD_HMM = "kind: hmm\nmode: exact\nalphabet: a\nn: 1\npi: 1\nM: 1\nE: 1\n"


class TestSyntaxErrors:
    def test_missing_field(self):
        with pytest.raises(ModelSyntaxError, match="missing field 'pi'"):
            parse_model("kind: hmm\nmode: exact\nalphabet: a\nn: 1\nM: 1\nE: 1\n")

    def test_duplicate_field(self):
        with pytest.raises(ModelSyntaxError, match="line 3: duplicate field 'mode'"):
            parse_model("kind: hmm\nmode: exact\nmode: exact\n")

    def test_values_before_any_field(self):
        with pytest.raises(ModelSyntaxError, match="line 1: values before"):
            parse_model("1 2 3\n")

    def test_unknown_kind(self):
        with pytest.raises(ModelSyntaxError, match="unknown kind 'markov'"):
            parse_model("kind: markov\n")

    def test_unknown_mode(self):
        with pytest.raises(ModelSyntaxError, match="unknown mode 'double'"):
            parse_model("kind: hmm\nmode: double\n")

    def test_entry_count(self):
        bad = GOOD_HMM.replace("M: 1\n", "M: 1 0\n")
        with pytest.raises(ModelSyntaxError,
                           match="field 'M' has 2 entries, expected 1"):
            parse_model(bad)

    def test_bad_literal_reports_line_and_column(self):
        bad = "kind: hmm\nmode: exact\nalphabet: a\nn: 1\npi: 1\nM:\n0.5\nE: 1\n"
        with pytest.raises(ModelSyntaxError,
                           match="line 7, column 1: not an exact rational"):
            parse_model(bad)

    def test_column_counts_unicode_spaces_on_a_continuation_line(self):
        # a tab and an ideographic space (U+3000) each take one column
        bad = ("kind: hmm\nmode: exact\nalphabet: a\nn: 2\npi: 1 0\nM:\n"
               "1 0\n\t\u3000x 1\nE: 1 1\n")
        with pytest.raises(ModelSyntaxError) as info:
            parse_model(bad)
        assert str(info.value) == \
            "line 8, column 3: not an exact rational literal: 'x'"

    def test_float_literal_position_inline(self):
        bad = GOOD_HMM.replace("pi: 1\n", "pi: 1.0\n")
        with pytest.raises(ModelSyntaxError, match="line 5, column 5"):
            parse_model(bad)

    def test_unexpected_field(self):
        with pytest.raises(ModelSyntaxError, match="unexpected field 'Q'"):
            parse_model(GOOD_HMM + "Q: 1\n")

    def test_zero_states(self):
        bad = GOOD_HMM.replace("n: 1", "n: 0")
        with pytest.raises(ModelSyntaxError, match="positive integer"):
            parse_model(bad)

    @pytest.mark.parametrize("text, name", [
        (GOOD_HMM, "n"),
        ("kind: qrw\nmode: exact\nalphabet: a\nk: 1\nlabels: a\nU: 1\n"
         "psi0: 1\n", "k"),
    ], ids=["hmm", "qrw"])
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"],
                             ids=["superscript", "arabic-indic"])
    def test_count_takes_ascii_digits_only(self, text, name, digit):
        # "²" passes str.isdigit but not int(); "٣" (Arabic-Indic three)
        # passes both, and is refused as well
        bad = text.replace(f"{name}: 1", f"{name}: {digit}")
        with pytest.raises(ModelSyntaxError,
                           match=f"line 4, column 4: '{name}' must be a "
                                 f"positive integer, got '{digit}'"):
            parse_model(bad)

    @pytest.mark.parametrize("mode, literal, message", [
        ("exact", "\u0661", "not an exact rational literal: '\u0661'"),
        ("float", "\u0661.0", "not a numeric literal: '\u0661.0'"),
    ])
    def test_entry_takes_ascii_digits_only(self, mode, literal, message):
        # "١" (Arabic-Indic one) is a digit to "\d" and float(), but the
        # file format, like serialize_model, uses ASCII digits only
        bad = GOOD_HMM.replace("mode: exact", f"mode: {mode}") \
                      .replace("pi: 1\n", f"pi: {literal}\n")
        with pytest.raises(ModelSyntaxError,
                           match=f"line 5, column 5: {message}"):
            parse_model(bad)

    def test_complex_entry_takes_ascii_digits_only(self):
        bad = ("kind: qrw\nmode: exact\nalphabet: a\nk: 1\nlabels: a\n"
               "U: \u0661+0i\npsi0: 1\n")
        with pytest.raises(ModelSyntaxError,
                           match="line 6, column 4: not an exact rational "
                                 "literal: '\u0661'"):
            parse_model(bad)

    @pytest.mark.parametrize("mode, literal, message", [
        ("exact", "1_0/1_0", "not an exact rational literal: '1_0/1_0'"),
        ("float", "1_0e-1_0", "not a numeric literal: '1_0e-1_0'"),
    ])
    def test_entry_refuses_digit_separators(self, mode, literal, message):
        bad = GOOD_HMM.replace("mode: exact", f"mode: {mode}") \
                      .replace("pi: 1\n", f"pi: {literal}\n")
        with pytest.raises(ModelSyntaxError,
                           match=f"line 5, column 5: {message}"):
            parse_model(bad)

    @pytest.mark.parametrize("entry, part", [("1_0e-1+0i", "1_0e-1"),
                                             ("1+0_0i", "0_0")])
    def test_float_complex_entry_refuses_digit_separators(self, entry, part):
        bad = ("kind: qrw\nmode: float\nalphabet: a\nk: 1\nlabels: a\n"
               f"U: {entry}\npsi0: 1\n")
        with pytest.raises(ModelSyntaxError,
                           match=f"line 6, column 4: not a numeric literal: "
                                 f"'{part}'"):
            parse_model(bad)

    def test_labels_count(self):
        with pytest.raises(ModelSyntaxError, match="'labels' has 1 entries"):
            parse_model("kind: qrw\nmode: exact\nalphabet: a\nk: 2\n"
                        "labels: a\nU: 1 0 0 1\npsi0: 1 0\n")

    def test_unknown_label_symbol(self):
        with pytest.raises(ModelSyntaxError, match="unknown symbol: 'b'"):
            parse_model("kind: qrw\nmode: exact\nalphabet: a\nk: 1\n"
                        "labels: b\nU: 1\npsi0: 1\n")

    def test_fraction_in_float_mode(self):
        bad = GOOD_HMM.replace("mode: exact", "mode: float") \
                      .replace("pi: 1", "pi: 1/2")
        with pytest.raises(ModelSyntaxError, match="fraction literal"):
            parse_model(bad)


class TestValidationErrors:
    def test_violations_are_collected(self):
        bad = GOOD_HMM.replace("pi: 1\n", "pi: 1/2\n")
        with pytest.raises(ModelValidationError) as info:
            parse_model(bad)
        assert info.value.violations == ["pi sums to 1/2"]

    def test_message_joins_violations(self):
        bad = "kind: hmm\nmode: exact\nalphabet: a\nn: 1\npi: 2\nM: 3\nE: 1\n"
        with pytest.raises(ModelValidationError) as info:
            parse_model(bad)
        assert "pi sums to 2" in str(info.value)
        assert "M row 0 sums to 3" in str(info.value)

    def test_float_tolerance_is_honored(self):
        text = "kind: hmm\nmode: float\nalphabet: a\nn: 1\n" \
               "pi: 1.0000001\nM: 1.0\nE: 1.0\n"
        with pytest.raises(ModelValidationError):
            parse_model(text)
        assert parse_model(text, tolerance=1e-3) is not None


def test_serializer_rejects_non_model():
    with pytest.raises(TypeError):
        serialize_model("not a model")
