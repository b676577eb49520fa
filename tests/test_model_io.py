import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary.linalg import integral
from finitary.model_io import (
    ModelSyntaxError,
    ModelValidationError,
    _scan,
    parse_model,
    serialize_model,
)
from finitary.models import HmmModel, PfaModel, QrwModel
from finitary.representation import LinearRepresentation, compile_model
from finitary.scalars import EXACT, FLOAT, one

import generators as g
from conftest import CORPUS_DIR, corpus_names, load_corpus_model


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
        with pytest.raises(ModelSyntaxError) as info:
            parse_model("kind: qrw\nmode: exact\nalphabet: a\nk: 2\n"
                        "labels: a b\nU: 1 0 0 1\npsi0: 1 0\n")
        assert str(info.value) == "line 5, column 11: unknown symbol: 'b'"

    @pytest.mark.parametrize("text, message", [
        (GOOD_HMM.replace("kind: hmm", "kind: hmm pfa"),
         "line 1: field 'kind' wants one value, got 2"),
        (GOOD_HMM.replace("alphabet: a", "alphabet:"),
         "line 3: alphabet must be non-empty"),
        (GOOD_HMM.replace("alphabet: a", "alphabet: a:b"),
         "line 3: bad alphabet symbol: 'a:b'"),
        ("kind: qrw\nmode: exact\nalphabet: a\nk: 1\nlabels: a\n"
         "U: 1+i\npsi0: 1\n",
         "line 6, column 4: malformed complex literal: '1+i'"),
    ], ids=["two-kinds", "empty-alphabet", "bad-symbol", "complex-literal"])
    def test_header_and_entry_errors_carry_their_position(self, text,
                                                          message):
        with pytest.raises(ModelSyntaxError) as info:
            parse_model(text)
        assert str(info.value) == message

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


# a line separator for str.splitlines() that is no line end in a file
UNICODE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d",
                  "\x1e"]


class TestLineEnds:
    @pytest.mark.parametrize("mark", UNICODE_BREAKS,
                             ids=[f"U+{ord(c):04X}" for c in UNICODE_BREAKS])
    def test_a_comment_runs_to_the_line_end(self, mark):
        text = (CORPUS_DIR / "coin.hmm").read_text().replace(
            "kind: hmm\n", f"kind: hmm  # note{mark}alphabet: z\n")
        assert parse_model(text) == load_corpus_model("coin.hmm")

    @pytest.mark.parametrize("mark", UNICODE_BREAKS,
                             ids=[f"U+{ord(c):04X}" for c in UNICODE_BREAKS])
    def test_line_numbers_count_file_lines(self, mark):
        # pi: is line 6 of coin.hmm and E's entries are on line 10
        text = (CORPUS_DIR / "coin.hmm").read_text()
        first = text.index("\n")
        spoiled = (text[:first] + f"{mark}pi: 0" + text[first:]) \
            .replace("1/2 1/2", "1/2 x")
        with pytest.raises(ModelSyntaxError) as info:
            parse_model(spoiled)
        assert str(info.value) == \
            "line 10, column 5: not an exact rational literal: 'x'"

    def test_a_separator_between_entries_is_whitespace(self):
        text = GOOD_HMM.replace("E: 1", "E:\u20281\u2029")
        assert parse_model(text) == parse_model(GOOD_HMM)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_carriage_return_line_ends(self, end):
        text = GOOD_HMM.replace("pi: 1\n", "pi: x\n").replace("\n", end)
        with pytest.raises(ModelSyntaxError, match="^line 5, column 5: "):
            parse_model(text)
        assert parse_model(GOOD_HMM.replace("\n", end)) == \
            parse_model(GOOD_HMM)


@pytest.fixture()
def digit_cap():
    """Python's int <-> str digit limit, which every call must leave as
    it found it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int <-> str digit limit in this Python")
    saved = sys.get_int_max_str_digits()
    yield saved
    assert sys.get_int_max_str_digits() == saved


class TestLongIntegers:
    def test_literals_beyond_the_digit_cap(self, digit_cap):
        zeros = "0" * 4999  # k = 10**4999: 1/3 is k/3k and 2/3 is 2k/3k
        long_row = f"1{zeros}/3{zeros} 2{zeros}/3{zeros}"
        text = (CORPUS_DIR / "biased.hmm").read_text().replace("1/3 2/3",
                                                               long_row)
        assert len(zeros) >= digit_cap
        assert parse_model(text) == load_corpus_model("biased.hmm")

    def test_a_long_state_count_is_a_syntax_error(self, digit_cap):
        count = "1" + "0" * 5000
        with pytest.raises(ModelSyntaxError) as info:
            parse_model(GOOD_HMM.replace("n: 1", f"n: {count}"))
        assert str(info.value) == \
            f"line 5: field 'pi' has 1 entries, expected {count}"

    def test_long_values_serialize(self, digit_cap):
        q = 3 ** 9500
        model = HmmModel(g.alphabet(2), (Fraction(1),), ((Fraction(1),),),
                         ((Fraction(1, q), Fraction(q - 1, q)),))
        assert parse_model(serialize_model(model)) == model


HMM_TEXT = """kind: hmm
mode: exact
alphabet: a b
n: 2
pi: 1/2 1/2
M:
1/3 2/3
1 0
E:
1/4 3/4
1/2 1/2
"""
PFA_TEXT = """kind: pfa
mode: exact
alphabet: a b
n: 2
pi: 1 0
F: 1/2 1/4
Ma a:
1/4 0
0 1/4
Ma b:
0 1/4
1/4 1/4
"""
SYNTAX, INVALID = ModelSyntaxError, ModelValidationError

# (text, what in it is replaced, by what, the error, its message)
LOADING_ERRORS = [
    (HMM_TEXT, "pi: 1/2 1/2", "pi: 1/2 x", SYNTAX,
     "line 5, column 9: not an exact rational literal: 'x'"),
    (HMM_TEXT, "1 0\nE", "1 0.0\nE", SYNTAX,
     "line 8, column 3: not an exact rational literal: '0.0'"),
    (HMM_TEXT, "1/4 3/4", "1/4 3/-4", SYNTAX,
     "line 10, column 5: not an exact rational literal: '3/-4'"),
    (HMM_TEXT, "1/4 3/4", "1/4 3//4", SYNTAX,
     "line 10, column 5: not an exact rational literal: '3//4'"),
    (HMM_TEXT, "1/4 3/4", "1/4 \uff13/4", SYNTAX,
     "line 10, column 5: not an exact rational literal: '\uff13/4'"),
    (HMM_TEXT, "pi: 1/2 1/2", "pi: 1/2 1/0", SYNTAX,
     "line 5, column 9: zero denominator: '1/0'"),
    (HMM_TEXT, "1/3 2/3", "0/0 1", SYNTAX,
     "line 7, column 1: zero denominator: '0/0'"),
    (HMM_TEXT, "1/3 2/3", "-1/3 4/3", INVALID, "M[0][0] is negative"),
    (HMM_TEXT, "1/2 1/2\n", "3/2 -1/2\n", INVALID, "pi[1] is negative"),
    (HMM_TEXT, "1/3 2/3", "1/3 7/9", INVALID, "M row 0 sums to 10/9"),
    (HMM_TEXT, "1/3 2/3", "1/3 5/9", INVALID, "M row 0 sums to 8/9"),
    (HMM_TEXT, "pi: 1/2 1/2", "pi: 1/2 3/5", INVALID, "pi sums to 11/10"),
    (HMM_TEXT, "pi: 1/2 1/2", "pi: -1/2 3/2", INVALID, "pi[0] is negative"),
    (HMM_TEXT, "1/4 3/4", "-1/4 3/4", INVALID,
     "E[0][0] is negative; E row 0 sums to 1/2"),
    (HMM_TEXT, "pi: 1/2 1/2\nM:\n1/3 2/3\n1 0",
     "pi: 1/2 2/3\nM:\n-1/3 1/3\n1 1/7", INVALID,
     "pi sums to 7/6; M[0][0] is negative; M row 0 sums to 0; "
     "M row 1 sums to 8/7"),
    (HMM_TEXT, "1/3 2/3\n1 0", "1/3 2/3\n1", SYNTAX,
     "line 6: field 'M' has 3 entries, expected 4"),
    (HMM_TEXT, "1/4 3/4\n", "1/4 3/4 0\n", SYNTAX,
     "line 9: field 'E' has 5 entries, expected 4"),
    (HMM_TEXT, "pi: 1/2 1/2", "pi: 1", SYNTAX,
     "line 5: field 'pi' has 1 entries, expected 2"),
    (HMM_TEXT, "n: 2", "n: -2", SYNTAX,
     "line 4, column 4: 'n' must be a positive integer, got '-2'"),
    (PFA_TEXT, "F: 1/2 1/4", "F: 1/2 1/3", INVALID,
     "state 1 outgoing mass sums to 13/12"),
    (PFA_TEXT, "F: 1/2 1/4", "F: 1/2 1/5", INVALID,
     "state 1 outgoing mass sums to 19/20"),
    (PFA_TEXT, "F: 1/2 1/4\nMa a:\n1/4 0", "F: 1/2 1/4\nMa a:\n1/4 1/2",
     INVALID, "state 0 outgoing mass sums to 3/2"),
    (PFA_TEXT, "F: 1/2 1/4", "F: -1/2 1/4", INVALID,
     "F[0] is negative; state 0 outgoing mass sums to 0"),
    (PFA_TEXT, "Ma a:\n1/4 0", "Ma a:\n3/4 -1/2", INVALID,
     "Ma a[0][1] is negative"),
    (PFA_TEXT, "Ma b:\n0 1/4\n1/4 1/4", "Ma b:\n0 1/4\n1/4 -1/4", INVALID,
     "Ma b[1][1] is negative; state 1 outgoing mass sums to 1/2"),
    (PFA_TEXT, "pi: 1 0", "pi: 1 1", INVALID, "pi sums to 2"),
    (PFA_TEXT, "Ma b:\n0 1/4\n1/4 1/4", "Ma b:\n0 1/4\n1/4 1/4 0", SYNTAX,
     "line 10: field 'Ma b' has 5 entries, expected 4"),
    (PFA_TEXT, "F: 1/2 1/4", "F: 1/2", SYNTAX,
     "line 6: field 'F' has 1 entries, expected 2"),
    (PFA_TEXT, "F: 1/2 1/4", "F: 1/2 1/0", SYNTAX,
     "line 6, column 8: zero denominator: '1/0'"),
    (PFA_TEXT, "F: 1/2 1/4", "F: 1/2 1/4e0", SYNTAX,
     "line 6, column 8: not an exact rational literal: '1/4e0'"),
]


class TestLoadingErrors:
    @pytest.mark.parametrize("text, old, new, error, message", LOADING_ERRORS,
                             ids=[f"{c[0][6:9]}:{c[2]}" for c in LOADING_ERRORS])
    def test_message(self, text, old, new, error, message):
        assert old in text
        with pytest.raises(error) as info:
            parse_model(text.replace(old, new, 1))
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("text, old, new", [
        (HMM_TEXT, "n: 2\npi: 1/2 1/2\nM:\n1/3 2/3\n1 0\nE:\n1/4 3/4",
         "n: 02\npi: 2/4 +3/6\nM:\n+2/6 04/6\n07/07 -0\nE:\n+1/4 6/08"),
        (PFA_TEXT, "pi: 1 0\nF: 1/2 1/4\nMa a:\n1/4 0",
         "pi: 01 -0/3\nF: 2/4 +3/12\nMa a:\n07/28 -00"),
    ], ids=["hmm", "pfa"])
    def test_non_canonical_literals_read_as_their_values(self, text, old,
                                                          new):
        assert old in text
        spelled = parse_model(text.replace(old, new, 1))
        canonical = parse_model(text)
        assert spelled == canonical
        assert _entries(spelled) == _entries(canonical)
        assert serialize_model(spelled) == serialize_model(canonical)


def _spelled(rng: random.Random, x: Fraction) -> str:
    """``x`` as one of its many exact literals: any sign, leading zeros,
    a common factor in numerator and denominator."""
    k = rng.choice([1, 1, 2, 3, 7])
    sign = "-" if x < 0 else rng.choice(["", "+", "-" if x == 0 else ""])
    num = "0" * rng.randint(0, 2) + str(abs(x.numerator) * k)
    if x.denominator * k == 1 and rng.random() < 0.5:
        return sign + num
    return f"{sign}{num}/{'0' * rng.randint(0, 1)}{x.denominator * k}"


def _spelled_text(rng: random.Random, model) -> str:
    """A file of ``model`` whose exact literals are spelled at random."""
    def rows(rows):
        return "\n".join(" ".join(_spelled(rng, x) for x in row)
                         for row in rows)

    head = (f"mode: exact\nalphabet: {' '.join(model.alphabet.symbols)}\n"
            f"n: {model.num_states}\npi: {rows([model.initial])}\n")
    if isinstance(model, HmmModel):
        return (f"kind: hmm\n{head}M:\n{rows(model.transition)}\n"
                f"E:\n{rows(model.emission)}\n")
    return (f"kind: pfa\n{head}F: {rows([model.final])}\n" + "".join(
        f"Ma {s}:\n{rows(m)}\n"
        for s, m in zip(model.alphabet.symbols, model.transitions)))


def _reference_compile(model) -> LinearRepresentation:
    """The representation of ``model`` from its entries, straight from the
    definition: T[a] = Ma for an automaton, T[a][i][j] = E[i][a] * M[i][j]
    for a hidden Markov model.  An exact step is split by ``integral``, a
    float step is ``(1.0, T[a])``; no row law is involved."""
    n = model.num_states
    if isinstance(model, PfaModel):
        matrices, fin = model.transitions, model.final
    else:
        matrices = [tuple(tuple(model.emission[i][a] * model.transition[i][j]
                                for j in range(n)) for i in range(n))
                    for a in range(len(model.alphabet))]
        fin = (one(model.mode),) * n
    steps = []
    for m in matrices:
        scale, flat = integral([x for row in m for x in row], model.mode)
        steps.append((scale, tuple(tuple(flat[i * n:(i + 1) * n])
                                   for i in range(n))))
    return LinearRepresentation(model.alphabet, tuple(steps), model.initial,
                                fin, model.mode)


def _entries(model) -> tuple:
    if isinstance(model, HmmModel):
        return model.initial, model.transition, model.emission
    return model.initial, model.transitions, model.final


def _flat(entries):
    if isinstance(entries, tuple):
        for x in entries:
            yield from _flat(x)
    else:
        yield entries


def _built_from_tokens(text: str, model):
    """The model ``text`` describes, built from ``Fraction(token)`` of each
    of its exact literals, with ``model`` for the shape."""
    records = _scan(text)
    n, alphabet = model.num_states, model.alphabet

    def rows(name, width):
        flat = [Fraction(t) for t in records[name].tokens]
        return tuple(tuple(flat[i:i + width])
                     for i in range(0, len(flat), width))

    (pi,) = rows("pi", n)
    if isinstance(model, HmmModel):
        return HmmModel(alphabet, pi, rows("M", n), rows("E", len(alphabet)))
    (final,) = rows("F", n)
    return PfaModel(alphabet, pi, tuple(rows(f"Ma {s}", n)
                                        for s in alphabet.symbols), final)


class TestParsedEqualsBuilt:
    def _check(self, parsed, built):
        assert parsed == built and hash(parsed) == hash(built)
        entries = _entries(parsed)
        assert entries == _entries(built)
        kind = Fraction if built.mode == EXACT else float
        assert all(type(x) is kind for x in _flat(entries))
        reference = _reference_compile(built)
        for lr in (compile_model(parsed), compile_model(built)):
            assert lr.integer_steps == reference.integer_steps
            assert lr.init == reference.init and lr.fin == reference.fin

    @pytest.mark.parametrize("name", [n for n in corpus_names()
                                      if not n.endswith(".qrw")])
    def test_corpus(self, name):
        text = (CORPUS_DIR / name).read_text()
        parsed = parse_model(text)
        self._check(parsed, _built_from_tokens(text, parsed))

    def test_automaton_with_a_factored_row_and_a_zero_step(self):
        # row 1 of Ma a has the common factor 1/4, and no state reads c
        text = ("kind: pfa\nmode: exact\nalphabet: a b c\nn: 2\n"
                "pi: 1 0\nF: 1/2 1/2\nMa a:\n0 2/6\n1/4 1/4\n"
                "Ma b:\n1/6 0\n0 0\nMa c:\n0 0\n0 0\n")
        parsed = parse_model(text)
        self._check(parsed, _built_from_tokens(text, parsed))
        twin = PfaModel(parsed.alphabet, tuple(map(float, parsed.initial)),
                        tuple(tuple(tuple(map(float, row)) for row in m)
                              for m in parsed.transitions),
                        tuple(map(float, parsed.final)), FLOAT)
        self._check(parse_model(serialize_model(twin)), twin)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_spelled_random_models(self, seed):
        rng = random.Random(seed)
        n, ns = rng.randint(1, 5), rng.randint(1, 3)
        built = (g.random_hmm(rng, n, ns) if rng.random() < 0.5
                 else g.random_pfa(rng, n, ns))
        self._check(parse_model(_spelled_text(rng, built)), built)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_random_float_models(self, seed):
        rng = random.Random(seed)
        n, ns = rng.randint(1, 6), rng.randint(1, 3)
        built = (g.random_dense_float_hmm(rng, n, ns) if rng.random() < 0.5
                 else g.random_float_pfa(rng, n, ns))
        self._check(parse_model(serialize_model(built)), built)


def test_loading_builds_fractions_per_row_not_per_entry(monkeypatch):
    # parse, validate and compile an exact HMM (n = 12, 3 symbols: 192
    # entries) and an automaton (n = 8, 3 symbols: 208 entries); the
    # Fractions left are pi's and F's entries, one scale per symbol and
    # the HMM's fin of ones
    rng = random.Random(12)
    texts = [(serialize_model(g.random_hmm(rng, 12, 3)), 12 + 3 + 1),
             (serialize_model(g.random_pfa(rng, 8, 3)), 8 + 8 + 3)]
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for text, allowed in texts:
        calls.clear()
        compile_model(parse_model(text))
        assert len(calls) <= allowed


def test_serializer_rejects_non_model():
    with pytest.raises(TypeError):
        serialize_model("not a model")
