from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary.scalars import (
    _RATIONAL_RE,
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    as_complex,
    as_scalar,
    format_complex,
    format_scalar,
    parse_complex,
    parse_scalar,
    scalars_equal,
)


# digit strings with up to three leading zeros, from 0 to beyond 300 bits
DIGITS = st.builds(lambda zeros, value: "0" * zeros + str(value),
                   st.integers(0, 3), st.integers(0, 2**301))


class TestParseScalar:
    def test_exact_fraction(self):
        assert parse_scalar("1/3", EXACT) == Fraction(1, 3)

    def test_exact_negative_integer(self):
        assert parse_scalar("-2", EXACT) == Fraction(-2)

    def test_exact_rejects_decimal(self):
        with pytest.raises(ValueError, match="exact rational"):
            parse_scalar("0.5", EXACT)

    def test_exact_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar("1/0", EXACT)

    @settings(max_examples=300)
    @given(st.one_of(
        st.builds(lambda sign, num, den: sign + num + den,
                  st.sampled_from(["", "+", "-"]), DIGITS,
                  st.just("") | DIGITS.map(lambda d: "/" + d)),
        st.from_regex(_RATIONAL_RE, fullmatch=True)))
    def test_exact_literal_is_the_fraction_it_reads(self, text):
        # signs, leading zeros, zero numerators, 300-bit integers and
        # anything else the literal syntax admits
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                parse_scalar(text, EXACT)
            return
        value = parse_scalar(text, EXACT)
        assert type(value) is Fraction and value == expected

    @pytest.mark.parametrize("text", ["\u0661", "\uff11/\uff12", "1/\u0662",
                                      "-\u0967"])
    def test_exact_takes_ascii_digits_only(self, text):
        # "\d" and int() take any Unicode decimal digit, here Arabic-Indic,
        # fullwidth and Devanagari ones
        with pytest.raises(ValueError, match="not an exact rational literal"):
            parse_scalar(text, EXACT)

    @pytest.mark.parametrize("text", ["\u0661.5", "1e\u0663", "\uff10.25"])
    def test_float_takes_ascii_digits_only(self, text):
        # float() takes them too
        with pytest.raises(ValueError, match="not a numeric literal"):
            parse_scalar(text, FLOAT)

    @pytest.mark.parametrize("text", ["1_0", "1_0e-1_0", "0.2_5", "1e1_0"])
    def test_float_refuses_digit_separators(self, text):
        # float() takes PEP 515 underscores; exact mode and serialize_model
        # do not
        with pytest.raises(ValueError, match="not a numeric literal"):
            parse_scalar(text, FLOAT)

    def test_float_decimal(self):
        assert parse_scalar("0.25", FLOAT) == 0.25

    def test_float_rejects_fraction_syntax(self):
        with pytest.raises(ValueError, match="fraction literal"):
            parse_scalar("1/2", FLOAT)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_float_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="non-finite"):
            parse_scalar(text, FLOAT)

    def test_float_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("abc", FLOAT)


class TestFormatScalar:
    def test_fraction_lowest_terms(self):
        assert format_scalar(Fraction(2, 4)) == "1/2"

    def test_plain_int(self):
        assert format_scalar(Fraction(3)) == "3"

    def test_negative_zero_normalized(self):
        assert format_scalar(-0.0) == "0.0"

    @given(st.fractions(max_denominator=10**6))
    def test_exact_round_trip(self, q):
        assert parse_scalar(format_scalar(q), EXACT) == q

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip(self, x):
        # repr of a float reparses to the identical float
        assert parse_scalar(format_scalar(x), FLOAT) == x


class TestModeGuards:
    def test_float_refused_in_exact(self):
        with pytest.raises(TypeError):
            as_scalar(0.5, EXACT)

    def test_fraction_refused_in_float(self):
        with pytest.raises(TypeError):
            as_scalar(Fraction(1, 2), FLOAT)

    def test_exact_fraction_kept_as_is(self):
        q = Fraction(2, 3)
        assert as_scalar(q, EXACT) is q

    def test_int_acceptable_in_both(self):
        assert as_scalar(1, EXACT) == Fraction(1)
        assert as_scalar(1, FLOAT) == 1.0


class TestComparison:
    def test_exact_is_literal(self):
        assert not scalars_equal(Fraction(1, 3), Fraction(33333, 100000), EXACT)

    def test_float_tolerance(self):
        assert scalars_equal(0.1 + 0.2, 0.3, FLOAT, DEFAULT_TOLERANCE)
        assert not scalars_equal(0.3, 0.3 + 1e-6, FLOAT, DEFAULT_TOLERANCE)


class TestComplexScalar:
    """A walk entry is the pair (re, im) of scalars in the model's mode."""

    def test_as_complex_promotes_real(self):
        assert as_complex(2, EXACT) == (Fraction(2), Fraction(0))

    def test_as_complex_coerces_both_parts(self):
        z = as_complex((1, Fraction(-1, 2)), EXACT)
        assert z == (Fraction(1), Fraction(-1, 2))
        assert [type(x) for x in z] == [Fraction, Fraction]
        assert as_complex((1, 2), FLOAT) == (1.0, 2.0)

    @pytest.mark.parametrize("value,mode", [
        ((), EXACT),
        ((Fraction(1),), EXACT),
        ((Fraction(1), Fraction(0), Fraction(0)), EXACT),
        ((0.5, Fraction(0)), EXACT),
        ((Fraction(0), 0.5), EXACT),
        ((Fraction(1, 2), 0.0), FLOAT),
    ])
    def test_as_complex_refuses(self, value, mode):
        # not a pair, or a part that ``as_scalar`` refuses in this mode
        with pytest.raises((TypeError, ValueError)):
            as_complex(value, mode)


class TestParseComplex:
    @pytest.mark.parametrize("text,re_q,im_q", [
        ("1/2+1/2i", Fraction(1, 2), Fraction(1, 2)),
        ("1/2-1/2i", Fraction(1, 2), Fraction(-1, 2)),
        ("3", Fraction(3), Fraction(0)),
        ("-1", Fraction(-1), Fraction(0)),
        ("1i", Fraction(0), Fraction(1)),
        ("-1i", Fraction(0), Fraction(-1)),
        ("0+1i", Fraction(0), Fraction(1)),
        ("1/2+-1/2i", Fraction(1, 2), Fraction(-1, 2)),
    ])
    def test_exact_forms(self, text, re_q, im_q):
        assert parse_complex(text, EXACT) == (re_q, im_q)

    def test_float_scientific_real_part(self):
        z = parse_complex("1e-3+2i", FLOAT)
        assert z == (1e-3, 2.0)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_complex("1+i+", EXACT)

    @pytest.mark.parametrize("z,text", [
        ((0.0, -0.0), "0.0+0.0i"),
        ((1.5, -0.0), "1.5+0.0i"),
        ((1.0, -2.5), "1.0-2.5i"),
    ])
    def test_format_float_signs(self, z, text):
        # a negative zero imaginary part prints as +0.0
        assert format_complex(z) == text

    @given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
    def test_format_parse_round_trip(self, re_q, im_q):
        z = (re_q, im_q)
        assert parse_complex(format_complex(z), EXACT) == z
