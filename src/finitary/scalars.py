"""Scalar handling: exact rationals by default, tolerance-based floats on request.

Every model fixes one scalar mode at load time.  Exact mode reports each
value as a ``fractions.Fraction``: a model entry, a scale, a witness value
or the sum in a violation message.  Everything in between runs on
integers.  ``parse_ratio`` reads a literal ``p/q`` as a lowest-terms pair
of ``int``, and ``row_law`` puts a row of such pairs over one common
denominator: that is the form in which an exact hidden Markov model or
automaton keeps its rows, and in which they are validated and compiled,
so loading such a file builds a ``Fraction`` only for an entry somebody
reads (see ``models``).  A walk's complex entry is the pair ``(re, im)``
of scalars in the model's mode from file to step: ``parse_complex`` reads
it, ``as_complex`` coerces it, ``format_complex`` prints it, and the walk
is validated and compiled on Gaussian-integer numerators over one
denominator (see ``linalg.gaussian``); the compiled representation holds
integer step matrices with one rational scale each; and the scans and the
equivalence check compute on integer vectors (see ``linalg.integral``).
All comparisons are literal equality.  Float mode stores machine floats
and defers to a tolerance, which callers thread through explicitly.  The
two modes are never mixed inside one model.

Python caps the conversion between ``int`` and decimal text at 4300
digits.  Exact values have no such bound, so ``parse_model`` and
``format_scalar`` lift the cap for their own conversions with
``any_digits`` and restore the caller's setting afterwards.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# Absolute tolerance for float-mode probability comparison; rank decisions
# use it relative to the largest pivot seen.
DEFAULT_TOLERANCE = 1e-9

Scalar = Fraction | float

# ``[0-9]``, not ``\d``, which also matches other Unicode decimal digits
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def zero(mode: str) -> Scalar:
    return Fraction(0) if mode == EXACT else 0.0


def one(mode: str) -> Scalar:
    return Fraction(1) if mode == EXACT else 1.0


def as_scalar(value, mode: str) -> Scalar:
    """Coerce a number to the given mode, refusing silent precision changes."""
    if mode == EXACT:
        if type(value) is Fraction:
            return value
        if isinstance(value, float):
            raise TypeError("float entry in an exact-mode model")
        return Fraction(value)
    if isinstance(value, Fraction):
        raise TypeError("Fraction entry in a float-mode model")
    return float(value)


@contextmanager
def any_digits():
    """Convert integers of any length to and from text inside the block:
    lift Python's digit cap (``sys.set_int_max_str_digits``, present from
    3.10.7) and restore the caller's setting on the way out.  The cap is
    process-wide, so another thread converting meanwhile has none either."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def parse_ratio(text: str) -> tuple[int, int]:
    """An exact literal, an integer or p/q in ASCII digits, as the
    lowest-terms pair ``(p, q)`` with ``q > 0``."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = text.partition("/")
    p = int(num)
    if not den:
        return p, 1
    q = int(den)
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def row_law(pairs) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` with entry i equal to ``nums[i] / den``, for a
    non-empty row of lowest-terms pairs ``(p, q)``: ``den`` is the lcm of
    the ``q``, so equal rows have equal laws."""
    nums, dens = zip(*pairs)
    den = math.lcm(*dens)
    if den == 1:
        return 1, nums
    return den, tuple([p * (den // q) for p, q in pairs])


def scalar_law(row, mode: str) -> tuple:
    """A non-empty row of numbers, each coerced by ``as_scalar``, as a row
    law: ``row_law`` of their pairs in exact mode, ``(1, row)`` in float."""
    row = tuple(as_scalar(x, mode) for x in row)
    if mode == EXACT:
        return row_law([x.as_integer_ratio() for x in row])
    return 1, row


def parse_scalar(text: str, mode: str) -> Scalar:
    """Parse one numeric literal, in ASCII digits.  Exact mode takes
    integers and p/q, float mode takes any ASCII text ``float()`` accepts
    except fraction syntax and ``_`` digit separators."""
    if mode == EXACT:
        return Fraction(*parse_ratio(text))
    if "/" in text:
        raise ValueError(f"fraction literal in float mode: {text!r}")
    try:
        # an ASCII encoding error is a ValueError too
        value = float(text.encode("ascii"))
    except ValueError:
        value = None
    # float() also takes "_" digit separators, which exact mode refuses
    if value is None or "_" in text:
        raise ValueError(f"not a numeric literal: {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite literal: {text!r}")
    return value


def format_scalar(x) -> str:
    """Canonical text form: lowest-terms rational, or shortest float repr."""
    if isinstance(x, float):
        return repr(x + 0.0)  # normalizes -0.0
    with any_digits():
        return str(x)  # Fraction and int both print exactly


def scalars_equal(x, y, mode: str, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    if mode == EXACT:
        return x == y
    return abs(x - y) <= tolerance


def as_complex(value, mode: str) -> tuple:
    """A walk entry, a number or a pair ``(re, im)`` of numbers, as the
    pair of its parts coerced by ``as_scalar``."""
    if isinstance(value, tuple):
        real, imag = value
        return as_scalar(real, mode), as_scalar(imag, mode)
    return as_scalar(value, mode), zero(mode)


def parse_complex(text: str, mode: str) -> tuple:
    """Parse ``re+imi`` / ``re-imi`` as the pair ``(re, im)``.  A doubled
    sign like ``1/2+-1/2i`` is accepted; bare reals get a zero imaginary
    part."""
    t = text.strip()
    if not t.endswith("i"):
        return parse_scalar(t, mode), zero(mode)
    body = t[:-1]
    split = None
    for idx in range(1, len(body)):
        ch = body[idx]
        if ch in "+-" and body[idx - 1] not in "eE+-":
            split = idx
            break
    if split is None:
        # pure imaginary, e.g. "1i" (canonical form is "0+1i")
        return zero(mode), parse_scalar(body, mode)
    re_text = body[:split]
    im_text = body[split:]
    if im_text.startswith("+"):
        im_text = im_text[1:]
    if not im_text or im_text in "+-":
        raise ValueError(f"malformed complex literal: {text!r}")
    return parse_scalar(re_text, mode), parse_scalar(im_text, mode)


def format_complex(z: tuple) -> str:
    """``re+imi`` for the pair ``z == (re, im)``."""
    re_part = format_scalar(z[0])
    im = z[1]
    if im < 0:
        return f"{re_part}-{format_scalar(-im)}i"
    return f"{re_part}+{format_scalar(im)}i"
