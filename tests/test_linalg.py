import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary import linalg
from finitary.linalg import (
    PRIME,
    IndependenceTester,
    dot,
    integral,
    vec_mat,
)
from finitary.scalars import EXACT, FLOAT

from reference import rank

F = Fraction


def test_dot():
    assert dot((F(1), F(2)), (F(3), F(4))) == 11


def test_float_dot_is_the_left_to_right_sum():
    # the builtin sum compensates float rounding from Python 3.12 on, so
    # it would give 1.0 here and change float output between versions
    assert dot((1e16, 1.0, -1e16), (1.0,) * 3) == 0.0


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot((1,), (1, 2))


def test_vec_mat():
    m = ((F(1), F(2)), (F(3), F(4)))
    assert vec_mat((F(1), F(1)), m) == (4, 6)


class TestIndependenceTester:
    def test_accepts_then_rejects_dependent(self):
        t = IndependenceTester(2)
        assert t.try_insert((1, 0))
        assert t.try_insert((1, 1))
        assert not t.try_insert((2, 3))
        assert t.rank == 2

    def test_zero_vector_rejected(self):
        t = IndependenceTester(3)
        assert not t.try_insert((0, 0, 0))

    def test_length_checked(self):
        t = IndependenceTester(2)
        with pytest.raises(ValueError):
            t.try_insert((1,))

    def test_float_noise_below_tolerance_is_dependent(self):
        t = IndependenceTester(2, FLOAT, 1e-9)
        assert t.try_insert((1.0, 0.5))
        assert not t.try_insert((2.0, 1.0 + 1e-13))

    def test_float_clear_independence_kept(self):
        t = IndependenceTester(2, FLOAT, 1e-9)
        assert t.try_insert((1.0, 0.5))
        assert t.try_insert((1.0, 0.6))

    def test_float_rounding_residue_never_reuses_a_pivot(self):
        # eliminating the third row leaves rounding noise at pivot 1; it
        # used to be taken as a new pivot, giving rank 3 in two dimensions
        rows = [(0.1, 0.1), (0.1, 0.3), (1e10, 3e9)]
        assert rank(rows, FLOAT) == 2
        # the same noise outweighs a real entry before the tester is full
        t = IndependenceTester(3, FLOAT)
        for row in [(0.1, 0.1, 0.0), (0.1, 0.3, 0.0), (1e10, 3e9, 1e-7)]:
            assert t.try_insert(row)
        assert t.pivots == (0, 1, 2)

    def test_full_tester_rejects_without_reducing(self, monkeypatch):
        t = IndependenceTester(2)
        assert t.try_insert((1, 2))
        assert t.try_insert((3, 4))

        def refuse(self, vector):
            raise AssertionError("a full tester reduced a candidate")
        monkeypatch.setattr(IndependenceTester, "_reduced_exact", refuse)
        assert not t.try_insert((5, 7))
        assert t.rank == 2
        with pytest.raises(ValueError):
            t.try_insert((1,))

    def test_vector_of_multiples_of_the_prime_is_accepted(self):
        # its residues are all zero, so only the exact reduction can accept
        # it; the tester then drops the screen and decides exactly
        t = IndependenceTester(3)
        assert t.try_insert((1, 0, 0))
        assert t.try_insert((PRIME, 2 * PRIME, 0))
        assert not t.try_insert((7, 3, 0))
        assert t.try_insert((0, 0, PRIME))
        assert t.rank == 3 and t.pivots == (0, 1, 2)

    def test_unlucky_prime_acceptance(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 2)
        t = IndependenceTester(3)
        assert t.try_insert((1, 1, 0))
        assert t.try_insert((1, -1, 0))  # (1, 1, 0) mod 2
        # half the sum of the two: its residues are independent of the
        # first one's, so only a screen that stayed on would accept it
        assert not t.try_insert((1, 0, 0))
        assert not t.try_insert((3, 5, 0))
        assert t.try_insert((1, 1, 2))
        assert t.rank == 3 and t.pivots == (0, 1, 2)


def _reference_insertions(stream):
    """Accept/reject flag and pivots after each vector of a plain
    fraction-free elimination: no residues, no content removal."""
    rows, pivots, out = [], [], []
    for vector in stream:
        r = list(vector)
        for row, p in zip(rows, pivots):
            x = r[p]
            if x:
                r = [row[p] * a - x * b for a, b in zip(r, row)]
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is not None:
            rows.append(r)
            pivots.append(pivot)
        out.append((pivot is not None, tuple(pivots)))
    return out


def _integer_stream(rng, dim, length):
    """Random integer vectors mixed with planted dependent combinations,
    entries over 2**64, multiples of PRIME, zero vectors and the integer
    coordinates of fraction vectors."""
    stream = []
    for _ in range(length):
        kind = rng.randrange(6)
        if kind == 0 and stream:
            picks = rng.sample(stream, rng.randint(1, min(3, len(stream))))
            weights = [rng.randint(-5, 5) for _ in picks]
            v = [sum(w * u[j] for w, u in zip(weights, picks))
                 for j in range(dim)]
        elif kind == 1:
            v = [rng.randint(-2**70, 2**70) for _ in range(dim)]
        elif kind == 2:
            v = [PRIME * rng.randint(-3, 3) for _ in range(dim)]
        elif kind == 3:
            v = integral([F(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(dim)], EXACT)[1]
        elif kind == 4:
            v = [0] * dim
        else:
            v = [rng.randint(-3, 3) if rng.random() < 0.7 else 0
                 for _ in range(dim)]
        stream.append(tuple(v))
    return stream


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.sampled_from((PRIME, 2, 3, 101)))
def test_screened_tester_matches_plain_elimination(seed, prime):
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    stream = _integer_stream(rng, dim, rng.randint(1, 14))
    expected = _reference_insertions(stream)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PRIME", prime)
        t = IndependenceTester(dim)
        for vector, (accepted, pivots) in zip(stream, expected):
            assert t.try_insert(vector) == accepted
            assert t.rank == len(pivots)
            if rng.random() < 0.3:  # a read mid-stream catches up
                assert t.pivots == pivots
        assert t.pivots == expected[-1][1]


class TestRank:
    def test_identity(self):
        assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2

    def test_repeated_rows(self):
        assert rank([[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank([[F(1)], [F(1), F(2)]])

    # cross-checks against structure no elimination bug would preserve
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_rank_equals_transpose_rank_and_respects_shuffle(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        r = rank(m)
        assert r <= min(rows, cols)
        transpose = [[m[i][j] for i in range(rows)] for j in range(cols)]
        assert rank(transpose) == r
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == r


class TestIntegral:
    def test_zero_vector(self):
        assert integral((F(0), F(0)), EXACT) == (0, (0, 0))
        assert integral((), EXACT) == (0, ())

    def test_negative_entries(self):
        scale, coords = integral((F(-2, 3), F(4, 9), F(0)), EXACT)
        assert (scale, coords) == (F(2, 9), (-3, 2, 0))

    def test_mixed_int_and_fraction_entries(self):
        scale, coords = integral((6, F(3, 2), 0, -9), EXACT)
        assert (scale, coords) == (F(3, 2), (4, 1, 0, -6))
        assert all(type(c) is int for c in coords)

    def test_float_vector_unchanged(self):
        vector = (0.25, -1.5, 0)
        scale, coords = integral(vector, FLOAT)
        assert scale == 1.0 and isinstance(scale, float)
        assert coords is vector

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.fractions(max_denominator=10**6), max_size=6))
    def test_scale_times_coords_is_the_vector(self, entries):
        scale, coords = integral(entries, EXACT)
        assert [scale * c for c in coords] == entries
        assert gcd(*coords) == (1 if any(entries) else 0)

    def test_exact_elimination_divides_no_fraction(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("Fraction division during elimination")

        monkeypatch.setattr(Fraction, "__truediv__", refuse)
        monkeypatch.setattr(Fraction, "__rtruediv__", refuse)
        rows = [(F(1, 3), F(2, 7), F(0)), (F(5, 6), F(1, 9), F(3, 11)),
                (F(7, 6), F(25, 63), F(3, 11))]  # third = first + second
        assert rank(rows) == 2


def _dependent_rows(rng, rows, cols, rank_cap):
    """A rows x cols rational matrix of rank at most ``rank_cap`` with large,
    mixed denominators: later rows mix the first ``rank_cap`` ones."""
    def entry():
        return F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))

    base = [[entry() for _ in range(cols)] for _ in range(rank_cap)]
    out = [row[:] for row in base]
    while len(out) < rows:
        weights = [entry() if rng.random() < 0.7 else F(0) for _ in base]
        out.append([sum((w * row[j] for w, row in zip(weights, base)), F(0))
                    for j in range(cols)])
    rng.shuffle(out)
    return out


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_rank_equals_sympy_rank(seed):
    import sympy

    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = _dependent_rows(rng, rows, cols, rng.randint(0, min(rows, cols)))
    expected = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in m]).rank()
    assert rank(m) == expected
