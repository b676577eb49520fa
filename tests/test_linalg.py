import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitary.linalg import (
    IndependenceTester,
    dot,
    mat_vec,
    rank,
    vec_mat,
)
from finitary.scalars import EXACT, FLOAT

F = Fraction


def test_dot():
    assert dot((F(1), F(2)), (F(3), F(4))) == 11


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot((1,), (1, 2))


def test_vec_mat():
    m = ((F(1), F(2)), (F(3), F(4)))
    assert vec_mat((F(1), F(1)), m) == (4, 6)


def test_mat_vec():
    m = ((F(1), F(2)), (F(3), F(4)))
    assert mat_vec(m, (F(1), F(1))) == (3, 7)


class TestIndependenceTester:
    def test_accepts_then_rejects_dependent(self):
        t = IndependenceTester(2)
        assert t.try_insert((F(1), F(0)))
        assert t.try_insert((F(1), F(1)))
        assert not t.try_insert((F(2), F(3)))
        assert t.rank == 2

    def test_zero_vector_rejected(self):
        t = IndependenceTester(3)
        assert not t.try_insert((F(0), F(0), F(0)))

    def test_length_checked(self):
        t = IndependenceTester(2)
        with pytest.raises(ValueError):
            t.try_insert((F(1),))

    def test_float_noise_below_tolerance_is_dependent(self):
        t = IndependenceTester(2, FLOAT, 1e-9)
        assert t.try_insert((1.0, 0.5))
        assert not t.try_insert((2.0, 1.0 + 1e-13))

    def test_float_clear_independence_kept(self):
        t = IndependenceTester(2, FLOAT, 1e-9)
        assert t.try_insert((1.0, 0.5))
        assert t.try_insert((1.0, 0.6))


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

