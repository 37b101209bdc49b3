"""Unit and property tests for the Euclidean combinatorics."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_kit import (
    fib_decompose,
    rem,
    rem_range_check,
    weight_sequence,
    weighted_fibonacci,
)


class TestWeightedFibonacci:
    def test_worked_example(self):
        assert weighted_fibonacci((1, 1, 8)) == (0, 1, 1, 2, 17)

    def test_empty(self):
        assert weighted_fibonacci(()) == (0, 1)

    def test_single_step(self):
        assert weighted_fibonacci((2,)) == (0, 1, 2)

    @pytest.mark.parametrize("weights", [(0,), (-1, 2), (1, 0, 3), (True,)])
    def test_rejects_non_positive(self, weights):
        with pytest.raises(ValueError):
            weighted_fibonacci(weights)

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=8))
    def test_recursion(self, weights):
        fb = weighted_fibonacci(weights)
        assert fb[:2] == (0, 1)
        for i, w in enumerate(weights):
            assert fb[i + 2] == w * fb[i + 1] + fb[i]


class TestWeightSequence:
    def test_worked_example(self):
        data = weight_sequence(9, 17)
        assert data.k == (1, 1, 8)
        assert data.s == (9, 8, 1, 0)
        assert data.fb == (0, 1, 1, 2, 17)

    def test_divisible(self):
        data = weight_sequence(2, 2)
        assert data.k == ()
        assert data.s == (0,)
        assert data.fb == (0, 1)
        assert data.length == 0

    def test_small(self):
        data = weight_sequence(3, 2)
        assert data.k == (2,)
        assert data.s == (1, 0)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_non_positive(self, m, n):
        with pytest.raises(ValueError):
            weight_sequence(m, n)

    # each bad pair follows a call on its equal int pair, where one exists,
    # so the memo's last entry must not answer it
    @pytest.mark.parametrize(
        "m,n,twin",
        [
            (6.0, 3, (6, 3)),
            (6, 3.0, (6, 3)),
            (2.5, 4, None),
            (True, 3, (1, 3)),
            (3, True, (3, 1)),
            (Fraction(6), 3, (6, 3)),
            ("6", 3, None),
        ],
    )
    def test_rejects_non_integers(self, m, n, twin):
        if twin is not None:
            weight_sequence(*twin)
        with pytest.raises(ValueError, match="must be integers"):
            weight_sequence(m, n)

    @given(st.integers(1, 10**7), st.integers(1, 10**7))
    def test_memo_returns_the_division(self, m, n):
        # once to fill the one-entry memo, once to read it
        for _ in range(2):
            assert weight_sequence(m, n) == weight_sequence.__wrapped__(m, n)

    def test_index_conventions(self):
        data = weight_sequence(9, 17)
        assert data.s_at(-1) == 9
        assert data.s_at(0) == 17
        assert data.s_at(1) == 9
        assert data.s_at(4) == 0
        assert data.fb_at(-1) == 0
        assert data.fb_at(0) == 1
        with pytest.raises(IndexError):
            data.s_at(5)
        with pytest.raises(IndexError):
            data.fb_at(4)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_invariants(self, m, n):
        data = weight_sequence(m, n)
        L = data.length
        # strictly decreasing remainders, terminating at zero
        for i in range(1, L + 1):
            assert 0 < data.s_at(i) < data.s_at(i - 1)
        if L:
            assert data.s_at(1) == m % n
        assert data.s_at(L + 1) == 0
        # congruence linking Fibonacci values and remainders
        for l in range(1, L + 2):
            assert (data.fb_at(l - 1) * data.s_at(1) - (-1) ** (l - 1) * data.s_at(l)) % n == 0
        # the last Fibonacci value annihilates modulo n and is bounded by n
        assert data.fb_at(L) <= n
        assert (data.fb_at(L) * data.s_at(1)) % n == 0

    @given(st.integers(1, 2000), st.integers(1, 2000))
    @settings(max_examples=150)
    def test_distinct_nonzero_remainders(self, m, n):
        data = weight_sequence(m, n)
        seen = set()
        for r in range(1, data.fb_at(data.length)):
            value = rem(r * m, n)
            assert value != 0
            assert value not in seen
            seen.add(value)


def _decompositions(data, l, r):
    """Exhaustive enumeration of admissible coefficient vectors for r."""
    ranges = [range(1, data.k[0] + 1)] + [range(0, data.k[i] + 1) for i in range(1, l)]
    for lam in product(*ranges):
        if sum(c * data.fb_at(i) for i, c in enumerate(lam)) == r:
            yield lam


class TestFibDecompose:
    def test_worked_examples(self):
        data = weight_sequence(9, 17)
        assert fib_decompose(5, data, 3) == (1, 0, 2)
        assert fib_decompose(17, data, 3) == (1, 0, 8)
        assert fib_decompose(1, data, 1) == (1,)

    def test_range_errors(self):
        data = weight_sequence(9, 17)
        with pytest.raises(ValueError):
            fib_decompose(0, data, 3)
        with pytest.raises(ValueError):
            fib_decompose(18, data, 3)
        with pytest.raises(ValueError):
            fib_decompose(1, data, 4)
        with pytest.raises(ValueError):
            fib_decompose(1, weight_sequence(2, 2), 1)

    @pytest.mark.parametrize("m,n", [(9, 17), (5, 9), (7, 12), (4, 21)])
    def test_matches_exhaustive_enumeration(self, m, n):
        data = weight_sequence(m, n)
        for l in range(1, data.length + 1):
            for r in range(1, data.fb_at(l) + 1):
                lam = fib_decompose(r, data, l)
                assert lam in set(_decompositions(data, l, r))

    @given(st.integers(1, 5000), st.integers(1, 5000), st.data())
    @settings(max_examples=200)
    def test_bounds_and_congruence(self, m, n, payload):
        data = weight_sequence(m, n)
        if data.length == 0:
            return
        l = payload.draw(st.integers(1, data.length))
        r = payload.draw(st.integers(1, data.fb_at(l)))
        lam = fib_decompose(r, data, l)
        assert len(lam) == l
        assert lam[0] >= 1
        assert all(0 <= lam[i] <= data.k[i] for i in range(l))
        assert sum(c * data.fb_at(i) for i, c in enumerate(lam)) == r
        # the alternating remainder identity carried by the decomposition
        acc = sum((-1) ** i * lam[i] * data.s_at(i + 1) for i in range(l))
        assert (r * data.s_at(1) - acc) % n == 0


class TestRemainderRange:
    def test_equality_at_fb0(self):
        data = weight_sequence(9, 17)
        report = rem_range_check(data, 1, 1)
        assert report.rm == 9 == data.s_at(1)
        assert report.lower_tight and report.lower_tight_predicted
        assert report.all_ok

    def test_upper_equality_characterization(self):
        data = weight_sequence(9, 17)
        loose = rem_range_check(data, 3, 15)
        assert loose.rm_prev == 7 and not loose.upper_tight and loose.all_ok
        tight = rem_range_check(data, 3, 16)
        assert tight.rm_prev == 16 == 17 - data.s_at(3)
        assert tight.upper_tight and tight.upper_tight_predicted

    def test_rejects_when_no_index_exists(self):
        data = weight_sequence(2, 2)
        for l in (1, 2):
            with pytest.raises(ValueError):
                rem_range_check(data, l, 1)

    def test_rejects_out_of_range_r(self):
        data = weight_sequence(9, 17)
        with pytest.raises(ValueError):
            rem_range_check(data, 1, 2)  # closed range ends at Fb_1 = 1
        with pytest.raises(ValueError):
            rem_range_check(data, 3, 17)  # open range ends below Fb_3 = 17

    def test_exhaustive_small_grid(self):
        for m in range(1, 41):
            for n in range(1, 41):
                data = weight_sequence(m, n)
                for l in range(1, data.length + 1):
                    top = data.fb_at(l)
                    hi = top + 1 if (l % 2 == 1 and l < data.length) else top
                    for r in range(1, hi):
                        assert rem_range_check(data, l, r).all_ok, (m, n, l, r)


def test_rem_mathematical_modulus():
    assert rem(-8, 17) == 9
    assert rem(17, 17) == 0
    with pytest.raises(ValueError):
        rem(3, 0)
