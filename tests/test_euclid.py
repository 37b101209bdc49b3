"""Unit and property tests for the Euclidean combinatorics."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_kit import EuclidData, weight_sequence


def s_at(data: EuclidData, l: int) -> int:
    """Remainder s_l of the defining equations: s_{-1} = m, s_0 = n, then ``data.s``."""
    if l == -1:
        return data.m
    if l == 0:
        return data.n
    if 1 <= l <= data.length + 1:
        return data.s[l - 1]
    raise IndexError(f"remainder index {l} out of range [-1, {data.length + 1}]")


def weighted_fibonacci(weights: Sequence[int]) -> tuple[int, ...]:
    """Run the two-term recursion ``F_l = w_l * F_{l-1} + F_{l-2}`` over the weights.

    Returns the full sequence including the seed values, ``(0, 1, ...)``, of
    length ``len(weights) + 2``.  An empty weight list is allowed.  The Fb
    reference of ``weight_sequence``.
    """
    values = [0, 1]
    for w in weights:
        if type(w) is not int or w < 1:
            raise ValueError(f"weights must be positive integers, got {w!r}")
        values.append(w * values[-1] + values[-2])
    return tuple(values)


def two_pass_division(m: int, n: int) -> tuple:
    """(m, n, k, s, fb) of the division in two passes: quotients and remainders, then Fb."""
    quotients, remainders = [], []
    prev, cur = n, m % n
    while cur > 0:
        quotients.append(prev // cur)
        remainders.append(cur)
        prev, cur = cur, prev % cur
    remainders.append(0)
    return m, n, tuple(quotients), tuple(remainders), weighted_fibonacci(quotients)


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
    # so no result kept for that pair may answer it
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
        with pytest.raises(ValueError) as info:
            weight_sequence(m, n)
        assert str(info.value) == f"m and n must be integers, got ({m!r}, {n!r})"

    def test_matches_two_pass_reference_on_random_pairs(self):
        rng = random.Random(2029)
        for i in range(3000):  # up to 10**30: m and n at their own magnitudes, or g*a and g*b
            g = rng.randint(1, 10 ** rng.randint(0, 25)) if i % 2 else 1
            m, n = (g * rng.randint(1, 10 ** rng.randint(0, 30 if g == 1 else 5)) for _ in "mn")
            data = weight_sequence(m, n)
            assert (data.m, data.n, data.k, data.s, data.fb) == two_pass_division(m, n)

    def test_accepts_an_int_subclass(self):
        class Exact(int):
            pass

        data = weight_sequence(Exact(9), Exact(17))
        assert (data.m, data.n, data.k, data.s, data.fb) == two_pass_division(9, 17)
        assert data == weight_sequence(9, 17) and hash(data) == hash(weight_sequence(9, 17))

    def test_value_semantics(self):
        data = weight_sequence(9, 17)
        assert [f.name for f in dataclasses.fields(EuclidData)] == ["m", "n", "k", "s", "fb"]
        built = EuclidData(m=9, n=17, k=(1, 1, 8), s=(9, 8, 1, 0), fb=(0, 1, 1, 2, 17))
        assert data == built and hash(data) == hash(built)
        assert repr(data) == (
            "EuclidData(m=9, n=17, k=(1, 1, 8), s=(9, 8, 1, 0), fb=(0, 1, 1, 2, 17))"
        )
        assert data != dataclasses.replace(data, n=18)
        for field in dataclasses.fields(EuclidData):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(data, field.name, 0)
        copies = [pickle.loads(pickle.dumps(data, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(data), copy.deepcopy(data), dataclasses.replace(data)]
        for c in copies:
            assert type(c) is EuclidData and c == built and hash(c) == hash(built)
            assert repr(c) == repr(built)

    def test_index_conventions(self):
        data = weight_sequence(9, 17)
        assert s_at(data, -1) == 9
        assert s_at(data, 0) == 17
        assert s_at(data, 1) == 9
        assert s_at(data, 4) == 0
        assert data.fb_at(-1) == 0
        assert data.fb_at(0) == 1
        with pytest.raises(IndexError):
            s_at(data, 5)
        with pytest.raises(IndexError):
            data.fb_at(4)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_invariants(self, m, n):
        data = weight_sequence(m, n)
        L = data.length
        # strictly decreasing remainders, terminating at zero
        for i in range(1, L + 1):
            assert 0 < s_at(data, i) < s_at(data, i - 1)
        if L:
            assert s_at(data, 1) == m % n
        assert s_at(data, L + 1) == 0
        # congruence linking Fibonacci values and remainders
        for l in range(1, L + 2):
            assert (data.fb_at(l - 1) * s_at(data, 1) - (-1) ** (l - 1) * s_at(data, l)) % n == 0
        # the last Fibonacci value annihilates modulo n and is bounded by n
        assert data.fb_at(L) <= n
        assert (data.fb_at(L) * s_at(data, 1)) % n == 0

    @given(st.integers(1, 2000), st.integers(1, 2000))
    @settings(max_examples=150)
    def test_distinct_nonzero_remainders(self, m, n):
        data = weight_sequence(m, n)
        seen = set()
        for r in range(1, data.fb_at(data.length)):
            value = r * m % n
            assert value != 0
            assert value not in seen
            seen.add(value)


def _decompositions(data, l, r):
    """Exhaustive enumeration of admissible coefficient vectors for r."""
    ranges = [range(1, data.k[0] + 1)] + [range(0, data.k[i] + 1) for i in range(1, l)]
    for lam in product(*ranges):
        if sum(c * data.fb_at(i) for i, c in enumerate(lam)) == r:
            yield lam


def fib_decompose(r: int, data: EuclidData, l: int) -> tuple[int, ...]:
    """Greedy decomposition ``r = sum(lam[i] * fb_at(i))`` over ``i = 0..l-1``.

    Coefficients satisfy ``0 <= lam[i] <= k[i]`` with ``lam[0] > 0``; the
    greedy choice (largest index first, never exhausting the remainder)
    makes the result deterministic.
    """
    if not 1 <= l <= data.length:
        raise ValueError(f"index l={l} out of range [1, {data.length}]")
    if not 0 < r <= data.fb_at(l):
        raise ValueError(f"r={r} out of range (0, {data.fb_at(l)}]")
    lam = [0] * l
    rest = r
    for i in range(l, 1, -1):
        base = data.fb_at(i - 1)
        p = min(rest // base, data.k[i - 1])
        if p > 0 and rest == p * base:
            p -= 1
        lam[i - 1] = p
        rest -= p * base
    lam[0] = rest
    if not 0 < lam[0] <= data.k[0]:
        raise AssertionError(f"greedy decomposition of {r} escaped its bounds: {lam}")
    return tuple(lam)


@dataclass(frozen=True)
class RemainderRangeReport:
    """Outcome of the remainder-range predicates for one admissible ``(l, r)``.

    ``lower_ok`` / ``upper_ok`` are the two inequalities ``<r*m>_n >= s_l`` and
    ``<(r-1)*m>_n <= n - s_l``.  The ``*_tight`` flags record whether equality
    actually holds, the ``*_predicted`` flags whether the characterization of
    the equality case says it should; ``lower_sharp``/``upper_sharp`` assert
    the two agree.
    """

    l: int
    r: int
    rm: int
    rm_prev: int
    lower_ok: bool
    upper_ok: bool
    lower_tight: bool
    upper_tight: bool
    lower_tight_predicted: bool
    upper_tight_predicted: bool

    @property
    def lower_sharp(self) -> bool:
        return self.lower_tight == self.lower_tight_predicted

    @property
    def upper_sharp(self) -> bool:
        return self.upper_tight == self.upper_tight_predicted

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.lower_sharp and self.upper_sharp


def rem_range_check(data: EuclidData, l: int, r: int) -> RemainderRangeReport:
    """Evaluate the remainder-range inequalities and equality characterizations.

    Admissible inputs: ``0 < l <= length`` and ``0 < r <= fb_at(l)`` for odd
    ``l < length``, ``0 < r < fb_at(l)`` for even ``l`` or ``l == length``.
    Used by the property-test suite only.
    """
    L = data.length
    if not 0 < l <= L:
        raise ValueError(f"index l={l} out of range [1, {L}]")
    closed = l % 2 == 1 and l < L
    limit = data.fb_at(l)
    if not (0 < r <= limit if closed else 0 < r < limit):
        bound = f"(0, {limit}]" if closed else f"(0, {limit})"
        raise ValueError(f"r={r} out of admissible range {bound} for l={l}")

    n = data.n
    s_l = s_at(data, l)
    rm = r * data.m % n
    rm_prev = (r - 1) * data.m % n
    fb_top = data.fb_at(L)
    fb_sub = data.fb_at(L - 1)
    d_even = L % 2 == 1  # length == d + 1

    if l % 2 == 1:
        lower_pred = r == data.fb_at(l - 1)
        upper_pred = d_even and l == L and r == fb_top - fb_sub + 1
    else:
        lower_pred = (not d_even) and l == L and r == fb_top - fb_sub
        upper_pred = r == data.fb_at(l - 1) + 1

    return RemainderRangeReport(
        l=l,
        r=r,
        rm=rm,
        rm_prev=rm_prev,
        lower_ok=rm >= s_l,
        upper_ok=rm_prev <= n - s_l,
        lower_tight=rm == s_l,
        upper_tight=rm_prev == n - s_l,
        lower_tight_predicted=lower_pred,
        upper_tight_predicted=upper_pred,
    )


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
        acc = sum((-1) ** i * lam[i] * s_at(data, i + 1) for i in range(l))
        assert (r * s_at(data, 1) - acc) % n == 0


class TestRemainderRange:
    def test_equality_at_fb0(self):
        data = weight_sequence(9, 17)
        report = rem_range_check(data, 1, 1)
        assert report.rm == 9 == s_at(data, 1)
        assert report.lower_tight and report.lower_tight_predicted
        assert report.all_ok

    def test_upper_equality_characterization(self):
        data = weight_sequence(9, 17)
        loose = rem_range_check(data, 3, 15)
        assert loose.rm_prev == 7 and not loose.upper_tight and loose.all_ok
        tight = rem_range_check(data, 3, 16)
        assert tight.rm_prev == 16 == 17 - s_at(data, 3)
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
