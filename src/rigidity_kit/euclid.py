"""Exact integer combinatorics of the Euclidean algorithm.

Weight sequences, remainder sequences, weighted Fibonacci sequences,
Fibonacci-base decompositions of integers, and the remainder-range
predicates that drive the closed-form rigidity-degree formulas.

Everything here is pure and operates on plain Python integers, so all
results are exact for arbitrarily large inputs and safe to use from any
number of threads.  There is one Euclidean division per algebra type,
memoised: ``weight_sequence`` keeps its last result, so evaluating every
label of one type divides once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "EuclidData",
    "RemainderRangeReport",
    "fib_decompose",
    "rem",
    "rem_range_check",
    "weight_sequence",
    "weighted_fibonacci",
]


def rem(a: int, n: int) -> int:
    """Remainder of ``a`` modulo ``n``, always in ``[0, n)``, also for negative ``a``."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    return a % n


def weighted_fibonacci(weights: Sequence[int]) -> tuple[int, ...]:
    """Run the two-term recursion ``F_l = w_l * F_{l-1} + F_{l-2}`` over the weights.

    Returns the full sequence including the seed values, ``(0, 1, ...)``, of
    length ``len(weights) + 2``.  An empty weight list is allowed.
    """
    values = [0, 1]
    for w in weights:
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"weights must be positive integers, got {w!r}")
        values.append(w * values[-1] + values[-2])
    return tuple(values)


@dataclass(frozen=True)
class EuclidData:
    """Division data of a pair ``(m, n)`` of positive integers.

    ``k`` is the quotient sequence of the Euclidean algorithm *after* the
    initial reduction of m modulo n (the leading quotient is discarded, it
    never influences remainders taken modulo n).  ``s`` holds the remainders
    ``s_1 > s_2 > ... > s_{d+1} > s_{d+2} = 0`` produced along the way, and
    ``fb`` is the weighted Fibonacci sequence of ``k`` including both seeds.

    Index conventions follow the defining equations: ``s_at(-1) == m``,
    ``s_at(0) == n``, and ``fb_at(l)`` is defined for ``-1 <= l <= length``.
    When n divides m the weight sequence is empty, ``s == (0,)`` and
    ``fb == (0, 1)``.
    """

    m: int
    n: int
    k: tuple[int, ...]
    s: tuple[int, ...]
    fb: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of weights, written d+1 in the defining equations."""
        return len(self.k)

    def s_at(self, l: int) -> int:
        if l == -1:
            return self.m
        if l == 0:
            return self.n
        if 1 <= l <= self.length + 1:
            return self.s[l - 1]
        raise IndexError(f"remainder index {l} out of range [-1, {self.length + 1}]")

    def fb_at(self, l: int) -> int:
        if -1 <= l <= self.length:
            return self.fb[l + 1]
        raise IndexError(f"Fibonacci index {l} out of range [-1, {self.length}]")


# maxsize=1: callers evaluate the labels of one type in a row; more entries only cost memory.
# typed=True: a float or bool never hits an equal int's entry, so it reaches the check.
@lru_cache(maxsize=1, typed=True)
def weight_sequence(m: int, n: int) -> EuclidData:
    """Run the Euclidean algorithm on ``(m, n)`` and collect its combinatorics."""
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in (m, n)):
        raise ValueError(f"m and n must be integers, got ({m!r}, {n!r})")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive integers, got ({m}, {n})")
    quotients: list[int] = []
    remainders: list[int] = []
    prev, cur = n, m % n
    while cur > 0:
        quotients.append(prev // cur)
        remainders.append(cur)
        prev, cur = cur, prev % cur
    remainders.append(0)
    k = tuple(quotients)
    return EuclidData(m=m, n=n, k=k, s=tuple(remainders), fb=weighted_fibonacci(k))


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
    s_l = data.s_at(l)
    rm = rem(r * data.m, n)
    rm_prev = rem((r - 1) * data.m, n)
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
