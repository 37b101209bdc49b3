"""Exact integer combinatorics of the Euclidean algorithm.

Weight sequences, remainder sequences and weighted Fibonacci sequences,
the data the closed-form rigidity-degree formulas read.

Everything here is pure and operates on plain Python integers, so all
results are exact for arbitrarily large inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "EuclidData",
    "weight_sequence",
]


@dataclass(frozen=True)
class EuclidData:
    """Division data of a pair ``(m, n)`` of positive integers.

    ``k`` is the quotient sequence of the Euclidean algorithm *after* the
    initial reduction of m modulo n (the leading quotient is discarded, it
    never influences remainders taken modulo n).  ``s`` holds the remainders
    ``s_1 > s_2 > ... > s_{d+1} > s_{d+2} = 0`` produced along the way, and
    ``fb`` is the weighted Fibonacci sequence of ``k`` including both seeds.

    ``s[l - 1]`` is s_l of the defining equations, whose s_{-1} and s_0 are
    m and n, and ``fb_at(l)`` is defined for ``-1 <= l <= length``.
    When n divides m the weight sequence is empty, ``s == (0,)`` and
    ``fb == (0, 1)``.
    """

    m: int
    n: int
    k: tuple[int, ...]
    s: tuple[int, ...]
    fb: tuple[int, ...]

    def __init__(self, m, n, k, s, fb) -> None:
        # one dict update, not an object.__setattr__ per field as in the generated frozen __init__
        self.__dict__.update(m=m, n=n, k=k, s=s, fb=fb)

    @property
    def length(self) -> int:
        """Number of weights, written d+1 in the defining equations."""
        return len(self.k)

    def fb_at(self, l: int) -> int:
        if -1 <= l <= self.length:
            return self.fb[l + 1]
        raise IndexError(f"Fibonacci index {l} out of range [-1, {self.length}]")


def weight_sequence(m: int, n: int) -> EuclidData:
    """Run the Euclidean algorithm on ``(m, n)`` and collect its combinatorics in one loop."""
    if type(m) is not int or type(n) is not int:  # exact ints skip the isinstance checks
        if not all(isinstance(a, int) and not isinstance(a, bool) for a in (m, n)):
            raise ValueError(f"m and n must be integers, got ({m!r}, {n!r})")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive integers, got ({m}, {n})")
    k, s, fb = [], [], [0, 1]
    prev, cur = n, m % n
    while cur:
        q = prev // cur
        k.append(q)
        s.append(cur)
        fb.append(q * fb[-1] + fb[-2])
        prev, cur = cur, prev % cur
    s.append(0)
    return EuclidData(m, n, tuple(k), tuple(s), tuple(fb))
