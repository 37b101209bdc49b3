"""Deep staircases: the oracle checks every level of the closed form's division.

For type A, and for type D with twist order 1 or 2, ``rd_closed`` reads
each label's rigidity degree off one row of the staircase of one Euclidean
division (``rigidity._staircase``).  A row is a cell (kind, level l, +sym),
and the report's branch names it, as in ``A.s1:closed(l=3)+sym``.  The
sweeps of the other tests compare the two engines on levels up to 5 only.

Each type here is built from a chosen continued fraction, so the remainders
s_1 > s_2 > ... > s_length of its division, and with them the levels its
labels fall on, are fixed before either engine runs.  Quotients of 1
(Fibonacci divisions) reach the deepest level for their size.  For each of
the four staircase families the tests assert that

* some label reads each cell that the staircase rules allow at the levels
  up to ``DEPTH``, and no label reads a cell that they forbid;
* ``agreement`` finds no disagreement between the engines on those types.

The rules, from ``_staircase``'s docstring: level l is an open row at even
l and at l == length, a closed row at odd l < length, and a tail at odd
l == length; only type A mirrors a row onto m - t, marked ``+sym``.
"""

from __future__ import annotations

import re

import pytest

from rigidity_kit import AlgebraType, agreement, rd_closed

DEPTH = 11  # the deepest level checked

_BRANCH = re.compile(r"(?:A\.s[12]|D):(open|closed|tail|zero)\(l=(-?[0-9]+)\)(\+sym)?")


def remainders(quotients: tuple[int, ...], g: int) -> tuple[int, ...]:
    """The remainders r_0 > r_1 > ... > r_k = g of the Euclidean algorithm with these quotients.

    r_{i-1} = q_i * r_i + r_{i+1} with r_{k+1} = 0; the last quotient is at least 2.
    """
    r = [g, 0]
    for q in reversed(quotients):
        r.insert(0, q * r[0] + r[1])
    return tuple(r[:-1])


def fib(k: int, last: int = 2) -> tuple[int, ...]:
    """k quotients: all 1 but the last."""
    return (1,) * (k - 1) + (last,) if k else ()


def type_a_s1(quotients, g, lead=0):
    """A s=1 divides (m, n) by the raw shift n: here n = r_0 and m = lead * r_0 + r_1.

    So s_l = r_l.  The labels are t <= m/2; level 0, the open row (s_1, n), holds
    some of them only when m > n, that is when ``lead`` is 1.
    """
    r = remainders(quotients, g)
    n, m = r[0], lead * r[0] + r[1]
    return AlgebraType.from_shift("A", m - 1, n, 1)


def type_a_s2(quotients, g):
    """A s=2 divides (shift + m, 2 shift + m), where shift = u (m - 1) - m/2.

    Once shift > m (u >= 2 and m >= 6, or u >= 3), s_1 = shift + m, s_2 = shift,
    s_3 = m and s_4 = shift mod m = -u - m/2 mod m.  Here m = r_0 and s_4 = r_1, so
    s_l = r_{l-3}, and u is the least u >= 2 that gives this s_4.
    """
    r = remainders(quotients, g)
    m, s_4 = r[0], (r[1] if len(r) > 1 else 0)
    u = (-s_4 - m // 2) % m
    return AlgebraType.create("A", m - 1, u if u >= 2 else u + m, 2)


def type_d(quotients, g, twist):
    """D divides (rank - 1, n) on its chain labels, with n = u (2 rank - 3).

    So s_1 = rank - 1 and s_2 = -u mod (rank - 1).  Here rank - 1 = r_0 and
    s_2 = r_1, so s_l = r_{l-1}.
    """
    r = remainders(quotients, g)
    return AlgebraType.create("D", r[0] + 1, r[0] - (r[1] if len(r) > 1 else 0), twist)


# Fibonacci fractions with gcd 2 put a label on every row down to their
# length; one with gcd 1 goes a level deeper, for the closed row at DEPTH.
# The shallow extras reach what those cannot: in A s=1, level 0, the tail at
# level 1 and the mirrored closed row at level 1; in A s=2, levels 1 and 2,
# which need u = 1; in D, the open row at level 1, which needs length 1.
FAMILIES = {
    "A.s1": [type_a_s1(fib(k), 2) for k in range(1, DEPTH + 1)]
    + [type_a_s1(fib(DEPTH + 1), 1)]
    + [type_a_s1((3,), 2, lead=1), type_a_s1((1, 3), 1)],
    "A.s2": [type_a_s2(fib(k), 2) for k in range(1, DEPTH - 2)]
    + [type_a_s2(fib(DEPTH - 1), 1)]
    + [AlgebraType.create("A", m - 1, 1, 2) for m in (8, 10, 12)],
    "D.s1": [type_d(fib(k), 2, 1) for k in range(1, DEPTH)]
    + [type_d((), 3, 1), type_d(fib(DEPTH), 1, 1)],
    "D.s2": [type_d(fib(k), 2, 2) for k in range(1, DEPTH)]
    + [type_d((), 3, 2), type_d(fib(DEPTH), 1, 2)],
}


def allowed_cells(family: str, depth: int) -> set[tuple[str, int, bool]]:
    """The cells that the staircase rules allow at levels 0..depth, where the family's labels lie.

    In A s=2, s_1 = shift + m lies above the labels t <= m/2, and s_2 = shift > 0
    makes the length at least 2: level 0 holds no label and level 1 is closed.
    In D, s_1 = rank - 1 lies above the chain labels: level 0 holds none, and a
    tail at length 1 would sit at s_1, so level 1 is closed or open.
    """
    cells = set()
    for l in range(0 if family == "A.s1" else 1, depth + 1):
        kinds = ("open",) if l % 2 == 0 else ("closed", "open", "tail")
        if l == 1 and family != "A.s1":
            kinds = ("closed",) if family == "A.s2" else ("closed", "open")
        for sym in (False, True) if family.startswith("A") else (False,):
            cells |= {(kind, l, sym) for kind in kinds}
    return cells


def read_cells(types) -> set[tuple[str, int, bool]]:
    """The staircase cells read by the integer labels of ``types``, the degree-zero fringe aside."""
    cells = set()
    for atype in types:
        for t in atype.diagram.labels:
            if type(t) is int:
                kind, l, sym = _BRANCH.fullmatch(rd_closed(atype, t).branch).groups()
                if kind != "zero":
                    cells.add((kind, int(l), sym is not None))
    return cells


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_allowed_cell_is_read(family):
    read = read_cells(FAMILIES[family])
    assert sorted(allowed_cells(family, DEPTH) - read) == []
    assert sorted(read - allowed_cells(family, max(l for _, l, _ in read))) == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_on_deep_staircases(family):
    checked, mismatches = agreement(FAMILIES[family])
    assert checked > 0 and mismatches == []
