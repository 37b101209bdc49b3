"""Serre duality on ZD: the knitted hammocks satisfy dim Hom(a, b) = dim Hom(b, S a).

The stable category of a self-injective algebra has the Serre functor
S = tau . Omega^-1, so stable Hom(a, b) is dual to stable Hom(b, S a).  In the
package's coordinates S(x, t) = tau(omega^-1(x, t)), with omega^-1 built here
from the step table.  dim Hom((x, c), (y, t)) is the multiplicity of (x - y, c)
in the backward hammock of (0, t): byte (x - y).n + k of cell c of the knitted
lanes, with t = labels[k] and n the number of labels.  The check reads the lanes
alone, before any group, so it serves every algebra type on the diagram; it
does not test the orbit offsets.
"""

from __future__ import annotations

import pytest

from rigidity_kit import SPINE_MINUS, SPINE_PLUS, Diagram, Vertex, hammock_plus, quiver


def held_lanes(d: Diagram) -> tuple[bytes, ...]:
    """The lanes the diagram holds after a hammock read."""
    hammock_plus(d, Vertex(0, d.labels[0]))
    return d.lanes


def serre_steps(d: Diagram) -> dict:
    """S as a table: label t -> (dx, t') with S(x, t) = (x + dx, t').

    omega maps (x, t) to (x + dx, t'), so omega^-1 maps (x, t') to (x - dx, t), and tau adds 1.
    """
    return {image: (1 - dx, t) for t, (dx, image) in d.omega_steps.items()}


def serre_failures(d: Diagram, lanes: tuple[bytes, ...]) -> list:
    """The label pairs (t, c) at which dim Hom((0, t), b) and dim Hom(b, S(0, t)) differ for
    some b = (x, c).  Each side vanishes beyond one hammock depth of (0, t) or of S(0, t),
    which lie within two depths of each other, so comparing the nonzero entries covers
    every b within three hammock depths of (0, t) and more."""
    labels, n = d.labels, len(d.labels)
    failures = []
    for t, (sdx, image) in serre_steps(d).items():
        kt, ks = labels.index(t), labels.index(image)
        for kc, c in enumerate(labels):
            # Hom((0, t), (x, c)) is byte (-x).n + kc of cell t; Hom((x, c), S(0, t)) is
            # byte (x - sdx).n + ks of cell c
            left = {-i: m for i, m in enumerate(lanes[kt][kc::n]) if m}
            right = {sdx + i: m for i, m in enumerate(lanes[kc][ks::n]) if m}
            if left != right:
                failures.append((t, c))
    return failures


def edited(d: Diagram, lanes: tuple, c, i: int, t, delta: int) -> tuple[bytes, ...]:
    """The lanes with the multiplicity of (i, c) in the backward hammock of (0, t) moved by delta."""
    labels, n = d.labels, len(d.labels)
    kc, j = labels.index(c), i * n + labels.index(t)
    cell = bytearray(lanes[kc])
    assert j < len(cell) and 0 <= cell[j] + delta < 256
    cell[j] += delta
    return lanes[:kc] + (bytes(cell),) + lanes[kc + 1:]


def self_dual(d: Diagram, c, i: int, t) -> bool:
    """Whether the byte of (i, c) in the backward hammock of (0, t) stands on both sides of
    one equation of ``serre_failures``.  It is dim Hom((0, c), (-i, t)), the left side at
    b = (-i, t), and it is the right side wherever b = (i + x, c) and S a = (x, t).  Both
    hold for one pair (a, b) exactly when c == t and S(0, t) = (-2i, t)."""
    return c == t and serre_steps(d)[t] == (-2 * i, t)


@pytest.mark.parametrize(
    "family,ranks", [("A", range(1, 31)), ("D", range(4, 31)), ("E", (6, 7, 8))]
)
def test_knitted_hammocks_satisfy_serre_duality(family, ranks):
    for rank in ranks:
        d = quiver._diagram(family, rank)
        assert serre_failures(d, held_lanes(d)) == [], f"{family}{rank}"


# (family, rank, c, i, t, delta): (i, c) in the backward hammock of (0, t) raised or
# lowered by 1; a raise of a zero byte inserts a cell
EDITS = [
    ("A", 5, 2, 1, 3, 1), ("A", 8, 4, 0, 4, -1), ("A", 8, 1, 3, 6, 1),
    ("D", 5, 1, 3, 1, 1), ("D", 6, SPINE_PLUS, 1, 3, -1), ("D", 9, 3, 2, SPINE_MINUS, 1),
    ("E", 6, 3, 2, 3, -1), ("E", 7, 4, 5, 2, 1), ("E", 8, 5, 6, 4, -1),
]


@pytest.mark.parametrize("family,rank,c,i,t,delta", EDITS)
def test_one_byte_lane_edits_break_the_duality(family, rank, c, i, t, delta):
    d = Diagram(family, rank)
    assert not self_dual(d, c, i, t)
    assert serre_failures(d, edited(d, held_lanes(d), c, i, t, delta)) != []


@pytest.mark.parametrize(
    "family,rank,c,i,t,delta",
    [("D", 6, SPINE_MINUS, 2, SPINE_MINUS, 1), ("E", 7, 2, 4, 2, -1), ("E", 8, 1, 7, 1, 1)],
)
def test_edits_on_self_dual_cells_go_unseen(family, rank, c, i, t, delta):
    # why the edits above avoid them: such a byte stands on both sides of its equation
    d = Diagram(family, rank)
    assert self_dual(d, c, i, t)
    assert serre_failures(d, edited(d, held_lanes(d), c, i, t, delta)) == []
