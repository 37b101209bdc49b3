"""The package's memos: a warm call hashes no Fraction, as an AlgebraType hashes on integers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rigidity_kit import (
    AlgebraType,
    Vertex,
    is_maximal_orthogonal,
    rd_oracle,
    se_oracle,
)

TYPES = [AlgebraType.create("D", 6, Fraction(7, 3), 1), AlgebraType.create("A", 5, 3, 2),
         AlgebraType.create("E", 7, 5, 1)]


@pytest.fixture
def fraction_hashes(monkeypatch):
    """The Fractions hashed from here on, in order."""
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    return hashed


@pytest.mark.parametrize("atype", TYPES, ids=lambda at: at.describe())
def test_warm_calls_hash_no_fraction(request, atype):
    vertex = Vertex(0, 1)

    def calls():
        return (rd_oracle(atype, vertex), se_oracle(atype, vertex, 30),
                is_maximal_orthogonal(atype, vertex, 3).is_maximal)

    cold = calls()
    hashed = request.getfixturevalue("fraction_hashes")
    assert calls() == cold
    hash(atype)
    assert hashed == []
    hash(atype.u)  # the probe sees a hash of a Fraction
    assert hashed == [atype.u]


@pytest.mark.parametrize(
    "same",
    [
        [AlgebraType.create("D", 6, Fraction(7, 3)), AlgebraType.create("D", 6, "7/3"),
         AlgebraType.from_shift("D", 6, 21)],
        [AlgebraType.create("A", 5, 3, 2), AlgebraType.create("A", 5, "3", 2),
         AlgebraType.create("A", 5, Fraction(6, 2), 2), AlgebraType.from_shift("A", 5, 15, 2)],
    ],
    ids=["D6", "A5"],
)
def test_type_hash_agrees_with_equality(same):
    assert len({hash(at) for at in same}) == 1
    assert len(set(same)) == 1
    others = [AlgebraType.create("D", 6, 1), AlgebraType.create("D", 7, 1),
              AlgebraType.create("A", 5, 3), AlgebraType.create("A", 5, 1, 2),
              AlgebraType.create("E", 6, 1), AlgebraType.create("E", 6, 1, 2)]
    assert len(set(same) | set(others)) == 1 + len(others)
