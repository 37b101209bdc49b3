"""The package's memos: a warm call hashes no Fraction, as an AlgebraType hashes on integers,
the constructors validate and knit each diagram once, on an interned ``Diagram``, and a
diagram's tables are plain attributes that no comparison, hash or copy sees."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_kit import (
    AlgebraType,
    Diagram,
    Vertex,
    agreement,
    is_maximal_orthogonal,
    omega,
    omega_period,
    quiver,
    rd_closed,
    rd_oracle,
    rigdim_closed,
    rigdim_verify,
    se_oracle,
    sweep_types,
)
from rigidity_kit.cli import main
from rigidity_kit.quiver import hammock_incidence

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


# one type per family and twist order, fractional type D included, with a small verify sweep
# of the same family and twist; A5 u=1, A3 u=3 s=2 and E7 u=5 have a rigidity-dimension formula
UNHASHED = {
    "A5 s=1": (("A", 5, 1, 1), ["--delta", "A", "--rank-max", "3", "--n-max", "3"]),
    "A3 s=2": (("A", 3, 3, 2), ["--delta", "A", "--s", "2", "--rank-max", "3", "--u-max", "2"]),
    "D5 s=1": (("D", 5, 2, 1), ["--delta", "D", "--rank-max", "5", "--u-max", "2"]),
    "D6 u=7/3": (("D", 6, Fraction(7, 3), 1),
                 ["--delta", "D", "--fractional", "--rank-max", "6", "--u-max", "2"]),
    "D5 s=2": (("D", 5, 2, 2), ["--delta", "D", "--s", "2", "--rank-max", "5", "--u-max", "2"]),
    "D4 s=3": (("D", 4, 2, 3), ["--delta", "D", "--s", "3", "--u-max", "2"]),
    "E7 s=1": (("E", 7, 5, 1), ["--delta", "E", "--rank", "7", "--u-max", "2"]),
    "E6 s=2": (("E", 6, 2, 2), ["--delta", "E", "--rank", "6", "--s", "2", "--u-max", "2"]),
}


@pytest.mark.parametrize("case,verify", UNHASHED.values(), ids=UNHASHED)
def test_no_product_path_hashes_a_type(monkeypatch, capsys, case, verify):
    # the per-type memos of quiver, rigidity and orthogonal key on plain values
    def refuse(self):
        raise AssertionError(f"hashed the type {self.describe()}")

    monkeypatch.setattr(AlgebraType, "__hash__", refuse)
    family, rank, u, s = case
    atype = AlgebraType.create(family, rank, u, s)
    for t in atype.diagram.labels:
        v = Vertex(0, t)
        report = rd_oracle(atype, v)
        assert rd_closed(atype, t).rd == report.rd
        se_oracle(atype, v, report.witness + 2)
        omega_period(atype, v)
        is_maximal_orthogonal(atype, v, report.rd)
    formula = rigdim_closed(atype)
    assert (formula is None) == (family == "D" or rank == 6)
    if formula is not None:
        assert rigdim_verify(atype).passed
    spec = ["--delta", family, "--rank", str(rank), "--u", str(u), "--s", str(s)]
    for argv in (["rd", *spec, "--t", "1", "--oracle"], ["table", *spec], ["verify", *verify],
                 ["rigdim", *spec], ["hammock", *spec, "--t", "1", "--orbit"]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "family,rank,u,s",
    [("A", 5, 3, 2), ("A", 8, Fraction(17, 8), 1), ("D", 6, Fraction(7, 3), 1), ("D", 4, 2, 3),
     ("E", 6, 1, 2), ("E", 8, "4", 1)],
)
def test_interned_types_match_types_on_a_fresh_diagram(family, rank, u, s):
    fresh = Diagram(family, rank)
    assert fresh is not Diagram(family, rank)
    made = AlgebraType.create(family, rank, u, s)
    shifted = AlgebraType.from_shift(family, rank, made.n, s)
    direct = AlgebraType(fresh, s, made.n)
    for atype in (made, shifted):
        assert atype == direct and hash(atype) == hash(direct)
        assert atype.describe() == direct.describe()
        assert atype.diagram == fresh and hash(atype.diagram) == hash(fresh)
    assert made.diagram is shifted.diagram


def test_diagram_tables_are_not_fields():
    assert [field.name for field in dataclasses.fields(Diagram)] == ["family", "rank"]
    d = Diagram("D", 6)
    assert repr(d) == "Diagram(family='D', rank=6)"
    assert hash(d) == hash(("D", 6))  # the generated hash of the fields alone
    assert d == quiver._diagram("D", 6) and d != Diagram("D", 7) and d != Diagram("A", 6)


# the tables validation sets, and the hammock tables, which the first hammock read fills
TABLES = ("labels", "ins", "outs", "knit_plan", "omega_steps", "phi_steps", "origins", "h",
          "h_star", "m_delta")
HAMMOCK_TABLES = ("lanes", "incidence", "columns")


def assert_tables_equal(d, reference):
    for name in TABLES:
        assert getattr(d, name) == getattr(reference, name), (d, name)
    assert hammock_incidence(d) == hammock_incidence(reference)
    assert d.lanes == reference.lanes and d.lanes is not None, d


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 6), ("E", 6)])
def test_copied_diagrams_keep_their_tables(family, rank):
    # d is built apart from the interned diagram, which every copy but replace's is
    d = Diagram(family, rank)
    copies = [pickle.loads(pickle.dumps(d, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(d), copy.copy(d), dataclasses.replace(d)]
    message = f"label 9 is not a vertex of {family}{rank}"
    for c in copies:
        assert c is not d and c == d and hash(c) == hash(d) and repr(c) == repr(d)
        assert_tables_equal(c, d)
        for t in d.labels:
            c.check_label(t)
            assert omega(c, Vertex(3, t)) == omega(d, Vertex(3, t))
        for call in (lambda: c.check_label(9), lambda: omega(c, Vertex(0, 9))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def test_copies_hold_the_interned_diagram():
    atype = AlgebraType.create("D", 6, Fraction(7, 3))
    interned = quiver._diagram("D", 6)
    held = [(Diagram("D", 6), lambda c: c), (atype, lambda c: c.diagram),
            (rd_oracle(atype, Vertex(0, 1)), lambda c: c.atype.diagram),
            (is_maximal_orthogonal(atype, Vertex(0, 1), 3), lambda c: c.atype.diagram)]
    for obj, diagram_of in held:
        copies = [pickle.loads(pickle.dumps(obj, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(obj), copy.deepcopy(obj)]
        for c in copies:
            assert type(c) is type(obj) and c == obj and hash(c) == hash(obj), obj
            assert diagram_of(c) is interned, obj
    # replace builds a new diagram, validated and with tables of its own
    replaced = dataclasses.replace(interned)
    assert replaced == interned and replaced is not interned
    assert replaced.omega_steps == interned.omega_steps
    assert replaced.omega_steps is not interned.omega_steps
    with pytest.raises(ValueError, match="type D needs rank >= 4, got 3"):
        dataclasses.replace(interned, rank=3)


# Coxeter numbers h of E6, E7 and E8; A_r has h = r + 1 and D_r has h = 2r - 2
E_COXETER = {6: 12, 7: 18, 8: 30}


@pytest.mark.parametrize(
    "family,ranks", [("A", range(1, 41)), ("D", range(4, 41)), ("E", range(6, 9))]
)
def test_fresh_and_interned_diagrams_hold_equal_tables(family, ranks):
    for rank in ranks:
        fresh, interned = Diagram(family, rank), quiver._diagram(family, rank)
        assert fresh is not interned
        # each diagram holds tables of its own, equal however the diagram was built
        assert [getattr(fresh, name) for name in HAMMOCK_TABLES] == [None, None, {}]
        assert fresh.omega_steps is not interned.omega_steps
        assert_tables_equal(fresh, interned)
        h = {"A": rank + 1, "D": 2 * rank - 2}.get(family) or E_COXETER[rank]
        assert fresh.h == h and fresh.m_delta == interned.m_delta == h - 1, rank
        assert fresh.h_star == interned.h_star == (h if family == "A" else h // 2), rank
        for t in fresh.labels:
            for x in (-3, 0, 5):
                assert omega(fresh, Vertex(x, t)) == omega(interned, Vertex(x, t)), (rank, t)


# (family, rank, u, s) over every family and twist order, fractional type D included
created = st.one_of(
    st.builds(lambda rank, n: ("A", rank, Fraction(n, rank), 1), st.integers(1, 12), st.integers(1, 40)),
    st.builds(lambda rank, u: ("A", rank, u, 2), st.sampled_from([3, 5, 7, 9, 11]), st.integers(1, 6)),
    st.builds(lambda rank, u, s: ("D", rank, u, s), st.integers(4, 10), st.integers(1, 6),
              st.sampled_from([1, 2])),
    st.builds(lambda rank, v: ("D", rank, Fraction(v, 3), 1), st.sampled_from([6, 9, 12]),
              st.integers(1, 18).filter(lambda v: v % 3)),
    st.builds(lambda u: ("D", 4, u, 3), st.integers(1, 12)),
    st.builds(lambda rank, u: ("E", rank, u, 1), st.sampled_from([6, 7, 8]), st.integers(1, 12)),
    st.builds(lambda u: ("E", 6, u, 2), st.integers(1, 12)),
)


def test_a_type_stores_n_alone():
    assert [field.name for field in dataclasses.fields(AlgebraType)] == ["diagram", "s", "n"]
    assert isinstance(AlgebraType.u, property)


@given(created, st.sampled_from([Fraction, str]))
@settings(max_examples=300, deadline=None)
def test_u_is_derived_from_n(case, spelling):
    family, rank, u, s = case
    at = AlgebraType.create(family, rank, spelling(u), s)
    assert at.u == u and type(at.u) is Fraction
    assert at.n == u * at.diagram.m_delta and type(at.n) is int
    shifted = AlgebraType.from_shift(family, rank, at.n, s)
    assert shifted == at and hash(shifted) == hash(at)
    assert at.describe() == f"({family}{rank}, {Fraction(u)}, {s})"  # as when create kept u


SWEEPS = [("A", 1, {"rank_max": 6, "n_max": 8}), ("A", 2, {"rank_max": 7, "u_max": 3}),
          ("D", 1, {"rank_max": 7, "u_max": 3}), ("D", 2, {"rank_max": 6, "u_max": 2}),
          ("D", 3, {"u_max": 4}), ("D", 1, {"rank_max": 9, "u_max": 5, "fractional": True}),
          ("E", 1, {"rank": 6, "u_max": 3}), ("E", 2, {"rank": 6, "u_max": 3}),
          ("E", 1, {"rank": 7, "u_max": 2}), ("E", 1, {"rank": 8, "u_max": 2})]


def test_each_diagram_is_validated_once_across_sweeps(monkeypatch):
    # a fresh memo, so that every diagram of the grid is validated and knitted here
    monkeypatch.setattr(quiver, "_interned", lru_cache(maxsize=None)(Diagram))
    validated, knitted = Counter(), Counter()
    post_init, kernel = Diagram.__post_init__, quiver._knit_lanes

    def counted(self):
        validated[self.family, self.rank] += 1
        post_init(self)

    def counted_knit(diagram):
        knitted[diagram.family, diagram.rank] += 1
        return kernel(diagram)

    monkeypatch.setattr(Diagram, "__post_init__", counted)
    monkeypatch.setattr(quiver, "_knit_lanes", counted_knit)
    types = [at for delta, s, bounds in SWEEPS for at in sweep_types(delta, s, **bounds)]
    assert agreement(types)[1] == []
    for atype in types:
        for t in atype.diagram.labels:
            rd_closed(atype, t)
            is_maximal_orthogonal(atype, Vertex(0, t), 2)
    distinct = {(at.diagram.family, at.diagram.rank) for at in types}
    assert len(types) > 2 * len(distinct)  # validating or knitting per type would show
    assert validated == Counter(dict.fromkeys(distinct, 1))
    assert knitted == validated


@pytest.mark.parametrize(
    "family,rank",
    [("A", True), ("A", 1.0), ("A", "1"), ("A", [1]), ("A", 0), ("D", 3), ("E", 9), ("E", 6.0),
     ("B", 1), ("a", 1), (1, 1), (["A"], 1), (None, 6)],
    ids=repr,
)
def test_rejected_spellings_raise_alike_after_interning(family, rank):
    AlgebraType.create("A", 1, 1)  # interns A1 and E6, which True, 1.0 and 6.0 equal
    AlgebraType.create("E", 6, 1)
    with pytest.raises(ValueError) as info:
        Diagram(family, rank)
    message = str(info.value)
    builds = [lambda: AlgebraType.create(family, rank, 1),
              lambda: AlgebraType.from_shift(family, rank, 1), lambda: quiver._diagram(family, rank)]
    for build in builds * 2:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
