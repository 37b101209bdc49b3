"""Geometry tests: automorphisms, group membership and hammock shapes."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections import Counter
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_kit import (
    SPINE_MINUS,
    SPINE_PLUS,
    AlgebraType,
    Diagram,
    Vertex,
    group_generator,
    group_member,
    hammock_dot,
    hammock_minus,
    hammock_plus,
    is_maximal_orthogonal,
    omega,
    omega_period,
    orbit_quiver_dot,
    orbit_reps,
    phi,
    quiver,
    rd_closed,
    rd_oracle,
    se_oracle,
    tau,
)
from rigidity_kit.quiver import hammock_incidence, orbit_residues


def omega_inverse(diagram: Diagram, v: Vertex) -> Vertex:
    """Inverse of ``omega``: it maps (x, t) to (x + dx, t'), so undo that."""
    diagram.check_label(v.t)
    for t, (dx, image) in diagram.omega_steps.items():
        if image == v.t:
            return Vertex(v.x - dx, t)
    raise AssertionError("omega permutes the labels")  # pragma: no cover


def reference_sinks_first(labels, outs) -> tuple:
    """The sinks-first label order as a quadratic scan that tests membership in the list
    placed so far: the reference for the order of ``Diagram.knit_plan``."""
    placed: list = []
    remaining = sorted(labels, key=quiver._label_key)
    while remaining:
        for c in remaining:
            if all(b in placed for b in outs[c]):
                placed.append(c)
                remaining.remove(c)
                break
        else:  # pragma: no cover - the diagram is a tree
            raise AssertionError("orientation is cyclic")
    return tuple(placed)


class TestVertex:
    def test_value_semantics_under_slots(self):
        v = Vertex(3, SPINE_PLUS)
        assert not hasattr(v, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x = 4
        # a new attribute has no slot; CPython 3.11's frozen __setattr__
        # refuses it with a TypeError, later versions with FrozenInstanceError
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            v.y = 4
        assert v == Vertex(3, SPINE_PLUS) and hash(v) == hash(Vertex(3, SPINE_PLUS))
        assert v != Vertex(3, SPINE_MINUS) and v != Vertex(4, SPINE_PLUS)
        copies = [pickle.loads(pickle.dumps(v, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(v), copy.copy(v), dataclasses.replace(v)]
        for w in copies:
            assert type(w) is Vertex and w == v and hash(w) == hash(v)
        assert dataclasses.replace(v, x=-2) == Vertex(-2, SPINE_PLUS)

    def test_sort_key_and_str(self):
        assert Vertex(-2, 5).sort_key() == (-2, 0, 5)
        assert Vertex(3, SPINE_PLUS).sort_key() == (3, 1, 0)
        assert Vertex(3, SPINE_MINUS).sort_key() == (3, 1, 1)
        assert str(Vertex(-2, 5)) == "(-2,5)" and str(Vertex(3, SPINE_MINUS)) == "(3,m-)"


class TestTau:
    def test_shift(self):
        assert tau(Vertex(0, 1)) == Vertex(1, 1)

    def test_label_preserved_on_spine(self):
        assert tau(Vertex(-3, SPINE_PLUS)) == Vertex(-2, SPINE_PLUS)

    def test_inverse(self):
        v = Vertex(5, 2)
        assert tau(tau(v), -1) == v


class TestOmega:
    def test_type_a(self):
        d = Diagram("A", 8)  # m = 9
        assert omega(d, Vertex(0, 1)) == Vertex(1, 8)
        for t in d.labels:
            v = Vertex(3, t)
            assert omega(d, omega(d, v)) == Vertex(v.x + 9, t)
            assert omega_inverse(d, omega(d, v)) == v

    def test_type_d_tail(self):
        d = Diagram("D", 6)  # m = 5
        assert omega(d, Vertex(0, 2)) == Vertex(5, 2)

    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    def test_type_d_spine_alternation(self, rank):
        d = Diagram("D", rank)
        m = rank - 1
        v = Vertex(0, SPINE_PLUS)
        for r in range(1, 7):
            v = omega(d, v)
            expected = SPINE_PLUS if (r * m + r) % 2 == 0 else SPINE_MINUS
            assert v == Vertex(r * m, expected)

    def test_type_e6(self):
        d = Diagram("E", 6)
        assert omega(d, Vertex(0, 6)) == Vertex(6, 6)
        assert omega(d, omega(d, Vertex(0, 6))) == Vertex(12, 6)
        for t in d.labels:
            v = Vertex(-2, t)
            assert omega(d, omega(d, v)) == Vertex(v.x + 12, t)
            assert omega_inverse(d, omega(d, v)) == v

    @pytest.mark.parametrize("rank,shift", [(7, 9), (8, 15)])
    def test_type_e78_is_translation(self, rank, shift):
        d = Diagram("E", rank)
        for t in d.labels:
            assert omega(d, Vertex(1, t)) == Vertex(1 + shift, t)

    @pytest.mark.parametrize(
        "family,ranks", [("A", range(1, 10)), ("D", range(4, 11)), ("E", range(6, 9))]
    )
    def test_square_is_label_fixing_translation(self, family, ranks):
        # the certificate's cover rotates one bit pattern per phase by this shift
        for rank in ranks:
            d = Diagram(family, rank)
            shift = d.h_star if family == "A" else 2 * d.h_star
            for t in d.labels:
                for x in (0, -4):
                    assert omega(d, omega(d, Vertex(x, t))) == Vertex(x + shift, t)

    def test_commutes_with_tau(self):
        for d in (Diagram("A", 5), Diagram("D", 6), Diagram("E", 7)):
            for t in d.labels:
                v = Vertex(2, t)
                assert omega(d, tau(v)) == tau(omega(d, v))

    @pytest.mark.parametrize(
        "family,rank", [("A", 5), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
    )
    def test_image_is_an_ordinary_vertex(self, family, rank):
        # omega sets the slots of a bare instance, skipping __init__; nothing may tell
        d = Diagram(family, rank)
        for t in d.labels:
            w = omega(d, Vertex(-3, t))
            built = Vertex(w.x, w.t)
            assert type(w) is Vertex and w == built and hash(w) == hash(built)
            assert repr(w) == repr(built) and str(w) == str(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.x = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.t = t
            copies = [pickle.loads(pickle.dumps(w, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(w), copy.deepcopy(w), dataclasses.replace(w)]
            for c in copies:
                assert type(c) is Vertex and c == w and hash(c) == hash(w) and repr(c) == repr(w)
        for bad in (99, [1]):
            with pytest.raises(ValueError) as info:
                omega(d, Vertex(0, bad))
            assert str(info.value) == f"label {bad!r} is not a vertex of {family}{rank}"


class TestPhi:
    def test_identity_when_untwisted(self):
        at = AlgebraType.create("D", 6, 3, 1)
        assert phi(at, Vertex(4, SPINE_PLUS)) == Vertex(4, SPINE_PLUS)

    def test_spine_swap(self):
        at = AlgebraType.create("D", 6, 1, 2)
        assert phi(at, Vertex(4, SPINE_PLUS)) == Vertex(4, SPINE_MINUS)
        assert phi(at, Vertex(4, 2)) == Vertex(4, 2)

    def test_triality_cycle(self):
        at = AlgebraType.create("D", 4, 1, 3)
        v = Vertex(0, 1)
        seen = [v]
        for _ in range(3):
            seen.append(phi(at, seen[-1]))
        assert [w.t for w in seen] == [1, SPINE_MINUS, SPINE_PLUS, 1]
        assert all(w.x == 0 for w in seen)

    @pytest.mark.parametrize(
        "at",
        [
            AlgebraType.create("A", 5, 2, 2),
            AlgebraType.create("D", 5, 2, 2),
            AlgebraType.create("D", 4, 2, 3),
            AlgebraType.create("E", 6, 2, 2),
        ],
        ids=lambda at: at.describe(),
    )
    def test_order_divides_s(self, at):
        for t in at.diagram.labels:
            v = Vertex(1, t)
            w = v
            for _ in range(at.s):
                w = phi(at, w)
            assert w == v

    def test_commutes_with_tau(self):
        for at in (
            AlgebraType.create("A", 5, 2, 2),
            AlgebraType.create("D", 6, 1, 2),
            AlgebraType.create("D", 4, 2, 3),
            AlgebraType.create("E", 6, 1, 2),
        ):
            for t in at.diagram.labels:
                v = Vertex(3, t)
                assert phi(at, tau(v)) == tau(phi(at, v))

    @pytest.mark.parametrize(
        "family,ranks", [("A", range(1, 41)), ("D", range(4, 41)), ("E", range(6, 9))]
    )
    def test_tables_only_for_the_twist_orders_a_type_admits(self, family, ranks):
        def admits(d, s):
            try:
                AlgebraType(d, s, d.m_delta)
            except ValueError:
                return False
            return True

        for rank in ranks:
            d = Diagram(family, rank)
            assert set(d.phi_steps) == {s for s in (1, 2, 3) if admits(d, s)}, f"{family}{rank}"

    def test_generator_power_is_pure_translation(self):
        for at in (
            AlgebraType.create("A", 7, Fraction(5, 7), 1),
            AlgebraType.create("A", 5, 2, 2),
            AlgebraType.create("D", 6, 2, 2),
            AlgebraType.create("D", 4, 3, 3),
            AlgebraType.create("E", 6, 3, 2),
        ):
            for t in at.diagram.labels:
                v = Vertex(2, t)
                w = v
                for _ in range(at.s):
                    w = group_generator(at, w)
                assert w == Vertex(v.x + at.period, v.t), at.describe()


class TestGroupMember:
    def test_translation_orbit(self):
        at = AlgebraType.from_shift("A", 8, 17, 1)
        assert group_member(at, Vertex(0, 1), Vertex(34, 1))
        assert not group_member(at, Vertex(0, 1), Vertex(20, 1))
        assert not group_member(at, Vertex(0, 1), Vertex(17, 2))

    def test_twisted_type_a(self):
        at = AlgebraType.create("A", 5, 2, 2)  # m = 6, effective shift n-m/2
        m = 6
        shift = at.n - m // 2
        for t in range(1, 6):
            assert group_member(at, Vertex(0, t), Vertex(shift + t, m - t))

    def test_spine_flip_membership(self):
        at = AlgebraType.create("D", 6, 2, 2)
        n = at.n
        assert not group_member(at, Vertex(0, SPINE_PLUS), Vertex(n, SPINE_PLUS))
        assert group_member(at, Vertex(0, SPINE_PLUS), Vertex(n, SPINE_MINUS))
        assert group_member(at, Vertex(0, SPINE_PLUS), Vertex(2 * n, SPINE_PLUS))

    def test_independent_of_the_orbit_tables(self, monkeypatch):
        # group_member is the reference the orbit tables are checked against
        def broken(atype):
            raise AssertionError("group_member read orbit_offsets")

        monkeypatch.setattr(quiver, "orbit_offsets", broken)
        twisted = AlgebraType.create("A", 5, 2, 2)
        assert group_member(twisted, Vertex(0, 2), Vertex(twisted.n - 1, 4))
        assert not group_member(twisted, Vertex(0, 2), Vertex(twisted.n, 4))
        triality = AlgebraType.create("D", 4, 1, 3)
        n = triality.n
        assert group_member(triality, Vertex(0, 1), Vertex(n, SPINE_MINUS))
        assert group_member(triality, Vertex(0, 1), Vertex(2 * n, SPINE_PLUS))
        assert not group_member(triality, Vertex(0, 1), Vertex(n, SPINE_PLUS))

    @pytest.mark.parametrize(
        "at",
        [
            AlgebraType.create("A", 5, 2, 2),
            AlgebraType.create("D", 6, 2, 2),
            AlgebraType.create("D", 4, 1, 3),
            AlgebraType.create("E", 6, 1, 2),
        ],
        ids=lambda at: at.describe(),
    )
    def test_orbit_residues_match_group_member(self, at):
        for t in at.diagram.labels:
            v = Vertex(3, t)
            residues = orbit_residues(at, v)
            assert len(residues) == at.s
            for x in range(-at.period, 2 * at.period):
                for c in at.diagram.labels:
                    w = Vertex(x, c)
                    assert ((c, x % at.period) in residues) == group_member(at, v, w)


class TestTables:
    @pytest.mark.parametrize("t", [9, SPINE_PLUS, [1]])  # [1] is unhashable
    def test_unknown_label_raises_check_label_error_at_every_entry(self, t):
        at = AlgebraType.create("A", 5, 2, 1)
        twisted = AlgebraType.create("A", 5, 2, 2)
        d, fresh, v = at.diagram, Diagram("A", 5), Vertex(0, t)
        calls = [
            lambda: omega(d, v),
            lambda: omega(fresh, v),  # built directly, not interned
            lambda: phi(at, v),
            lambda: phi(twisted, v),
            lambda: rd_oracle(at, v),
            lambda: se_oracle(at, v, 5),
            lambda: rd_closed(at, t),
            lambda: is_maximal_orthogonal(at, v, 2),
        ]
        message = f"label {t!r} is not a vertex of A5"
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("t", [True, 2.0], ids=repr)
    def test_label_of_another_type_raises_check_label_error(self, t):
        # True and 2.0 equal and hash like the labels 1 and 2, so each entry is
        # warmed with the integer first: no cache hit may answer for them
        at = AlgebraType.create("A", 5, 2, 1)
        d = at.diagram
        calls = [
            lambda u: rd_closed(at, u),
            lambda u: rd_oracle(at, Vertex(0, u)),
            lambda u: se_oracle(at, Vertex(0, u), 5),
            lambda u: is_maximal_orthogonal(at, Vertex(0, u), 2),
            lambda u: hammock_minus(d, Vertex(0, u)),
            lambda u: hammock_plus(d, Vertex(0, u)),
            lambda u: orbit_residues(at, Vertex(0, u)),
            lambda u: group_member(at, Vertex(0, u), Vertex(0, 1)),
            lambda u: group_member(at, Vertex(0, 1), Vertex(0, u)),
            lambda u: omega_period(at, Vertex(0, u)),
            lambda u: orbit_quiver_dot(at, highlight=Vertex(0, u)),
            lambda u: phi(at, Vertex(0, u)),
            lambda u: group_generator(at, Vertex(0, u)),
            lambda u: orbit_reps(at, Vertex(0, u)),
        ]
        message = f"label {t!r} is not a vertex of A5"
        for call in calls:
            call(int(t))
            with pytest.raises(ValueError) as info:
                call(t)
            assert str(info.value) == message

    @pytest.mark.parametrize("x", [2.5, True, "0"], ids=repr)
    def test_non_int_slice_coordinate_raises_at_every_entry(self, x):
        at = AlgebraType.create("A", 5, 2, 1)
        d, v, good = at.diagram, Vertex(x, 1), Vertex(0, 1)
        calls = [
            lambda: rd_oracle(at, v),
            lambda: se_oracle(at, v, 5),
            lambda: omega_period(at, v),
            lambda: is_maximal_orthogonal(at, v, 3),
            lambda: phi(at, v),
            lambda: group_generator(at, v),
            lambda: orbit_reps(at, v),
            lambda: orbit_residues(at, v),
            lambda: group_member(at, v, good),
            lambda: group_member(at, good, v),
            lambda: hammock_minus(d, v),
            lambda: hammock_plus(d, v),
            lambda: hammock_dot(d, v, hammock_minus(d, good)),
            lambda: orbit_quiver_dot(at, highlight=v),
        ]
        message = f"slice coordinate must be an integer, got {x!r}"
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "member,message",
        [(Vertex(0.5, 1), "slice coordinate must be an integer, got 0.5"),
         (Vertex(2, 9), "label 9 is not a vertex of A5")],
        ids=["float-x", "unknown-label"],
    )
    def test_hammock_dot_checks_every_member(self, member, message):
        # unchecked, a float x would reach range() and an unknown label would be drawn
        d, base = Diagram("A", 5), Vertex(0, 1)
        with pytest.raises(ValueError) as info:
            hammock_dot(d, base, hammock_minus(d, base) | {member})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 6), ("D", 4), ("D", 7), ("E", 6), ("E", 7), ("E", 8)],
    )
    def test_omega_table_commutes_with_tau_and_inverts(self, family, rank):
        d = Diagram(family, rank)
        for t in d.labels:
            v = Vertex(-4, t)
            assert omega(d, tau(v)) == tau(omega(d, v))
            assert omega_inverse(d, omega(d, v)) == v
            assert omega(d, omega_inverse(d, v)) == v

    @pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("D", 6), ("E", 6), ("E", 8)])
    def test_labels_in_sort_key_order(self, family, rank):
        labels = Diagram(family, rank).labels
        assert sorted(labels, key=lambda t: Vertex(0, t).sort_key()) == list(labels)

    @pytest.mark.parametrize(
        "family,ranks", [("A", range(1, 81)), ("D", range(4, 81)), ("E", range(6, 9))]
    )
    def test_sinks_first_order_matches_the_quadratic_scan(self, family, ranks):
        for rank in ranks:
            d = Diagram(family, rank)
            labels, ins, outs = d.labels, d.ins, d.outs
            assert list(ins) == list(outs) == list(labels)
            for t in labels:
                d.check_label(t)
            strangers = [True, 1.0, 0, len(labels) + 1] + ([] if family == "D" else [SPINE_PLUS])
            for t in strangers:
                with pytest.raises(ValueError) as info:
                    d.check_label(t)
                assert str(info.value) == f"label {t!r} is not a vertex of {family}{rank}"
            index = labels.index
            assert d.knit_plan == tuple(
                (index(c), tuple(map(index, ins[c])), tuple(map(index, outs[c])))
                for c in reference_sinks_first(labels, outs)
            ), f"{family}{rank}"

    @pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("E", 6)])
    def test_incidence_transposes_backward_hammocks(self, family, rank):
        d = Diagram(family, rank)
        n = len(d.labels)
        # bit dx * n + k of cell c: (dx, c) is in the backward hammock of (0, labels[k])
        transposed = {
            (d.labels[i % n], i // n, c)
            for c, bits in hammock_incidence(d).items()
            for i in range(bits.bit_length())
            if bits >> i & 1
        }
        direct = {(t, h.x, h.t) for t in d.labels for h in hammock_minus(d, Vertex(0, t))}
        assert transposed == direct
        # z is in the forward hammock of v exactly when v is in the backward hammock of z
        for t in d.labels:
            dual = {Vertex(-h.x, c) for c in d.labels
                    for h in hammock_minus(d, Vertex(0, c)) if h.t == t}
            assert dual == hammock_plus(d, Vertex(0, t))


class TestAlgebraTypeValidation:
    def test_fractional_u_requires_divisible_rank(self):
        AlgebraType.create("D", 6, Fraction(1, 3), 1)
        with pytest.raises(ValueError):
            AlgebraType.create("D", 5, Fraction(1, 3), 1)
        with pytest.raises(ValueError):
            AlgebraType.create("D", 6, Fraction(1, 3), 2)

    def test_type_a_twist_needs_odd_rank(self):
        with pytest.raises(ValueError):
            AlgebraType.create("A", 4, 1, 2)
        with pytest.raises(ValueError):
            AlgebraType.create("A", 1, 1, 2)

    def test_rational_u_must_give_integral_shift(self):
        AlgebraType.create("A", 8, Fraction(17, 8), 1)
        with pytest.raises(ValueError):
            AlgebraType.create("A", 8, Fraction(17, 7), 1)

    def test_triality_only_on_d4(self):
        AlgebraType.create("D", 4, 2, 3)
        with pytest.raises(ValueError):
            AlgebraType.create("D", 5, 2, 3)

    def test_e_twist_only_on_e6(self):
        AlgebraType.create("E", 6, 2, 2)
        with pytest.raises(ValueError):
            AlgebraType.create("E", 7, 2, 2)

    @pytest.mark.parametrize(
        "family,rank,u,s",
        [("A", 5, 3, 1), ("A", 5, 3, 2), ("D", 6, Fraction(7, 3), 1), ("D", 6, 2, 2),
         ("D", 4, 2, 3), ("E", 7, 5, 1), ("E", 6, 2, 2)],
        ids=repr,
    )
    def test_slotted_type_keeps_value_semantics(self, family, rank, u, s):
        at = AlgebraType.create(family, rank, u, s)
        assert not hasattr(at, "__dict__")
        for name in ("diagram", "s", "n"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(at, name, getattr(at, name))
        copies = [pickle.loads(pickle.dumps(at, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(at), copy.deepcopy(at), dataclasses.replace(at)]
        for c in copies:
            assert type(c) is AlgebraType and c == at and hash(c) == hash(at)
            assert repr(c) == repr(at) and c.describe() == at.describe()
        frac = Fraction(u)
        spellings = [frac, str(frac)] + ([int(u)] if frac.denominator == 1 else [])
        for spelled in spellings:
            made = AlgebraType.create(family, rank, spelled, s)
            assert made == at and hash(made) == hash(at) and made.describe() == at.describe()

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            Diagram("D", 3)
        with pytest.raises(ValueError):
            Diagram("E", 9)
        with pytest.raises(ValueError):
            Diagram("B", 2)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: AlgebraType.create("A", True, 1), "rank must be an integer, got True"),
            (lambda: Diagram("E", 6.0), "rank must be an integer, got 6.0"),
            (lambda: AlgebraType.create("A", 3, 1, 2.0), "twist order must be 1, 2 or 3, got 2.0"),
            (lambda: AlgebraType.create("D", 4, 1, True), "twist order must be 1, 2 or 3, got True"),
            (lambda: AlgebraType.from_shift("A", 3, True), "tau-exponent must be an integer, got True"),
            (lambda: AlgebraType.from_shift("A", 3, 3.0), "tau-exponent must be an integer, got 3.0"),
            (lambda: AlgebraType(Diagram("A", 3), 1, True), "tau-exponent must be an integer, got True"),
            (lambda: AlgebraType.create("A", 3, True), "u must be a Fraction, an int or a str, got True"),
            (lambda: AlgebraType.create("A", 4, 0.5), "u must be a Fraction, an int or a str, got 0.5"),
            (lambda: AlgebraType.create("E", 6, 2.0), "u must be a Fraction, an int or a str, got 2.0"),
        ],
        ids=["bool-rank", "float-rank", "float-s", "bool-s", "bool-n", "float-n", "bool-n-direct",
             "bool-u", "float-u", "float-u-integral"],
    )
    def test_bool_or_non_int_parameter_raises(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "u", ["\u0663", "1_0", " 3 ", "+3", "1e2", "3/0", "2.5", "", "3\n", "--3", "-1e2", "3 / 4",
              "5/\u0663"],
        ids=repr,
    )
    def test_str_u_outside_the_cli_spelling_raises(self, u):
        # Fraction parses all of these but "", "--3" and "3 / 4", and raises ZeroDivisionError on "3/0"
        with pytest.raises(ValueError) as info:
            AlgebraType.create("A", 3, u)
        assert str(info.value) == f"u must be an exact rational like '17/8', got {u!r}"

    @pytest.mark.parametrize(
        "rank,u", [(3, "3"), (3, "03"), (8, "17/8"), (3, "6/2"), (3, "3/06"), (8, "17/7"),
                   (3, "0"), (3, "-3"), (3, "-3/4"), (3, "-0")],
        ids=repr,
    )
    def test_str_u_in_the_cli_spelling_reads_as_a_fraction(self, rank, u):
        # a leading minus is let through, so that a negative u meets the sign check
        assert validation_outcome(AlgebraType.create, "A", rank, u) == validation_outcome(
            reference_create, "A", rank, u
        )

    def test_create_and_the_cli_share_the_u_spelling(self):
        from rigidity_kit import cli

        assert cli._U_PATTERN is quiver._U_PATTERN


def reference_validate(diagram, s, n):
    """``AlgebraType.__post_init__`` as written in ``Fraction`` arithmetic: the fields it keeps, and u."""
    fam, rank = diagram.family, diagram.rank
    if type(s) is not int or s not in (1, 2, 3):
        raise ValueError(f"twist order must be 1, 2 or 3, got {s!r}")
    if type(n) is not int:
        raise ValueError(f"tau-exponent must be an integer, got {n!r}")
    u = Fraction(n) / diagram.m_delta
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
    integral = u.denominator == 1
    if fam == "A":
        if s == 2:
            if rank < 3 or rank % 2 == 0:
                raise ValueError("twist order 2 in type A needs odd rank >= 3")
            if not integral:
                raise ValueError("twist order 2 in type A needs integral u")
        elif s != 1:
            raise ValueError("type A admits twist orders 1 and 2 only")
    elif fam == "D":
        if s == 3:
            if rank != 4:
                raise ValueError("twist order 3 happens for D4 only")
            if not integral:
                raise ValueError("twist order 3 needs integral u")
        elif s == 2:
            if not integral:
                raise ValueError("twist order 2 in type D needs integral u")
        elif not integral:
            if u.denominator != 3 or rank % 3 != 0 or rank < 6:
                raise ValueError(
                    f"fractional type D parameters need u = v/3 with 3 not "
                    f"dividing v and rank a multiple of 3 >= 6, got "
                    f"u={u}, rank={rank}"
                )
    else:
        if s == 2 and rank != 6:
            raise ValueError("twist order 2 in type E happens for E6 only")
        if s == 3:
            raise ValueError("type E admits twist orders 1 and 2 only")
        if not integral:
            raise ValueError("type E needs integral u")
    return diagram, s, u, n


def reference_create(family, rank, u, s=1):
    """``AlgebraType.create`` as written in ``Fraction`` arithmetic."""
    diagram = Diagram(family, rank)
    if type(u) not in (Fraction, int, str):
        raise ValueError(f"u must be a Fraction, an int or a str, got {u!r}")
    frac = Fraction(u)
    n = frac * diagram.m_delta
    if n.denominator != 1:
        raise ValueError(f"u={frac} gives non-integral tau-exponent for {family}{rank}")
    return reference_validate(diagram, s, int(n))


def reference_from_shift(family, rank, n, s=1):
    """``AlgebraType.from_shift`` as written in ``Fraction`` arithmetic."""
    return reference_validate(Diagram(family, rank), s, n)


def validation_outcome(build, *args):
    """The fields, with their types, that ``build(*args)`` keeps, or its ``ValueError`` text."""
    try:
        got = build(*args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(got, AlgebraType):
        got = (got.diagram, got.s, got.u, got.n)
    return "ok", got, tuple(type(field) for field in got)


# every family, valid and invalid ranks and twist orders, and u of every accepted
# type: fractional, non-positive, and with a non-integral tau-exponent
fractions = st.builds(Fraction, st.integers(-4, 60), st.integers(1, 13))
u_values = st.one_of(
    st.integers(-3, 60), fractions, fractions.map(str), st.integers(1, 60).map(str)
)


class TestIntegerValidationMatchesFractions:
    @given(st.sampled_from("ADE"), st.integers(1, 13), u_values, st.integers(0, 4))
    @settings(max_examples=400, deadline=None)
    def test_create(self, family, rank, u, s):
        if family == "E":
            rank = 6 + rank % 3
        args = (family, rank, u, s)
        assert validation_outcome(AlgebraType.create, *args) == validation_outcome(
            reference_create, *args
        )

    @given(st.sampled_from("ADE"), st.integers(1, 13), st.integers(-3, 80), st.integers(1, 3))
    @settings(max_examples=400, deadline=None)
    def test_direct_constructor(self, family, rank, n, s):
        diagram = Diagram(family, {"A": rank, "D": max(rank, 4), "E": 6 + rank % 3}[family])
        assert validation_outcome(AlgebraType, diagram, s, n) == validation_outcome(
            reference_validate, diagram, s, n
        )

    # int n, and the bools, floats and strs that must meet __post_init__'s checks in its order
    @given(st.sampled_from("ADE"), st.integers(1, 13),
           st.one_of(st.integers(-3, 80), st.booleans(), st.floats(-3, 80, allow_nan=False),
                     st.integers(-3, 80).map(str)),
           st.integers(0, 4))
    @settings(max_examples=400, deadline=None)
    def test_from_shift(self, family, rank, n, s):
        if family == "E":
            rank = 6 + rank % 3
        args = (family, rank, n, s)
        assert validation_outcome(AlgebraType.from_shift, *args) == validation_outcome(
            reference_from_shift, *args
        )

    @pytest.mark.parametrize("family", "ADE")
    def test_from_shift_u_over_a_grid(self, family):
        built = 0
        for rank in {"A": range(1, 13), "D": range(4, 13), "E": range(6, 9)}[family]:
            for n in range(-2, 3 * Diagram(family, rank).m_delta + 2):
                for s in (1, 2, 3):
                    outcome = validation_outcome(AlgebraType.from_shift, family, rank, n, s)
                    assert outcome == validation_outcome(reference_from_shift, family, rank, n, s)
                    built += outcome[0] == "ok"
        assert built >= 10  # the grid reaches valid types, not only errors

    @pytest.mark.parametrize(
        "n,s,message",
        [(3.0, 5, "twist order must be 1, 2 or 3, got 5"),
         (-1.5, 1, "tau-exponent must be an integer, got -1.5"),
         (2.0, 1, "tau-exponent must be an integer, got 2.0"),
         ("2", 1, "tau-exponent must be an integer, got '2'"),
         (False, 1, "tau-exponent must be an integer, got False")],
        ids=["float-n-bad-s", "negative-float-n", "float-n", "str-n", "false-n"],
    )
    def test_from_shift_non_int_n_keeps_the_check_order(self, n, s, message):
        with pytest.raises(ValueError) as info:
            AlgebraType.from_shift("A", 3, n, s)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [0, -10], ids=["zero", "negative"])
    def test_direct_constructor_rejects_like_fractions(self, n):
        diagram = Diagram("D", 6)
        outcome = validation_outcome(AlgebraType, diagram, 1, n)
        assert outcome[0] == "error"
        assert outcome == validation_outcome(reference_validate, diagram, 1, n)


def a_rectangle(m: int, x: int, t: int) -> frozenset[Vertex]:
    """Closed-form backward hammock for type A: a (t) x (m-t) rectangle."""
    return frozenset(
        Vertex(x + j, t + i - j) for j in range(t) for i in range(m - t)
    )


class TestHammocksTypeA:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_rectangles_match_exhaustively(self, m):
        d = Diagram("A", m - 1)
        for t in range(1, m):
            knitted = hammock_minus(d, Vertex(0, t))
            assert knitted == a_rectangle(m, 0, t), (m, t)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_row_membership_rule(self, m):
        # for t <= m/2 and t <= t' <= m-t the row of t' is exactly [0, t)
        d = Diagram("A", m - 1)
        for t in range(1, m // 2 + 1):
            h = hammock_minus(d, Vertex(0, t))
            for tp in range(t, m - t + 1):
                assert frozenset(v.x for v in h if v.t == tp) == frozenset(range(t)), (m, t, tp)

    def test_base_in_members(self):
        h = hammock_minus(Diagram("A", 4), Vertex(3, 2))
        assert Vertex(3, 2) in h

    def test_rank_one_is_a_point(self):
        d = Diagram("A", 1)
        assert hammock_minus(d, Vertex(0, 1)) == frozenset({Vertex(0, 1)})
        for i in range(4):
            assert hammock_plus(d, Vertex(i, 1)) == frozenset({Vertex(i, 1)})


class TestHammocksTypeD:
    def test_documented_boundary_vertices(self):
        # base (0,2) on the rank-6 quiver: all four boundary corners present
        h = hammock_minus(Diagram("D", 6), Vertex(0, 2))
        for v in (
            Vertex(4, 1),
            Vertex(2, SPINE_MINUS),
            Vertex(1, SPINE_MINUS),
            Vertex(1, 1),
        ):
            assert v in h, v
        assert Vertex(0, 1) not in h
        assert Vertex(2, 1) not in h  # the notch below the fold

    @pytest.mark.parametrize("rank", range(4, 9))
    def test_tail_row_is_two_intervals(self, rank):
        m = rank - 1
        d = Diagram("D", rank)
        for t in range(1, m):
            row = frozenset(v.x for v in hammock_minus(d, Vertex(0, t)) if v.t == t)
            assert row == frozenset(range(t)) | frozenset(range(m - t, m)), (rank, t)

    @pytest.mark.parametrize("rank", range(4, 9))
    def test_spine_row_sawtooth(self, rank):
        m = rank - 1
        d = Diagram("D", rank)
        h = hammock_minus(d, Vertex(0, SPINE_PLUS))
        plus_row = frozenset(v.x for v in h if v.t == SPINE_PLUS)
        minus_row = frozenset(v.x for v in h if v.t == SPINE_MINUS)
        assert plus_row == frozenset(y for y in range(m) if y % 2 == 0)
        assert minus_row == frozenset(y for y in range(m) if y % 2 == 1)
        assert Vertex(m - 2, 1) in h
        assert Vertex(m - 1, 1) not in h


class TestHammocksTypeE:
    def test_e6_self_rows(self):
        d = Diagram("E", 6)
        expected = {1: {0, 3}, 2: {0, 1, 2, 3, 4}, 3: {0, 1, 2, 3, 4, 5}, 6: {0, 2, 3, 5}}
        for t, xs in expected.items():
            row = frozenset(v.x for v in hammock_minus(d, Vertex(0, t)) if v.t == t)
            assert {x for x in row if 0 <= x < 6} == xs

    def test_e6_twisted_rows(self):
        # membership of the omega-translates one half-period back
        d = Diagram("E", 6)
        expected = {1: {2, 5}, 2: {1, 2, 3, 4, 5}, 3: {0, 1, 2, 3, 4, 5}, 6: {0, 2, 3, 5}}
        for t, xs in expected.items():
            h = hammock_minus(d, Vertex(0, t))
            got = {x for x in range(6) if omega(d, Vertex(x - 6, t)) in h}
            assert got == xs

    def test_sizes_by_label_symmetric(self):
        d = Diagram("E", 6)
        sizes = {t: len(hammock_minus(d, Vertex(0, t))) for t in d.labels}
        assert sizes[1] == sizes[5] and sizes[2] == sizes[4]


class TestHammockIdentities:
    DIAGRAMS = [Diagram("A", 6), Diagram("D", 5), Diagram("D", 6), Diagram("E", 6), Diagram("E", 7)]

    @pytest.mark.parametrize("d", DIAGRAMS, ids=str)
    def test_plus_is_rebased_minus(self, d):
        for t in d.labels:
            v = Vertex(0, t)
            plus = hammock_plus(d, v)
            rebased = hammock_minus(d, omega_inverse(d, tau(v)))
            assert plus == rebased, (d, t)

    @pytest.mark.parametrize("d", DIAGRAMS, ids=str)
    def test_duality_on_window(self, d):
        span = d.m_delta + 2
        for t in d.labels:
            v = Vertex(0, t)
            plus = hammock_plus(d, v)
            window = [Vertex(x, tp) for x in range(-span, span + 1) for tp in d.labels]
            via_minus = {w for w in window if v in hammock_minus(d, w)}
            assert plus == via_minus, (d, t)

    @pytest.mark.parametrize("d", DIAGRAMS, ids=str)
    def test_omega_equivariance(self, d):
        for t in d.labels:
            v = Vertex(1, t)
            image = {omega(d, w) for w in hammock_minus(d, v)}
            assert image == hammock_minus(d, omega(d, v)), (d, t)

    @pytest.mark.parametrize("d", DIAGRAMS, ids=str)
    def test_tau_equivariance_and_size_invariance(self, d):
        for t in d.labels:
            base = hammock_minus(d, Vertex(0, t))
            shifted = hammock_minus(d, Vertex(7, t))
            assert shifted == {tau(w, 7) for w in base}

    def test_base_in_plus(self):
        for d in self.DIAGRAMS:
            v = Vertex(0, d.labels[0])
            assert v in hammock_plus(d, v)

    def test_directions_have_equal_size(self):
        d = Diagram("E", 7)
        v = Vertex(0, 1)
        assert len(hammock_plus(d, v)) == len(hammock_minus(d, v))


def _reachable(d, t0, against):
    """Labels with a directed path to t0 (against=True) or from t0: the reference's slice 0."""
    step = d.ins if against else d.outs
    seen = {t0}
    frontier = [t0]
    while frontier:
        c = frontier.pop()
        for b in step[c]:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return frozenset(seen)


def reference_knit_profile(d, t0, forward):
    """The dict-per-slice knitting that ``_knit_profile`` replaced, kept as a reference."""
    family, rank, labels, ins, outs = d.family, d.rank, d.labels, d.ins, d.outs
    order = tuple(labels[c] for c, _, _ in d.knit_plan)
    if t0 not in labels:
        raise ValueError(f"label {t0!r} is not a vertex of {family}{rank}")
    if forward:
        ins, outs = outs, ins
        order = tuple(reversed(order))
    start = _reachable(d, t0, against=not forward)
    cur = {c: (1 if c in start else 0) for c in labels}
    profile = [cur]
    cap = 4 * d.m_delta + 8
    mesh = [(c, ins[c], outs[c]) for c in order]
    for _ in range(cap):
        nxt = {}
        alive = False
        for c, c_ins, c_outs in mesh:
            total = -cur[c]
            for a in c_ins:
                total += cur[a]
            for b in c_outs:
                total += nxt[b]
            if total > 0:
                nxt[c] = total
                alive = True
            else:
                nxt[c] = 0
        if not alive:
            return tuple(
                tuple((c, slice_[c]) for c in labels if slice_[c] > 0)
                for slice_ in profile
            )
        profile.append(nxt)
        cur = nxt
    raise RuntimeError(f"knitting from {t0!r} on {family}{rank} did not terminate")


def lane_profile(d, t, forward):
    """The hammock at (0, t) as ``reference_knit_profile`` gives it, read off the knitted lanes.

    Backward it is lane t of every cell; forward it is the row of cell t, since
    z lies in the forward hammock of v exactly when v lies in the backward one of z.
    """
    labels = d.labels
    n, k = len(labels), labels.index(t)
    lanes = d.lanes or quiver._knit_lanes(d)
    if forward:
        slices = (lanes[k][i:i + n] for i in range(0, len(lanes[k]), n))
    else:
        slices = zip(*(m[k::n] for m in lanes))
    rows = (tuple((c, m) for c, m in zip(labels, row) if m) for row in slices)
    return tuple(takewhile(bool, rows))


def all_profiles(d):
    for t in d.labels:
        for forward in (False, True):
            yield t, forward, lane_profile(d, t, forward)


class TestKnitKernel:
    @pytest.mark.parametrize(
        "family,ranks", [("A", range(1, 61)), ("D", range(4, 61)), ("E", (6, 7, 8))]
    )
    def test_matches_reference_knitting(self, family, ranks):
        for rank in ranks:
            d = Diagram(family, rank)
            for t, forward, profile in all_profiles(d):
                expected = reference_knit_profile(d, t, forward)
                assert profile == expected, (family, rank, t, forward)

    @pytest.mark.parametrize("rank", range(1, 41))
    def test_type_a_backward_hammock_sizes(self, rank):
        d = Diagram("A", rank)
        for t in d.labels:
            assert len(hammock_minus(d, Vertex(0, t))) == t * (rank + 1 - t), t

    @pytest.mark.parametrize(
        "family,ranks,top",
        [("A", range(1, 61), 1), ("D", range(4, 61), 2),
         ("E", (6,), 3), ("E", (7,), 4), ("E", (8,), 6)],
    )
    def test_largest_multiplicity_is_top_highest_root_coefficient(self, family, ranks, top):
        # the byte lanes of ``_knit_lanes`` rest on this bound (at most 6 < 8)
        for rank in ranks:
            d = Diagram(family, rank)
            largest = max(k for _, _, p in all_profiles(d) for slice_ in p for _, k in slice_)
            assert largest == top, (family, rank)

    def test_lane_overflow_raises_instead_of_a_wrong_hammock(self):
        # cell c of the next slice is twice cell c - 1 of this one: 1, 2, 4, 8, 16 on A5
        doubling = tuple((c, (c - 1, c - 1, c) if c else (c,), ()) for c in range(5))
        d = Diagram("A", 5)  # a diagram of its own, so no other test reads its plan
        object.__setattr__(d, "knit_plan", doubling)
        for read in (lambda: d.hammock_column(1, 1), lambda: hammock_incidence(d),
                     lambda: hammock_plus(d, Vertex(0, 1))):
            with pytest.raises(RuntimeError, match="knitting on A5 overflowed its byte lanes"):
                read()

    def test_one_knit_serves_every_reader(self, monkeypatch):
        # the diagram holds its lanes, so count the runs of the kernel
        knits = []
        kernel = quiver._knit_lanes

        def counted(diagram):
            knits.append(diagram)
            return kernel(diagram)

        monkeypatch.setattr(quiver, "_knit_lanes", counted)
        d = Diagram("D", 12)
        for t in d.labels:
            for c in d.labels:
                d.hammock_column(t, c)
        hammock_incidence(d)
        hammock_minus(d, Vertex(4, SPINE_PLUS))
        hammock_plus(d, Vertex(0, 3))
        assert len(knits) == 1 and knits[0] is d

    @pytest.mark.parametrize(
        "family,rank", [("D", r) for r in range(4, 41)] + [("E", 7), ("E", 8)]
    )
    def test_hammocks_span_h_star_slices(self, family, rank):
        d = Diagram(family, rank)
        for t, forward, profile in all_profiles(d):
            assert len(profile) == d.h_star, (t, forward)

    @pytest.mark.parametrize(
        "family,ranks", [("A", range(1, 31)), ("D", range(4, 31)), ("E", (6, 7, 8))]
    )
    def test_columns_reassemble_backward_cells(self, family, ranks):
        for rank in ranks:
            d = Diagram(family, rank)
            for t in d.labels:
                columns = {c: dxs for c in d.labels if (dxs := d.hammock_column(t, c))}
                cells = {(dx, c) for c, dxs in columns.items() for dx in dxs}
                profile = lane_profile(d, t, False)
                assert cells == {(i, c) for i, p in enumerate(profile) for c, _ in p}, (rank, t)
                for dxs in columns.values():
                    assert dxs and list(dxs) == sorted(set(dxs)), (rank, t)


# ---------------------------------------------------------------------------
# Independent oracle: exact Hom/Ext linear algebra over the rank-5 path algebra
# of type D, compared against the knitted hammock profiles per label.

_D5_VERTS = ["1", "2", "3", "p", "m"]
_D5_EDGES = [("2", "1"), ("3", "2"), ("p", "3"), ("m", "3")]
_PRIME = 10007


def _d5_indecomposables():
    adj = {v: set() for v in _D5_VERTS}
    for a, b in _D5_EDGES:
        adj[a].add(b)
        adj[b].add(a)
    dims_list = []
    for mask in range(1, 32):
        sub = {v for i, v in enumerate(_D5_VERTS) if mask >> i & 1}
        start = next(iter(sub))
        seen, frontier = {start}, [start]
        while frontier:
            c = frontier.pop()
            for nb in adj[c]:
                if nb in sub and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        if seen == sub:
            dims_list.append({v: int(v in sub) for v in _D5_VERTS})
    dims_list += [
        {"1": 0, "2": 1, "3": 2, "p": 1, "m": 1},
        {"1": 1, "2": 1, "3": 2, "p": 1, "m": 1},
        {"1": 1, "2": 2, "3": 2, "p": 1, "m": 1},
    ]
    reps = []
    for dims in dims_list:
        mats = {}
        for a, b in _D5_EDGES:
            da, db = dims[a], dims[b]
            if da == 0 or db == 0:
                mats[(a, b)] = [[0] * da for _ in range(db)]
            elif da == db:
                mats[(a, b)] = [[int(i == j) for j in range(da)] for i in range(db)]
            elif da == 1 and db == 2:
                mats[(a, b)] = [[1], [0]] if a == "p" else [[0], [1]]
            else:
                mats[(a, b)] = [[1, 1]]
        reps.append((dims, mats))
    return reps


def _rank_mod_p(rows, ncols):
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % _PRIME), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        rows[rank] = [x * inv % _PRIME for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % _PRIME:
                f = rows[r][col]
                rows[r] = [(x - f * y) % _PRIME for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _hom_dim(X, Y):
    dX, mX = X
    dY, mY = Y
    offset, total = {}, 0
    for v in _D5_VERTS:
        offset[v] = total
        total += dX[v] * dY[v]
    if total == 0:
        return 0
    rows = []
    for a, b in _D5_EDGES:
        for i in range(dY[b]):
            for j in range(dX[a]):
                row = [0] * total
                for k in range(dX[b]):
                    row[offset[b] + i * dX[b] + k] += mX[(a, b)][k][j]
                for k in range(dY[a]):
                    row[offset[a] + k * dX[a] + j] -= mY[(a, b)][i][k]
                if any(row):
                    rows.append([x % _PRIME for x in row])
    return total - _rank_mod_p(rows, total)


def _euler(dX, dY):
    total = sum(dX[v] * dY[v] for v in _D5_VERTS)
    return total - sum(dX[a] * dY[b] for a, b in _D5_EDGES)


def test_d5_hammocks_match_exact_linear_algebra():
    """Hom/Ext dimensions between all 20 indecomposables pin the hammocks.

    The vertices of the rank-5 type-D translation quiver are the shifts of
    the 20 indecomposable representations; the backward hammock of an object
    collects modules with nonzero Hom into it and shifted modules with
    nonzero Ext1 into it.  Sizes, total dimensions and per-row statistics
    must agree with the knitted profiles, label by label.
    """
    reps = _d5_indecomposables()
    assert len(reps) == 20
    for X in reps:
        assert _hom_dim(X, X) == 1  # indecomposability witness

    hom = [[_hom_dim(X, Y) for Y in reps] for X in reps]
    ext = [
        [hom[i][j] - _euler(reps[i][0], reps[j][0]) for j in range(20)]
        for i in range(20)
    ]
    assert all(e >= 0 for row in ext for e in row)

    def label_class(j):
        count = sum(1 for i in range(20) if hom[i][j]) + sum(
            1 for i in range(20) if ext[i][j]
        )
        dim_sum = sum(hom[i][j] for i in range(20)) + sum(ext[i][j] for i in range(20))
        return {(8, 8): "1", (13, 14): "2", (15, 18): "3", (10, 10): "spine"}[
            (count, dim_sum)
        ]

    classes = [label_class(j) for j in range(20)]
    assert Counter(classes) == {"1": 4, "2": 4, "3": 4, "spine": 8}

    def derived_profile(j):
        stats = Counter()
        for i in range(20):
            if hom[i][j]:
                stats[(classes[i], "count")] += 1
                stats[(classes[i], "dim")] += hom[i][j]
            if ext[i][j]:
                stats[(classes[i], "count")] += 1
                stats[(classes[i], "dim")] += ext[i][j]
        return stats

    def knitted_profile(t):
        stats = Counter()
        for slice_ in lane_profile(Diagram("D", 5), t, False):
            for label, count in slice_:
                key = "spine" if label in (SPINE_PLUS, SPINE_MINUS) else str(label)
                stats[(key, "count")] += 1
                stats[(key, "dim")] += count
        return stats

    for t, cls in ((1, "1"), (2, "2"), (3, "3"), (SPINE_PLUS, "spine"), (SPINE_MINUS, "spine")):
        assert knitted_profile(t) == derived_profile(classes.index(cls)), t


class TestDot:
    def test_hammock_dot(self):
        d = Diagram("A", 4)
        text = hammock_dot(d, Vertex(0, 2), hammock_minus(d, Vertex(0, 2)))
        assert text.startswith("digraph hammock {")
        assert '"0_2"' in text and "doublecircle" in text and "->" in text

    def test_orbit_quiver_dot_spine_ids(self):
        at = AlgebraType.create("D", 4, 1, 1)
        text = orbit_quiver_dot(at, highlight=Vertex(0, SPINE_PLUS))
        assert text.startswith("digraph orbit_quiver {")
        assert '"0_p"' in text and '"0_m"' in text
        assert "lightgray" in text

    def test_orbit_quiver_dot_checks_the_highlight_first(self, monkeypatch):
        # a bad highlight must fail before any node of the quiver is built
        calls = []
        canonical = quiver.canonical_rep

        def counted(atype, v):
            calls.append(v)
            return canonical(atype, v)

        monkeypatch.setattr(quiver, "canonical_rep", counted)
        at = AlgebraType.create("E", 8, 2)
        with pytest.raises(ValueError, match="label 99 is not a vertex of E8"):
            orbit_quiver_dot(at, highlight=Vertex(0, 99))
        assert calls == []

    def test_orbit_quiver_node_count(self):
        # one node per module: n * rank for an untwisted type
        at = AlgebraType.from_shift("A", 3, 4, 1)
        text = orbit_quiver_dot(at)
        assert text.count("label=") == 4 * 3
