"""Tests for orthogonality certificates and rigidity dimensions."""

from __future__ import annotations

import copy
import dataclasses
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from rigidity_kit import (
    SPINE_PLUS,
    AlgebraType,
    Diagram,
    Vertex,
    group_generator,
    group_member,
    hammock_plus,
    is_maximal_orthogonal,
    omega,
    orbit_reps,
    rd_closed,
    rigdim_closed,
    rigdim_verify,
    tau,
)
from rigidity_kit import orthogonal
from rigidity_kit.quiver import _orbit_offsets, orbit_residues

NAKAYAMA_17_9 = AlgebraType.create("A", 8, Fraction(17, 8), 1)


def literal_certificate(atype, v, r, spread=10):
    """Windowed evaluation of the defining condition, no residue shortcuts.

    Enumerates actual orbit members over +-spread generator applications,
    takes the literal union of their forward hammocks, and compares against
    the orbit on one full period of slices.
    """
    d = atype.diagram
    # tau^{-spread*period} lies in the group, so iterating the generator
    # forward from there walks the orbit symmetrically around v
    w = Vertex(v.x - spread * atype.period, v.t)
    orbit = {w}
    for _ in range(2 * spread * atype.s):
        w = group_generator(atype, w)
        orbit.add(w)
    assert v in orbit
    union = set()
    for w in orbit:
        z = w
        for _ in range(r):
            z = omega(d, z)
            union |= hammock_plus(d, z)
    window = [Vertex(x, t) for x in range(atype.period) for t in d.labels]
    return all((z in union) != group_member(atype, v, z) for z in window)


class TestCertificates:
    def test_worked_example_maximal(self):
        cert = is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), 30)
        assert cert.is_maximal
        assert cert.uncovered == ()
        assert cert.stability_ok

    def test_one_below_fails(self):
        cert = is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), 29)
        assert not cert.is_maximal
        assert len(cert.uncovered) >= 1

    def test_one_above_overlaps_the_orbit(self):
        cert = is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), 31)
        assert not cert.is_maximal
        assert any(group_member(NAKAYAMA_17_9, Vertex(0, 1), z) for z in cert.uncovered)

    def test_degenerate_zero_degree(self):
        at = AlgebraType.from_shift("A", 1, 1, 1)  # a single stable vertex
        cert = is_maximal_orthogonal(at, Vertex(0, 1), 0)
        assert cert.is_maximal and cert.stability_ok

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), -1)

    @pytest.mark.parametrize("r", [True, 2.0], ids=repr)
    def test_rejects_a_degree_that_is_not_an_int(self, r):
        # True == 1 and 2.0 == 2, but a degree is an int, not a value equal to one
        with pytest.raises(ValueError, match=f"got {r!r}"):
            is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), r)

    def test_non_generating_vertex_fails(self):
        cert = is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 2), 3)
        assert not cert.is_maximal

    @pytest.mark.parametrize(
        "atype,t,r,expected",
        [
            (NAKAYAMA_17_9, 1, 30, True),
            (NAKAYAMA_17_9, 1, 29, False),
            (AlgebraType.create("A", 3, 3, 2), 1, 13, True),
            (AlgebraType.create("D", 5, 3, 1), SPINE_PLUS, 26, True),
            (AlgebraType.create("D", 5, 1, 1), SPINE_PLUS, 3, False),
        ],
        ids=["A8@30", "A8@29", "A3tw@13", "D5spine@26", "D5spine@3"],
    )
    def test_matches_literal_window_evaluation(self, atype, t, r, expected):
        cert = is_maximal_orthogonal(atype, Vertex(0, t), r)
        assert cert.is_maximal is expected
        assert literal_certificate(atype, Vertex(0, t), r) is expected


def reference_violations(atype, v, r):
    """Violations straight from the definition, reduced modulo the period.

    The cover is the union of the forward hammocks of the orbit
    representatives of omega^i(v), i = 1..r; a cell of the fundamental
    domain violates maximality when it is on the orbit and covered, or
    off the orbit and not covered.
    """
    d, period = atype.diagram, atype.period
    covered = set()
    w = v
    for _ in range(r):
        w = omega(d, w)
        for rep in orbit_reps(atype, w):
            covered |= {(z.t, z.x % period) for z in hammock_plus(d, rep)}
    violations = [z for z, on_orbit in orbit_cells(atype, v) if on_orbit == ((z.t, z.x) in covered)]
    return sorted(violations, key=Vertex.sort_key)


@lru_cache(maxsize=None)
def orbit_cells(atype, v):
    """The fundamental domain's vertices z, each with whether z is in the orbit of v."""
    cells = [Vertex(x, t) for x in range(atype.period) for t in atype.diagram.labels]
    return tuple((z, group_member(atype, v, z)) for z in cells)


REFERENCE_TYPES = (
    [AlgebraType.create("A", 4, u, 1) for u in (1, 2, 3)]
    + [AlgebraType.create("A", 3, u, 2) for u in (1, 2, 3)]
    + [AlgebraType.create("D", 5, u, s) for s in (1, 2) for u in (1, 2, 3)]
    + [AlgebraType.create("D", 4, u, 3) for u in (1, 2, 3)]
    + [AlgebraType.create("D", 6, Fraction(v, 3), 1) for v in (1, 2, 4, 5, 7, 8)]
    + [AlgebraType.create("E", 6, u, s) for s in (1, 2) for u in (1, 2, 3)]
    + [AlgebraType.create("E", rank, u, 1) for rank in (7, 8) for u in (1, 2, 3)]
    # periods 1, 2 and 5, below the hammock depth: the incidence folds onto itself
    + [AlgebraType.from_shift("A", 3, 1), AlgebraType.from_shift("A", 4, 2)]
    + [AlgebraType.create("D", 9, Fraction(1, 3), 1)]
)


def literal_stability(atype, v, r):
    """Whether tau.omega^r(v), reached by r single omega steps, lies in the orbit of v."""
    w = v
    for _ in range(r):
        w = omega(atype.diagram, w)
    return group_member(atype, v, tau(w))


def outcome(cert):
    return cert.is_maximal, cert.uncovered, cert.stability_ok


@pytest.mark.parametrize("atype", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_certificate_matches_definition(atype):
    # the certificate's rotated bit patterns must reproduce the violations of
    # the defining covering condition, in sorted order; degrees around one and
    # two periods reach both omega^2 phases, odd and even r and saturated covers
    p = atype.period
    for t in atype.diagram.labels:
        for x in (0, 3):
            v = Vertex(x, t)
            for r in sorted({0, 1, 2, 5, rd_closed(atype, t).rd, p - 1, p, p + 1, 2 * p + 3}):
                cert = is_maximal_orthogonal(atype, v, r)
                assert list(cert.uncovered) == reference_violations(atype, v, r), (t, x, r)
                assert cert.is_maximal == (cert.uncovered == ()), (t, x, r)
                assert cert.stability_ok == literal_stability(atype, v, r), (t, x, r)


@pytest.mark.parametrize("atype", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_certificate_is_periodic_in_large_degrees(atype):
    # from r = 2 * period on both phases cover every rotation they can reach,
    # and omega^(2 * period) is a translation by a period-multiple
    p = atype.period
    for t in atype.diagram.labels:
        v = Vertex(3, t)
        for r in (2 * p, 2 * p + 1, 2 * p + 3):
            assert outcome(is_maximal_orthogonal(atype, v, r)) == outcome(
                is_maximal_orthogonal(atype, v, r + 2 * p)
            ), (t, r)
        huge = 10**12
        reduced = 2 * p + huge % (2 * p)
        assert outcome(is_maximal_orthogonal(atype, v, huge)) == outcome(
            is_maximal_orthogonal(atype, v, reduced)
        ), t


def per_label_certificate(atype, v, r):
    """(is_maximal, uncovered, stability_ok) with one ``period``-bit mask per label.

    The certificate's earlier design, kept as a reference at large periods:
    per omega^2 phase, a per-label pattern from the transposed backward
    hammocks (read here cell by cell from ``Diagram.hammock_column``), ORed
    over its rotations by the omega^2 translation through binary doubling,
    one label at a time.
    """
    d, period = atype.diagram, atype.period
    full = (1 << period) - 1

    def rotate(bits, k):
        return ((bits << k) | (bits >> (period - k))) & full

    def rotations(bits, step, count):
        out = offset = 0
        span = step % period
        while count > 0:
            if count & 1:
                out |= rotate(bits, offset)
                offset = (offset + span) % period
            count >>= 1
            if count:
                bits |= rotate(bits, span)
                span = 2 * span % period
        return out

    incidence = {c: [] for c in d.labels}
    for t in d.labels:
        for c in d.labels:
            incidence[c] += [(t, dx) for dx in d.hammock_column(t, c)]
    offsets = _orbit_offsets(atype)
    first = omega(d, v)
    phases = (first, omega(d, first))
    shift = phases[1].x - v.x
    cover = dict.fromkeys(d.labels, 0)
    for j, w in enumerate(phases, 1):
        count = (r - j) // 2 + 1
        if count <= 0:
            continue
        pattern = dict.fromkeys(d.labels, 0)
        for c, ox in offsets[w.t]:
            for t, dx in incidence[c]:
                pattern[t] |= 1 << ((ox - dx) % period)
        for t, bits in pattern.items():
            cover[t] |= rotate(rotations(bits, shift, count), w.x % period)
    residues = orbit_residues(atype, v)
    for t, x in residues:
        cover[t] ^= 1 << x
    rows = [format(full ^ bits, f"0{period}b")[::-1] for bits in cover.values()]
    uncovered = tuple(
        Vertex(x, t)
        for x, column in enumerate(zip(*rows))
        for t, bit in zip(d.labels, column)
        if bit == "1"
    )
    if r == 0:
        last = v
    else:
        j = 2 - r % 2
        last = Vertex(phases[j - 1].x + (r - j) // 2 * shift, phases[j - 1].t)
    end = tau(last)
    return uncovered == (), uncovered, (end.t, end.x % period) in residues


DIFFERENTIAL_TYPES = (
    # the E7 family u = 9a + 5, a <= 13: periods up to 2,074
    [AlgebraType.create("E", 7, 9 * a + 5, 1) for a in range(14)]
    # the twisted type-A family grid
    + [
        at
        for rank in range(3, 14, 2)
        for u in range(1, 21)
        if rigdim_closed(at := AlgebraType.create("A", rank, u, 2)) is not None
    ]
    # the type-D sweep
    + [
        AlgebraType.create("D", rank, u, s)
        for s in (1, 2)
        for rank in range(4, 13)
        for u in range(1, 7)
    ]
)


def reference_gaps(atype, uncovered):
    """The violations laid out as the certificate's cover: (x, labels[k]) is bit (-x % p).L + k."""
    labels = atype.diagram.labels
    return sum(1 << (-z.x % atype.period * len(labels) + labels.index(z.t)) for z in uncovered)


def assert_matches_per_label_reference(atype, v, r):
    cert = is_maximal_orthogonal(atype, v, r)
    want = per_label_certificate(atype, v, r)
    assert outcome(cert) == want, (v, r)
    assert cert.gaps == reference_gaps(atype, want[1]), (v, r)


@pytest.mark.parametrize("atype", DIFFERENTIAL_TYPES, ids=lambda at: at.describe())
def test_certificate_matches_per_label_reference(atype):
    # the one-integer cover against one mask per label, around rd at every label
    for t in atype.diagram.labels:
        rd = rd_closed(atype, t).rd
        for x in (0, 5):
            for r in (rd - 1, rd, rd + 1):
                assert_matches_per_label_reference(atype, Vertex(x, t), r)


# the families and twists DIFFERENTIAL_TYPES lacks: D4 with twist order 3, fractional D6
# and D9, E6 with twist order 2, and E8, each at small and larger periods
FIXED_DEGREE_TYPES = (
    [AlgebraType.create("D", 4, u, 3) for u in (1, 2, 7)]
    + [AlgebraType.create("D", 6, Fraction(v, 3), 1) for v in (1, 4, 11)]
    + [AlgebraType.create("D", 9, Fraction(v, 3), 1) for v in (2, 5)]
    + [AlgebraType.create("E", 6, u, 2) for u in (1, 4)]
    + [AlgebraType.create("E", 8, u, 1) for u in (1, 3)]
)


@pytest.mark.parametrize("atype", FIXED_DEGREE_TYPES, ids=lambda at: at.describe())
def test_certificate_matches_per_label_reference_at_fixed_degrees(atype):
    # both omega^2 phases from their first degree on, rd, a period either side, and
    # degrees past 10**12 of either parity, at negative and positive x
    p = atype.period
    for t in atype.diagram.labels:
        rd = rd_closed(atype, t).rd
        for x in (-7, 0, 4):
            for r in (0, 1, 2, rd, p - 1, p + 1, 10**12, 10**12 + 1, 10**12 + 2 * p + 3):
                assert_matches_per_label_reference(atype, Vertex(x, t), r)


def test_per_type_memo_is_invisible():
    # one diagram, two periods: the memo keeps one type object, so alternating the
    # types label by label evicts it on every call; cold calls read a new copy of the type
    types = (NAKAYAMA_17_9, AlgebraType.create("A", 8, 3, 1))
    warm = {}
    for t in NAKAYAMA_17_9.diagram.labels:
        for atype in types:
            warm[atype, t] = outcome(is_maximal_orthogonal(atype, Vertex(2, t), 30))
    for (atype, t), got in warm.items():
        assert outcome(is_maximal_orthogonal(copy.copy(atype), Vertex(2, t), 30)) == got, (atype, t)
        assert got == per_label_certificate(atype, Vertex(2, t), 30), (atype, t)


@pytest.fixture
def cover_builds(monkeypatch):
    """The types whose cover table is built from here on, as (family, rank, s, n), counted.

    A build reads the type's orbit offsets once, so this counts those reads.
    """
    builds = Counter()
    offsets = orthogonal._orbit_offsets

    def counted(atype):
        builds[atype.diagram.family, atype.diagram.rank, atype.s, atype.n] += 1
        return offsets(atype)

    monkeypatch.setattr(orthogonal, "_orbit_offsets", counted)
    return builds


def test_an_equal_type_builds_its_own_table(cover_builds):
    # the memo compares type objects with is, so an equal type, on a fresh diagram or
    # copied, builds its own table, once for all of its calls, and certifies alike
    made = AlgebraType.create("D", 6, Fraction(7, 3))
    direct = AlgebraType(Diagram("D", 6), 1, 21)
    copied = copy.copy(made)
    assert direct == made == copied and direct.diagram is not made.diagram
    assert len({id(made), id(direct), id(copied)}) == 3
    certificates = [is_maximal_orthogonal(atype, Vertex(-2, SPINE_PLUS), 9)
                    for atype in (made, made, direct, direct, copied, copied)]
    assert cover_builds == Counter({("D", 6, 1, 21): 3})
    first = certificates[0]
    assert all(cert == first and cert.gaps == first.gaps for cert in certificates)


def test_a_label_sweep_builds_each_table_once(cover_builds):
    # a copy of the shared type, so that no earlier test's table is held for it
    types = [copy.copy(NAKAYAMA_17_9), AlgebraType.create("D", 4, 2, 3),
             AlgebraType.create("E", 6, 2, 2), AlgebraType.create("D", 9, Fraction(5, 3))]
    for atype in types:
        for t in atype.diagram.labels:
            for x, r in ((0, 0), (3, 1), (-4, 8), (1, 10**12)):
                is_maximal_orthogonal(atype, Vertex(x, t), r)
    assert cover_builds == Counter(
        {(at.diagram.family, at.diagram.rank, at.s, at.n): 1 for at in types}
    )


def test_a_warm_certificate_builds_no_vertex(monkeypatch):
    atype = AlgebraType.create("E", 6, 2, 2)
    v = Vertex(-3, 2)
    is_maximal_orthogonal(atype, v, 11)
    built = []
    vertex_init = Vertex.__init__

    def counted(self, x, t):
        built.append((x, t))
        vertex_init(self, x, t)

    monkeypatch.setattr(Vertex, "__init__", counted)
    cert = is_maximal_orthogonal(atype, v, 11)
    assert built == []
    assert len(cert.uncovered) == len(built) > 0  # uncovered builds its vertices when read


# every family and twist order, fractional D included, and both parities of the D fork
EVERY_TWIST = [
    AlgebraType.create("A", 4, 2, 1), AlgebraType.create("A", 1, 3, 1),
    AlgebraType.create("A", 5, 2, 2), AlgebraType.create("D", 5, 2, 1),
    AlgebraType.create("D", 6, 1, 1), AlgebraType.create("D", 6, Fraction(4, 3), 1),
    AlgebraType.create("D", 5, 1, 2), AlgebraType.create("D", 4, 2, 3),
    AlgebraType.create("E", 6, 1, 1), AlgebraType.create("E", 6, 1, 2),
    AlgebraType.create("E", 7, 1, 1), AlgebraType.create("E", 8, 1, 1),
]


@pytest.mark.parametrize("atype", EVERY_TWIST, ids=lambda at: at.describe())
def test_table_rows_match_omega_and_tau_applied_literally(atype):
    d = atype.diagram
    labels, p = d.labels, atype.period
    period, width, full, rows = orthogonal._cover_table(atype)
    assert (period, width, full) == (p, len(labels), (1 << p * len(labels)) - 1)
    assert list(rows) == list(labels)
    for t in labels:
        orbit, phases = rows[t]
        cells = {(-x % p * width + labels.index(c)) for c, x in orbit_residues(atype, Vertex(0, t))}
        assert orbit == sum(1 << cell for cell in cells), t
        w = Vertex(0, t)
        for dx, pattern, k in phases:  # omega^1 and omega^2 of (0, t), with their labels' patterns
            w = omega(d, w)
            assert w == Vertex(dx, labels[k]), t
            assert pattern == rows[labels[k]][1][1][1], t
        assert phases[1][2] == labels.index(t)  # omega^2 fixes every label
        # the phases are the diagram's phase table: omega's step, and omega^2 = (h, t)
        assert [(dx, labels[k]) for dx, _, k in phases] == [d.omega_steps[t], (d.h, t)], t
        # the end vertex tau.omega^r(0, t) as the certificate reads it off the phases
        w = Vertex(0, t)
        for r in range(2 * p + 4):
            dx, _, end = phases[1 - r % 2]
            assert Vertex(dx + (r - 1) // 2 * phases[1][0] + 1, labels[end]) == tau(w), (t, r)
            w = omega(d, w)


def test_certificate_object():
    cert = is_maximal_orthogonal(NAKAYAMA_17_9, Vertex(0, 1), 29)
    fields = [f.name for f in dataclasses.fields(cert)]
    assert fields == ["atype", "generator_vertex", "r", "is_maximal", "stability_ok", "gaps"]
    assert repr(cert) == (
        f"OrthogonalityCertificate(atype={NAKAYAMA_17_9!r}, generator_vertex=Vertex(x=0, t=1), "
        f"r=29, is_maximal=False, stability_ok={cert.stability_ok!r})"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.r = 30
    again = orthogonal.OrthogonalityCertificate(
        NAKAYAMA_17_9, Vertex(0, 1), 29, is_maximal=False, stability_ok=cert.stability_ok,
        gaps=cert.gaps,
    )
    assert again == cert and hash(again) == hash(cert)
    assert cert.uncovered is cert.uncovered and cert.uncovered == again.uncovered
    assert again == cert  # a read of uncovered changes no field
    assert dataclasses.replace(cert, r=30) != cert


class TestHalfLineFamily:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_certifies(self, a):
        at = AlgebraType.from_shift("A", 1, 2 * a, 1)
        formula = rigdim_closed(at)
        assert (formula.r, formula.rigdim) == (2 * a - 1, 2 * a + 1)
        assert rd_closed(at, 1).rd == formula.r
        assert is_maximal_orthogonal(at, Vertex(0, 1), formula.r).is_maximal

    def test_forward_hammocks_are_points(self):
        at = AlgebraType.from_shift("A", 1, 4, 1)
        d = at.diagram
        v = Vertex(0, 1)
        for i in range(1, 4):
            v = omega(d, v)
            assert hammock_plus(d, v) == {Vertex(i, 1)}


class TestRigdimClosed:
    def test_worked_example(self):
        formula = rigdim_closed(NAKAYAMA_17_9)
        assert (formula.family, formula.a) == ("A.s1:n=am-1", 2)
        assert (formula.r, formula.rigdim) == (30, 32)

    def test_twisted_family(self):
        formula = rigdim_closed(AlgebraType.create("A", 3, 3, 2))
        assert (formula.r, formula.rigdim) == (13, 15)
        assert formula.a == 2

    def test_e7_family(self):
        formula = rigdim_closed(AlgebraType.create("E", 7, 5, 1))
        assert (formula.r, formula.rigdim) == (66, 68)
        formula = rigdim_closed(AlgebraType.create("E", 7, 14, 1))
        assert (formula.r, formula.rigdim) == (185, 187)

    @pytest.mark.parametrize(
        "atype",
        [
            AlgebraType.from_shift("A", 4, 8, 1),
            AlgebraType.create("A", 3, 1, 2),  # a = 1 is excluded
            AlgebraType.create("D", 6, 2, 1),
            AlgebraType.create("E", 7, 3, 1),
            AlgebraType.create("E", 6, 5, 1),
        ],
        ids=lambda at: at.describe(),
    )
    def test_outside_families(self, atype):
        assert rigdim_closed(atype) is None

    def test_bridge_built_in(self):
        for at in (NAKAYAMA_17_9, AlgebraType.create("A", 3, 3, 2)):
            formula = rigdim_closed(at)
            assert formula.rigdim == formula.r + 2


class TestRigdimVerify:
    def test_worked_example(self):
        record = rigdim_verify(NAKAYAMA_17_9)
        assert record.passed and record.failures() == []
        assert record.formula.rigdim == 32

    def test_even_half_line(self):
        record = rigdim_verify(AlgebraType.from_shift("A", 1, 4, 1))
        assert record.passed
        assert (record.formula.r, record.formula.rigdim) == (3, 5)

    def test_e7_at_large_a(self):
        # a = 1000: r = 119,066; the cover does O(log r) rotations per label
        record = rigdim_verify(AlgebraType.create("E", 7, 9005, 1))
        assert record.passed and record.failures() == []
        assert (record.formula.a, record.formula.r) == (1000, 119066)

    def test_rejects_outside_families(self):
        with pytest.raises(ValueError):
            rigdim_verify(AlgebraType.create("D", 6, 2, 1))
