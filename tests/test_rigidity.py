"""Tests for the closed-form evaluator and the brute-force oracle."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import inspect
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_kit import (
    SPINE_MINUS,
    SPINE_PLUS,
    AlgebraType,
    Diagram,
    EuclidData,
    RigidityReport,
    Vertex,
    agreement,
    endpoint_scan,
    group_generator,
    group_member,
    hammock_minus,
    omega,
    omega_period,
    rd_closed,
    rd_oracle,
    rigidity,
    se_oracle,
    sweep_types,
    tau,
    weight_sequence,
)
from rigidity_kit.quiver import _orbit_offsets
from rigidity_kit.rigidity import _closed_plan, _staircase
from test_euclid import s_at
from test_orthogonal import REFERENCE_TYPES

NAKAYAMA_17_9 = AlgebraType.create("A", 8, Fraction(17, 8), 1)


def e8_table_sweep():
    # u = 1..15 meets every residue u mod 15 that keys the E8 table
    return sweep_types("E", 1, rank=8, u_max=15)


class TestClosedFormTypeA:
    def test_worked_example_all_labels(self):
        values = [rd_closed(NAKAYAMA_17_9, t).rd for t in range(1, 9)]
        assert values == [30, 3, 3, 3, 3, 3, 3, 30]

    def test_branches(self):
        assert rd_closed(NAKAYAMA_17_9, 1).branch == "A.s1:tail(l=3)"
        assert rd_closed(NAKAYAMA_17_9, 2).branch == "A.s1:open(l=2)"
        assert rd_closed(NAKAYAMA_17_9, 8).branch.endswith("+sym")

    def test_domdim_bridge(self):
        report = rd_closed(NAKAYAMA_17_9, 1)
        assert report.domdim_bound == 32

    def test_small_oracle_example(self):
        at = AlgebraType.create("A", 2, 1, 1)  # m = 3, n = 2
        assert rd_closed(at, 1).rd == 2
        assert rd_oracle(at, Vertex(0, 1)).rd == 2

    def test_degree_zero_fringe(self):
        # n = 1 pins every rigidity degree at zero
        at = AlgebraType.from_shift("A", 5, 1, 1)
        assert [rd_closed(at, t).rd for t in (1, 2, 3)] == [0, 0, 0]

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            rd_closed(NAKAYAMA_17_9, 9)
        with pytest.raises(ValueError):
            rd_closed(NAKAYAMA_17_9, SPINE_PLUS)


class TestClosedFormTypeD:
    def test_dominant_spine(self):
        at = AlgebraType.create("D", 6, Fraction(1, 3), 1)  # m = 5 >= n = 3
        assert rd_closed(at, SPINE_PLUS).rd == 0
        assert rd_closed(at, SPINE_PLUS).branch == "D:spine(m>=n)"

    def test_spine_parity_branches(self):
        # m = 5, n = 45: divisible, Fb1 + n + s odd
        at = AlgebraType.create("D", 6, 5, 1)
        report = rd_closed(at, SPINE_MINUS)
        assert report.rd == 8 and report.branch == "D:spine(div,par=1)"
        # same m, n but s = 2 flips the parity
        at2 = AlgebraType.create("D", 6, 5, 2)
        report2 = rd_closed(at2, SPINE_MINUS)
        assert report2.rd == 17 and report2.branch == "D:spine(div,par=0)"

    def test_spine_nondivisible(self):
        at = AlgebraType.create("D", 6, 1, 1)  # m = 5, n = 9, Fb = (1, 2)
        assert rd_closed(at, SPINE_PLUS).rd == 3

    def test_triality_rows(self):
        by_u = {}
        for u in (1, 2, 3):
            at = AlgebraType.create("D", 4, u, 3)
            by_u[u] = (rd_closed(at, 1).rd, rd_closed(at, 2).rd)
        fb1 = {u: weight_sequence(3, 5 * u).fb_at(1) for u in (1, 2, 3)}
        assert by_u[1] == (fb1[1], fb1[1])
        assert by_u[2] == (2 * fb1[2], fb1[2])
        assert by_u[3] == (3 * fb1[3] - 1, fb1[3] - 1)

    def test_triality_outer_labels_agree(self):
        at = AlgebraType.create("D", 4, 2, 3)
        values = {rd_closed(at, t).rd for t in (1, SPINE_PLUS, SPINE_MINUS)}
        assert len(values) == 1


class TestClosedFormTypeE:
    def test_e7_family_vertex(self):
        at = AlgebraType.create("E", 7, 5, 1)
        data = weight_sequence(9, 85)
        assert data.k == (9, 2, 4)
        report = rd_closed(at, 1)
        assert report.rd == data.fb_at(1) + 3 * data.fb_at(2) == 66

    def test_e7_residue_zero(self):
        at = AlgebraType.create("E", 7, 9, 1)
        assert rd_closed(at, 3).rd == 16  # Fb1 - 1 with weight sequence (17)
        assert rd_oracle(at, Vertex(0, 3)).rd == 16

    def test_e6_block_swap(self):
        # s = 1 and s = 2 use opposite blocks at equal floor(u/6) parity
        u = 2
        b1 = rd_closed(AlgebraType.create("E", 6, u, 1), 1)
        b2 = rd_closed(AlgebraType.create("E", 6, u, 2), 1)
        assert b1.branch.endswith("blk=A") and b2.branch.endswith("blk=B")
        assert b1.rd != b2.rd

    def test_e8_sample_against_oracle(self):
        at = AlgebraType.create("E", 8, 2, 1)
        for t in at.diagram.labels:
            assert rd_closed(at, t).rd == rd_oracle(at, Vertex(0, t)).rd

    def test_e8_every_table_column_against_oracle(self):
        checked, mismatches = agreement(e8_table_sweep())
        assert mismatches == []
        assert checked == 15 * 8


class TestRigidityReport:
    def test_value_semantics_under_slots(self):
        at = AlgebraType.create("D", 6, Fraction(4, 3), 1)
        report = rd_closed(at, SPINE_PLUS)
        assert not hasattr(report, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.rd = 0
        assert report == rd_closed(at, SPINE_PLUS)
        assert hash(report) == hash(rd_closed(at, SPINE_PLUS))
        assert report != dataclasses.replace(report, rd=report.rd + 1)
        assert report != dataclasses.replace(report, branch=None)
        copies = [pickle.loads(pickle.dumps(report, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(report), copy.copy(report), dataclasses.replace(report)]
        for other in copies:
            assert type(other) is RigidityReport and other == report
            assert hash(other) == hash(report)
            assert other.domdim_bound == report.domdim_bound == report.rd + 2
        witnessed = dataclasses.replace(report, witness=3)
        assert (witnessed.rd, witnessed.branch, witnessed.witness) == (report.rd, report.branch, 3)

    # one type per family and twist: D fractional, and D's labels hold both fork tips
    @pytest.mark.parametrize("at", [
        NAKAYAMA_17_9, AlgebraType.create("A", 5, 3, 2),
        AlgebraType.create("D", 7, 3, 1), AlgebraType.create("D", 6, Fraction(4, 3), 1),
        AlgebraType.create("D", 6, 2, 2), AlgebraType.create("D", 4, 5, 3),
        AlgebraType.create("E", 6, 7, 1), AlgebraType.create("E", 6, 7, 2),
        AlgebraType.create("E", 7, 5, 1), AlgebraType.create("E", 8, 4, 1),
    ], ids=lambda at: at.describe())
    def test_closed_report_is_an_ordinary_report(self, at):
        # rd_closed sets the slots of a bare instance, skipping __init__; nothing may tell
        for t in at.diagram.labels:
            report = rd_closed(at, t)
            built = RigidityReport(at, Vertex(0, t), report.rd, report.branch)
            assert type(report) is RigidityReport and report == built
            assert hash(report) == hash(built) and repr(report) == repr(built)
            assert report.witness is None
            for field in dataclasses.fields(RigidityReport):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(report, field.name, None)
            copies = [pickle.loads(pickle.dumps(report, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(report), copy.deepcopy(report), dataclasses.replace(report)]
            for c in copies:
                assert type(c) is RigidityReport and c == built and hash(c) == hash(built)
                assert repr(c) == repr(built)

    def test_engine_reports_equal_keyword_built_reports(self):
        for at in REFERENCE_TYPES:
            for t in at.diagram.labels:
                v = Vertex(0, t)
                closed = rd_closed(at, t)
                assert closed == RigidityReport(atype=at, vertex=v, rd=closed.rd,
                                                branch=closed.branch)
                oracle = rd_oracle(at, v)
                assert oracle == RigidityReport(atype=at, vertex=v, rd=oracle.witness - 1,
                                                witness=oracle.witness)


@pytest.mark.parametrize(
    "cls", [Vertex, RigidityReport, EuclidData], ids=lambda cls: cls.__name__
)
def test_hand_written_init_matches_fields(cls):
    """The written-out ``__init__`` takes the fields in order, with their defaults, and sets each."""
    fields = dataclasses.fields(cls)
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields
    ]
    values = {f.name: object() for f in fields}
    for built in (cls(*values.values()), cls(**values)):
        assert all(getattr(built, name) is value for name, value in values.items())
    required = {f.name: values[f.name] for f in fields if f.default is dataclasses.MISSING}
    built = cls(**required)
    for f in fields:
        expected = values[f.name] if f.name in required else f.default
        assert getattr(built, f.name) is expected


class TestOracle:
    def test_smallest_self_extension(self):
        at = AlgebraType.from_shift("A", 1, 2, 1)  # m = 2, n = 2
        found = se_oracle(at, Vertex(0, 1), 10)
        assert found[0] == 2
        report = rd_oracle(at, Vertex(0, 1))
        assert report.rd == 1 and report.witness == 2

    def test_rd_constant_on_orbit(self):
        for at in (NAKAYAMA_17_9, AlgebraType.create("D", 5, 2, 2)):
            d = at.diagram
            for t in (1, d.labels[-1]):
                v = Vertex(0, t)
                base = rd_oracle(at, v).rd
                assert rd_oracle(at, tau(v)).rd == base
                assert rd_oracle(at, omega(d, v)).rd == base

    def test_se_invariance_under_tau_and_omega(self):
        at = AlgebraType.create("D", 6, 1, 2)
        d = at.diagram
        for t in (2, SPINE_PLUS):
            v = Vertex(0, t)
            reference = se_oracle(at, v, 25)
            assert se_oracle(at, tau(v), 25) == reference
            assert se_oracle(at, omega(d, v), 25) == reference

    def test_reflected_vertex(self):
        assert rd_oracle(NAKAYAMA_17_9, Vertex(0, 5)).rd == 3

    def test_omega_period_closes(self):
        at = NAKAYAMA_17_9
        p = omega_period(at, Vertex(0, 1))
        assert p >= 1
        se = se_oracle(at, Vertex(0, 1), 2 * p)
        assert set(se) == {i for i in se} and all(
            (i + p in se) == (i in se) for i in range(1, p + 1)
        )

    def test_walk_without_self_extension_fails_fast(self, monkeypatch):
        # an empty hammock never meets the walk; the step cap must stop it
        monkeypatch.setattr(Diagram, "hammock_column", lambda self, t, c: ())
        with pytest.raises(RuntimeError, match="no self-extension"):
            rd_oracle(NAKAYAMA_17_9, Vertex(0, 1))

    def test_unhashable_label_raises_check_label_error(self):
        # the label is checked before a hammock or a target keyed by it is built
        for call in (rd_oracle, omega_period, lambda at, v: se_oracle(at, v, 3)):
            with pytest.raises(ValueError, match=r"label \[1\] is not a vertex of A8"):
                call(NAKAYAMA_17_9, Vertex(0, [1]))

    def test_horizon_validation(self):
        for horizon in (0, True, 2.5):
            with pytest.raises(ValueError):
                se_oracle(NAKAYAMA_17_9, Vertex(0, 1), horizon)

    @pytest.mark.parametrize(
        "at",
        [
            NAKAYAMA_17_9,
            AlgebraType.create("A", 3, 2, 2),
            AlgebraType.create("D", 5, 2, 2),
            AlgebraType.create("D", 4, 2, 3),
            AlgebraType.create("E", 6, 2, 2),
        ],
        ids=lambda at: at.describe(),
    )
    def test_residue_reduction_equals_group_member(self, at):
        # the oracle's modular bookkeeping must agree with literal orbit tests
        from rigidity_kit import group_member, hammock_minus

        d = at.diagram
        for t in (d.labels[0], d.labels[-1]):
            v = Vertex(0, t)
            members = hammock_minus(d, v)
            w = v
            literal = []
            for i in range(1, 21):
                w = omega(d, w)
                if any(group_member(at, w, h) for h in members):
                    literal.append(i)
            assert tuple(literal) == se_oracle(at, v, 20)

    @pytest.mark.parametrize(
        "at",
        [
            AlgebraType.create("A", 4, 2, 1),
            AlgebraType.from_shift("A", 6, 9, 1),
            AlgebraType.create("A", 5, 2, 2),
            AlgebraType.create("D", 5, 2, 1),
            AlgebraType.create("D", 6, 1, 2),
            AlgebraType.create("D", 4, 2, 3),
            AlgebraType.create("D", 6, Fraction(2, 3), 1),
            AlgebraType.create("E", 6, 2, 1),
            AlgebraType.create("E", 6, 1, 2),
            AlgebraType.create("E", 7, 2, 1),
            AlgebraType.create("E", 8, 1, 1),
        ],
        ids=lambda at: at.describe(),
    )
    def test_first_hit_matches_full_period_scan(self, at):
        # rd_oracle stops at its first self-extension; scanning the whole
        # omega period must find the same one, and the period itself
        for t in at.diagram.labels:
            for x in (0, 3):
                v = Vertex(x, t)
                p = omega_period(at, v)
                full = se_oracle(at, v, p)
                assert p in full, (t, x)
                assert rd_oracle(at, v).witness == full[0], (t, x)


@pytest.mark.parametrize("at", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_walk_matches_definition(at):
    # degree i is a self-extension when some hammock member of v lies in the
    # orbit of omega^i(v), by literal steps and group membership; horizons
    # past two periods reach both omega^2 phases and every twisted image
    d = at.diagram
    horizon = 2 * at.period + 2
    for t in d.labels:
        for x in (0, 3, -7):
            v = Vertex(x, t)
            members = hammock_minus(d, v)
            literal = []
            w = v
            for i in range(1, horizon + 1):
                w = omega(d, w)
                if any(group_member(at, h, w) for h in members):
                    literal.append(i)
            assert se_oracle(at, v, horizon) == tuple(literal), (t, x)


@pytest.mark.parametrize(
    "at",
    [AlgebraType.from_shift("A", 6, 9, 1), AlgebraType.create("A", 5, 2, 2),
     AlgebraType.create("D", 5, 2, 1), AlgebraType.create("D", 6, 1, 2),
     AlgebraType.create("D", 4, 2, 3), AlgebraType.create("D", 6, Fraction(4, 3), 1),
     AlgebraType.create("E", 6, 2, 1), AlgebraType.create("E", 6, 1, 2),
     AlgebraType.create("E", 7, 2, 1), AlgebraType.create("E", 8, 1, 1)],
    ids=lambda at: at.describe(),
)
def test_oracle_is_translation_invariant(at):
    # the walk places the target at the base's x; a translate of the base must see
    # the same degrees, also far from 0 and on either side of a period
    p = at.period
    for t in at.diagram.labels:
        def seen(x):
            v = Vertex(x, t)
            return rd_oracle(at, v).witness, se_oracle(at, v, 2 * p + 3), omega_period(at, v)

        at_zero = seen(0)
        for x in (-p - 1, -7, 3, p, 10**12):
            assert seen(x) == at_zero, (t, x)


@pytest.mark.parametrize("at", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_omega_period_matches_definition(at):
    # the first p at which w, reached by p single omega steps, is in the orbit of v
    d = at.diagram
    for t in d.labels:
        for x in (0, 3, -7):
            v = Vertex(x, t)
            w, p = omega(d, v), 1
            while not group_member(at, v, w):
                w, p = omega(d, w), p + 1
            assert omega_period(at, v) == p, (t, x)


# every family and twist order, fractional type D included, at small u
algebra_types = st.one_of(
    st.builds(AlgebraType.from_shift, st.just("A"), st.integers(1, 12), st.integers(1, 40)),
    st.builds(lambda rank, u: AlgebraType.create("A", rank, u, 2),
              st.sampled_from([3, 5, 7, 9, 11]), st.integers(1, 6)),
    st.builds(lambda rank, u, s: AlgebraType.create("D", rank, u, s),
              st.integers(4, 10), st.integers(1, 6), st.sampled_from([1, 2])),
    st.builds(lambda rank, v: AlgebraType.create("D", rank, Fraction(v, 3), 1),
              st.sampled_from([6, 9, 12]), st.integers(1, 18).filter(lambda v: v % 3)),
    st.builds(lambda u: AlgebraType.create("D", 4, u, 3), st.integers(1, 12)),
    st.builds(lambda rank, u: AlgebraType.create("E", rank, u, 1),
              st.sampled_from([6, 7, 8]), st.integers(1, 12)),
    st.builds(lambda u: AlgebraType.create("E", 6, u, 2), st.integers(1, 12)),
)


@given(algebra_types)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_oracle_on_random_types(at):
    for t in at.diagram.labels:
        assert rd_closed(at, t).rd == rd_oracle(at, Vertex(0, t)).rd, (at.describe(), t)


def staircase_rd(m_pair: int, n_pair: int, t: int, scale: int) -> tuple[int, str]:
    """The row of t in ``_staircase`` on (m_pair, n_pair), without prefix or mirror."""
    rows = {}
    _staircase(rows, range(t, t + 1), m_pair, n_pair, scale, "", 0)
    return rows[t]


def interval_rd_by_definition(m_pair: int, n_pair: int, t: int, scale: int) -> tuple[int, str]:
    """The rows of ``_staircase``'s docstring, read through ``s_at``/``fb_at``.

    Every row is tried, and exactly one must hold t.
    """
    if t >= n_pair:
        return 0, "zero(l=-1)"
    data = weight_sequence(m_pair, n_pair)
    L = data.length
    rows = []
    for l in range(L + 1):
        lo, hi = s_at(data, l + 1), s_at(data, l)
        if l % 2 == 1 and l < L:
            if lo <= t <= hi:
                rows.append((scale * data.fb_at(l), f"closed(l={l})"))
        elif lo < t < hi:
            rows.append((scale * data.fb_at(l) - 1, f"open(l={l})"))
    if L % 2 == 1 and t == s_at(data, L):
        rows.append((scale * (data.fb_at(L) - data.fb_at(L - 1)), f"tail(l={L})"))
    assert len(rows) == 1, (m_pair, n_pair, t, rows)
    return rows[0]


def test_interval_scan_matches_definition_on_random_pairs():
    rng = random.Random(20221)
    for _ in range(150):
        n = rng.randint(1, 500)
        m = rng.choice([rng.randint(1, n), rng.randint(n, 3 * n), n * rng.randint(1, 4)])
        scale = rng.choice([1, 2])
        # one walk for every t, so the labels of a row share the tuple it evaluated
        rows = {}
        _staircase(rows, range(1, n + 3), m, n, scale, "", 0)
        for t in range(1, n + 3):
            assert rows[t] == interval_rd_by_definition(m, n, t, scale), (m, n, t, scale)


@given(st.integers(1, 10**7), st.integers(1, 10**7), st.data())
@settings(max_examples=300, deadline=None)
def test_interval_scan_matches_definition(m, n, data):
    # the rows meet at the remainders and at n, so t is often drawn next to one
    ends = weight_sequence(m, n).s + (n,)
    near_end = st.builds(lambda e, d: max(1, e + d), st.sampled_from(ends), st.integers(-1, 1))
    t = data.draw(st.one_of(st.integers(1, n + 2), near_end))
    scale = data.draw(st.sampled_from([1, 2]))
    assert staircase_rd(m, n, t, scale) == interval_rd_by_definition(m, n, t, scale)


# every family and twist order, fractional type D included, at u <= 10**6
large_u_types = st.one_of(
    st.builds(AlgebraType.from_shift, st.just("A"), st.integers(1, 40), st.integers(1, 10**6)),
    st.builds(lambda rank, u: AlgebraType.create("A", rank, u, 2),
              st.sampled_from(range(3, 42, 2)), st.integers(1, 10**6)),
    st.builds(lambda rank, u, s: AlgebraType.create("D", rank, u, s),
              st.integers(4, 40), st.integers(1, 10**6), st.sampled_from([1, 2])),
    st.builds(lambda rank, v: AlgebraType.create("D", rank, Fraction(v, 3), 1),
              st.sampled_from(range(6, 40, 3)), st.integers(1, 3 * 10**6).filter(lambda v: v % 3)),
    st.builds(lambda u: AlgebraType.create("D", 4, u, 3), st.integers(1, 10**6)),
    st.builds(lambda rank, u: AlgebraType.create("E", rank, u, 1),
              st.sampled_from([6, 7, 8]), st.integers(1, 10**6)),
    st.builds(lambda u: AlgebraType.create("E", 6, u, 2), st.integers(1, 10**6)),
)


@pytest.mark.parametrize(
    "at",
    [AlgebraType.create("A", 8, Fraction(17, 8), 1), AlgebraType.create("A", 5, 2, 2),
     AlgebraType.create("D", 6, 2, 1), AlgebraType.create("D", 6, 2, 2),
     AlgebraType.create("D", 6, Fraction(4, 3), 1), AlgebraType.create("D", 4, 2, 3),
     AlgebraType.create("E", 6, 2, 1), AlgebraType.create("E", 6, 2, 2),
     AlgebraType.create("E", 7, 5, 1), AlgebraType.create("E", 8, 2, 1)],
    ids=lambda at: at.describe(),
)
def test_closed_plan_divides_once_per_type(at):
    # every label, the D fork tips included, twice over, reads the one division of the plan;
    # a copy is another type object, so the memo builds its plan anew
    fresh = copy.copy(at)
    with counted_divisions() as divisions:
        reports = [rd_closed(fresh, t) for _ in range(2) for t in at.diagram.labels]
    assert len(divisions) == 1
    again = copy.copy(at)
    assert reports == [rd_closed(again, t) for _ in range(2) for t in at.diagram.labels]


@contextlib.contextmanager
def counted_divisions():
    """The divisions (m, n) that the closed form makes inside the block, in order."""
    divisions = []

    def counted(m, n):
        divisions.append((m, n))
        return weight_sequence(m, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rigidity, "weight_sequence", counted)
        yield divisions


@given(st.lists(large_u_types, min_size=2, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_closed_plan_memo_is_invisible(types):
    # cold: every label from a new plan, read through a new copy of the type, so no label
    # reads a cell another filled
    cold = {}
    for at in types:
        cold[at] = [rd_closed(copy.copy(at), t) for t in at.diagram.labels]
    for at in types:
        # warm: one type object's labels in a row read one plan, built by one division
        warm = copy.copy(at)
        with counted_divisions() as divisions:
            assert [rd_closed(warm, t) for t in at.diagram.labels] == cold[at]
        assert len(divisions) == 1
    # evicted: alternate the types label by label, so each call replaces the plan
    evicted = {at: [] for at in types}
    for k in range(max(len(at.diagram.labels) for at in types)):
        for at in types:
            if k < len(at.diagram.labels):
                evicted[at].append(rd_closed(at, at.diagram.labels[k]))
    assert evicted == cold


def test_closed_plan_keys_are_the_labels():
    # rd_closed's label check is its lookup in the plan, so the plan holds every label
    types = (
        [AlgebraType.from_shift("A", r, 3, 1) for r in range(1, 41)]
        + [AlgebraType.create("A", r, 2, 2) for r in range(3, 42, 2)]
        + [AlgebraType.create("D", r, 2, s) for r in range(4, 41) for s in (1, 2)]
        + [AlgebraType.create("D", r, Fraction(4, 3), 1) for r in range(6, 40, 3)]
        + [AlgebraType.create("D", 4, 2, 3), AlgebraType.create("E", 6, 2, 2)]
        + [AlgebraType.create("E", r, 2, 1) for r in (6, 7, 8)]
    )
    for at in types:
        d = at.diagram
        plan = _closed_plan(at)
        assert plan.keys() == d.omega_steps.keys(), at.describe()


@pytest.mark.parametrize(
    "at",
    [AlgebraType.create("A", 5, 2, 1), AlgebraType.create("A", 5, 2, 2),
     AlgebraType.create("D", 5, 2, 1), AlgebraType.create("D", 4, 2, 3),
     AlgebraType.create("E", 6, 2, 2), AlgebraType.create("E", 8, 2, 1),
     AlgebraType.create("D", 6, Fraction(4, 3), 1)],
    ids=lambda at: at.describe(),
)
def test_rd_closed_rejects_non_labels_with_check_label_message(at):
    # True and 1.0 equal and hash like the label 1, which warms the plan first
    d = at.diagram
    rd_closed(at, 1)
    bad = [True, 1.0, [1], 9] + ([] if d.family == "D" else ["m+"])
    for t in bad:
        with pytest.raises(ValueError) as info:
            rd_closed(at, t)
        assert str(info.value) == f"label {t!r} is not a vertex of {d.family}{d.rank}"


# every family and twist order, fractional type D included, at u small
# enough for the oracle walk
small_u_types = st.one_of(
    st.builds(AlgebraType.from_shift, st.just("A"), st.integers(1, 8), st.integers(1, 20)),
    st.builds(lambda rank, u: AlgebraType.create("A", rank, u, 2),
              st.sampled_from([3, 5, 7]), st.integers(1, 4)),
    st.builds(lambda rank, u, s: AlgebraType.create("D", rank, u, s),
              st.integers(4, 8), st.integers(1, 4), st.sampled_from([1, 2])),
    st.builds(lambda rank, v: AlgebraType.create("D", rank, Fraction(v, 3), 1),
              st.sampled_from([6, 9]), st.integers(1, 11).filter(lambda v: v % 3)),
    st.builds(lambda u: AlgebraType.create("D", 4, u, 3), st.integers(1, 6)),
    st.builds(lambda rank, u: AlgebraType.create("E", rank, u, 1),
              st.sampled_from([6, 7, 8]), st.integers(1, 3)),
    st.builds(lambda u: AlgebraType.create("E", 6, u, 2), st.integers(1, 3)),
)


def offsets_memo_agrees(at):
    return _orbit_offsets(at) == _orbit_offsets.__wrapped__(at)


@given(st.lists(small_u_types, min_size=2, max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_orbit_offsets_memo_is_invisible(types):
    def report(at, t):
        return rd_oracle(at, Vertex(0, t))

    # cold: each label through a new copy of the type, which the memo builds anew
    cold = {}
    for at in types:
        assert offsets_memo_agrees(copy.copy(at))
        cold[at] = [report(copy.copy(at), t) for t in at.diagram.labels]
    for at in types:
        # warm: one type object's labels in a row, each after the first a hit
        assert [report(at, t) for t in at.diagram.labels] == cold[at]
        assert offsets_memo_agrees(at)
    # evicted: alternate the types label by label, so each call replaces the entry
    evicted = {at: [] for at in types}
    for k in range(max(len(at.diagram.labels) for at in types)):
        for at in types:
            if k < len(at.diagram.labels):
                assert offsets_memo_agrees(at)
                evicted[at].append(report(at, at.diagram.labels[k]))
    assert evicted == cold


def on_a_fresh_diagram(at):
    """The type on a new ``Diagram``, whose hammock tables are empty."""
    return AlgebraType(Diagram(at.diagram.family, at.diagram.rank), at.s, at.n)


@given(st.lists(small_u_types, min_size=2, max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_cell_reader_memo_is_invisible(types):
    def reports(at, t):
        return rd_oracle(at, Vertex(0, t)), se_oracle(at, Vertex(3, t), 2 * at.period + 3)

    # cold: every call on a diagram with no cell read, so no call reads a cell another read
    cold = {}
    for at in types:
        cold[at] = []
        for t in at.diagram.labels:
            cold[at].append(reports(on_a_fresh_diagram(at), t))
    for at in types:
        # warm: one type's labels in a row
        fresh = on_a_fresh_diagram(at)
        assert [reports(fresh, t) for t in at.diagram.labels] == cold[at]
    # alternated: the types label by label, reading cells the others left
    alternated = {at: [] for at in types}
    for k in range(max(len(at.diagram.labels) for at in types)):
        for at in types:
            if k < len(at.diagram.labels):
                alternated[at].append(reports(at, at.diagram.labels[k]))
    assert alternated == cold


@pytest.mark.parametrize(
    "family,ranks", [("A", range(1, 65)), ("D", range(4, 65)), ("E", (6, 7, 8))]
)
def test_omega_squared_fixes_every_label(family, ranks):
    # so a walk from t meets the labels t and omega(t) only; the ranks cover every
    # diagram of the benchmark (A41 s=2 the largest) and of the verify sweeps.  The
    # phase table, omega's steps and h, is omega applied once and twice
    for rank in ranks:
        d = Diagram(family, rank)
        assert d.h == d.m_delta + 1 and list(d.omega_steps) == list(d.labels), (family, rank)
        for t, (dx, t1) in d.omega_steps.items():
            for x in (-3, 0, 5):
                w = omega(d, Vertex(x, t))
                assert w == Vertex(x + dx, t1), (family, rank, t)
                assert omega(d, w) == Vertex(x + d.h, t), (family, rank, t)


@pytest.mark.parametrize(
    "at",
    [AlgebraType.create("A", 5, 3, 2), AlgebraType.create("D", 4, 2, 3),
     AlgebraType.create("E", 6, 2, 2), AlgebraType.create("D", 6, Fraction(4, 3), 1),
     AlgebraType.create("D", 40, 1, 1)],
    ids=lambda at: at.describe(),
)
def test_cold_oracle_reads_at_most_2s_cells(monkeypatch, at):
    d = at.diagram
    reader = Diagram.hammock_column
    read = []

    def counted(self, t, c):
        read.append((t, c))
        return reader(self, t, c)

    monkeypatch.setattr(Diagram, "hammock_column", counted)
    for t in d.labels:
        # the witness by literal steps, against every vertex of the hammock
        v, period = Vertex(0, t), at.period
        target = {(h.t, h.x % period) for h in hammock_minus(d, v)}
        w, literal, offsets = omega(d, v), 1, _orbit_offsets(at)
        while not any((c, (w.x + dx) % period) in target for c, dx in offsets[w.t]):
            w, literal = omega(d, w), literal + 1
        read.clear()
        cold = on_a_fresh_diagram(at)
        assert rd_oracle(cold, v).witness == literal, t
        assert 0 < len(read) <= 2 * at.s, (t, read)
        assert len(cold.diagram.columns) <= 2 * at.s, t


@pytest.mark.parametrize(
    "at",
    [AlgebraType.create("A", 5, 2, 2), AlgebraType.create("D", 4, 2, 3),
     AlgebraType.create("E", 6, 2, 2), AlgebraType.create("D", 6, Fraction(4, 3), 1),
     AlgebraType.create("E", 8, 2, 1)],
    ids=lambda at: at.describe(),
)
def test_oracle_takes_one_omega_step_per_degree(monkeypatch, at):
    # exactly witness calls to omega: a faster oracle walk has cheaper steps, not fewer
    calls = 0
    step = rigidity.omega

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(rigidity, "omega", counted)
    for t in at.diagram.labels:
        calls = 0
        witness = rd_oracle(at, Vertex(0, t)).witness
        assert calls == witness > 0, t


def generator_walk(at, t):
    """The s-fold ``group_generator`` walk from (0, t), read as (label, x)."""
    w, walk = Vertex(0, t), []
    for _ in range(at.s):
        walk.append((w.t, w.x))
        w = group_generator(at, w)
    return tuple(walk)


@pytest.mark.parametrize("at", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_orbit_offsets_match_the_generator_walk(at):
    offsets = _orbit_offsets(at)
    assert list(offsets) == list(at.diagram.labels)
    for t in at.diagram.labels:
        assert offsets[t] == generator_walk(at, t), t


@given(small_u_types)
@settings(max_examples=60, deadline=None)
def test_orbit_offsets_match_the_generator_walk_on_small_types(at):
    offsets = _orbit_offsets(at)
    assert {t: generator_walk(at, t) for t in at.diagram.labels} == offsets


def test_orbit_offsets_check_no_label(monkeypatch):
    # composed on the phi table in integers: no label to check, no Vertex to build
    calls = []
    check = Diagram.check_label

    def counted(diagram, t):
        calls.append(t)
        return check(diagram, t)

    monkeypatch.setattr(Diagram, "check_label", counted)
    for at in REFERENCE_TYPES:
        _orbit_offsets.__wrapped__(at)
    assert calls == []


class TestSweepTypeBounds:
    @pytest.mark.parametrize("bound", [True, 2.0, 2.5])
    @pytest.mark.parametrize(
        "delta,s,bounds,name",
        [
            ("A", 1, {"rank_max": 2, "n_max": 2}, "rank_max"),
            ("A", 1, {"rank_max": 2, "n_max": 2}, "n_max"),
            ("A", 2, {"rank_max": 5, "u_max": 2}, "u_max"),
            ("D", 3, {"u_max": 2}, "u_max"),
            ("E", 1, {"rank": 6, "u_max": 2}, "rank"),
        ],
    )
    def test_bool_or_non_int_bound_raises(self, delta, s, bounds, name, bound):
        with pytest.raises(ValueError) as info:
            sweep_types(delta, s, **{**bounds, name: bound})
        assert str(info.value).endswith(f": {name} must be an integer, got {bound!r}")


class TestMembershipCharacterizations:
    def test_untwisted_type_a_parity_rule(self):
        # even degrees come from small remainders, odd from large ones
        for m in range(2, 9):
            for n in range(1, 16):
                at = AlgebraType.from_shift("A", m - 1, n, 1)
                for t in range(1, m // 2 + 1):
                    se = set(se_oracle(at, Vertex(0, t), 30))
                    for i in range(1, 31):
                        if i % 2 == 0:
                            expected = (i // 2) * m % n < t
                        else:
                            expected = (i // 2) * m % n >= n - t
                        assert (i in se) == expected, (m, n, t, i)

    def test_twisted_type_a_rule(self):
        for rank in (3, 5):
            m = rank + 1
            for u in range(1, 5):
                at = AlgebraType.create("A", rank, u, 2)
                shift = at.n - m // 2
                big_m, big_n = shift + m, 2 * shift + m
                for t in range(1, m // 2 + 1):
                    se = set(se_oracle(at, Vertex(0, t), 30))
                    for r in range(1, 31):
                        expected = r * big_m % big_n < t or (r - 1) * big_m % big_n >= big_n - t
                        assert (r in se) == expected, (rank, u, t, r)

    def test_type_d_tail_rule(self):
        for m in range(3, 7):
            for u in range(1, 4):
                for s in (1, 2):
                    at = AlgebraType.create("D", m + 1, u, s)
                    n = at.n
                    for t in range(1, m):
                        se = set(se_oracle(at, Vertex(0, t), 30))
                        for r in range(1, 31):
                            expected = r * m % n < t or (r - 1) * m % n >= n - t
                            assert (r in se) == expected, (m, u, s, t, r)


class TestDivisorStructure:
    def test_remainder_multiples(self):
        # below the fork threshold only multiples of Fb1 reach small remainders
        for m in range(2, 13):
            for n in range(m + 1, 61):
                data = weight_sequence(m, n)
                fb1 = data.fb_at(1)
                if n % m == 0:
                    for r in range(1, 3 * fb1 + 2):
                        small = r * m % n < m
                        assert small == (r % fb1 == 0), (m, n, r)
                        if small:
                            assert r * m % n == 0
                else:
                    fb2 = data.fb_at(2)
                    k2 = data.k[1]
                    hits = {p * fb1 + 1 for p in range(1, k2 + 1)}
                    for r in range(1, fb1 + fb2):
                        assert (r * m % n < m) == (r in hits), (m, n, r)


class TestEndpointScan:
    def test_worked_example(self):
        assert endpoint_scan(NAKAYAMA_17_9) == ((1, 30), (2, 3))

    def test_single_label(self):
        at = AlgebraType.from_shift("A", 1, 2, 1)
        assert endpoint_scan(at) == ((1, 1),)

    def test_monotone_over_sweep(self):
        for m in range(2, 11):
            for n in range(1, 21):
                at = AlgebraType.from_shift("A", m - 1, n, 1)
                scan = endpoint_scan(at)  # raises internally on violations
                rds = [rd for _, rd in scan]
                assert rds == sorted(rds, reverse=True)
                assert scan[0][0] == 1

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            endpoint_scan(AlgebraType.create("D", 5, 1, 1))
