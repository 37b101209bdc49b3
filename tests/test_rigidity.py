"""Tests for the closed-form evaluator and the brute-force oracle."""

from __future__ import annotations

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
    rem,
    se_oracle,
    sweep_types,
    tau,
    weight_sequence,
)
from rigidity_kit.quiver import orbit_offsets
from rigidity_kit.rigidity import _fib_interval_rd
from test_orthogonal import REFERENCE_TYPES

NAKAYAMA_17_9 = AlgebraType.create("A", 8, Fraction(17, 8), 1)


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
        # u = 1..15 meets every residue u mod 15 that keys the E8 table
        checked, mismatches = agreement(sweep_types("E", 1, rank=8, u_max=15))
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


@pytest.mark.parametrize("cls", [Vertex, RigidityReport], ids=lambda cls: cls.__name__)
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
        from rigidity_kit import rigidity

        monkeypatch.setattr(rigidity, "hammock_columns", lambda d, t: {})
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


def interval_rd_by_definition(m_pair: int, n_pair: int, t: int, scale: int) -> tuple[int, str]:
    """The rows of ``_fib_interval_rd``'s docstring, read through ``s_at``/``fb_at``.

    Every row is tried, and exactly one must hold t.
    """
    if t >= n_pair:
        return 0, "zero(l=-1)"
    data = weight_sequence(m_pair, n_pair)
    L = data.length
    rows = []
    for l in range(L + 1):
        lo, hi = data.s_at(l + 1), data.s_at(l)
        if l % 2 == 1 and l < L:
            if lo <= t <= hi:
                rows.append((scale * data.fb_at(l), f"closed(l={l})"))
        elif lo < t < hi:
            rows.append((scale * data.fb_at(l) - 1, f"open(l={l})"))
    if L % 2 == 1 and t == data.s_at(L):
        rows.append((scale * (data.fb_at(L) - data.fb_at(L - 1)), f"tail(l={L})"))
    assert len(rows) == 1, (m_pair, n_pair, t, rows)
    return rows[0]


def test_interval_scan_matches_definition_on_random_pairs():
    rng = random.Random(20221)
    for _ in range(150):
        n = rng.randint(1, 500)
        m = rng.choice([rng.randint(1, n), rng.randint(n, 3 * n), n * rng.randint(1, 4)])
        scale = rng.choice([1, 2])
        for t in range(1, n + 3):
            got = _fib_interval_rd(m, n, t, scale)
            assert got == interval_rd_by_definition(m, n, t, scale), (m, n, t, scale)


@given(st.integers(1, 10**7), st.integers(1, 10**7), st.data())
@settings(max_examples=300, deadline=None)
def test_interval_scan_matches_definition(m, n, data):
    # the rows meet at the remainders and at n, so t is often drawn next to one
    ends = weight_sequence(m, n).s + (n,)
    near_end = st.builds(lambda e, d: max(1, e + d), st.sampled_from(ends), st.integers(-1, 1))
    t = data.draw(st.one_of(st.integers(1, n + 2), near_end))
    scale = data.draw(st.sampled_from([1, 2]))
    assert _fib_interval_rd(m, n, t, scale) == interval_rd_by_definition(m, n, t, scale)


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


@given(large_u_types)
@settings(max_examples=60, deadline=None)
def test_weight_sequence_memo_is_invisible(at):
    labels = at.diagram.labels
    # each evicting type shares one side of the division with ``at``: the
    # same diagram at u + 1 keeps m (except type A s=2), and type A of rank
    # + 1 at the same n divides (rank + 2, n)
    others = (
        AlgebraType.create(at.diagram.family, at.diagram.rank, at.u + 1, at.s),
        AlgebraType.from_shift("A", at.diagram.rank + 1, at.n),
    )
    cold = []
    for t in labels:
        weight_sequence.cache_clear()
        cold.append(rd_closed(at, t))
    warm = [rd_closed(at, t) for t in labels]
    for other in others:
        weight_sequence.cache_clear()
        other_cold = rd_closed(other, 1)
        evicted = []
        for t in labels:
            assert rd_closed(other, 1) == other_cold
            evicted.append(rd_closed(at, t))
        assert evicted == cold
    assert warm == cold


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


@given(st.lists(small_u_types, min_size=2, max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_orbit_offsets_memo_is_invisible(types):
    def report(at, t):
        return rd_oracle(at, Vertex(0, t))

    cold = {}
    for at in types:
        orbit_offsets.cache_clear()
        assert orbit_offsets(at) == orbit_offsets.__wrapped__(at)
        reports = []
        for t in at.diagram.labels:
            orbit_offsets.cache_clear()
            reports.append(report(at, t))
        cold[at] = reports
    for at in types:
        # warm: one type's labels in a row, each after the first a hit
        assert [report(at, t) for t in at.diagram.labels] == cold[at]
        assert orbit_offsets(at) == orbit_offsets.__wrapped__(at)
    # evicted: alternate the types label by label, so each call replaces the entry
    evicted = {at: [] for at in types}
    for k in range(max(len(at.diagram.labels) for at in types)):
        for at in types:
            if k < len(at.diagram.labels):
                assert orbit_offsets(at) == orbit_offsets.__wrapped__(at)
                evicted[at].append(report(at, at.diagram.labels[k]))
    assert evicted == cold


def generator_walk(at, t):
    """The s-fold ``group_generator`` walk from (0, t), read as (label, x)."""
    w, walk = Vertex(0, t), []
    for _ in range(at.s):
        walk.append((w.t, w.x))
        w = group_generator(at, w)
    return tuple(walk)


@pytest.mark.parametrize("at", REFERENCE_TYPES, ids=lambda at: at.describe())
def test_orbit_offsets_match_the_generator_walk(at):
    offsets = orbit_offsets(at)
    assert list(offsets) == list(at.diagram.labels)
    for t in at.diagram.labels:
        assert offsets[t] == generator_walk(at, t), t


@given(small_u_types)
@settings(max_examples=60, deadline=None)
def test_orbit_offsets_match_the_generator_walk_on_small_types(at):
    offsets = orbit_offsets(at)
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
        orbit_offsets.__wrapped__(at)
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
                            expected = rem((i // 2) * m, n) < t
                        else:
                            expected = rem((i // 2) * m, n) >= n - t
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
                        expected = rem(r * big_m, big_n) < t or rem(
                            (r - 1) * big_m, big_n
                        ) >= big_n - t
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
                            expected = rem(r * m, n) < t or rem((r - 1) * m, n) >= n - t
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
                        small = rem(r * m, n) < m
                        assert small == (r % fb1 == 0), (m, n, r)
                        if small:
                            assert rem(r * m, n) == 0
                else:
                    fb2 = data.fb_at(2)
                    k2 = data.k[1]
                    hits = {p * fb1 + 1 for p in range(1, k2 + 1)}
                    for r in range(1, fb1 + fb2):
                        assert (rem(r * m, n) < m) == (r in hits), (m, n, r)


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
