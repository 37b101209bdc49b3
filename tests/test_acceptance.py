"""Acceptance criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line with its runtime and asserts
its stated budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they complete.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from rigidity_kit import (
    AlgebraType,
    Vertex,
    agreement,
    hammock_minus,
    is_maximal_orthogonal,
    rd_closed,
    rd_oracle,
    rigdim_closed,
    rigdim_verify,
    se_oracle,
    sweep_types,
    weight_sequence,
)
from test_euclid import s_at


@contextmanager
def criterion(number: int, description: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:>2}: FAIL ({elapsed:.1f}s) {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2}: PASS ({elapsed:.1f}s) {description}", flush=True)
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def assert_agreement(types, expected: int) -> None:
    checked, mismatches = agreement(types)
    assert not mismatches, "; ".join(mismatches)
    assert checked == expected


def type_a_s1_sweep():
    return sweep_types("A", 1, rank_max=9, n_max=30)


def type_a_s2_sweep():
    return sweep_types("A", 2, rank_max=11, u_max=6)


def type_d_sweep():
    return (
        sweep_types("D", 1, rank_max=8, u_max=5)
        + sweep_types("D", 1, rank_max=12, u_max=5, fractional=True)
        + sweep_types("D", 2, rank_max=8, u_max=5)
        + sweep_types("D", 3, u_max=9)
    )


def type_e_sweep():
    return (
        sweep_types("E", 1, rank=6, u_max=13)
        + sweep_types("E", 2, rank=6, u_max=13)
        + sweep_types("E", 1, rank=7, u_max=10)
        + sweep_types("E", 1, rank=8, u_max=8)
    )


def test_criterion_01_agreement_type_a_untwisted():
    with criterion(1, "closed-form/oracle agreement, type A s=1", 30):
        assert_agreement(type_a_s1_sweep(), 750)


def test_criterion_02_agreement_type_a_twisted():
    with criterion(2, "closed-form/oracle agreement, type A s=2", 30):
        assert_agreement(type_a_s2_sweep(), 120)


def test_criterion_03_agreement_type_d():
    with criterion(3, "closed-form/oracle agreement, type D", 60):
        assert_agreement(type_d_sweep(), 444)


def test_criterion_04_agreement_type_e():
    with criterion(4, "closed-form/oracle agreement, type E", 120):
        assert_agreement(type_e_sweep(), 26 * 6 + 10 * 7 + 8 * 8)


def test_criterion_05_worked_example():
    with criterion(5, "worked example (A8, 17/8, 1)", 1):
        atype = AlgebraType.create("A", 8, Fraction(17, 8), 1)
        expected = [30, 3, 3, 3, 3, 3, 3, 30]
        assert [rd_closed(atype, t).rd for t in range(1, 9)] == expected
        assert [rd_oracle(atype, Vertex(0, t)).rd for t in range(1, 9)] == expected
        formula = rigdim_closed(atype)
        assert formula is not None and formula.rigdim == 32
        assert rigdim_verify(atype).passed


def test_criterion_06_half_line_families():
    with criterion(6, "single-orbit families on the rank-1 and n=am-1 lines", 30):
        for a in range(1, 5):
            atype = AlgebraType.from_shift("A", 1, 2 * a, 1)
            formula = rigdim_closed(atype)
            assert (formula.r, formula.rigdim) == (2 * a - 1, 2 * a + 1)
            assert is_maximal_orthogonal(atype, Vertex(0, 1), formula.r).is_maximal
            assert rigdim_verify(atype).passed
        for m in (2, 3, 4, 5):
            for a in (1, 2, 3):
                atype = AlgebraType.from_shift("A", m - 1, a * m - 1, 1)
                formula = rigdim_closed(atype)
                assert (formula.r, formula.rigdim) == (
                    2 * (a * m - a - 1),
                    2 * (a * m - a),
                )
                assert is_maximal_orthogonal(atype, Vertex(0, 1), formula.r).is_maximal
                if formula.r > 0:  # (m, a) = (2, 1) sits at degree zero
                    below = is_maximal_orthogonal(atype, Vertex(0, 1), formula.r - 1)
                    assert not below.is_maximal
                assert rigdim_verify(atype).passed


def test_criterion_07_twisted_family():
    with criterion(7, "twisted type-A family at desk scale", 30):
        atype = AlgebraType.create("A", 3, 3, 2)  # m = 4, a = 2
        formula = rigdim_closed(atype)
        assert (formula.r, formula.rigdim) == (13, 15)
        assert rigdim_verify(atype).passed
        atype = AlgebraType.create("A", 5, 4, 2)  # m = 6, a = 3
        formula = rigdim_closed(atype)
        assert (formula.r, formula.rigdim) == (33, 35)
        assert rigdim_verify(atype).passed


def test_criterion_08_e7_family():
    with criterion(8, "exceptional family at a=0: (E7, 5, 1)", 120):
        atype = AlgebraType.create("E", 7, 5, 1)
        cert = is_maximal_orthogonal(atype, Vertex(0, 1), 66)
        assert cert.is_maximal and cert.stability_ok
        formula = rigdim_closed(atype)
        assert (formula.r, formula.rigdim) == (66, 68)
        record = rigdim_verify(atype)
        assert record.passed, record.failures()


def _check_congruences_and_ranges():
    for m in range(1, 201):
        for n in range(1, 201):
            data = weight_sequence(m, n)
            L = data.length
            s1 = s_at(data, 1) if L else 0
            for l in range(1, L + 2):
                assert (
                    data.fb_at(l - 1) * s1 - (-1) ** (l - 1) * s_at(data, l)
                ) % n == 0, (m, n, l)
            if L == 0:
                continue
            fb_top, fb_sub = data.fb_at(L), data.fb_at(L - 1)
            d_even = L % 2 == 1
            for l in range(1, L + 1):
                hi = data.fb_at(l) + (1 if (l % 2 == 1 and l < L) else 0)
                s_l = s_at(data, l)
                fb_prev = data.fb_at(l - 1)
                if l % 2 == 1:
                    low_eq = fb_prev
                    up_eq = fb_top - fb_sub + 1 if (d_even and l == L) else 0
                else:
                    low_eq = fb_top - fb_sub if ((not d_even) and l == L) else 0
                    up_eq = fb_prev + 1
                rm_prev, rm = 0, s1 % n
                for r in range(1, hi):
                    assert rm >= s_l and rm_prev <= n - s_l, (m, n, l, r)
                    assert (rm == s_l) == (r == low_eq), (m, n, l, r)
                    assert (rm_prev == n - s_l) == (r == up_eq), (m, n, l, r)
                    rm_prev = rm
                    rm += s1
                    if rm >= n:
                        rm -= n


def _check_rectangles():
    from rigidity_kit import Diagram

    for m in range(2, 13):
        diagram = Diagram("A", m - 1)
        for t in range(1, m):
            expected = {
                Vertex(j, t + i - j) for j in range(t) for i in range(m - t)
            }
            assert hammock_minus(diagram, Vertex(0, t)) == expected, (m, t)


def _check_se_membership_rules():
    horizon = 30
    for atype in type_a_s1_sweep():
        m, n = atype.diagram.rank + 1, atype.n
        for t in range(1, m // 2 + 1):
            se = set(se_oracle(atype, Vertex(0, t), horizon))
            for i in range(1, horizon + 1):
                k = i // 2
                expected = (
                    k * m % n < t if i % 2 == 0 else k * m % n >= n - t
                )
                assert (i in se) == expected, (atype.describe(), t, i)
    for atype in type_a_s2_sweep():
        m = atype.diagram.rank + 1
        shift = atype.n - m // 2
        big_m, big_n = shift + m, 2 * shift + m
        for t in range(1, m // 2 + 1):
            se = set(se_oracle(atype, Vertex(0, t), horizon))
            for r in range(1, horizon + 1):
                expected = r * big_m % big_n < t or (r - 1) * big_m % big_n >= big_n - t
                assert (r in se) == expected, (atype.describe(), t, r)
    for atype in type_d_sweep():
        if atype.s == 3:
            continue
        m, n = atype.diagram.rank - 1, atype.n
        for t in range(1, m):
            se = set(se_oracle(atype, Vertex(0, t), horizon))
            for r in range(1, horizon + 1):
                expected = r * m % n < t or (r - 1) * m % n >= n - t
                assert (r in se) == expected, (atype.describe(), t, r)


def test_criterion_09_property_suites():
    with criterion(9, "exhaustive remainder, rectangle and membership properties", 60):
        _check_congruences_and_ranges()
        _check_rectangles()
        _check_se_membership_rules()


def test_criterion_10_type_d_negative_control():
    with criterion(10, "type-D negative control over the criterion-3 sweep", 60):
        hits = []
        for atype in type_d_sweep():
            for t in atype.diagram.labels:
                r = rd_closed(atype, t).rd
                cert = is_maximal_orthogonal(atype, Vertex(0, t), r)
                if cert.is_maximal:
                    hits.append(f"{atype.describe()} t={t} r={r}")
        assert not hits, (
            "maximal rd-orthogonal single orbits exist in type D, contradicting "
            "the stated expectation (see the decisions ledger): " + "; ".join(hits)
        )
