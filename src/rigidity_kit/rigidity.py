"""Rigidity-degree engines.

Two independent computations of the rigidity degree of the module sitting
at a vertex of the stable AR-quiver ZD/<tau^n phi>:

* ``rd_closed`` evaluates the closed-form tables, driven entirely by the
  weight/Fibonacci sequences of one Euclidean division per type, memoised,
  so the labels of one type share it;
* ``rd_oracle`` walks the omega orbit of the vertex on ZD and stops at its
  first self-extension degree: the first omega-translate that meets the
  hammock of the base vertex modulo the admissible group.  The walk ends by
  the omega period, since the base vertex lies in its own hammock; aimed at
  the vertex alone, the same capped walk gives ``omega_period``.  For each
  label it reaches, the walk builds once per call the set of x-offsets mod
  period, relative to the base, at which a vertex of that label meets the
  target, from its columns and the orbit offsets; each step is one
  ``omega`` table lookup and one set test.

Agreement of the two over full parameter sweeps is the package's central
acceptance property; ``sweep_types`` names the sweeps and ``agreement``
compares the engines over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .euclid import weight_sequence
from .quiver import (
    SPINE_MINUS,
    SPINE_PLUS,
    AlgebraType,
    Label,
    Vertex,
    hammock_columns,
    omega,
    orbit_offsets,
)

__all__ = [
    "RigidityReport",
    "agreement",
    "endpoint_scan",
    "omega_period",
    "rd_closed",
    "rd_oracle",
    "se_oracle",
    "sweep_types",
]


@dataclass(frozen=True, slots=True)
class RigidityReport:
    """Rigidity degree of one vertex plus provenance.

    ``branch`` names the closed-form case that fired and is absent on
    oracle reports; ``witness`` is the smallest self-extension degree and is
    filled by the oracle only.  ``__init__`` is written out, storing each
    field through its slot descriptor: the generated frozen ``__init__``
    makes one ``object.__setattr__`` call per field, and every ``rd_closed``
    call builds a report.
    """

    atype: AlgebraType
    vertex: Vertex
    rd: int
    branch: str | None = None
    witness: int | None = None

    def __init__(
        self, atype: AlgebraType, vertex: Vertex, rd: int,
        branch: str | None = None, witness: int | None = None,
    ) -> None:
        _set_report_atype(self, atype)
        _set_report_vertex(self, vertex)
        _set_report_rd(self, rd)
        _set_report_branch(self, branch)
        _set_report_witness(self, witness)

    @property
    def domdim_bound(self) -> int:
        """Dominant dimension of the generator-cogenerator's endomorphism algebra."""
        return self.rd + 2


_set_report_atype = RigidityReport.atype.__set__
_set_report_vertex = RigidityReport.vertex.__set__
_set_report_rd = RigidityReport.rd.__set__
_set_report_branch = RigidityReport.branch.__set__
_set_report_witness = RigidityReport.witness.__set__


def _fib_interval_rd(m_pair: int, n_pair: int, t: int, scale: int) -> tuple[int, str]:
    """Shared interval evaluator: locate t among the remainders of (m_pair, n_pair).

    Rows: open intervals (s_{l+1}, s_l) for even l or l == length give
    scale*Fb_l - 1; closed intervals [s_{l+1}, s_l] for odd l < length give
    scale*Fb_l; t == s_length with odd length gives scale*(Fb_length -
    Fb_{length-1}); t >= n_pair belongs to the degree-zero fringe.
    """
    if t >= n_pair:
        return 0, "zero(l=-1)"
    data = weight_sequence(m_pair, n_pair)
    s, fb = data.s, data.fb  # s[j] is s_{j+1} and fb[l + 1] is Fb_l
    L = len(data.k)
    j = 0
    while s[j] > t:
        j += 1
    # now s_{j+1} <= t < s_j
    if t == s[j]:
        jj = j + 1
        if jj % 2 == 1:
            if jj < L:
                return scale * fb[jj + 1], f"closed(l={jj})"
            return scale * (fb[L + 1] - fb[L]), f"tail(l={L})"
        return scale * fb[jj], f"closed(l={jj - 1})"
    if j % 2 == 1 and j < L:
        return scale * fb[j + 1], f"closed(l={j})"
    return scale * fb[j + 1] - 1, f"open(l={j})"


def _rd_closed_a(atype: AlgebraType, t: int) -> tuple[int, str]:
    m = atype.diagram.rank + 1
    suffix = ""
    if 2 * t > m:
        t = m - t
        suffix = "+sym"
    if atype.s == 1:
        rd, branch = _fib_interval_rd(m, atype.n, t, scale=2)
    else:
        shift = atype.n - m // 2  # exponent of the tau^shift.omega generator
        rd, branch = _fib_interval_rd(shift + m, 2 * shift + m, t, scale=1)
    return rd, f"A.s{atype.s}:{branch}{suffix}"


def _rd_closed_d_spine(atype: AlgebraType) -> tuple[int, str]:
    m = atype.diagram.rank - 1
    n = atype.n
    if m >= n:
        return 0, "D:spine(m>=n)"
    data = weight_sequence(m, n)
    fb1 = data.fb_at(1)
    parity = (fb1 + n + atype.s) % 2
    if n % m == 0:
        rd = fb1 - 1 if parity == 1 else 2 * fb1 - 1
        return rd, f"D:spine(div,par={parity})"
    rd = fb1 if parity == 0 else fb1 + data.fb_at(2)
    return rd, f"D:spine(nondiv,par={parity})"


def _rd_closed_d4_triality(atype: AlgebraType, t) -> tuple[int, str]:
    data = weight_sequence(3, atype.n)
    fb1 = data.fb_at(1)
    res = int(atype.u) % 3
    if t == 2:
        if res == 0:
            return fb1 - 1, "D4:t=2(div)"
        return fb1, "D4:t=2(nondiv)"
    rd = {0: 3 * fb1 - 1, 1: fb1, 2: 2 * fb1}[res]
    return rd, f"D4:outer(u%3={res})"


def _rd_closed_d(atype: AlgebraType, t) -> tuple[int, str]:
    if atype.s == 3:
        return _rd_closed_d4_triality(atype, t)
    if t in (SPINE_PLUS, SPINE_MINUS):
        return _rd_closed_d_spine(atype)
    m = atype.diagram.rank - 1
    rd, branch = _fib_interval_rd(m, atype.n, t, scale=1)
    return rd, f"D:{branch}"


# Table cells are coefficient vectors (c0, c1, c2, c3) encoding
# c0 + c1*Fb_1 + c2*Fb_2 + c3*Fb_3 of the weight sequence of (h*, n).
_F1M1 = (-1, 1, 0, 0)
_F1 = (0, 1, 0, 0)
_2F1 = (0, 2, 0, 0)
_3F1 = (0, 3, 0, 0)
_2F1M1 = (-1, 2, 0, 0)
_F2M1 = (-1, 0, 1, 0)
_F3M1 = (-1, 0, 0, 1)
_F3 = (0, 0, 0, 1)
_2F3 = (0, 0, 0, 2)
_F1_F2 = (0, 1, 1, 0)
_F1_2F2 = (0, 1, 2, 0)
_F1_3F2 = (0, 1, 3, 0)
_F1_4F2 = (0, 1, 4, 0)
_F1_F3 = (0, 1, 0, 1)
_F1_F2_F3 = (0, 1, 1, 1)

_E7_ROWS = {
    1: (_F1M1, _F1_3F2, _F1_F2, _F3M1, _F1, _F1_3F2, _F2M1, _F1_F2, _F1),
    2: (_F1M1, _F1, _F1_F2, _F1, _F1, _F1, _2F1, _F1, _F1),
    3: (_F1M1, _F1, _F1, _F1, _F1, _F1, _F1, _F1, _F1),
    6: (_F1M1, _F1_2F2, _F1_3F2, _F1, _F1_F2, _F1, _2F1, _2F1, _F1),
    7: (_F1M1, _F1_F2, _F1, _F1, _F1, _F1, _F1, _2F1, _F1),
}

_E8_ROWS = {
    1: (_F1M1, _F1_4F2, _F3, _F1_2F2, _F1_F2_F3, _F1, _2F3, _F1_F2,
        _F1_F2, _F1, _2F1, _F1_F2, _2F1, _3F1, _F1),
    2: (_F1M1, _F1, _F1_F2, _F1_F2, _F1, _F1, _F1, _F1_F2,
        _F1, _F1, _F1, _F1_F2, _2F1, _F1, _F1),
    3: (_F1M1,) + (_F1,) * 14,
    7: (_F1M1, _F1_2F2, _F1_2F2, _F1, _F1_F2, _F1, _F1, _F1_F2,
        _F1, _F1, _2F1, _F1, _2F1, _2F1, _F1),
    8: (_F1M1, _F1_F2) + (_F1,) * 11 + (_2F1, _F1),
}

_E6_SHARED_ROWS = {
    3: (_F1M1, _F1, _F1, _F1, _F1, _F1),
    6: (_F1M1, _F1_F2, _F1, _F1, _2F1, _F1),
}

# First block: s=1 with even floor(u/6), s=2 with odd floor(u/6).
_E6_BLOCK_A = {
    1: (_F1M1, _F1_2F2, _F1_F3, _F1, _2F1, _3F1),
    2: (_F1M1, _F1, _F1, _F1, _F1, _2F1),
}
_E6_BLOCK_B = {
    1: (_2F1M1, _F1_4F2, _F1, _F1_F2, _2F1, _F1),
    2: (_2F1M1, _F1, _F1, _F1, _F1, _F1),
}


def _e_row(atype: AlgebraType, t: int) -> tuple[tuple[int, ...], str]:
    rank = atype.diagram.rank
    u = int(atype.u)
    if rank == 7:
        res = u % 9
        key = t if t in (1, 2, 6, 7) else 3
        return _E7_ROWS[key][res], f"E7:t={t},u%9={res}"
    if rank == 8:
        res = u % 15
        key = t if t in (1, 2, 7, 8) else 3
        return _E8_ROWS[key][res], f"E8:t={t},u%15={res}"
    res = u % 6
    if t in (3, 6):
        return _E6_SHARED_ROWS[t][res], f"E6.s{atype.s}:t={t},u%6={res}"
    first_block = (u // 6) % 2 == (0 if atype.s == 1 else 1)
    table = _E6_BLOCK_A if first_block else _E6_BLOCK_B
    key = 1 if t in (1, 5) else 2
    blk = "A" if first_block else "B"
    return table[key][res], f"E6.s{atype.s}:t={t},u%6={res},blk={blk}"


def _rd_closed_e(atype: AlgebraType, t: int) -> tuple[int, str]:
    coeffs, branch = _e_row(atype, t)
    data = weight_sequence(atype.diagram.h_star, atype.n)
    rd = coeffs[0]
    for i in (1, 2, 3):
        if coeffs[i]:
            rd += coeffs[i] * data.fb_at(i)
    return rd, branch


def rd_closed(atype: AlgebraType, t) -> RigidityReport:
    """Closed-form rigidity degree of the vertex (0, t)."""
    atype.diagram.check_label(t)
    family = atype.diagram.family
    if family == "A":
        rd, branch = _rd_closed_a(atype, t)
    elif family == "D":
        rd, branch = _rd_closed_d(atype, t)
    else:
        rd, branch = _rd_closed_e(atype, t)
    return RigidityReport(atype, Vertex(0, t), rd, branch)


def _omega_walk(
    atype: AlgebraType, v: Vertex, columns: dict[Label, tuple[int, ...]]
) -> Iterator[tuple[int, bool]]:
    """Yield (i, hit) for i = 1, 2, ...: whether the i-th omega shift of v meets the target.

    The target is ``columns`` placed at v: the vertices (v.x + dx, c) with dx
    in ``columns[c]``, as ``hammock_columns`` gives them for the hammock of v.
    Degree i is a hit when some group translate of w, the i-th omega shift
    of v, lands in the target.  The orbit of w is the translates by
    period-multiples of (w.x + ox, c) over the orbit offsets of w.t, so that
    holds exactly when (w.x - v.x) mod period is some dx - ox with dx in the
    target's column of c.  Those residues are built once per label the walk
    reaches; each step is then one ``omega`` call and one set test.  Callers
    check the label of v before they build a target keyed by it.
    """
    diagram = atype.diagram
    period = atype.period
    offsets = orbit_offsets(atype)
    hits: dict[Label, frozenset[int]] = {}
    w = v
    for i in count(1):
        w = omega(diagram, w)
        residues = hits.get(w.t)
        if residues is None:
            residues = hits[w.t] = frozenset(
                (dx - ox) % period for c, ox in offsets[w.t] for dx in columns.get(c, ())
            )
        yield i, (w.x - v.x) % period in residues


def _first_hit(
    atype: AlgebraType, v: Vertex, columns: dict[Label, tuple[int, ...]], failure: str
) -> int:
    """First hit of ``_omega_walk``; past a step cap, ``RuntimeError`` of ``failure.format(v)``."""
    cap = 4 * atype.s * atype.n * (atype.diagram.m_delta + 1)
    for i, hit in islice(_omega_walk(atype, v, columns), cap):
        if hit:
            return i
    raise RuntimeError(f"{failure.format(v)} within {cap} steps")


def se_oracle(atype: AlgebraType, v: Vertex, horizon: int) -> tuple[int, ...]:
    """Self-extension degrees in [1, horizon], by direct enumeration on ZD."""
    if type(horizon) is not int:
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    atype.diagram.check_label(v.t)
    walk = _omega_walk(atype, v, hammock_columns(atype.diagram, v.t))
    return tuple(i for i, hit in islice(walk, horizon) if hit)


def omega_period(atype: AlgebraType, v: Vertex) -> int:
    """Smallest p >= 1 with omega^p(v) in the orbit of v: the walk's first return to v."""
    atype.diagram.check_label(v.t)
    return _first_hit(atype, v, {v.t: (0,)}, "omega orbit of {} did not close")


def rd_oracle(atype: AlgebraType, v: Vertex) -> RigidityReport:
    """Brute-force rigidity degree: walk omega from v to its first self-extension.

    The rigidity degree counts the consecutive vanishing self-extensions, so
    it is one less than the first self-extension degree.  That degree is at
    most the omega period of v, because v lies in its own hammock; a walk
    past the cap of ``_first_hit`` raises ``RuntimeError``.
    """
    atype.diagram.check_label(v.t)
    i = _first_hit(
        atype, v, hammock_columns(atype.diagram, v.t), "omega walk of {} met no self-extension"
    )
    return RigidityReport(atype, v, i - 1, None, i)


def endpoint_scan(atype: AlgebraType) -> tuple[tuple[int, int], ...]:
    """Endpoints (t, rd) of the type-A rigidity-degree staircase on t <= m/2."""
    if atype.diagram.family != "A":
        raise ValueError("endpoint scan applies to type A only")
    m = atype.diagram.rank + 1
    endpoints = []
    previous: int | None = None
    for t in range(1, m // 2 + 1):
        rd = rd_closed(atype, t).rd
        if previous is not None and rd > previous:
            raise RuntimeError(
                f"rigidity degrees of {atype.describe()} increase at t={t}"
            )
        if t == 1 or rd < previous:  # type: ignore[operator]
            endpoints.append((t, rd))
        previous = rd
    return tuple(endpoints)


def sweep_types(
    delta: str, s: int, *, rank: int | None = None, rank_max: int | None = None,
    n_max: int | None = None, u_max: int | None = None, fractional: bool = False,
) -> list[AlgebraType]:
    """The algebra types of one named sweep, in sweep order.

    Type A runs ranks 1..rank_max over raw shifts 1..n_max (s=1) or odd ranks
    3..rank_max over u = 1..u_max (s=2); type D runs ranks 4..rank_max (D4
    alone for s=3), or with ``fractional`` ranks 6, 9, ... over u = v/3 with
    3 not dividing v; type E runs ``rank`` alone.  Missing bounds, bounds
    that are not ints or are <= 0, bounds the sweep does not use (``fractional``
    outside type D included), invalid types and an empty grid raise ``ValueError``.
    """
    sweep = f"type {delta} s={s}"
    if delta == "A":
        needs = ("rank_max", "n_max") if s == 1 else ("rank_max", "u_max")
    elif delta == "D" and fractional:
        if s != 1:
            raise ValueError("fractional type D sweeps need s=1")
        sweep, needs = "fractional type D", ("rank_max", "u_max")
    elif delta == "D":
        needs = ("u_max",) if s == 3 else ("rank_max", "u_max")
    else:
        needs = ("rank", "u_max")
    bounds = {"rank": rank, "rank_max": rank_max, "n_max": n_max, "u_max": u_max}
    if any(bounds[name] is None for name in needs):
        raise ValueError(f"{sweep} sweeps need {' and '.join(needs)}")
    for name in needs:
        if type(bounds[name]) is not int:
            raise ValueError(f"{sweep} sweeps: {name} must be an integer, got {bounds[name]!r}")
        if bounds[name] <= 0:
            raise ValueError(f"{sweep} sweeps: {name} must be positive, got {bounds[name]}")
    unused = [name for name, value in bounds.items() if value is not None and name not in needs]
    if fractional and delta != "D":
        unused.append("fractional")
    if unused:
        raise ValueError(f"{sweep} sweeps do not use {', '.join(unused)}")

    if delta == "A" and s == 1:
        types = [AlgebraType.from_shift("A", r, n, 1)
                 for r in range(1, rank_max + 1) for n in range(1, n_max + 1)]
    elif delta == "A":
        types = [AlgebraType.create("A", r, u, s)
                 for r in range(3, rank_max + 1, 2) for u in range(1, u_max + 1)]
    elif fractional:
        types = [AlgebraType.create("D", r, Fraction(v, 3), 1)
                 for r in range(6, rank_max + 1, 3) for v in range(1, u_max + 1) if v % 3]
    elif delta == "D" and s == 3:
        types = [AlgebraType.create("D", 4, u, 3) for u in range(1, u_max + 1)]
    elif delta == "D":
        types = [AlgebraType.create("D", r, u, s)
                 for r in range(4, rank_max + 1) for u in range(1, u_max + 1)]
    else:
        types = [AlgebraType.create("E", rank, u, s) for u in range(1, u_max + 1)]
    if not types:
        raise ValueError("the sweep bounds leave no algebra type to check")
    return types


def agreement(types) -> tuple[int, list[str]]:
    """Compare ``rd_closed`` with ``rd_oracle`` at every vertex (0, t) of ``types``.

    Type A is checked on the labels t <= m/2 (m = rank + 1) only: omega maps
    (0, t) to (t, m - t), so the other half repeats them.  Other families are
    checked on every label.  Returns the number of vertices checked and one
    line per disagreement.
    """
    checked = 0
    mismatches = []
    for atype in types:
        labels = atype.diagram.labels
        if atype.diagram.family == "A":
            labels = labels[: (atype.diagram.rank + 1) // 2]
        for t in labels:
            closed = rd_closed(atype, t)
            oracle = rd_oracle(atype, Vertex(0, t))
            checked += 1
            if closed.rd != oracle.rd:
                mismatches.append(
                    f"{atype.describe()} t={t}: closed={closed.rd} oracle={oracle.rd}"
                )
    return checked, mismatches
