"""Rigidity-degree engines.

Two independent computations of the rigidity degree of the module sitting
at a vertex of the stable AR-quiver ZD/<tau^n phi>:

* ``rd_closed`` evaluates the closed-form tables, driven entirely by the
  weight/Fibonacci sequences of one Euclidean division per type.  It reads
  a plan memoised for the last type, which makes that division when it is
  built: for type A and type D with twist order 1 or 2, the staircase of the
  division, where ``bisect`` places a label among the remainders and each
  row's ``(rd, branch)`` is kept once a label first lands in it, the fork
  tips sharing one spine cell; D4 with twist order 3 and type E read the
  division per call.  Branch strings are formatted once per process.  The
  report, built without ``__init__``, takes its vertex from the diagram's
  origin vertices, whose lookup is also the label check;
* ``rd_oracle`` walks the omega orbit of the vertex on ZD and stops at its
  first self-extension degree: the first omega-translate that meets the
  hammock of the base vertex modulo the admissible group.  The walk ends by
  the omega period, since the base vertex lies in its own hammock; aimed at
  the vertex alone, the same capped walk gives ``omega_period``.  omega^2
  fixes every label, so the walk reaches at most two; for each, it builds
  once per call the set of x residues mod period, placed at the base's x,
  at which a vertex of that label meets the target, reading only the target
  cells of its s orbit offsets.  Each step is one ``omega`` call, a table
  lookup that fills the slots of a bare ``Vertex``, and one set test of its
  x mod period.

Agreement of the two over full parameter sweeps is the package's central
acceptance property; ``sweep_types`` names the sweeps and ``agreement``
compares the engines over them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator

from .euclid import EuclidData, weight_sequence
from .quiver import AlgebraType, Label, Vertex, _diagram, _object_new, _orbit_offsets, omega

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


@dataclass(frozen=True, slots=True, init=False)
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

# Branch strings, each formatted once per process, keyed on a staircase row's
# (prefix, kind, l, sym) or a type-E cell's (rank, s, t, u mod h*, block).
_BRANCHES: dict[tuple, str] = {}


class _Staircase:
    """The closed form of one type of family A, or of family D with twist order 1 or 2.

    Its labels read the rows of the type's one division (m_pair, n_pair):
    open intervals (s_{l+1}, s_l) for even l or l == length give
    scale*Fb_l - 1; closed intervals [s_{l+1}, s_l] for odd l < length give
    scale*Fb_l; t == s_length with odd length gives scale*(Fb_length -
    Fb_{length-1}); t >= n_pair belongs to the degree-zero fringe.  A label
    is placed among the remainders by ``bisect``.  Its result depends only
    on the interval and on whether t is the interval's remainder, so each
    such cell keeps its ``(rd, branch)`` once a label first lands in it, and
    is shared by every later one; the cell formats nothing, its branch comes
    from ``_BRANCHES``.  A label t with 2t > ``mirror`` reads the row of
    mirror - t, in a cell of its own marked ``+sym`` (type A, mirror m; type
    D passes 0).  Both D fork tips read one ``spine`` cell.
    """

    __slots__ = ("data", "scale", "prefix", "mirror", "s", "ends", "cells", "spine")

    def __init__(
        self, m_pair: int, n_pair: int, scale: int, prefix: str, mirror: int, s: int
    ) -> None:
        self.data = data = weight_sequence(m_pair, n_pair)
        self.scale, self.prefix, self.mirror, self.s = scale, prefix, mirror, s
        self.ends = data.s[::-1] + (n_pair,)  # ascending: ends[i] is s_{L+1-i} for i <= L
        self.cells = [None] * (4 * len(self.ends))
        self.spine = None

    def lookup(self, t: Label) -> tuple[int, str]:
        """(rd, branch) of the vertex (0, t); t must be a label of the type."""
        if type(t) is str:
            if self.spine is None:
                self.spine = _rd_closed_d_spine(self.data, self.s)
            return self.spine
        sym = 0 < self.mirror < 2 * t
        if sym:
            t = self.mirror - t
        ends = self.ends
        i = bisect_right(ends, t) - 1
        on = ends[i] == t
        cell = self.cells[4 * i + 2 * on + sym]
        if cell is not None:
            return cell
        # the row s_{j+1} <= t < s_j, with j == -1 the fringe; t == s_{j+1} with
        # j even closes the interval of l = j + 1, the last one a tail
        fb, L, j = self.data.fb, len(ends) - 2, len(ends) - 2 - i  # fb[l + 1] is Fb_l
        l = j + (on and j % 2 == 0)
        if j < 0:
            rd, kind, l = 0, "zero", -1
        elif l % 2 and l < L:
            rd, kind = self.scale * fb[l + 1], "closed"
        elif l > j:
            rd, kind, l = self.scale * (fb[L + 1] - fb[L]), "tail", L
        else:
            rd, kind, l = self.scale * fb[j + 1] - 1, "open", j
        key = (self.prefix, kind, l, sym)
        branch = _BRANCHES.get(key)
        if branch is None:
            branch = _BRANCHES[key] = f"{self.prefix}{kind}(l={l})" + ("+sym" if sym else "")
        cell = self.cells[4 * i + 2 * on + sym] = (rd, branch)
        return cell


def _rd_closed_d_spine(data: EuclidData, s: int) -> tuple[int, str]:
    """Either fork tip of type D, from the division (m, n) of its chain labels."""
    m, n = data.m, data.n
    if m >= n:
        return 0, "D:spine(m>=n)"
    fb1 = data.fb_at(1)
    parity = (fb1 + n + s) % 2
    if n % m == 0:
        rd = fb1 - 1 if parity == 1 else 2 * fb1 - 1
        return rd, f"D:spine(div,par={parity})"
    rd = fb1 if parity == 0 else fb1 + data.fb_at(2)
    return rd, f"D:spine(nondiv,par={parity})"


def _rd_closed_d4_triality(fb1: int, u: int, t: Label) -> tuple[int, str]:
    """D4 with twist order 3, from Fb_1 of the division (3, n)."""
    res = u % 3
    if t == 2:
        if res == 0:
            return fb1 - 1, "D4:t=2(div)"
        return fb1, "D4:t=2(nondiv)"
    rd = (3 * fb1 - 1, fb1, 2 * fb1)[res]
    return rd, f"D4:outer(u%3={res})"


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


def _rd_closed_e(rank: int, s: int, u: int, data: EuclidData, t: int) -> tuple[int, str]:
    """Type E, from the division ``data`` of (h*, n)."""
    h_star = data.m
    res = u % h_star  # the E6, E7 and E8 tables key on u mod h* = 6, 9, 15
    block = ""
    if rank > 6:
        row = t if t in (1, 2, rank - 1, rank) else 3
        coeffs = (_E7_ROWS if rank == 7 else _E8_ROWS)[row][res]
    elif t in (3, 6):
        coeffs = _E6_SHARED_ROWS[t][res]
    else:
        block = "A" if (u // 6) % 2 == (0 if s == 1 else 1) else "B"
        table = _E6_BLOCK_A if block == "A" else _E6_BLOCK_B
        coeffs = table[1 if t in (1, 5) else 2][res]
    key = (rank, s, t, res, block)
    branch = _BRANCHES.get(key)
    if branch is None:
        branch = f"E{rank}:t={t},u%{h_star}={res}" if rank > 6 else f"E6.s{s}:t={t},u%6={res}"
        branch = _BRANCHES[key] = branch + (f",blk={block}" if block else "")
    rd = coeffs[0]
    for i in (1, 2, 3):
        if coeffs[i]:
            rd += coeffs[i] * data.fb_at(i)
    return rd, branch


# maxsize=1: callers evaluate the labels of one type in a row.  Keyed on plain values, which
# hash and compare in C, where an AlgebraType key would run its Python __hash__ and __eq__.
@lru_cache(maxsize=1)
def _closed_plan(family: str, rank: int, s: int, n: int) -> Callable[[Label], tuple[int, str]]:
    """The closed form of one type: its lookup t -> (rd, branch).

    Building it makes the type's one Euclidean division; D4 with twist order 3
    and type E are evaluated per call from the part of it they read.
    """
    m = rank + 1  # type A
    if family == "A" and s == 1:
        lookup = _Staircase(m, n, 2, "A.s1:", m, s).lookup
    elif family == "A":
        shift = n - m // 2  # exponent of the tau^shift.omega generator
        lookup = _Staircase(shift + m, 2 * shift + m, 1, "A.s2:", m, s).lookup
    elif family == "D" and s < 3:
        lookup = _Staircase(rank - 1, n, 1, "D:", 0, s).lookup
    else:
        diagram = _diagram(family, rank)
        u = n // diagram.m_delta  # integral for D4 with twist order 3 and for type E
        if family == "D":
            lookup = partial(_rd_closed_d4_triality, weight_sequence(3, n).fb_at(1), u)
        else:
            lookup = partial(_rd_closed_e, rank, s, u, weight_sequence(diagram.h_star, n))
    return lookup


def rd_closed(atype: AlgebraType, t) -> RigidityReport:
    """Closed-form rigidity degree of the vertex (0, t).

    Reads the plan of ``atype``, memoised for the last type: a label is
    checked by its lookup in the diagram's origin vertices, and on a miss
    ``Diagram.check_label`` raises.  A ``Vertex`` is frozen, so reports share them.
    The report is a bare ``RigidityReport`` whose slots are set as ``__init__`` sets them.
    """
    diagram = atype.diagram
    lookup = _closed_plan(diagram.family, diagram.rank, atype.s, atype.n)
    vertex = diagram.origins.get(t) if type(t) in (int, str) else None
    if vertex is None:
        diagram.check_label(t)
    rd, branch = lookup(t)
    report = _object_new(RigidityReport)
    _set_report_atype(report, atype)
    _set_report_vertex(report, vertex)
    _set_report_rd(report, rd)
    _set_report_branch(report, branch)
    _set_report_witness(report, None)
    return report


def _omega_walk(
    atype: AlgebraType, v: Vertex, column: Callable[[Label], tuple[int, ...]], bound: int
) -> Iterator[int]:
    """Yield each i in [1, bound] at which the i-th omega shift of v meets the target.

    The target is read cell by cell and placed at v: it holds the vertices
    (v.x + dx, c) with dx in ``column(c)``, as ``Diagram.hammock_column`` gives
    them for the hammock of v.  Degree i is a hit when some group translate of w,
    the i-th omega shift of v, lands in the target.  The orbit of w is the
    translates by period-multiples of (w.x + ox, c) over the orbit offsets
    of w.t, so that holds exactly when w.x mod period is some v.x + dx - ox
    with dx in ``column(c)``: the residues are placed at v, and a step tests
    w.x alone.  They are kept per label reached and built on the first step
    that reaches it, from s cells; omega^2 fixes every label, so a walk
    reads at most 2s.  Each step is one call of ``omega``, looked up as the
    module global, so a patched or traced ``omega`` sees every degree.
    Callers check the label of v before they aim at it.
    """
    diagram = atype.diagram
    period = atype.period
    offsets = _orbit_offsets(diagram.family, diagram.rank, atype.s, atype.n)
    residue_sets: dict[Label, frozenset[int]] = {}
    w, x0 = v, v.x
    for i in range(1, bound + 1):
        w = omega(diagram, w)
        residues = residue_sets.get(w.t)
        if residues is None:
            residues = residue_sets[w.t] = frozenset(
                (x0 + dx - ox) % period for c, ox in offsets[w.t] for dx in column(c)
            )
        if w.x % period in residues:
            yield i


def _first_hit(
    atype: AlgebraType, v: Vertex, column: Callable[[Label], tuple[int, ...]], failure: str
) -> int:
    """First hit of ``_omega_walk``; past a step cap, ``RuntimeError`` of ``failure.format(v)``."""
    cap = 4 * atype.s * atype.n * atype.diagram.h
    for i in _omega_walk(atype, v, column, cap):
        return i
    raise RuntimeError(f"{failure.format(v)} within {cap} steps")


def se_oracle(atype: AlgebraType, v: Vertex, horizon: int) -> tuple[int, ...]:
    """Self-extension degrees in [1, horizon], by direct enumeration on ZD."""
    if type(horizon) is not int:
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    diagram = atype.diagram
    diagram.check_vertex(v)
    return tuple(_omega_walk(atype, v, partial(diagram.hammock_column, v.t), horizon))


def omega_period(atype: AlgebraType, v: Vertex) -> int:
    """Smallest p >= 1 with omega^p(v) in the orbit of v: the walk's first return to v."""
    atype.diagram.check_vertex(v)
    return _first_hit(atype, v, lambda c: (0,) if c == v.t else (), "omega orbit of {} did not close")


def rd_oracle(atype: AlgebraType, v: Vertex) -> RigidityReport:
    """Brute-force rigidity degree: walk omega from v to its first self-extension.

    The rigidity degree counts the consecutive vanishing self-extensions, so
    it is one less than the first self-extension degree.  That degree is at
    most the omega period of v, because v lies in its own hammock; a walk
    past the cap of ``_first_hit`` raises ``RuntimeError``.
    """
    diagram = atype.diagram
    diagram.check_vertex(v)
    column = partial(diagram.hammock_column, v.t)
    i = _first_hit(atype, v, column, "omega walk of {} met no self-extension")
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
            oracle = rd_oracle(atype, atype.diagram.origins[t])
            checked += 1
            if closed.rd != oracle.rd:
                mismatches.append(
                    f"{atype.describe()} t={t}: closed={closed.rd} oracle={oracle.rd}"
                )
    return checked, mismatches
