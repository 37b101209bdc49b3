"""Geometry of the translation quiver ZD for Dynkin diagrams A, D, E.

Vertices, the translation tau, the syzygy automorphism omega, the finite
twist phi, membership in and reduction modulo the admissible group
<tau^n phi> (``orbit_residues``, ``orbit_offsets``), the hammock supports
of the stable Hom functor, knitted on the mesh and returned as frozensets
of vertices, and one DOT writer for hammocks and orbit quivers.

A diagram's geometry has one home: its ``Diagram``, which holds every table as
an attribute.  Validation sets its structure (its labels placed sinks first in
one Kahn pass), the omega and phi step tables, the origin vertices and the
phase table; the knitted hammocks are built on the first hammock read and held
beside them.  ``omega`` and ``phi`` index the step tables.  Every backward
hammock is knitted in one pass on byte lanes by ``_knit_lanes``.  The lanes are
read one cell at a time (``Diagram.hammock_column``) for the oracle and
``hammock_minus``, transposed for the certificate (``hammock_incidence``) and
as forward hammocks for ``hammock_plus``.  Only the orbit offsets depend on the
type; they are memoised for the last type.  An algebra type is the triple
(diagram, s, n), with u = n / m_delta derived, on one interned ``Diagram`` per
(family, rank), validated once; its ``__init__`` fills its slots and validates
the triple, and ``create`` parses only a str u.
Vertices are checked where they enter, by ``Diagram.check_vertex`` (labels by
``Diagram.check_label``), not on every step.

Coordinates: a vertex is a pair ``(x, t)`` with integer slice coordinate x
and Dynkin label t; tau shifts x by +1 and arrows point towards smaller x.
For type D the two fork tips carry the symbolic labels ``"m+"``/``"m-"``
so that sign bookkeeping mistakes surface as type errors instead of silent
integer arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import chain, compress, count
from operator import or_
from typing import Union

__all__ = [
    "SPINE_MINUS",
    "SPINE_PLUS",
    "AlgebraType",
    "Diagram",
    "Vertex",
    "group_generator",
    "group_member",
    "hammock_dot",
    "hammock_incidence",
    "hammock_minus",
    "hammock_plus",
    "omega",
    "orbit_offsets",
    "orbit_quiver_dot",
    "orbit_reps",
    "orbit_residues",
    "phi",
    "tau",
]

SPINE_PLUS = "m+"
SPINE_MINUS = "m-"

Label = Union[int, str]

_E_H_STAR = {6: 6, 7: 9, 8: 15}
_SPINE_FLIP: dict[Label, Label] = {SPINE_PLUS: SPINE_MINUS, SPINE_MINUS: SPINE_PLUS}
# u spelled in full in ASCII digits: a natural number or a fraction with a nonzero denominator
_U_PATTERN = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")


def _label_key(t: Label) -> tuple[int, int]:
    if isinstance(t, int):
        return (0, t)
    return (1, 0 if t == SPINE_PLUS else 1)


@dataclass(frozen=True, slots=True, init=False)
class Vertex:
    """A vertex (x, t) of ZD: slice coordinate x, Dynkin label t.

    ``__init__`` is written out, storing each field through its slot
    descriptor: the generated frozen ``__init__`` makes one
    ``object.__setattr__`` call per field.  ``omega``, which builds a vertex
    on every oracle step, skips even this: it fills the two slots of a bare
    instance through the same descriptors, so its vertices are ordinary ones.
    """

    x: int
    t: Label

    def __init__(self, x: int, t: Label) -> None:
        _set_vertex_x(self, x)
        _set_vertex_t(self, t)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.x, *_label_key(self.t))

    def __str__(self) -> str:
        return f"({self.x},{self.t})"


_set_vertex_x = Vertex.x.__set__
_set_vertex_t = Vertex.t.__set__
_object_new = object.__new__  # bound once: a step skips the lookup of object and its __new__


@dataclass(frozen=True)
class Diagram:
    """A Dynkin diagram A_r (r>=1), D_r (r>=4) or E_r (r in 6..8), with its geometry.

    Validation also sets the diagram's tables as plain attributes, not
    fields, so ``==``, ``hash`` and ``repr`` read the family and rank alone:

    * ``labels``, in the order of ``Vertex.sort_key``;
    * ``ins`` and ``outs``, label -> its in- and out-neighbours under a fixed
      orientation, and ``knit_plan``, the mesh recurrence on label indices;
    * ``omega_steps``, label t -> (dx, t') with omega(x, t) = (x + dx, t'),
      its keys the labels ``check_label`` accepts, and ``phi_steps``, twist
      order s -> the same table for phi;
    * ``origins``, label t -> the vertex (0, t);
    * ``h``, the Coxeter number; ``h_star``, h for type A and half of it for
      D and E; and ``m_delta = h - 1``.  ``h`` and ``omega_steps`` make the
      phase table: omega^2 fixes every label and moves x by h.

    The knitted hammocks are held beside them, built on the first hammock
    read: ``lanes`` (``_knit_lanes``), ``columns`` (``hammock_column`` per
    cell) and ``incidence`` (``hammock_incidence``).  Every caller shares the
    tables; never mutate them.
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unknown diagram family {self.family!r}")
        if type(self.rank) is not int:
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        if self.family == "A" and self.rank < 1:
            raise ValueError(f"type A needs rank >= 1, got {self.rank}")
        if self.family == "D" and self.rank < 4:
            raise ValueError(f"type D needs rank >= 4, got {self.rank}")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError(f"type E needs rank 6, 7 or 8, got {self.rank}")
        family, rank = self.family, self.rank
        labels, ins, outs, plan = _structure(family, rank)
        steps = _omega_steps(family, rank, labels)
        h_star = rank + 1 if family == "A" else rank - 1 if family == "D" else _E_H_STAR[rank]
        h = h_star if family == "A" else 2 * h_star
        # object.__setattr__ in one fixed order keeps the tables in the instance's inline
        # values, which a load reads fastest; a __dict__ read or update would make every
        # load go through a dict.  The hammock tables come first, empty until first read.
        tables = (
            ("lanes", None), ("incidence", None), ("columns", {}),
            ("labels", labels), ("ins", ins), ("outs", outs), ("knit_plan", plan),
            ("omega_steps", steps),
            ("phi_steps", _phi_steps(family, rank, labels, steps)),
            ("origins", {t: Vertex(0, t) for t in labels}),
            ("h", h), ("h_star", h_star), ("m_delta", h - 1),
        )
        for name, table in tables:
            object.__setattr__(self, name, table)

    def __reduce__(self):  # copies are the interned diagram: no second knitting, no __dict__
        return _diagram, (self.family, self.rank)

    def check_label(self, t: Label) -> None:
        """Raise ``ValueError`` unless t is one of the labels, by type and value.

        A bool or a float equal to an integer label is rejected, as is a
        spine string outside type D.
        """
        if type(t) not in (int, str) or t not in self.omega_steps:
            raise ValueError(f"label {t!r} is not a vertex of {self.family}{self.rank}")

    def check_vertex(self, v: Vertex) -> None:
        """Raise ``ValueError`` unless v's label passes ``check_label`` and its x is an int."""
        self.check_label(v.t)
        if type(v.x) is not int:
            raise ValueError(f"slice coordinate must be an integer, got {v.x!r}")

    def hammock_column(self, t: Label, c: Label) -> tuple[int, ...]:
        """The dx, ascending, with (dx, c) in the backward hammock of (0, t).

        Lane t of cell c of the knitted lanes, read once and held in
        ``columns``; callers check t and c.
        """
        column = self.columns.get((t, c))
        if column is None:
            labels = self.labels
            lane = (self.lanes or _knit_lanes(self))[labels.index(c)][labels.index(t)::len(labels)]
            column = self.columns[t, c] = tuple(compress(count(), lane))
        return column


_interned = lru_cache(maxsize=None)(Diagram)  # exact types only: True and 6.0 hash like 1 and 6


def _diagram(family: str, rank: int) -> Diagram:
    return (_interned if type(family) is str and type(rank) is int else Diagram)(family, rank)


def _structure(family: str, rank: int):
    """Labels, a fixed edge orientation pinning the coordinates of ZD, and its knit plan.

    The orientation is the one under which the automorphism formulas below
    hold verbatim: chains point towards label 1, and the D fork and the E
    branch vertex are fed from their chain neighbours.  The knit plan is the
    mesh recurrence on label indices: one (c, ins, outs) per label, sinks first.
    """
    if family == "A":
        labels: tuple[Label, ...] = tuple(range(1, rank + 1))
        arrows = tuple((t, t - 1) for t in range(2, rank + 1))
    elif family == "D":
        m = rank - 1
        labels = tuple(range(1, m)) + (SPINE_PLUS, SPINE_MINUS)
        arrows = tuple((t, t - 1) for t in range(2, m)) + (
            (m - 1, SPINE_PLUS),
            (m - 1, SPINE_MINUS),
        )
    elif rank == 6:
        labels = tuple(range(1, 7))
        arrows = ((2, 1), (3, 2), (4, 3), (5, 4), (6, 3))
    else:
        branch = 4 if rank == 7 else 5
        labels = tuple(range(1, rank + 1))
        arrows = tuple((t, t - 1) for t in range(2, rank)) + ((rank, branch),)
    ins: dict[Label, tuple[Label, ...]] = {c: () for c in labels}
    outs: dict[Label, tuple[Label, ...]] = {c: () for c in labels}
    for a, b in arrows:
        ins[b] += (a,)
        outs[a] += (b,)
    index = dict(zip(labels, count()))
    ins_at, outs_at = ([tuple([index[b] for b in ends[c]]) for c in labels] for ends in (ins, outs))
    # sinks first (out-neighbours before their source) in one Kahn pass, smallest ready index first
    pending = [len(b) for b in outs_at]
    ready = [c for c, p in enumerate(pending) if not p]  # ascending, so already a heap
    plan = []
    while ready:
        c = heappop(ready)
        plan.append((c, ins_at[c], outs_at[c]))
        for a in ins_at[c]:
            pending[a] -= 1
            if not pending[a]:
                heappush(ready, a)
    return labels, ins, outs, tuple(plan)


def tau(v: Vertex, steps: int = 1) -> Vertex:
    """The translation, ``(x, t) -> (x + steps, t)``."""
    return Vertex(v.x + steps, v.t)


def _omega_steps(family: str, rank: int, labels: tuple) -> dict[Label, tuple[int, Label]]:
    """omega as a table: label t -> (dx, t') with omega(x, t) = (x + dx, t')."""
    if family == "A":
        return {t: (t, rank + 1 - t) for t in labels}
    if family == "D":  # the fork tips swap when m = rank - 1 is even
        m = rank - 1
        return {t: (m, _SPINE_FLIP.get(t, t) if m % 2 == 0 else t) for t in labels}
    if rank == 6:
        return {t: (6, 6) if t == 6 else (t + 3, 6 - t) for t in labels}
    return {t: (_E_H_STAR[rank], t) for t in labels}


def omega(diagram: Diagram, v: Vertex) -> Vertex:
    """The syzygy automorphism of ZD in the fixed coordinates, one index of ``omega_steps``.

    The table is the diagram's own.  A label outside it raises through
    ``Diagram.check_label``; a bool or a float equal to a label is not checked.
    The image is built as ``object.__new__(Vertex)`` with its two slots set
    through the slot descriptors, with no ``type.__call__`` and no Python
    ``__init__`` frame: the oracle walk makes one call per degree.
    """
    try:
        dx, t = diagram.omega_steps[v.t]
    except (KeyError, TypeError):  # not a label, or unhashable: check_label raises
        diagram.check_label(v.t)
        raise
    w = _object_new(Vertex)
    _set_vertex_x(w, v.x + dx)
    _set_vertex_t(w, t)
    return w


@dataclass(frozen=True, slots=True, init=False)
class AlgebraType:
    """A validated triple (diagram, twist order s, tau-exponent n).

    The admissible group is generated by ``tau^n . phi`` where phi is the order-s
    twist.  The frequency ``u = n / m_delta`` is derived from n, an exact rational
    because several closed forms key on residues of u.  ``__init__`` is written out,
    like ``Vertex``'s: it stores each field through its slot descriptor, then
    validates.  ``create`` reads ``as_integer_ratio()`` of an int or ``Fraction``
    u as given, and parses a str u only.
    """

    diagram: Diagram
    s: int
    n: int

    def __init__(self, diagram: Diagram, s: int, n: int) -> None:
        _set_type_diagram(self, diagram)
        _set_type_s(self, s)
        _set_type_n(self, n)
        fam, rank = diagram.family, diagram.rank
        if type(s) is not int or s not in (1, 2, 3):
            raise ValueError(f"twist order must be 1, 2 or 3, got {s!r}")
        if type(n) is not int:
            raise ValueError(f"tau-exponent must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"u must be positive, got {self.u}")
        m = diagram.m_delta
        den = m // math.gcd(n, m)  # of u = n / m_delta in lowest terms
        integral = den == 1
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
                if den != 3 or rank % 3 != 0 or rank < 6:
                    raise ValueError(
                        f"fractional type D parameters need u = v/3 with 3 not "
                        f"dividing v and rank a multiple of 3 >= 6, got "
                        f"u={self.u}, rank={rank}"
                    )
        else:
            if s == 2 and rank != 6:
                raise ValueError("twist order 2 in type E happens for E6 only")
            if s == 3:
                raise ValueError("type E admits twist orders 1 and 2 only")
            if not integral:
                raise ValueError("type E needs integral u")

    @classmethod
    def create(cls, family: str, rank: int, u: Fraction | int | str, s: int = 1) -> "AlgebraType":
        """The type of u = n / m_delta on the interned diagram."""
        diagram = _diagram(family, rank)
        if type(u) is str:
            if not _U_PATTERN.fullmatch(u.removeprefix("-")):  # -1 meets u > 0
                raise ValueError(f"u must be an exact rational like '17/8', got {u!r}")
            u = Fraction(u)
        elif type(u) is not int and type(u) is not Fraction:
            raise ValueError(f"u must be a Fraction, an int or a str, got {u!r}")
        num, den = u.as_integer_ratio()
        n, rest = divmod(num * diagram.m_delta, den)
        if rest:  # an int prints as the Fraction it equals
            raise ValueError(f"u={u} gives non-integral tau-exponent for {family}{rank}")
        return cls(diagram, s, n)

    @classmethod
    def from_shift(cls, family: str, rank: int, n: int, s: int = 1) -> "AlgebraType":
        """Expert constructor from the raw tau-exponent of the group generator."""
        return cls(_diagram(family, rank), s, n)

    @property
    def u(self) -> Fraction:
        """The frequency ``n / m_delta``."""
        return Fraction(self.n, self.diagram.m_delta)

    @property
    def period(self) -> int:
        """x-shift of the s-th power of the group generator, a pure translation."""
        return self.s * self.n

    def describe(self) -> str:
        return f"({self.diagram.family}{self.diagram.rank}, {self.u}, {self.s})"


_set_type_diagram, _set_type_s, _set_type_n = (
    AlgebraType.diagram.__set__, AlgebraType.s.__set__, AlgebraType.n.__set__)


def _phi_steps(family: str, rank: int, labels: tuple, omega_steps: dict) -> dict[int, dict]:
    """phi as tables like ``omega_steps``, one per twist order s a type on the diagram admits."""
    tables: dict[int, dict[Label, tuple[int, Label]]] = {1: {t: (0, t) for t in labels}}
    if family == "A" and rank % 2 and rank > 1:
        m = rank + 1
        tables[2] = {t: (t - m // 2, m - t) for t in labels}
    elif family == "D":
        tables[2] = {t: (0, _SPINE_FLIP.get(t, t)) for t in labels}
        if rank == 4:
            cycle: dict[Label, Label] = {1: SPINE_MINUS, SPINE_MINUS: SPINE_PLUS, SPINE_PLUS: 1}
            tables[3] = {t: (0, cycle.get(t, t)) for t in labels}
    elif family == "E" and rank == 6:  # s == 2: tau^-6 . omega
        tables[2] = {t: (dx - 6, image) for t, (dx, image) in omega_steps.items()}
    return tables


def phi(atype: AlgebraType, v: Vertex) -> Vertex:
    """The finite twist entering the group generator; identity when s == 1."""
    diagram = atype.diagram
    diagram.check_vertex(v)
    dx, t = diagram.phi_steps[atype.s][v.t]
    return Vertex(v.x + dx, t)


def group_generator(atype: AlgebraType, v: Vertex) -> Vertex:
    """Apply the generator ``tau^n . phi`` of the admissible group once."""
    w = phi(atype, v)
    return Vertex(w.x + atype.n, w.t)


def orbit_reps(atype: AlgebraType, v: Vertex) -> tuple[Vertex, ...]:
    """Orbit representatives: the orbit of v is their translates by period-multiples."""
    atype.diagram.check_vertex(v)
    return tuple(Vertex(v.x + dx, t) for t, dx in orbit_offsets(atype)[v.t])


def orbit_residues(atype: AlgebraType, v: Vertex) -> frozenset[tuple[Label, int]]:
    """The orbit of v modulo the group: its pairs (t, x mod period).

    w lies in the orbit of v exactly when (w.t, w.x mod period) is one of them.
    """
    period = atype.period
    return frozenset((rep.t, rep.x % period) for rep in orbit_reps(atype, v))


def orbit_offsets(atype: AlgebraType) -> dict[Label, tuple[tuple[Label, int], ...]]:
    """``_orbit_offsets`` of the type; shared by every caller, so never mutate it."""
    diagram = atype.diagram
    return _orbit_offsets(diagram.family, diagram.rank, atype.s, atype.n)


# maxsize=1: callers go through one type's labels in a row; plain keys hash in C
@lru_cache(maxsize=1)
def _orbit_offsets(family: str, rank: int, s: int, n: int) -> dict:
    """The orbit representatives of (0, t) for every label t, as pairs (t', dx).

    Powers 0..s-1 of ``tau^n . phi``, composed on the phi table: each adds n
    to the phi step of the label reached.  As phi commutes with tau, the
    orbit of (x, t) is the translates by period-multiples of the vertices
    (x + dx, t').  Shared by the oracle walk and the certificate; never mutate it.
    """
    diagram = _diagram(family, rank)
    steps = diagram.phi_steps[s]
    offsets = {}
    for t in diagram.labels:
        orbit = [(t, 0)]
        for _ in range(s - 1):
            dx, c = steps[orbit[-1][0]]
            orbit.append((c, orbit[-1][1] + dx + n))
        offsets[t] = tuple(orbit)
    return offsets


def group_member(atype: AlgebraType, v: Vertex, w: Vertex) -> bool:
    """Whether w lies in the orbit of v under the admissible group.

    Applies ``group_generator`` and reads no orbit table: the tests' reference for them.
    """
    for u in (v, w):
        atype.diagram.check_vertex(u)
    period = atype.period
    reps = [v]
    for _ in range(atype.s - 1):
        reps.append(group_generator(atype, reps[-1]))
    return any(rep.t == w.t and (w.x - rep.x) % period == 0 for rep in reps)


def _knit_lanes(diagram: Diagram) -> tuple[bytes, ...]:
    """Knit the backward hammock at (0, t) of every label t in one pass, one byte lane per t.

    Each cell is one int; its byte k is the cell's multiplicity in the hammock
    based at ``labels[k]``.  Slice 0 holds the bases: lane k is the indicator
    of the labels with a path to ``labels[k]``.  Slice i, at x-offset +i, is
    filled in ``knit_plan`` order by ``-cur[c] + sum(cur[ins]) + sum(nxt[outs])``,
    kept only when positive.  Every lane carries a bias of 64, so "positive"
    is bit 7 of the lane plus 63.  Multiplicities are at most 6 and a cell has
    at most 3 neighbours, so a biased lane stays in 58..82 and never carries;
    the first multiplicity of 8 or more is still exact, and the final guard
    raises on it.  A slice cap traps a knitting that does not die out.  Returns,
    per label index c, cell c of every slice as bytes: byte ``i * n + k`` is
    lane k of slice i.  As Hom((i, c), (0, labels[k])) = Hom((0, c), (-i, labels[k])),
    these bytes are also the forward hammock of (0, labels[c]); nothing knits forward.
    Runs on the diagram's first hammock read, and holds the lanes as ``diagram.lanes``.
    """
    plan, name = diagram.knit_plan, f"{diagram.family}{diagram.rank}"
    n = len(plan)
    ones = int.from_bytes(b"\x01" * n, "little")
    bias, round_up = ones << 6, 63 * ones
    cur = [0] * n
    for c, _, outs in plan:  # c reaches itself and all that its plan out-neighbours reach
        cur[c] = reduce(or_, (cur[b] for b in outs), 1 << 8 * c)
    slices = [cur]
    for _ in range(4 * diagram.m_delta + 8):
        nxt = [0] * n
        for c, ins, outs in plan:
            total = bias - cur[c]
            for a in ins:
                total += cur[a]
            for b in outs:
                total += nxt[b]
            keep = (total + round_up) >> 7 & ones
            nxt[c] = (total & keep * 255) - (keep << 6)
        if not any(nxt):
            break
        slices.append(nxt)
        cur = nxt
    else:
        raise RuntimeError(f"knitting on {name} did not terminate")
    if reduce(or_, chain.from_iterable(slices)) & 0xF8 * ones:
        raise RuntimeError(f"knitting on {name} overflowed its byte lanes")
    lanes = tuple(b"".join(s[c].to_bytes(n, "little") for s in slices) for c in range(n))
    object.__setattr__(diagram, "lanes", lanes)
    return lanes


def hammock_incidence(diagram: Diagram) -> dict[Label, int]:
    """Transposed backward hammocks: label c -> an int with bit dx.n + k set
    when (dx, c) is in H-(0, labels[k]), n the number of labels.

    Cell c of the knitted lanes, each byte made one bit in place (nonzero: 1),
    built on the first read and held as ``diagram.incidence``; never mutate it.
    """
    incidence = diagram.incidence
    if incidence is None:
        incidence = {c: int(m.translate(b"0" + b"1" * 255)[::-1], 2)
                     for c, m in zip(diagram.labels, diagram.lanes or _knit_lanes(diagram))}
        object.__setattr__(diagram, "incidence", incidence)
    return incidence


def hammock_minus(diagram: Diagram, v: Vertex) -> frozenset[Vertex]:
    """Support of stable Hom(-, v), read cell by cell from ``Diagram.hammock_column``."""
    diagram.check_vertex(v)
    return frozenset(Vertex(v.x + dx, c) for c in diagram.labels
                     for dx in diagram.hammock_column(v.t, c))


def hammock_plus(diagram: Diagram, v: Vertex) -> frozenset[Vertex]:
    """Support of stable Hom(v, -): cell v.t of the knitted lanes, read as its forward hammock."""
    diagram.check_vertex(v)
    labels = diagram.labels
    n = len(labels)
    row = (diagram.lanes or _knit_lanes(diagram))[labels.index(v.t)]
    return frozenset(Vertex(v.x - j // n, labels[j % n]) for j in compress(count(), row))


# ---------------------------------------------------------------------------
# DOT rendering


def _node_id(v: Vertex) -> str:
    t = {SPINE_PLUS: "p", SPINE_MINUS: "m"}.get(v.t, v.t)
    return f"{v.x}_{t}"


def _mesh_successors(diagram: Diagram, v: Vertex) -> list[Vertex]:
    succ = [Vertex(v.x, b) for b in diagram.outs[v.t]]
    succ += [Vertex(v.x - 1, a) for a in diagram.ins[v.t]]
    return succ


def _dot(name: str, nodes: list[Vertex], edges, filled, ringed: Vertex | None = None) -> str:
    """DOT digraph of ``nodes`` then ``edges``; ``filled`` filled, ``ringed`` double-circled."""
    lines = [f"digraph {name} {{", "  rankdir=RL;"]
    for v in nodes:
        attrs = [f'label="{v}"']
        if v == ringed:
            attrs.append("shape=doublecircle")
        if v in filled:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgray")
        lines.append(f'  "{_node_id(v)}" [{", ".join(attrs)}];')
    lines += [f'  "{_node_id(v)}" -> "{_node_id(w)}";' for v, w in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def hammock_dot(diagram: Diagram, base: Vertex, members: frozenset[Vertex]) -> str:
    """Render the slices spanned by the hammock ``members`` of ``base`` as a DOT digraph.

    Every vertex of the covered window becomes a node; hammock members are
    filled, the base vertex is double-circled.  The base and every member
    pass ``Diagram.check_vertex``.
    """
    for v in (base, *members):
        diagram.check_vertex(v)
    xs = [v.x for v in members] + [base.x]
    lo, hi = min(xs), max(xs)
    window = [Vertex(x, t) for x in range(lo, hi + 1) for t in diagram.labels]
    inside = set(window)
    edges = [(v, w) for v in window for w in _mesh_successors(diagram, v) if w in inside]
    return _dot("hammock", window, edges, members, base)


def canonical_rep(atype: AlgebraType, v: Vertex) -> Vertex:
    """Smallest representative of the orbit of v inside x in [0, period)."""
    return min((Vertex(x, t) for t, x in orbit_residues(atype, v)), key=Vertex.sort_key)


def orbit_quiver_dot(atype: AlgebraType, highlight: Vertex | None = None) -> str:
    """Render the orbit quiver ZD/G as a DOT digraph, one node per orbit."""
    diagram = atype.diagram
    if highlight is not None:
        diagram.check_vertex(highlight)
    nodes = sorted(
        {
            canonical_rep(atype, Vertex(x, t))
            for x in range(atype.period)
            for t in diagram.labels
        },
        key=Vertex.sort_key,
    )
    marked = (canonical_rep(atype, highlight),) if highlight is not None else ()
    edges = {(v, canonical_rep(atype, w)) for v in nodes for w in _mesh_successors(diagram, v)}
    ordered = sorted(edges, key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    return _dot("orbit_quiver", nodes, ordered, marked)
