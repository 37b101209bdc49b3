"""Geometry of the translation quiver ZD for Dynkin diagrams A, D, E.

Vertices, the translation tau, the syzygy automorphism omega, the finite
twist phi, membership in and reduction modulo the admissible group
<tau^n phi> (``orbit_residues``, ``orbit_offsets``), the hammock supports
of the stable Hom functor, knitted on the mesh and returned as frozensets
of vertices, and one DOT writer for hammocks and orbit quivers.

Each diagram's integer geometry is cached per diagram, never per algebra
type: the omega and phi step tables, which ``omega`` and ``phi`` index, and
every backward hammock, knitted in one pass on byte lanes by ``_knit_lanes``,
which holds that cache.  The lanes are read by label for the oracle and
``hammock_minus`` (``hammock_columns``), by cell for the certificate
(``hammock_incidence``) and by cell as forward hammocks for ``hammock_plus``,
since z lies in H+(v) exactly when v lies in H-(z).  Only ``orbit_offsets``
depends on the type, composed on the phi table; it keeps the last type alone.
Labels are checked where they enter, by ``Diagram.check_label``, not on
every step; the hammock caches key on the label's type too, so a bool or
float equal to a label meets that check.

Coordinates: a vertex is a pair ``(x, t)`` with integer slice coordinate x
and Dynkin label t; tau shifts x by +1 and arrows point towards smaller x.
For type D the two fork tips carry the symbolic labels ``"m+"``/``"m-"``
so that sign bookkeeping mistakes surface as type errors instead of silent
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
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
    "hammock_columns",
    "hammock_dot",
    "hammock_incidence",
    "hammock_minus",
    "hammock_plus",
    "omega",
    "omega_inverse",
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


def _label_key(t: Label) -> tuple[int, int]:
    if isinstance(t, int):
        return (0, t)
    return (1, 0 if t == SPINE_PLUS else 1)


@dataclass(frozen=True, slots=True)
class Vertex:
    """A vertex (x, t) of ZD: slice coordinate x, Dynkin label t.

    ``__init__`` is written out, storing each field through its slot
    descriptor: the generated frozen ``__init__`` makes one
    ``object.__setattr__`` call per field, and every ``omega`` step and
    every ``rd_closed`` call builds a vertex.
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


@dataclass(frozen=True)
class Diagram:
    """A Dynkin diagram A_r (r>=1), D_r (r>=4) or E_r (r in 6..8)."""

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

    @property
    def m_delta(self) -> int:
        """Coxeter number h minus one; h is ``h_star`` for type A, twice it for D and E."""
        return (self.h_star if self.family == "A" else 2 * self.h_star) - 1

    @property
    def h_star(self) -> int:
        """Coxeter number for type A, half of it for types D and E."""
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return self.rank - 1
        return _E_H_STAR[self.rank]

    @property
    def labels(self) -> tuple[Label, ...]:
        """The labels, in the order of ``Vertex.sort_key``."""
        return _structure(self.family, self.rank)[0]

    def check_label(self, t: Label) -> None:
        """Raise ``ValueError`` unless t is one of the labels, by type and value.

        A bool or a float equal to an integer label is rejected, as is a
        spine string outside type D.
        """
        if type(t) not in (int, str) or t not in _structure(self.family, self.rank)[1]:
            raise ValueError(f"label {t!r} is not a vertex of {self.family}{self.rank}")


@lru_cache(maxsize=None)
def _structure(family: str, rank: int):
    """Labels, their frozenset and a fixed edge orientation pinning the coordinates of ZD.

    The orientation is the one under which the automorphism formulas below
    hold verbatim: chains point towards label 1, and the D fork and the E
    branch vertex are fed from their chain neighbours.
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
    # sinks-first topological order: every out-neighbour precedes its source
    placed: list[Label] = []
    remaining = sorted(labels, key=_label_key)
    while remaining:
        for c in remaining:
            if all(b in placed for b in outs[c]):
                placed.append(c)
                remaining.remove(c)
                break
        else:  # pragma: no cover - the diagram is a tree
            raise AssertionError("orientation is cyclic")
    return labels, frozenset(labels), ins, outs, tuple(placed)


def tau(v: Vertex, steps: int = 1) -> Vertex:
    """The translation, ``(x, t) -> (x + steps, t)``."""
    return Vertex(v.x + steps, v.t)


def _spine_flip(t: Label) -> Label:
    return SPINE_MINUS if t == SPINE_PLUS else SPINE_PLUS


@lru_cache(maxsize=None)
def _omega_steps(family: str, rank: int) -> dict[Label, tuple[int, Label]]:
    """omega as a table: label t -> (dx, t') with omega(x, t) = (x + dx, t').

    Shared by every caller of the cache; never mutate it.
    """
    steps: dict[Label, tuple[int, Label]] = {}
    for t in _structure(family, rank)[0]:
        if family == "A":
            steps[t] = (t, rank + 1 - t)
        elif family == "D":
            m = rank - 1
            flips = t in (SPINE_PLUS, SPINE_MINUS) and m % 2 == 0
            steps[t] = (m, _spine_flip(t) if flips else t)
        elif rank == 6:
            steps[t] = (6, 6) if t == 6 else (t + 3, 6 - t)
        else:
            steps[t] = (_E_H_STAR[rank], t)
    return steps


def omega(diagram: Diagram, v: Vertex) -> Vertex:
    """The syzygy automorphism of ZD in the fixed coordinates, one table lookup."""
    step = _omega_steps(diagram.family, diagram.rank).get(v.t)
    if step is None:
        diagram.check_label(v.t)
    dx, t = step
    return Vertex(v.x + dx, t)


def omega_inverse(diagram: Diagram, v: Vertex) -> Vertex:
    """Inverse of ``omega``: it maps (x, t) to (x + dx, t'), so undo that."""
    diagram.check_label(v.t)
    for t, (dx, image) in _omega_steps(diagram.family, diagram.rank).items():
        if image == v.t:
            return Vertex(v.x - dx, t)
    raise AssertionError("omega permutes the labels")  # pragma: no cover


@dataclass(frozen=True)
class AlgebraType:
    """A validated triple (diagram, twist order s, tau-exponent n).

    The admissible group is generated by ``tau^n . phi`` where phi is the
    order-s twist; ``u = n / m_delta`` is kept as an exact rational because
    several closed forms key on residues of u.
    """

    diagram: Diagram
    s: int
    u: Fraction
    n: int

    def __post_init__(self) -> None:
        fam, rank = self.diagram.family, self.diagram.rank
        if type(self.s) is not int or self.s not in (1, 2, 3):
            raise ValueError(f"twist order must be 1, 2 or 3, got {self.s!r}")
        if not isinstance(self.u, Fraction):
            raise ValueError(f"u must be a Fraction, got {self.u!r}")
        if self.u <= 0:
            raise ValueError(f"u must be positive, got {self.u}")
        if type(self.n) is not int:
            raise ValueError(f"tau-exponent must be an integer, got {self.n!r}")
        if self.n != self.u * self.diagram.m_delta or self.n < 1:
            raise ValueError(
                f"tau-exponent {self.n} does not match u={self.u} for {fam}{rank}"
            )
        integral = self.u.denominator == 1
        if fam == "A":
            if self.s == 2:
                if rank < 3 or rank % 2 == 0:
                    raise ValueError("twist order 2 in type A needs odd rank >= 3")
                if not integral:
                    raise ValueError("twist order 2 in type A needs integral u")
            elif self.s != 1:
                raise ValueError("type A admits twist orders 1 and 2 only")
        elif fam == "D":
            if self.s == 3:
                if rank != 4:
                    raise ValueError("twist order 3 happens for D4 only")
                if not integral:
                    raise ValueError("twist order 3 needs integral u")
            elif self.s == 2:
                if not integral:
                    raise ValueError("twist order 2 in type D needs integral u")
            elif not integral:
                if self.u.denominator != 3 or rank % 3 != 0 or rank < 6:
                    raise ValueError(
                        f"fractional type D parameters need u = v/3 with 3 not "
                        f"dividing v and rank a multiple of 3 >= 6, got "
                        f"u={self.u}, rank={rank}"
                    )
        else:
            if self.s == 2 and rank != 6:
                raise ValueError("twist order 2 in type E happens for E6 only")
            if self.s == 3:
                raise ValueError("type E admits twist orders 1 and 2 only")
            if not integral:
                raise ValueError("type E needs integral u")

    @classmethod
    def create(cls, family: str, rank: int, u: Fraction | int | str, s: int = 1) -> "AlgebraType":
        diagram = Diagram(family, rank)
        if type(u) not in (Fraction, int, str):
            raise ValueError(f"u must be a Fraction, an int or a str, got {u!r}")
        frac = Fraction(u)
        n = frac * diagram.m_delta
        if n.denominator != 1:
            raise ValueError(
                f"u={frac} gives non-integral tau-exponent for {family}{rank}"
            )
        return cls(diagram=diagram, s=s, u=frac, n=int(n))

    @classmethod
    def from_shift(cls, family: str, rank: int, n: int, s: int = 1) -> "AlgebraType":
        """Expert constructor from the raw tau-exponent of the group generator."""
        diagram = Diagram(family, rank)
        return cls(diagram=diagram, s=s, u=Fraction(n) / diagram.m_delta, n=n)

    @property
    def period(self) -> int:
        """x-shift of the s-th power of the group generator, a pure translation."""
        return self.s * self.n

    def describe(self) -> str:
        return f"({self.diagram.family}{self.diagram.rank}, {self.u}, {self.s})"


@lru_cache(maxsize=None)
def _phi_steps(family: str, rank: int, s: int) -> dict[Label, tuple[int, Label]]:
    """phi of twist order s as a table, like ``_omega_steps``; never mutate it."""
    steps: dict[Label, tuple[int, Label]] = {}
    for t in _structure(family, rank)[0]:
        if s == 1:
            steps[t] = (0, t)
        elif family == "A":
            m = rank + 1
            steps[t] = (t - m // 2, m - t)
        elif family == "D" and s == 2:
            steps[t] = (0, _spine_flip(t) if t in (SPINE_PLUS, SPINE_MINUS) else t)
        elif family == "D":
            cycle: dict[Label, Label] = {1: SPINE_MINUS, SPINE_MINUS: SPINE_PLUS, SPINE_PLUS: 1}
            steps[t] = (0, cycle.get(t, t))
        else:  # E6, s == 2: tau^-6 . omega
            dx, image = _omega_steps(family, rank)[t]
            steps[t] = (dx - 6, image)
    return steps


def phi(atype: AlgebraType, v: Vertex) -> Vertex:
    """The finite twist entering the group generator; identity when s == 1."""
    diagram = atype.diagram
    diagram.check_label(v.t)
    dx, t = _phi_steps(diagram.family, diagram.rank, atype.s)[v.t]
    return Vertex(v.x + dx, t)


def group_generator(atype: AlgebraType, v: Vertex) -> Vertex:
    """Apply the generator ``tau^n . phi`` of the admissible group once."""
    w = phi(atype, v)
    return Vertex(w.x + atype.n, w.t)


def orbit_reps(atype: AlgebraType, v: Vertex) -> tuple[Vertex, ...]:
    """Orbit representatives: the orbit of v is their translates by period-multiples."""
    atype.diagram.check_label(v.t)
    return tuple(Vertex(v.x + dx, t) for t, dx in orbit_offsets(atype)[v.t])


def orbit_residues(atype: AlgebraType, v: Vertex) -> frozenset[tuple[Label, int]]:
    """The orbit of v modulo the group: its pairs (t, x mod period).

    w lies in the orbit of v exactly when (w.t, w.x mod period) is one of them.
    """
    period = atype.period
    return frozenset((rep.t, rep.x % period) for rep in orbit_reps(atype, v))


@lru_cache(maxsize=1)
def orbit_offsets(atype: AlgebraType) -> dict[Label, tuple[tuple[Label, int], ...]]:
    """The orbit representatives of (0, t) for every label t, as pairs (t', dx).

    Powers 0..s-1 of ``tau^n . phi``, composed on the phi table: each adds n
    to the phi step of the label reached.  As phi commutes with tau, the
    orbit of (x, t) is the translates by period-multiples of the vertices
    (x + dx, t').  Memoised for the last type only, since callers go through
    one type's labels in a row; the returned dict is shared by every caller
    of the cache, so never mutate it.
    """
    diagram, n = atype.diagram, atype.n
    steps = _phi_steps(diagram.family, diagram.rank, atype.s)
    offsets = {}
    for t in diagram.labels:
        orbit = [(t, 0)]
        for _ in range(atype.s - 1):
            dx, c = steps[orbit[-1][0]]
            orbit.append((c, orbit[-1][1] + dx + n))
        offsets[t] = tuple(orbit)
    return offsets


def group_member(atype: AlgebraType, v: Vertex, w: Vertex) -> bool:
    """Whether w lies in the orbit of v under the admissible group.

    Applies ``group_generator`` and reads no orbit table: the tests' reference for them.
    """
    for t in (v.t, w.t):
        atype.diagram.check_label(t)
    period = atype.period
    reps = [v]
    for _ in range(atype.s - 1):
        reps.append(group_generator(atype, reps[-1]))
    return any(rep.t == w.t and (w.x - rep.x) % period == 0 for rep in reps)


def _knit_plan(family: str, rank: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The mesh recurrence on label indices: one (c, ins, outs) per label, sinks first."""
    labels, _, ins, outs, order = _structure(family, rank)
    index = {c: i for i, c in enumerate(labels)}
    return tuple(
        (index[c], tuple(index[a] for a in ins[c]), tuple(index[b] for b in outs[c]))
        for c in order
    )


@lru_cache(maxsize=None)
def _knit_lanes(family: str, rank: int) -> tuple[bytes, ...]:
    """Knit the backward hammock at (0, t) of every label t in one pass, one byte lane per t.

    Each cell is one int; its byte k is the cell's multiplicity in the hammock
    based at ``labels[k]``.  Slice 0 holds the bases: lane k is the indicator
    of the labels with a path to ``labels[k]``.  Slice i, at x-offset +i, is
    filled in ``_knit_plan`` order by ``-cur[c] + sum(cur[ins]) + sum(nxt[outs])``,
    kept only when positive.  Every lane carries a bias of 64, so "positive"
    is bit 7 of the lane plus 63.  Multiplicities are at most 6 and a cell has
    at most 3 neighbours, so a biased lane stays in 58..82 and never carries;
    the first multiplicity of 8 or more is still exact, and the final guard
    raises on it.  A slice cap traps a knitting that does not die out.  Returns,
    per label index c, cell c of every slice as bytes: byte ``i * n + k`` is
    lane k of slice i.  As Hom((i, c), (0, labels[k])) = Hom((0, c), (-i, labels[k])),
    these bytes are also the forward hammock of (0, labels[c]); nothing knits forward.
    """
    plan = _knit_plan(family, rank)
    n = len(plan)
    ones = int.from_bytes(b"\x01" * n, "little")
    bias, round_up = ones << 6, 63 * ones
    cur = [0] * n
    for c, _, outs in plan:  # c reaches itself and all that its plan out-neighbours reach
        cur[c] = reduce(or_, (cur[b] for b in outs), 1 << 8 * c)
    slices = [cur]
    for _ in range(4 * Diagram(family, rank).m_delta + 8):
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
        raise RuntimeError(f"knitting on {family}{rank} did not terminate")
    if reduce(or_, chain.from_iterable(slices)) & 0xF8 * ones:
        raise RuntimeError(f"knitting on {family}{rank} overflowed its byte lanes")
    return tuple(b"".join(s[c].to_bytes(n, "little") for s in slices) for c in range(n))


@lru_cache(maxsize=None, typed=True)
def hammock_columns(diagram: Diagram, t: Label) -> dict[Label, tuple[int, ...]]:
    """The backward hammock of (0, t) by label: c -> the dx, ascending, with (dx, c) in it.

    Read from lane t of ``_knit_lanes``; labels the hammock misses have no
    entry.  Shared by every caller; never mutate it.
    """
    diagram.check_label(t)
    labels = diagram.labels
    n, k = len(labels), labels.index(t)
    lanes = _knit_lanes(diagram.family, diagram.rank)
    return {c: dxs for c, m in zip(labels, lanes) if (dxs := tuple(compress(count(), m[k::n])))}


@lru_cache(maxsize=None)
def hammock_incidence(diagram: Diagram) -> dict[Label, int]:
    """Transposed backward hammocks: label c -> an int with bit dx.n + k set
    when (dx, c) is in H-(0, labels[k]), n the number of labels.

    Cell c of ``_knit_lanes``, each byte made one bit in place (nonzero: 1).
    Shared by every caller; never mutate it.
    """
    lanes = _knit_lanes(diagram.family, diagram.rank)
    return {c: int(m.translate(b"0" + b"1" * 255)[::-1], 2) for c, m in zip(diagram.labels, lanes)}


def hammock_minus(diagram: Diagram, v: Vertex) -> frozenset[Vertex]:
    """Support of stable Hom(-, v), from ``hammock_columns`` of its label."""
    diagram.check_label(v.t)
    columns = hammock_columns(diagram, v.t)
    return frozenset(Vertex(v.x + dx, c) for c, dxs in columns.items() for dx in dxs)


def hammock_plus(diagram: Diagram, v: Vertex) -> frozenset[Vertex]:
    """Support of stable Hom(v, -): cell v.t of ``_knit_lanes``, read as its forward hammock."""
    diagram.check_label(v.t)
    labels = diagram.labels
    n = len(labels)
    row = _knit_lanes(diagram.family, diagram.rank)[labels.index(v.t)]
    return frozenset(Vertex(v.x - j // n, labels[j % n]) for j in compress(count(), row))


# ---------------------------------------------------------------------------
# DOT rendering


def _node_id(v: Vertex) -> str:
    t = {SPINE_PLUS: "p", SPINE_MINUS: "m"}.get(v.t, v.t)
    return f"{v.x}_{t}"


def _mesh_successors(diagram: Diagram, v: Vertex) -> list[Vertex]:
    _, _, ins, outs, _ = _structure(diagram.family, diagram.rank)
    succ = [Vertex(v.x, b) for b in outs[v.t]]
    succ += [Vertex(v.x - 1, a) for a in ins[v.t]]
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
    filled, the base vertex is double-circled.
    """
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
        diagram.check_label(highlight.t)
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
