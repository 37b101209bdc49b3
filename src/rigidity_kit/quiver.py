"""Geometry of the translation quiver ZD for Dynkin diagrams A, D, E.

Vertices, the translation tau, the syzygy automorphism omega, the finite
twist phi, membership in and reduction modulo the admissible group
<tau^n phi> (``orbit_residues``, ``orbit_offsets``), and the hammock
supports of the stable Hom functor computed by mesh knitting.

Each diagram's integer geometry is cached per diagram, never per algebra
type: the omega and phi step tables, the knitting plan (``_knit_plan``)
and, per direction, every hammock knitted in one pass on byte lanes
(``_knit_lanes``), read by label for the oracle (``hammock_columns``), by
cell for the certificate (``hammock_incidence``) and as pairs for
``hammock_minus``/``hammock_plus`` (``hammock_cells``).  Only
``orbit_offsets`` depends on the type; it keeps the last type alone.
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
from itertools import chain, compress, count, takewhile
from operator import or_
from typing import Iterator, Union

__all__ = [
    "SPINE_MINUS",
    "SPINE_PLUS",
    "AlgebraType",
    "Diagram",
    "Hammock",
    "Vertex",
    "group_generator",
    "group_member",
    "hammock_cells",
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

_E_M_DELTA = {6: 11, 7: 17, 8: 29}
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
        if self.family == "A" and self.rank < 1:
            raise ValueError(f"type A needs rank >= 1, got {self.rank}")
        if self.family == "D" and self.rank < 4:
            raise ValueError(f"type D needs rank >= 4, got {self.rank}")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError(f"type E needs rank 6, 7 or 8, got {self.rank}")

    @property
    def m_delta(self) -> int:
        """Nilpotency bound of the mesh category (Coxeter number minus one)."""
        if self.family == "A":
            return self.rank
        if self.family == "D":
            return 2 * self.rank - 3
        return _E_M_DELTA[self.rank]

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

    @property
    def arrows(self) -> tuple[tuple[Label, Label], ...]:
        return _structure(self.family, self.rank)[1]

    def check_label(self, t: Label) -> None:
        """Raise ``ValueError`` unless t is one of the labels, by type and value.

        A bool or a float equal to an integer label is rejected, as is a
        spine string outside type D.
        """
        if type(t) not in (int, str) or t not in _label_set(self.family, self.rank):
            raise ValueError(f"label {t!r} is not a vertex of {self.family}{self.rank}")


@lru_cache(maxsize=None)
def _structure(family: str, rank: int):
    """Labels and a fixed edge orientation pinning the coordinates of ZD.

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
    return labels, arrows, ins, outs, tuple(placed)


@lru_cache(maxsize=None)
def _label_set(family: str, rank: int) -> frozenset[Label]:
    """The labels as a set, for ``Diagram.check_label``."""
    return frozenset(_structure(family, rank)[0])


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


def _apply(steps: dict[Label, tuple[int, Label]], diagram: Diagram, v: Vertex) -> Vertex:
    """Apply a step table to v; a label missing from it raises ``check_label``'s error."""
    step = steps.get(v.t)
    if step is None:
        diagram.check_label(v.t)
    dx, t = step
    return Vertex(v.x + dx, t)


def omega(diagram: Diagram, v: Vertex) -> Vertex:
    """The syzygy automorphism of ZD in the fixed coordinates, one table lookup."""
    return _apply(_omega_steps(diagram.family, diagram.rank), diagram, v)


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
        if self.s not in (1, 2, 3):
            raise ValueError(f"twist order must be 1, 2 or 3, got {self.s}")
        if self.u <= 0:
            raise ValueError(f"u must be positive, got {self.u}")
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
        return cls(diagram=diagram, s=s, u=Fraction(n, diagram.m_delta), n=n)

    @property
    def m_delta(self) -> int:
        return self.diagram.m_delta

    @property
    def h_star(self) -> int:
        return self.diagram.h_star

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
    return _apply(_phi_steps(diagram.family, diagram.rank, atype.s), diagram, v)


def group_generator(atype: AlgebraType, v: Vertex) -> Vertex:
    """Apply the generator ``tau^n . phi`` of the admissible group once."""
    w = phi(atype, v)
    return Vertex(w.x + atype.n, w.t)


def orbit_reps(atype: AlgebraType, v: Vertex) -> tuple[Vertex, ...]:
    """Orbit representatives: the orbit of v is their translates by period-multiples."""
    reps = [v]
    for _ in range(atype.s - 1):
        reps.append(group_generator(atype, reps[-1]))
    return tuple(reps)


def orbit_residues(atype: AlgebraType, v: Vertex) -> frozenset[tuple[Label, int]]:
    """The orbit of v modulo the group: its pairs (t, x mod period).

    w lies in the orbit of v exactly when (w.t, w.x mod period) is one of them.
    """
    period = atype.period
    return frozenset((rep.t, rep.x % period) for rep in orbit_reps(atype, v))


@lru_cache(maxsize=1)
def orbit_offsets(atype: AlgebraType) -> dict[Label, tuple[tuple[Label, int], ...]]:
    """``orbit_reps(atype, Vertex(0, t))`` of every label t, as pairs (t', dx).

    As phi commutes with tau, the orbit of (x, t) is the translates by
    period-multiples of the vertices (x + dx, t').  Memoised for the last
    type only, since callers go through one type's labels in a row; the
    returned dict is shared by every caller of the cache, so never mutate it.
    """
    return {
        t: tuple((r.t, r.x) for r in orbit_reps(atype, Vertex(0, t)))
        for t in atype.diagram.labels
    }


def group_member(atype: AlgebraType, v: Vertex, w: Vertex) -> bool:
    """Whether w lies in the orbit of v under the admissible group."""
    period = atype.period
    for rep in orbit_reps(atype, v):
        if rep.t == w.t and (w.x - rep.x) % period == 0:
            return True
    return False


@dataclass(frozen=True)
class Hammock:
    """Finite support of stable Hom into (or out of) the base vertex."""

    base: Vertex
    members: frozenset[Vertex]

    def __contains__(self, v: Vertex) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.members)

    def sorted_members(self) -> list[Vertex]:
        return sorted(self.members, key=Vertex.sort_key)


@lru_cache(maxsize=None)
def _knit_plan(
    family: str, rank: int, forward: bool
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The mesh recurrence of one diagram and direction over label indices.

    One entry (c, ins, outs) per label, in the order ``_knit_lanes`` fills a
    slice: sinks first backward; sources first, ins and outs swapped, forward.
    """
    labels, _, ins, outs, order = _structure(family, rank)
    if forward:
        ins, outs = outs, ins
        order = tuple(reversed(order))
    index = {c: i for i, c in enumerate(labels)}
    return tuple(
        (index[c], tuple(index[a] for a in ins[c]), tuple(index[b] for b in outs[c]))
        for c in order
    )


def _knit_lanes(family: str, rank: int, forward: bool) -> tuple[bytes, ...]:
    """Knit the hammock at (0, t) of every label t in one pass, one byte lane per t.

    Each cell is one int; its byte k is the cell's multiplicity in the hammock
    based at ``labels[k]``.  Slice 0 contains the bases: lane k is the
    indicator of the labels with a path to ``labels[k]`` (from it, forward).
    Slice i sits at x-offset +i backward, -i forward, and is filled in
    ``_knit_plan`` order by ``-cur[c] + sum(cur[ins]) + sum(nxt[outs])``, kept
    only when positive.  Every lane carries a bias of 64, so "positive" is
    bit 7 of the lane plus 63.  Dynkin multiplicities are at most 6 and a
    cell has at most 3 neighbours, so a biased lane stays in 58..82 and never
    carries into the next.  The first multiplicity of 8 or more is still
    exact, and the guard at the end raises on it.  A slice cap traps a
    knitting that does not die out.  Returns, per label index c, cell c of
    every slice as bytes: byte ``i * n + k`` is lane k of slice i.
    """
    plan = _knit_plan(family, rank, forward)
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


@lru_cache(maxsize=None)
def _hammock_lanes(family: str, rank: int, forward: bool) -> tuple[bytes, ...]:
    """``_knit_lanes`` of one diagram and direction: the one cached knitting."""
    return _knit_lanes(family, rank, forward)


def _lanes_of(diagram: Diagram, t: Label, forward: bool) -> Iterator[tuple[Label, bytes]]:
    """Pairs (c, multiplicity of c by slice) of the hammock at (0, t); checks t."""
    diagram.check_label(t)
    labels = diagram.labels
    n, k = len(labels), labels.index(t)
    return zip(labels, (m[k::n] for m in _hammock_lanes(diagram.family, diagram.rank, forward)))


def _knit_profile(
    family: str, rank: int, t0: Label, forward: bool
) -> tuple[tuple[tuple[Label, int], ...], ...]:
    """The hammock at (0, t0), one slice per entry: the pairs (c, multiplicity) in it."""
    labels, lanes = zip(*_lanes_of(Diagram(family, rank), t0, forward))
    rows = (tuple(compress(zip(labels, row), row)) for row in zip(*lanes))
    return tuple(takewhile(bool, rows))


@lru_cache(maxsize=None, typed=True)
def hammock_cells(
    diagram: Diagram, t: Label, forward: bool = False
) -> tuple[tuple[int, Label], ...]:
    """Members of the hammock at (0, t) as pairs (dx, c), from lane t of ``_knit_lanes``.

    Backward (stable Hom(-, (0, t))) dx >= 0; forward (stable Hom((0, t), -)) dx <= 0.
    """
    sign = -1 if forward else 1
    profile = _knit_profile(diagram.family, diagram.rank, t, forward)
    return tuple((sign * i, c) for i, slice_ in enumerate(profile) for c, _ in slice_)


@lru_cache(maxsize=None, typed=True)
def hammock_columns(diagram: Diagram, t: Label) -> dict[Label, tuple[int, ...]]:
    """The backward hammock of (0, t) by label: c -> the dx, ascending, with (dx, c) in it.

    Read from lane t of ``_knit_lanes``; labels the hammock misses have no
    entry.  Shared by every caller; never mutate it.
    """
    lanes = _lanes_of(diagram, t, False)
    return {c: dxs for c, lane in lanes if (dxs := tuple(compress(count(), lane)))}


@lru_cache(maxsize=None)
def hammock_incidence(diagram: Diagram) -> dict[Label, int]:
    """Transposed backward hammocks: label c -> an int with bit dx.n + k set
    when (dx, c) is in H-(0, labels[k]), n the number of labels.

    Cell c of ``_knit_lanes``, each byte made one bit in place (nonzero: 1).
    Shared by every caller; never mutate it.
    """
    lanes = _hammock_lanes(diagram.family, diagram.rank, False)
    return {c: int(m.translate(b"0" + b"1" * 255)[::-1], 2) for c, m in zip(diagram.labels, lanes)}


def hammock_minus(diagram: Diagram, v: Vertex) -> Hammock:
    """Support of stable Hom(-, v), knitted backwards against the arrows."""
    diagram.check_label(v.t)
    members = frozenset(Vertex(v.x + dx, c) for dx, c in hammock_cells(diagram, v.t))
    return Hammock(base=v, members=members)


def hammock_plus(diagram: Diagram, v: Vertex) -> Hammock:
    """Support of stable Hom(v, -), knitted forwards along the arrows."""
    diagram.check_label(v.t)
    members = frozenset(
        Vertex(v.x + dx, c) for dx, c in hammock_cells(diagram, v.t, forward=True)
    )
    return Hammock(base=v, members=members)


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


def hammock_dot(diagram: Diagram, hammock: Hammock) -> str:
    """Render the slices spanned by a hammock as a DOT digraph.

    Every vertex of the covered window becomes a node; hammock members are
    filled, the base vertex is double-circled.
    """
    xs = [v.x for v in hammock.members] + [hammock.base.x]
    lo, hi = min(xs), max(xs)
    window = [Vertex(x, t) for x in range(lo, hi + 1) for t in diagram.labels]
    inside = set(window)
    lines = ["digraph hammock {", "  rankdir=RL;"]
    for v in sorted(window, key=Vertex.sort_key):
        attrs = [f'label="{v}"']
        if v == hammock.base:
            attrs.append("shape=doublecircle")
        if v in hammock.members:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgray")
        lines.append(f'  "{_node_id(v)}" [{", ".join(attrs)}];')
    for v in sorted(window, key=Vertex.sort_key):
        for w in _mesh_successors(diagram, v):
            if w in inside:
                lines.append(f'  "{_node_id(v)}" -> "{_node_id(w)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonical_rep(atype: AlgebraType, v: Vertex) -> Vertex:
    """Smallest representative of the orbit of v inside x in [0, period)."""
    return min((Vertex(x, t) for t, x in orbit_residues(atype, v)), key=Vertex.sort_key)


def orbit_quiver_dot(atype: AlgebraType, highlight: Vertex | None = None) -> str:
    """Render the orbit quiver ZD/G as a DOT digraph, one node per orbit."""
    diagram = atype.diagram
    nodes = sorted(
        {
            canonical_rep(atype, Vertex(x, t))
            for x in range(atype.period)
            for t in diagram.labels
        },
        key=Vertex.sort_key,
    )
    marked = canonical_rep(atype, highlight) if highlight is not None else None
    lines = ["digraph orbit_quiver {", "  rankdir=RL;"]
    for v in nodes:
        attrs = [f'label="{v}"']
        if v == marked:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgray")
        lines.append(f'  "{_node_id(v)}" [{", ".join(attrs)}];')
    edges = set()
    for v in nodes:
        for w in _mesh_successors(diagram, v):
            edges.add((v, canonical_rep(atype, w)))
    for v, w in sorted(edges, key=lambda e: (e[0].sort_key(), e[1].sort_key())):
        lines.append(f'  "{_node_id(v)}" -> "{_node_id(w)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
