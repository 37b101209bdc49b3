"""Maximal orthogonal-subset certification and rigidity dimensions.

A single orbit M = G.v is maximal r-orthogonal when the complement of M in
ZD is exactly the union of the forward hammocks of the first r omega
shifts of M.  The check runs over one fundamental domain (a full period of
x-coordinates times all labels); a certificate can list the violating
vertices so negative answers are debuggable.

The cover is one integer of L.period bits, L the number of labels: bit
y.L + k stands for the vertex (-y, labels[k]) modulo the period.  In the
reflected y the backward-hammock incidence (``hammock_incidence``) of an
orbit vertex is placed by one rotation, and rotating every label by k
slices is one cyclic rotation by k.L bits.  omega^2 fixes every label, so
omega^(j+2q)(v) = omega^j(v) + (qD, 0) for the two phases j = 1, 2; each
phase ORs in its pattern's rotations by qD through binary doubling, so a
certificate does O(log r) rotations of one integer and no omega walk.  One
table per type, memoised for the last, holds what depends on the type alone.

The closed-form rigidity dimensions cover the three families where a
single orbit does certify: the two type-A families, the twisted type-A
family, and the exceptional E7 family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .quiver import AlgebraType, Vertex, _diagram, _orbit_offsets, hammock_incidence
from .rigidity import rd_closed

__all__ = ["OrthogonalityCertificate", "RigdimFormula", "RigdimVerification",
           "is_maximal_orthogonal", "rigdim_closed", "rigdim_verify"]


@dataclass(frozen=True, init=False)
class OrthogonalityCertificate:
    """Result of checking one orbit for maximal r-orthogonality.

    ``uncovered`` lists the violation witnesses inside the fundamental
    domain: complement vertices missed by every forward hammock, and orbit
    vertices wrongly hit by one, ordered by x and then by
    ``Diagram.labels``.  It is empty exactly when ``is_maximal``.  It is
    decoded from ``gaps`` (the violations, laid out as the cover) when it
    is first read, so callers that read only ``is_maximal`` pay nothing
    for it.  ``stability_ok`` records whether the orbit is stable under
    tau.omega^r, a necessary condition for maximality.
    """

    atype: AlgebraType
    generator_vertex: Vertex
    r: int
    is_maximal: bool
    stability_ok: bool
    gaps: int = field(repr=False)

    def __init__(self, atype, generator_vertex, r, is_maximal, stability_ok, gaps) -> None:
        # one dict update, not an object.__setattr__ per field as in the generated frozen __init__
        self.__dict__.update(atype=atype, generator_vertex=generator_vertex, r=r,
                             is_maximal=is_maximal, stability_ok=stability_ok, gaps=gaps)

    @cached_property
    def uncovered(self) -> tuple[Vertex, ...]:
        labels = self.atype.diagram.labels
        width, period = len(labels), self.atype.period
        # character i of the reversed binary string is bit i
        bits = format(self.gaps, "b")[::-1]
        hits = sorted((-(i // width) % period, i % width) for i, b in enumerate(bits) if b == "1")
        return tuple(Vertex(x, labels[k]) for x, k in hits)


# maxsize=1: callers certify one type's labels in a row.  Keyed on plain values, like
# rigidity's closed plan, so a warm call runs no AlgebraType __hash__ or __eq__.
@lru_cache(maxsize=1)
def _cover_table(family: str, rank: int, s: int, n: int) -> tuple[int, int, int, dict]:
    """The type's period, label count L, full mask and, per label t, the row (orbit, phases).

    ``orbit`` holds the cells of the orbit of (0, t).  Phase j = 1, 2 is (dx, pattern, k)
    for omega^j(0, t) = (dx, labels[k]), read off the diagram's phase table (its omega
    steps, and omega^2 = (h, t)), with the cover pattern of labels[k]: the OR of each
    orbit representative's ``hammock_incidence``, folded modulo the period once per
    label and rotated to the representative.
    """
    diagram = _diagram(family, rank)
    labels = diagram.labels
    period, width = s * n, len(labels)
    size = width * period
    full = (1 << size) - 1
    index = dict(zip(labels, range(width)))
    folded = {}
    for c, bits in hammock_incidence(diagram).items():
        while bits > full:  # slice i lands on i mod period
            bits = bits & full | bits >> size
        folded[c] = bits
    cells = {}
    for t, reps in _orbit_offsets(family, rank, s, n).items():
        pattern = orbit = 0
        for c, dx in reps:
            k, bits = -dx % period * width, folded[c]
            pattern |= (bits << k | bits >> size - k) & full
            orbit |= 1 << (k + index[c])
        cells[t] = orbit, (pattern, index[t])
    steps, h, rows = diagram.omega_steps, diagram.h, {}
    for t, (orbit, own) in cells.items():
        dx, t1 = steps[t]
        rows[t] = orbit, ((dx, *cells[t1][1]), (h, *own))
    return period, width, full, rows


def _cover(table: tuple, phases: tuple, x: int, r: int) -> int:
    """One generator's cover, from omega^1..r of the orbit of (x, t); ``phases`` is t's row's."""
    period, width, full, _ = table
    size, shift = width * period, phases[1][0]
    cover = 0
    for j, (dx, pattern, _) in enumerate(phases, 1):
        count = (r - j) // 2 + 1  # the degrees j, j + 2, ... up to r
        if count <= 0:
            continue
        # the OR of the rotations by -(x + dx + q.shift) slices, q < count: binary
        # doubling upwards over count - 1 - q (short integers until they wrap),
        # count's set bits picking the blocks, then one turn puts them in place
        turn = -(x + dx + (count - 1) * shift) % period * width
        step = shift % period * width
        swept = offset = 0
        while count:
            if count & 1:
                swept |= (pattern << offset | pattern >> size - offset) & full
                offset = (offset + step) % size
            count >>= 1
            if count:
                pattern |= (pattern << step | pattern >> size - step) & full
                step = 2 * step % size
        cover |= (swept << turn | swept >> size - turn) & full
    return cover


def is_maximal_orthogonal(atype: AlgebraType, v: Vertex, r: int) -> OrthogonalityCertificate:
    """Certify whether the orbit of v is a maximal r-orthogonal subset.

    A vertex z lies in the forward hammock of omega^i(w) for some w in the
    orbit of v precisely when some group translate of omega^i(v) lies in
    the backward hammock of z, so the check is one bit mask modulo the
    period.  omega^(j+2q)(v) is omega^j(v) translated by qD (D and the
    phases read off the omega table), so the work grows with log r, not r.
    """
    if type(r) is not int or r < 0:
        raise ValueError(f"orthogonality degree must be a non-negative int, got {r!r}")
    diagram = atype.diagram
    table = _cover_table(diagram.family, diagram.rank, atype.s, atype.n)
    period, width, full, rows = table
    row = rows.get(v.t) if type(v.t) in (int, str) else None
    if row is None or type(v.x) is not int:
        diagram.check_vertex(v)  # raises
    orbit, phases = row

    # maximal: exactly the vertices off the orbit are covered, so once the
    # orbit is toggled in, every bit should be set
    k = -v.x % period * width
    gaps = full ^ _cover(table, phases, v.x, r) ^ (orbit << k | orbit >> width * period - k) & full

    # tau.omega^r(v) lies (dx + 1, labels[end]) from v, omega^r(v) by the phase
    # formula, which at r = 0 reads j = 2 and q = -1
    dx, _, end = phases[1 - r % 2]
    stable = orbit >> (-(dx + (r - 1) // 2 * phases[1][0] + 1) % period * width + end) & 1
    return OrthogonalityCertificate(atype, v, r, not gaps, bool(stable), gaps)


@dataclass(frozen=True)
class RigdimFormula:
    """Closed-form (r, rigdim) for one of the single-orbit families."""

    family: str
    a: int
    r: int
    rigdim: int


def rigdim_closed(atype: AlgebraType) -> RigdimFormula | None:
    """Closed-form rigidity dimension, or None outside the known families."""
    fam = atype.diagram.family
    rank = atype.diagram.rank
    if fam == "A":
        m = rank + 1
        if atype.s == 1:
            n = atype.n
            if m == 2 and n % 2 == 0:
                a = n // 2
                return RigdimFormula("A.s1:n=2a", a, 2 * a - 1, 2 * a + 1)
            if (n + 1) % m == 0:
                a = (n + 1) // m
                return RigdimFormula("A.s1:n=am-1", a, 2 * (a * m - a - 1), 2 * (a * m - a))
        else:
            shift = atype.n - m // 2
            if (shift + 1) % m == 0:
                a = (shift + 1) // m
                if a > 1:
                    return RigdimFormula(
                        "A.s2:n=am-1", a, 2 * a * m + m - 2 * a - 3, (2 * a + 1) * (m - 1)
                    )
    elif fam == "E" and rank == 7 and atype.s == 1 and atype.n % 153 == 85:
        a = (atype.n - 85) // 153  # n = 17u and u = 9a + 5
        return RigdimFormula("E7:u=9a+5", a, 119 * a + 66, 119 * a + 68)
    return None


@dataclass(frozen=True)
class RigdimVerification:
    """Cross-checks behind one closed-form rigidity dimension.

    The strategy: the generating vertex must attain the maximal rigidity
    degree r among all labels, its orbit must certify as maximal
    r-orthogonal, and the dimension must be exactly r + 2.
    """

    atype: AlgebraType
    formula: RigdimFormula
    rd_matches: bool
    rd_is_max: bool
    certificate: OrthogonalityCertificate
    bridge_ok: bool

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if not self.rd_matches:
            out.append("closed-form rd at the generating vertex differs from r")
        if not self.rd_is_max:
            out.append("r is not the maximal rd over all labels")
        if not self.certificate.is_maximal:
            out.append(f"orbit is not maximal {self.formula.r}-orthogonal")
        if not self.certificate.stability_ok:
            out.append("orbit is not stable under tau.omega^r")
        if not self.bridge_ok:
            out.append("rigdim != r + 2")
        return out


def rigdim_verify(atype: AlgebraType) -> RigdimVerification:
    """Re-derive a closed-form rigidity dimension from first principles."""
    formula = rigdim_closed(atype)
    if formula is None:
        raise ValueError(
            f"type {atype.describe()} is outside the closed-form rigidity-dimension families"
        )
    # every family's labels start with 1, the generating label
    all_rds = [rd_closed(atype, t).rd for t in atype.diagram.labels]
    r = formula.r
    return RigdimVerification(atype, formula, rd_matches=all_rds[0] == r,
                              rd_is_max=max(all_rds) == r == all_rds[0],
                              certificate=is_maximal_orthogonal(atype, atype.diagram.origins[1], r),
                              bridge_ok=formula.rigdim == r + 2)
