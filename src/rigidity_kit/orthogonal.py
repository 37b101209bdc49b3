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
certificate does O(log r) rotations of one integer and no omega walk.

The closed-form rigidity dimensions cover the three families where a
single orbit does certify: the two type-A families, the twisted type-A
family, and the exceptional E7 family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .quiver import (
    AlgebraType,
    Label,
    Vertex,
    hammock_incidence,
    omega,
    orbit_offsets,
    tau,
)
from .rigidity import rd_closed

__all__ = [
    "OrthogonalityCertificate",
    "RigdimFormula",
    "RigdimVerification",
    "is_maximal_orthogonal",
    "rigdim_closed",
    "rigdim_verify",
]


@dataclass(frozen=True)
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

    @cached_property
    def uncovered(self) -> tuple[Vertex, ...]:
        labels = self.atype.diagram.labels
        width, period = len(labels), self.atype.period
        # character i of the reversed binary string is bit i
        bits = format(self.gaps, "b")[::-1]
        hits = sorted((-(i // width) % period, i % width) for i, b in enumerate(bits) if b == "1")
        return tuple(Vertex(x, labels[k]) for x, k in hits)


@lru_cache(maxsize=1)
def _orbit_covers(atype: AlgebraType) -> dict[Label, tuple[int, int]]:
    """Per label t, the forward-hammock cover and the cells of the orbit of (0, t).

    Both are laid out as the certificate's cover; the cover ORs each orbit
    representative's ``hammock_incidence``, folded modulo the period and rotated
    to it.  Memoised for the last type only.
    """
    diagram = atype.diagram
    period, width = atype.period, len(diagram.labels)
    size = width * period
    full = (1 << size) - 1
    incidence = hammock_incidence(diagram)
    out = {}
    for t, reps in orbit_offsets(atype).items():
        cover = orbit = 0
        for c, dx in reps:
            bits = incidence[c]
            while bits > full:  # slice i lands on i mod period
                bits = bits & full | bits >> size
            k = -dx % period * width
            cover |= (bits << k | bits >> size - k) & full
            orbit |= 1 << (k + diagram.labels.index(c))
        out[t] = cover, orbit
    return out


def is_maximal_orthogonal(atype: AlgebraType, v: Vertex, r: int) -> OrthogonalityCertificate:
    """Certify whether the orbit of v is a maximal r-orthogonal subset.

    A vertex z lies in the forward hammock of omega^i(w) for some w in the
    orbit of v precisely when some group translate of omega^i(v) lies in
    the backward hammock of z, so the check is one bit mask modulo the
    period.  omega^(j+2q)(v) is omega^j(v) translated by qD (D read off two
    ``omega`` calls), so the work grows with log r, not r.
    """
    if type(r) is not int or r < 0:
        raise ValueError(f"orthogonality degree must be a non-negative int, got {r!r}")
    diagram = atype.diagram
    diagram.check_vertex(v)
    covers = _orbit_covers(atype)
    period, width = atype.period, len(diagram.labels)
    size = width * period
    full = (1 << size) - 1

    first = omega(diagram, v)
    phases = (first, omega(diagram, first))
    shift = phases[1].x - v.x
    cover = 0
    for j, w in enumerate(phases, 1):
        count = (r - j) // 2 + 1  # the degrees j, j + 2, ... up to r
        if count <= 0:
            continue
        # the OR of the rotations by -(w.x + q.shift) slices, q < count: binary
        # doubling upwards over count - 1 - q (short integers until they wrap),
        # count's set bits picking the blocks, then one turn puts them in place
        pattern = covers[w.t][0]
        turn = -(w.x + (count - 1) * shift) % period * width
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

    # maximal: exactly the vertices off the orbit are covered, so once the
    # orbit is toggled in, every bit should be set
    orbit, k = covers[v.t][1], -v.x % period * width
    orbit = (orbit << k | orbit >> size - k) & full
    gaps = full ^ cover ^ orbit

    # tau.omega^r(v), with omega^r(v) for r > 0 by the same phase formula
    w = phases[1 - r % 2]
    end = tau(Vertex(w.x + (r - 1) // 2 * shift, w.t) if r else v)
    stable = orbit >> (-end.x % period * width + diagram.labels.index(end.t)) & 1
    return OrthogonalityCertificate(
        atype, v, r, is_maximal=not gaps, stability_ok=bool(stable), gaps=gaps
    )


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
    base = Vertex(0, 1)
    # every family's labels start with 1, the generating label
    all_rds = [rd_closed(atype, t).rd for t in atype.diagram.labels]
    rd_base = all_rds[0]
    certificate = is_maximal_orthogonal(atype, base, formula.r)
    return RigdimVerification(
        atype=atype,
        formula=formula,
        rd_matches=rd_base == formula.r,
        rd_is_max=max(all_rds) == formula.r == rd_base,
        certificate=certificate,
        bridge_ok=formula.rigdim == formula.r + 2,
    )
