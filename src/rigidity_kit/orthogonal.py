"""Maximal orthogonal-subset certification and rigidity dimensions.

A single orbit M = G.v is maximal r-orthogonal when the complement of M in
ZD is exactly the union of the forward hammocks of the first r omega
shifts of M.  The check runs over one fundamental domain (a full period of
x-coordinates times all labels); a certificate can list the violating
vertices so negative answers are debuggable.

The cover is one ``period``-bit integer per label, bit x standing for the
vertex (x, label) modulo the period.  omega^2 fixes every label, so it is a
translation by D and omega^(j+2q)(v) = omega^j(v) + (qD, 0) for the two
phases j = 1, 2.  Each phase turns the cached backward-hammock incidence
(``hammock_incidence``) and the orbit offsets of the labels into one bit
pattern per label, and ORs in its rotations by qD through binary doubling,
so a certificate does O(labels . log r) big-int rotations and no walk of
r omega steps.

The closed-form rigidity dimensions cover the three families where a
single orbit does certify: the two type-A families, the twisted type-A
family, and the exceptional E7 family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .quiver import (
    AlgebraType,
    Vertex,
    hammock_incidence,
    omega,
    orbit_offsets,
    orbit_residues,
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
    built from ``gaps`` (per label, the bits x of its violations) when it
    is first read, so callers that read only ``is_maximal`` pay nothing
    for it.  ``stability_ok`` records whether the orbit is stable under
    tau.omega^r, a necessary condition for maximality.
    """

    atype: AlgebraType
    generator_vertex: Vertex
    r: int
    is_maximal: bool
    stability_ok: bool
    gaps: tuple[int, ...] = field(repr=False)

    @cached_property
    def uncovered(self) -> tuple[Vertex, ...]:
        labels = self.atype.diagram.labels
        width = f"0{self.atype.period}b"
        # one string per label, reversed so that character x is bit x
        rows = [format(bits, width)[::-1] for bits in self.gaps]
        return tuple(
            Vertex(x, t)
            for x, column in enumerate(zip(*rows))
            for t, bit in zip(labels, column)
            if bit == "1"
        )


def _rotate(bits: int, k: int, period: int, full: int) -> int:
    """Rotate a period-bit mask so that bit x moves to bit (x + k) mod period."""
    return ((bits << k) | (bits >> (period - k))) & full


def _rotations(bits: int, step: int, count: int, period: int, full: int) -> int:
    """OR of the rotations of bits by q.step for q < count, by binary doubling.

    ``bits`` grows into the OR over q < 2^k, whose rotation by 2^k.step
    doubles it; the set bits of count pick the blocks to lay end to end.
    """
    out = offset = 0
    span = step % period
    while count > 0:
        if count & 1:
            out |= _rotate(bits, offset, period, full)
            offset = (offset + span) % period
        count >>= 1
        if count:
            bits |= _rotate(bits, span, period, full)
            span = 2 * span % period
    return out


def is_maximal_orthogonal(atype: AlgebraType, v: Vertex, r: int) -> OrthogonalityCertificate:
    """Certify whether the orbit of v is a maximal r-orthogonal subset.

    A vertex z lies in the forward hammock of omega^i(w) for some w in the
    orbit of v precisely when some group translate of omega^i(v) lies in
    the backward hammock of z; that reformulation reduces the whole check
    to bit masks modulo the group's translation period.  The omega shifts
    of v are omega^j(v) translated by qD (phase j = 1, 2; D the x-shift of
    omega^2, read off two ``omega`` calls), so each phase's per-label
    pattern is rotated into place and the work grows with log r, not r.
    """
    if r < 0:
        raise ValueError(f"orthogonality degree must be non-negative, got {r}")
    atype.diagram.check_label(v.t)
    diagram = atype.diagram
    period = atype.period
    full = (1 << period) - 1

    incidence = hammock_incidence(diagram)
    offsets = orbit_offsets(atype)
    first = omega(diagram, v)
    phases = (first, omega(diagram, first))
    shift = phases[1].x - v.x
    cover = dict.fromkeys(diagram.labels, 0)
    for j, w in enumerate(phases, 1):
        count = (r - j) // 2 + 1  # the degrees j, j + 2, ... up to r
        if count <= 0:
            continue
        pattern = dict.fromkeys(diagram.labels, 0)
        for c, ox in offsets[w.t]:
            for t, dx in incidence[c]:
                pattern[t] |= 1 << ((ox - dx) % period)
        for t, bits in pattern.items():
            swept = _rotations(bits, shift, count, period, full)
            cover[t] |= _rotate(swept, w.x % period, period, full)

    # maximal: exactly the vertices off the orbit are covered, so once the
    # orbit is toggled in, every bit should be set
    residues = orbit_residues(atype, v)
    for t, x in residues:
        cover[t] ^= 1 << x
    gaps = tuple(full ^ bits for bits in cover.values())

    # omega^r(v) by the same phase formula; omega^0(v) = v
    if r == 0:
        last = v
    else:
        j = 2 - r % 2
        last = Vertex(phases[j - 1].x + (r - j) // 2 * shift, phases[j - 1].t)
    end = tau(last)
    return OrthogonalityCertificate(
        atype=atype,
        generator_vertex=v,
        r=r,
        is_maximal=not any(gaps),
        stability_ok=(end.t, end.x % period) in residues,
        gaps=gaps,
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
    elif fam == "E" and rank == 7 and atype.s == 1 and int(atype.u) % 9 == 5:
        a = (int(atype.u) - 5) // 9
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
