"""Maximal orthogonal-subset certification and rigidity dimensions.

A single orbit M = G.v is maximal r-orthogonal when the complement of M in
ZD is exactly the union of the forward hammocks of the first r omega
shifts of M.  The check runs over one fundamental domain (a full period of
x-coordinates times all labels); a certificate carries the violating
vertices so negative answers are debuggable.  The cover is built from the
per-diagram cached incidence of the backward hammocks
(``hammock_incidence``) and the orbit offsets of the labels, as integer
pairs (label, x mod period).

The closed-form rigidity dimensions cover the three families where a
single orbit does certify: the two type-A families, the twisted type-A
family, and the exceptional E7 family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import (
    AlgebraType,
    Vertex,
    group_member,
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
    vertices wrongly hit by one.  It is empty exactly when ``is_maximal``.
    ``stability_ok`` records whether the orbit is stable under tau.omega^r,
    a necessary condition for maximality.
    """

    atype: AlgebraType
    generator_vertex: Vertex
    r: int
    is_maximal: bool
    uncovered: tuple[Vertex, ...]
    stability_ok: bool


def is_maximal_orthogonal(atype: AlgebraType, v: Vertex, r: int) -> OrthogonalityCertificate:
    """Certify whether the orbit of v is a maximal r-orthogonal subset.

    A vertex z lies in the forward hammock of omega^i(w) for some w in the
    orbit of v precisely when some group translate of omega^i(v) lies in
    the backward hammock of z; that reformulation reduces the whole check
    to residue bookkeeping modulo the group's translation period.
    """
    if r < 0:
        raise ValueError(f"orthogonality degree must be non-negative, got {r}")
    atype.diagram.check_label(v.t)
    diagram = atype.diagram
    period = atype.period

    incidence = hammock_incidence(diagram)
    offsets = orbit_offsets(atype)
    covered: set[tuple] = set()
    w = v
    for _ in range(r):
        w = omega(diagram, w)
        for c, ox in offsets[w.t]:
            xc = w.x + ox
            covered.update([(t, (xc - dx) % period) for t, dx in incidence[c]])

    # maximal: exactly the vertices off the orbit are covered, so once the
    # orbit is toggled in, every cell should be in the set; labels come in
    # sort-key order, so the violations come out sorted
    covered ^= orbit_residues(atype, v)
    labels = diagram.labels
    violations = tuple(
        Vertex(x, t) for x in range(period) for t in labels if (t, x) not in covered
    )

    stability = group_member(atype, v, tau(w))
    return OrthogonalityCertificate(
        atype=atype,
        generator_vertex=v,
        r=r,
        is_maximal=not violations,
        uncovered=violations,
        stability_ok=stability,
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
    rd_base = rd_closed(atype, 1).rd
    all_rds = [rd_closed(atype, t).rd for t in atype.diagram.labels]
    certificate = is_maximal_orthogonal(atype, base, formula.r)
    return RigdimVerification(
        atype=atype,
        formula=formula,
        rd_matches=rd_base == formula.r,
        rd_is_max=max(all_rds) == formula.r == rd_base,
        certificate=certificate,
        bridge_ok=formula.rigdim == formula.r + 2,
    )
