"""Rigidity degrees over representation-finite self-injective algebras.

Closed-form Euclidean/Fibonacci formulas for the rigidity degree of every
indecomposable module, an independent brute-force oracle on the stable
AR-quiver, and maximal-orthogonal-subset certification of the rigidity
dimensions of the single-orbit families.
"""

from .euclid import (
    EuclidData,
    weight_sequence,
    weighted_fibonacci,
)
from .orthogonal import (
    OrthogonalityCertificate,
    RigdimFormula,
    RigdimVerification,
    is_maximal_orthogonal,
    rigdim_closed,
    rigdim_verify,
)
from .quiver import (
    SPINE_MINUS,
    SPINE_PLUS,
    AlgebraType,
    Diagram,
    Vertex,
    group_generator,
    group_member,
    hammock_dot,
    hammock_minus,
    hammock_plus,
    omega,
    orbit_quiver_dot,
    orbit_reps,
    phi,
    tau,
)
from .rigidity import (
    RigidityReport,
    agreement,
    endpoint_scan,
    omega_period,
    rd_closed,
    rd_oracle,
    se_oracle,
    sweep_types,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraType",
    "Diagram",
    "EuclidData",
    "OrthogonalityCertificate",
    "RigdimFormula",
    "RigdimVerification",
    "RigidityReport",
    "SPINE_MINUS",
    "SPINE_PLUS",
    "Vertex",
    "agreement",
    "endpoint_scan",
    "group_generator",
    "group_member",
    "hammock_dot",
    "hammock_minus",
    "hammock_plus",
    "is_maximal_orthogonal",
    "omega",
    "omega_period",
    "orbit_quiver_dot",
    "orbit_reps",
    "phi",
    "rd_closed",
    "rd_oracle",
    "rigdim_closed",
    "rigdim_verify",
    "se_oracle",
    "sweep_types",
    "tau",
    "weight_sequence",
    "weighted_fibonacci",
]
