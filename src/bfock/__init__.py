"""Exact type-B deformed Fock spaces and their colored-partition Wick formulas.

The package computes, over an exact polynomial scalar ring in the deformation
parameters, both sides of the moment identities relating operator products on
deformed Fock spaces to statistics of colored set partitions, together with
the associated orthogonal-polynomial families.

Everything is immutable after construction and operations are pure functions,
so values can be shared freely across threads.
"""

from .coxeter import enumerate_group
from .errors import ResourceLimitError, TruncationError
from .fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    annihilate,
    apply_operator,
    create,
    gauge,
    inner,
    r_operator,
    symmetrizer,
    type_b,
    vacuum_expectation,
)
from .moments import (
    MomentProblem,
    cumulant_block,
    eps_word_vector,
    vector_formula,
    verify_moment_identity,
    wick_moment,
)
from .orthopoly import (
    JacobiParams,
    family,
    moments_from_jacobi,
    polys,
    substitution_check,
    vacuum_polynomial_identity,
)
from .partitions import (
    ColoredPartition,
    enumerate_colored,
    enumerate_extended,
    enumerate_extended_eps,
    statistics,
)
from .qt import QtSpec, qt_apply, qt_wick, qt_y_moment
from .scalars import ALPHA, ONE, Poly, Q, T, ZERO, qint, qtint

__version__ = "0.1.0"

__all__ = [
    "ALPHA", "ONE", "Q", "T", "ZERO",
    "ColoredPartition", "FockVector", "JacobiParams",
    "MomentProblem", "OpSpec", "Poly", "QtSpec", "ResourceLimitError",
    "SpaceSpec", "TruncationError",
    "annihilate", "apply_operator", "create", "cumulant_block",
    "enumerate_colored", "enumerate_extended", "enumerate_extended_eps",
    "enumerate_group", "eps_word_vector", "family", "gauge", "inner",
    "moments_from_jacobi", "polys", "qint", "qt_apply", "qt_wick", "qt_y_moment", "qtint",
    "r_operator", "statistics", "substitution_check", "symmetrizer", "type_b",
    "vacuum_expectation", "vacuum_polynomial_identity", "vector_formula",
    "verify_moment_identity", "wick_moment",
]
