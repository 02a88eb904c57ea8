"""The (q,t)-deformed model: rescaled symmetrizer, operators, Wick formula.

The (q,t)-symmetrizer is the t^C(n,2)-rescaling of the sign-free symmetrizer
at deformation q/t.  Since every surviving group element is an ordinary
permutation with l2 <= C(n,2), the rescaling clears all denominators and the
matrix entries are genuine polynomials in q and t: each sigma contributes
q^l2 t^(C(n,2) - l2).  It is ``fock.symmetrizer(n, spec.space, "qt")``, and
``fock.inner(u, v, "qt")`` is the model's inner product.

The operators run ``fock``'s one operator kernel with the (q,t) slot
weight: the slot-k term of a length-n word carries q^(n-k) t^(k-1), and the
involution plays no role (the base space must have the trivial involution).
The moment formula sums q^rc t^nest over singleton-free uncolored
partitions: it is ``moments``' partition walk over one word of None letters,
with the one choice (I, t^c) at an arc of cover count c, whatever its frozen
counts, and lambda = 0, so every partition with a singleton drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .fock import (
    FockVector, OpSpec, SpaceSpec, _require_trivial_involution, apply_operator, vacuum_expectation,
)
from .moments import MomentProblem, _partition_walk
from .scalars import ZERO, Poly, frac_identity, frac_matrix, frac_vector


@dataclass(frozen=True)
class QtSpec:
    """Space for the (q,t) model; the involution is forced trivial."""

    space: SpaceSpec

    def __post_init__(self) -> None:
        _require_trivial_involution(self.space)

    @classmethod
    def make(cls, d: int, truncation: int) -> QtSpec:
        return cls(SpaceSpec.diagonal("+" * d, truncation))


def qt_create(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("qt-create", x=frac_vector(x))


def qt_annihilate(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("qt-annihilate", x=frac_vector(x))


def qt_gauge(t: Sequence[Sequence[Fraction]]) -> OpSpec:
    return OpSpec("qt-gauge", t=frac_matrix(t))


def qt_y(x: Sequence[Fraction], t: Sequence[Sequence[Fraction]]) -> OpSpec:
    return OpSpec("qt-y", x=frac_vector(x), t=frac_matrix(t))


def qt_apply(op: OpSpec, v: FockVector) -> FockVector:
    """op applied to v, for a (q,t) kind only."""
    if not op.kind.startswith("qt-"):
        raise ValueError(f"not a (q,t) operator kind: {op.kind!r}")
    return apply_operator(op, v)


def qt_wick(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Sum of q^rc t^nest weighted chain products over singleton-free partitions."""
    prob = MomentProblem.build(xs, ts, [0] * len(xs), spec.space)
    choices = ((frac_identity(spec.space.d), lambda c, f_left, f_in: (0, 0, c)),)
    return next(_partition_walk(prob, choices, ((None,),) * prob.n)).get((), ZERO)


def qt_y_moment(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Operator side: vacuum expectation of Y(x_n)···Y(x_1)."""
    ops = [qt_y(x, t) for x, t in zip(reversed(xs), reversed(ts), strict=True)]
    return vacuum_expectation(ops, spec.space)
