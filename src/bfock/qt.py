"""Blitvić's (q,t)-Fock space: a ``fock.SpaceSpec`` with ``model="qt"``.

The model is one field of the space, and every layer reads it there:

* ``fock.symmetrizer`` and ``fock.inner`` on a (q,t) space are the
  t^C(n,2)-rescaling of the sign-free symmetrizer at deformation q/t.  Every
  surviving group element is an ordinary permutation with l2 <= C(n,2), so
  the rescaling clears all denominators: each sigma contributes
  q^l2 t^(C(n,2) - l2).
* ``create``, ``annihilate``, ``gauge`` and ``type_b`` run ``fock``'s one
  operator kernel with the (q,t) slot weight: the slot-k term of a length-n
  word carries q^(n-k) t^(k-1), and the involution plays no role (a (q,t)
  space has J = I).  ``type_b`` with lambda = 0 is the field operator Y.
* ``moments.wick_moment`` sums q^rc t^nest over the partitions, with the one
  choice (I, t^c) at an arc of cover count c and lambda at a singleton, so at
  lambda = 0 only the singleton-free partitions count.

What stays here is the interface the benchmark drives: ``QtSpec`` wraps a
(q,t) space, ``qt_wick`` and ``qt_y_moment`` are the two sides of the moment
formula at lambda = 0 on it, and ``qt_apply`` applies an operator to a vector
of a (q,t) space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .fock import FockVector, OpSpec, SpaceSpec, apply_operator, type_b, vacuum_expectation
from .moments import MomentProblem, wick_moment
from .scalars import Poly


def _require_qt(space: SpaceSpec) -> None:
    if space.model != "qt":
        raise ValueError(f"not a (q,t) space: its model is {space.model!r}")


@dataclass(frozen=True)
class QtSpec:
    """A (q,t) space; the space refuses an involution other than I."""

    space: SpaceSpec

    def __post_init__(self) -> None:
        _require_qt(self.space)

    @classmethod
    def make(cls, d: int, truncation: int) -> QtSpec:
        return cls(SpaceSpec.diagonal("+" * d, truncation, "qt"))


def qt_apply(op: OpSpec, v: FockVector) -> FockVector:
    """op applied to v, for a vector of a (q,t) space only."""
    _require_qt(v.space)
    return apply_operator(op, v)


def qt_wick(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Sum of q^rc t^nest weighted chain products over singleton-free partitions."""
    return wick_moment(MomentProblem.build(xs, ts, [0] * len(xs), spec.space))


def qt_y_moment(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Operator side: vacuum expectation of Y(x_n)···Y(x_1)."""
    ops = [type_b(x, t) for x, t in zip(reversed(xs), reversed(ts), strict=True)]
    return vacuum_expectation(ops, spec.space)
