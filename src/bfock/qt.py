"""The (q,t)-deformed model: rescaled symmetrizer, operators, Wick formula.

The (q,t)-symmetrizer is the t^C(n,2)-rescaling of the sign-free symmetrizer
at deformation q/t.  Since every surviving group element is an ordinary
permutation with l2 <= C(n,2), the rescaling clears all denominators and the
matrix entries are genuine polynomials in q and t: each sigma contributes
q^l2 t^(C(n,2) - l2).

Operators carry the weight t^(k-1) q^(n-k) on the slot-k term; the involution
plays no role here (the base space must have the trivial involution).  The
moment formula sums q^rc t^rarc over singleton-free uncolored partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import ResourceLimitError
from .fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    Terms,
    _collect,
    _create_terms,
    _reach,
    apply_symmetrizer,
    check_dimensions,
    inner,
    matrix_of_level_map,
    vacuum_coefficient,
)
from .partitions import arc_covers, set_partitions
from .scalars import (
    ONE,
    Poly,
    ZERO,
    FracMatrix,
    FracVector,
    Matrix,
    frac_identity,
    frac_matrix,
    frac_vector,
)

MAX_QT_WICK_N = 8


@dataclass(frozen=True)
class QtSpec:
    """Space for the (q,t) model; the involution is forced trivial."""

    space: SpaceSpec

    def __post_init__(self) -> None:
        if self.space.involution != frac_identity(self.space.d):
            raise ValueError("(q,t) model requires the trivial involution")

    @classmethod
    def make(cls, d: int, truncation: int) -> QtSpec:
        return cls(SpaceSpec.diagonal("+" * d, truncation))


def qt_symmetrizer(n: int, spec: QtSpec) -> Matrix:
    """t^C(n,2) P^(n)_{0, q/t} assembled without division."""
    if n == 0:
        return [[ONE]]
    return matrix_of_level_map(
        lambda v: apply_symmetrizer(v, "qt"), spec.space, n, n
    )


def qt_create(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("qt-create", x=frac_vector(x))


def qt_annihilate(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("qt-annihilate", x=frac_vector(x))


def qt_gauge(t: Sequence[Sequence[Fraction]]) -> OpSpec:
    return OpSpec("qt-gauge", t=frac_matrix(t))


def qt_y(x: Sequence[Fraction], t: Sequence[Sequence[Fraction]]) -> OpSpec:
    return OpSpec("qt-y", x=frac_vector(x), t=frac_matrix(t))


def _qt_annihilate_terms(x: FracVector, v: FockVector, horizon: int | None) -> Terms:
    for word, coeff in _reach(v, horizon, -1):
        n = len(word)
        for k in range(1, n + 1):
            entry = x[word[k - 1]]
            if entry:
                yield word[: k - 1] + word[k:], coeff * Poly.monomial(entry, eq=n - k, et=k - 1)


def _qt_gauge_terms(t: FracMatrix, v: FockVector, horizon: int | None) -> Terms:
    for word, coeff in _reach(v, horizon, 0):
        n = len(word)
        for k in range(1, n + 1):
            reduced = word[: k - 1] + word[k:]
            letter = word[k - 1]
            for new_letter in range(v.space.d):
                entry = t[new_letter][letter]
                if entry:
                    weight = Poly.monomial(entry, eq=n - k, et=k - 1)
                    yield reduced + (new_letter,), coeff * weight


def qt_apply(op: OpSpec, v: FockVector, horizon: int | None = None) -> FockVector:
    """op applied to v; words longer than the horizon (if given) are never formed."""
    check_dimensions(op, v.space)
    if op.kind == "qt-create":  # creation is weight-free in both models
        terms = _create_terms(op.x, v, horizon)
    elif op.kind == "qt-annihilate":
        terms = _qt_annihilate_terms(op.x, v, horizon)
    elif op.kind == "qt-gauge":
        terms = _qt_gauge_terms(op.t, v, horizon)
    elif op.kind == "qt-y":
        terms = chain(
            _qt_annihilate_terms(op.x, v, horizon),
            _create_terms(op.x, v, horizon),
            _qt_gauge_terms(op.t, v, horizon),
        )
    else:
        raise ValueError(f"not a (q,t) operator kind: {op.kind!r}")
    return _collect(v.space, terms)


def qt_inner(u: FockVector, v: FockVector) -> Poly:
    return inner(u, v, "qt")


def qt_vacuum_expectation(ops: Sequence[OpSpec], spec: QtSpec) -> Poly:
    """Vacuum coefficient of ops[0]···ops[-1] Ω (rightmost applied first)."""
    return vacuum_coefficient(ops, spec.space, qt_apply)


def _plain_chain(block: Sequence[int], xs, ts) -> Fraction:
    from .scalars import frac_dot, frac_mat_vec

    elements = list(block)
    vec = xs[elements[0] - 1]
    for point in elements[1:-1]:
        vec = frac_mat_vec(ts[point - 1], vec)
    return frac_dot(xs[elements[-1] - 1], vec)


def qt_wick(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Sum of q^rc t^rarc weighted chain products over singleton-free partitions."""
    n = len(xs)
    if n > MAX_QT_WICK_N:
        raise ResourceLimitError(f"qt_wick is guarded at n <= {MAX_QT_WICK_N}")
    if len(ts) != n:
        raise ValueError("xs and ts must have equal lengths")
    xs = [frac_vector(x) for x in xs]
    ts = [frac_matrix(t) for t in ts]
    total = ZERO
    for blocks in set_partitions(n):
        if any(len(block) < 2 for block in blocks):
            continue
        value = Fraction(1)
        for block in blocks:
            value *= _plain_chain(block, xs, ts)
            if not value:
                break
        if value:
            rc, covers = arc_covers(blocks)
            rarc = sum(map(sum, covers))
            total = total + Poly.monomial(value, eq=rc, et=rarc)
    return total


def qt_y_moment(
    xs: Sequence[Sequence[Fraction]],
    ts: Sequence[Sequence[Sequence[Fraction]]],
    spec: QtSpec,
) -> Poly:
    """Operator side: vacuum expectation of Y(x_n)···Y(x_1)."""
    ops = [qt_y(x, t) for x, t in zip(reversed(xs), reversed(ts), strict=True)]
    return qt_vacuum_expectation(ops, spec)
