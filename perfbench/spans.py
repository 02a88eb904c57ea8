"""Spans and counters recorded around calls into each bfock module.

The benchmark measures the package from outside: ``install`` replaces public
functions with timing wrappers in every ``bfock`` module namespace that holds
them (modules bind names with ``from .fock import apply_operator`` and the
like), and ``Poly`` operators on the class itself.  Nothing under ``src/``
changes.

Three kinds of wrapper:

* span      - one ``Span`` per call (name, start, end, parent), kept in memory
              and written out when the round ends;
* leaf      - hot calls (``Poly`` arithmetic, ``statistics``, each ``next`` of
              a partition generator) are too many to keep one by one: the
              innermost open span keeps, per leaf name, the call count, the
              total time and the self time;
* counter   - counts only (``cumulant_partition`` and whether it was nonzero).

A span's self time is its duration minus the part of it that its child spans
cover, minus the self time of the leaves it holds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

SPAN, LEAF, GENERATOR, COUNTER = "span", "leaf", "generator", "counter"

# (name, kind, module, attribute); one name may cover several functions
TARGETS = (
    ("scalars.poly_mul", LEAF, "bfock.scalars", "Poly.__mul__"),
    ("scalars.poly_add", LEAF, "bfock.scalars", "Poly.__add__"),
    ("coxeter.enumerate_group", SPAN, "bfock.coxeter", "enumerate_group"),
    ("fock.vacuum_expectation", SPAN, "bfock.fock", "vacuum_expectation"),
    ("fock.apply_operator", SPAN, "bfock.fock", "apply_operator"),
    ("fock.symmetrizer", SPAN, "bfock.fock", "symmetrizer"),
    ("fock.r_operator", SPAN, "bfock.fock", "r_operator"),
    ("fock.spectral", SPAN, "bfock.fock", "gram_min_eigenvalue"),
    ("fock.spectral", SPAN, "bfock.fock", "r_operator_norm"),
    ("fock.spectral", SPAN, "bfock.fock", "gauge_norm_deformed"),
    ("partitions.set", GENERATOR, "bfock.partitions", "set_partitions"),
    ("partitions.colored", GENERATOR, "bfock.partitions", "enumerate_colored"),
    ("partitions.extended", GENERATOR, "bfock.partitions", "enumerate_extended"),
    ("partitions.extended", GENERATOR, "bfock.partitions", "enumerate_extended_eps"),
    ("partitions.statistics", LEAF, "bfock.partitions", "statistics"),
    ("moments.wick_moment", SPAN, "bfock.moments", "wick_moment"),
    ("moments.vector_formula", SPAN, "bfock.moments", "vector_formula"),
    ("moments.eps_word_vector", SPAN, "bfock.moments", "eps_word_vector"),
    ("moments.cumulant", COUNTER, "bfock.moments", "cumulant_partition"),
    ("qt.qt_y_moment", SPAN, "bfock.qt", "qt_y_moment"),
    ("qt.qt_wick", SPAN, "bfock.qt", "qt_wick"),
    ("qt.qt_apply", SPAN, "bfock.qt", "qt_apply"),
    ("orthopoly.operator_moments", SPAN, "bfock.orthopoly", "operator_moments"),
    ("orthopoly.moments_from_jacobi", SPAN, "bfock.orthopoly", "moments_from_jacobi"),
    ("orthopoly.substitution_check", SPAN, "bfock.orthopoly", "substitution_check"),
    ("orthopoly.vacuum_polynomial_identity", SPAN, "bfock.orthopoly", "vacuum_polynomial_identity"),
    ("cli.verify", SPAN, "bfock.cli", "cmd_verify"),
)

# peak size of the returned value: Poly terms, FockVector words
SIZES = {
    "scalars.poly_mul": ("scalars.poly_terms", "terms"),
    "scalars.poly_add": ("scalars.poly_terms", "terms"),
    "fock.apply_operator": ("fock.words", "coeffs"),
    "qt.qt_apply": ("qt.words", "coeffs"),
}

MODULES = ("scalars", "coxeter", "fock", "partitions", "moments", "qt", "orthopoly", "cli")
ROOT_SPAN = "bench.run"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    # leaf name -> [calls, total seconds, self seconds]
    leaves: dict[str, list] = field(default_factory=dict)

    def as_json(self, self_s: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self_s,
            "leaves": self.leaves,
        }


class Tracer:
    """In-memory spans, leaf aggregates, counts and maxima of one round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._open: list[Span] = []
        # per open call: [start, seconds covered by nested calls]
        self._frames: list[list[float]] = []

    def enter_span(self, name: str) -> None:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._open.append(span)
        self._frames.append([span.start, 0.0])

    def exit_span(self) -> None:
        span = self._open.pop()
        span.end = self.clock()
        self._frames.pop()
        if self._frames:
            self._frames[-1][1] += span.end - span.start

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter_span(name)
        try:
            yield
        finally:
            self.exit_span()

    def enter_leaf(self) -> None:
        self._frames.append([self.clock(), 0.0])

    def exit_leaf(self, name: str) -> None:
        end = self.clock()
        start, covered = self._frames.pop()
        total = end - start
        if self._frames:
            self._frames[-1][1] += total
        if not self._open:
            raise RuntimeError(f"leaf {name} called outside every span")
        entry = self._open[-1].leaves.get(name)
        if entry is None:
            self._open[-1].leaves[name] = [1, total, total - covered]
        else:
            entry[0] += 1
            entry[1] += total
            entry[2] += total - covered

    def note_size(self, name: str, size: int) -> None:
        if size > self.maxima[name]:
            self.maxima[name] = size


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover and its leaves' self time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        leaves = sum(entry[2] for entry in span.leaves.values())
        out[span.id] = (span.end - span.start) - covered - leaves
    return out


# -- wrappers -------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    size = SIZES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit_span()
        if size is not None:
            tracer.note_size(size[0], len(getattr(result, size[1])))
        return result

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    size = SIZES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter_leaf()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit_leaf(name)
        if size is not None:
            held = getattr(result, size[1], None)  # NotImplemented has none
            if held is not None:
                tracer.note_size(size[0], len(held))
        return result

    return wrapper


def _timed_items(tracer: Tracer, name: str, items: Iterator) -> Iterator:
    step = items.__next__
    while True:
        tracer.enter_leaf()
        try:
            item = step()
        except StopIteration:
            return
        finally:
            tracer.exit_leaf(name)
        tracer.counts[name] += 1
        yield item


def _generator_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_items(tracer, name, fn(*args, **kwargs))

    return wrapper


def _counter_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts[name + ".calls"] += 1
        if not result.is_zero:
            tracer.counts[name + ".nonzero"] += 1
        return result

    return wrapper


WRAPPERS = {
    SPAN: _span_wrapper,
    LEAF: _leaf_wrapper,
    GENERATOR: _generator_wrapper,
    COUNTER: _counter_wrapper,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever bfock holds it; returns the targets not found."""
    for name in [f"bfock.{module}" for module in MODULES]:
        importlib.import_module(name)
    namespaces = [
        module
        for key, module in sys.modules.items()
        if key == "bfock" or key.startswith("bfock.")
    ]
    missing = []
    for name, kind, module_name, attribute in TARGETS:
        owner_name, _, key = attribute.rpartition(".")
        owner = sys.modules[module_name]
        if owner_name:
            owner = getattr(owner, owner_name)
        original = vars(owner).get(key)
        if original is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        wrapper = WRAPPERS[kind](tracer, name, original)
        # a class keeps aliases (__rmul__ = __mul__); modules keep imported names
        holders = [owner] if owner_name else namespaces
        for holder in holders:
            for alias, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, alias, wrapper)
    return missing


# -- per-module metrics ---------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module metrics of one traced round (``cli.check.*`` come from verify)."""
    selfs = self_times(tracer.spans)
    by_id = {span.id: span for span in tracer.spans}
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    leaf_calls: dict[str, int] = defaultdict(int)
    leaf_self: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        module_self[span.name.split(".")[0]] += selfs[span.id]
        parent = span.parent
        while parent is not None and by_id[parent].name != span.name:
            parent = by_id[parent].parent
        if parent is None:  # outermost call of this name: no double counting
            inclusive[span.name] += span.end - span.start
        for leaf, (count, _, own) in span.leaves.items():
            leaf_calls[leaf] += count
            leaf_self[leaf] += own
            module_self[leaf.split(".")[0]] += own

    counts = tracer.counts
    cumulants = counts["moments.cumulant.calls"]
    metrics = {
        "scalars.poly_mul.calls": leaf_calls["scalars.poly_mul"],
        "scalars.poly_mul.s": leaf_self["scalars.poly_mul"],
        "scalars.poly_add.calls": leaf_calls["scalars.poly_add"],
        "scalars.poly_add.s": leaf_self["scalars.poly_add"],
        "scalars.poly_terms.max": tracer.maxima["scalars.poly_terms"],
        "coxeter.enumerate_group.calls": calls["coxeter.enumerate_group"],
        "coxeter.enumerate_group.s": inclusive["coxeter.enumerate_group"],
        "fock.vacuum_expectation.calls": calls["fock.vacuum_expectation"],
        "fock.vacuum_expectation.s": inclusive["fock.vacuum_expectation"],
        "fock.apply_operator.calls": calls["fock.apply_operator"],
        "fock.apply_operator.s": inclusive["fock.apply_operator"],
        "fock.words.max": tracer.maxima["fock.words"],
        "fock.symmetrizer.calls": calls["fock.symmetrizer"],
        "fock.symmetrizer.s": inclusive["fock.symmetrizer"],
        "fock.r_operator.s": inclusive["fock.r_operator"],
        "fock.spectral.s": inclusive["fock.spectral"],
        "partitions.colored.visited": counts["partitions.colored"],
        "partitions.extended.visited": counts["partitions.extended"],
        "partitions.set.visited": counts["partitions.set"],
        "partitions.enumerate.s": sum(
            leaf_self[f"partitions.{kind}"] for kind in ("colored", "extended", "set")
        ),
        "partitions.statistics.calls": leaf_calls["partitions.statistics"],
        "partitions.statistics.s": leaf_self["partitions.statistics"],
        "moments.wick_moment.s": inclusive["moments.wick_moment"],
        "moments.vector_formula.s": inclusive["moments.vector_formula"],
        "moments.eps_word_vector.s": inclusive["moments.eps_word_vector"],
        "moments.cumulant.nonzero_share": (
            counts["moments.cumulant.nonzero"] / cumulants if cumulants else 0.0
        ),
        "qt.qt_y_moment.s": inclusive["qt.qt_y_moment"],
        "qt.qt_wick.s": inclusive["qt.qt_wick"],
        "qt.qt_apply.calls": calls["qt.qt_apply"],
        "qt.words.max": tracer.maxima["qt.words"],
        "orthopoly.operator_moments.s": inclusive["orthopoly.operator_moments"],
        "orthopoly.moments_from_jacobi.s": inclusive["orthopoly.moments_from_jacobi"],
        "orthopoly.substitution_check.s": inclusive["orthopoly.substitution_check"],
        "cli.verify.s": inclusive["cli.verify"],
    }
    for module in MODULES + ("bench",):
        metrics[f"{module}.self_s"] = module_self[module]
    return metrics


def spans_json(tracer: Tracer) -> list[dict]:
    selfs = self_times(tracer.spans)
    return [span.as_json(selfs[span.id]) for span in tracer.spans]
