"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bfock.fock import SpaceSpec  # noqa: E402
from bfock.moments import random_problem  # noqa: E402


def test_inputs_are_deterministic_for_a_fixed_seed():
    space = SpaceSpec(2, workloads.REFLECTION, truncation=7)
    first = workloads.draw_problem(random.Random(5), 7, space)
    again = workloads.draw_problem(random.Random(5), 7, space)
    other = workloads.draw_problem(random.Random(6), 7, space)
    assert first == again
    assert first != other
    assert [c.id for c in workloads.build("vector-n6", 3)] == [c.id for c in workloads.build("vector-n6", 3)]
    assert workloads.wick_symmetries(5) == workloads.wick_symmetries(5)


def test_wick_seeds_move_the_baseline_instances_without_changing_the_moment():
    assert workloads.wick_symmetries(1) == ((1, 1), (1, 1))
    assert len({workloads.wick_symmetries(seed) for seed in range(8)}) == 8
    cases = (
        (SpaceSpec.diagonal("+-", truncation=4), workloads.DIAGONAL_SYMMETRIES),
        (SpaceSpec(2, workloads.REFLECTION, truncation=4), workloads.REFLECTION_SYMMETRIES),
    )
    for space, symmetries in cases:
        prob = workloads.draw_problem(random.Random(1), 4, space)
        want = workloads._moment_check(prob)()
        assert want[0]
        for signs in symmetries[1:]:
            other = workloads.moved(prob, signs)
            assert other != prob
            assert workloads._moment_check(other)() == want
    # on the reflection instance, a sign change that does not commute with J moves the moment
    assert workloads._moment_check(workloads.moved(prob, (1, -1)))()[1] != want[1]


def test_seed_one_reproduces_the_baseline_instances():
    # the package's recorded baseline timings use random_problem(Random(1), n) on +-
    for n in (7, 8):
        space = SpaceSpec.diagonal("+-", truncation=n)
        assert workloads.draw_problem(random.Random(1), n, space) == random_problem(random.Random(1), n, space)
    space = SpaceSpec.diagonal("++", truncation=8)
    assert workloads.draw_problem(random.Random(1), 8, space, zero_lams=True) == random_problem(
        random.Random(1), 8, space, zero_lams=True
    )


def _span(id, name, parent, start, end, leaves=None):
    span = spans.Span(id, name, parent, start, end)
    span.leaves = leaves or {}
    return span


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        _span(0, "bench.run", None, 0.0, 10.0),
        _span(1, "moments.wick_moment", 0, 1.0, 4.0, {"scalars.poly_mul": [3, 1.5, 1.0]}),
        _span(2, "fock.vacuum_expectation", 0, 5.0, 9.0),
        _span(3, "fock.apply_operator", 2, 6.0, 7.0),
        _span(4, "fock.apply_operator", 2, 7.0, 8.5, {"scalars.poly_add": [2, 0.5, 0.5]}),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.5, 3: 1.0, 4: 1.0}


def test_tracer_nests_leaves_inside_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.run"):  # 0 .. 9
        tracer.enter_leaf()  # 1
        tracer.enter_leaf()  # 2
        tracer.exit_leaf("partitions.set")  # 3
        tracer.exit_leaf("partitions.colored")  # 4
        tracer.enter_span("moments.wick_moment")  # 5
        tracer.enter_leaf()  # 6
        tracer.exit_leaf("scalars.poly_mul")  # 7
        tracer.exit_span()  # 8
    root, inner = tracer.spans
    assert root.leaves == {"partitions.set": [1, 1.0, 1.0], "partitions.colored": [1, 3.0, 2.0]}
    assert spans.self_times(tracer.spans) == {0: 9.0 - 3.0 - 3.0, 1: 2.0}
    metrics = spans.layer_metrics(tracer)
    assert metrics["partitions.enumerate.s"] == 3.0
    assert metrics["moments.wick_moment.s"] == 3.0
    assert metrics["bench.self_s"] + metrics["partitions.self_s"] + metrics["moments.self_s"] + metrics[
        "scalars.self_s"
    ] == 9.0


def test_a_perturbed_result_counts_as_failed():
    good = "2*a*q + 1/3"
    judge = gate.Gate(digests={"moment": gate.digest(good)})
    assert judge.record("moment", True, good, good)
    assert not judge.record("moment", True, good + " + t", good + " + t")  # both paths, wrong value
    assert not judge.record("other", False, good, good + " + t")  # the paths disagree
    judge.record_error("raises", ZeroDivisionError("boom"))
    assert (judge.attempted, judge.failed) == (4, 3)
    assert judge.failed_share == 0.75


def test_digests_of_seed_independent_checks_apply_at_every_seed():
    fixed = {c.id for c in workloads.build("qt-orthopoly", 7) if c.fixed}
    assert fixed == {"orthopoly-alphaq-plus", "orthopoly-alphaq-minus", "orthopoly-qt"}
    at_one, _ = gate.load_expected("qt-orthopoly", 1, fixed)
    at_seven, _ = gate.load_expected("qt-orthopoly", 7, fixed)
    assert set(at_seven) == fixed and set(at_one) == fixed | {"qt-n8-first", "qt-n8-second"}
    wick = workloads.build("wick-n8", 7)
    assert all(c.fixed for c in wick)
    assert set(gate.load_expected("wick-n8", 7, {c.id for c in wick})[0]) == {c.id for c in wick}


def test_verify_report_must_match_the_committed_copy_byte_for_byte():
    expected = (gate.EXPECTED / "verify-all.stdout").read_text(encoding="utf-8")
    judge = gate.Gate(texts={"verify-all": expected})
    assert judge.record("verify-all", True, expected, expected)
    changed = expected.replace("\n", "\r\n", 1)
    assert not judge.record("verify-all", True, changed, changed)
    assert workloads.without_timings(expected.replace('"elapsed_ms": 0', '"elapsed_ms": 17')) == expected


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_declared_per_layer_metrics_are_the_measured_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = set(spans.layer_metrics(spans.Tracer()))
    measured |= {f"cli.check.{name}.s" for name in worker.VERIFY_TIMINGS}
    measured.add("trace.overhead_share")
    assert {m["name"] for m in declared["per_layer"]} == measured
    plan = json.loads((HERE / "plan.json").read_text())
    assert set(plan["predictions"]) == set(run.WORKLOADS)
    assert {w["name"] for w in declared["workloads"]} == set(plan["gated"]["workloads"]) <= set(run.WORKLOADS)


def test_install_wraps_every_namespace_and_keeps_results():
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
import random, spans, workloads
from bfock.fock import SpaceSpec
space = SpaceSpec.diagonal('+-', truncation=4)
check = workloads._moment_check(workloads.draw_problem(random.Random(2), 4, space))
plain = check()
tracer = spans.Tracer()
assert spans.install(tracer) == []
with tracer.span(spans.ROOT_SPAN):
    traced = check()
assert traced == plain and plain[0], (plain, traced)
m = spans.layer_metrics(tracer)
assert m['partitions.colored.visited'] == 49, m
assert m['fock.vacuum_expectation.calls'] == 1 and m['fock.apply_operator.calls'] == 4, m
assert m['moments.wick_moment.s'] > 0 and m['coxeter.enumerate_group.calls'] == 0, m
assert m['scalars.poly_mul.calls'] > 0 and m['partitions.statistics.calls'] > 0, m
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
