"""CLI: output formats, determinism, exit codes."""

import json
import os
import random
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import bfock
import oracles
from bfock import cli, moments, orthopoly, partitions
from bfock.cli import main
from bfock.fock import FockVector, SpaceSpec, symmetrizer
from bfock.moments import random_problem, wick_moment
from bfock.partitions import EPS_ALPHABET
from bfock.scalars import ALPHA, ONE, Poly, T, frac_matrix, mat_to_int, qint

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_group_csv(capsys):
    code, out = run_cli(capsys, "group", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "window,l1,l2,word"
    assert len(lines) == 9  # header + 8 elements
    assert lines[1] == "1 2,0,0,"


def test_partitions_row_count(capsys):
    code, out = run_cli(capsys, "partitions", "--n", "3", "--filter", "all")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12  # header + 11 colored partitions


def test_partitions_extended(capsys):
    code, out = run_cli(capsys, "partitions", "--n", "2", "--extended")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    # {1}{2}; {12} with 2 colors x marked/unmarked
    assert len(rows) == 5


@pytest.mark.parametrize("which", ["no-singletons", "pairs-only"])
def test_partitions_extended_rejects_a_filter(capsys, which):
    # the extended enumeration has no filter; a filter must not be dropped silently
    with pytest.raises(SystemExit) as exc:
        main(["partitions", "--n", "3", "--extended", "--filter", which])
    assert exc.value.code == 2
    assert "--extended" in capsys.readouterr().err
    code, out = run_cli(capsys, "partitions", "--n", "3", "--extended", "--filter", "all")
    assert code == 0
    assert len(out.strip().split("\n")) == 22  # header + 21 extended partitions


def test_fock_json_symbolic(capsys):
    code, out = run_cli(capsys, "fock", "--n", "1", "--signature", "+-")
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetrizer"] == [["a + 1", "0"], ["0", "-a + 1"]]
    assert payload["r_operator"] == [["a + 1", "0"], ["0", "-a + 1"]]


def test_fock_rational_mode(capsys):
    code, out = run_cli(
        capsys,
        "fock", "--n", "2", "--signature", "+",
        "--mode", "rational", "--alpha", "1/2", "--q", "1/3",
    )
    assert code == 0
    payload = json.loads(out)
    # (1+a)(1+aq)(1+q) at (1/2, 1/3) = (3/2)(7/6)(4/3) = 7/3
    assert payload["symmetrizer"] == [["7/3"]]


RENDERING_GOLDENS = [
    ("fock-n3-rational.json", "fock --n 3 --signature +- --mode rational --alpha 1/2 --q=-1/3"),
    ("fock-n3-float.json", "fock --n 3 --signature +- --mode float --alpha 1/2 --q=-1/3"),
    (
        "moment-seed11-n5-rational.json",
        "moment --seed 11 --n 5 --mode rational --alpha 1/3 --q 1/2 --check",
    ),
    (
        "orthopoly-alsalam-ismail-N6-rational.json",
        "orthopoly --family alsalam-ismail --N 6 --mode rational --t 1/2",
    ),
    ("qt-n6-q-t-check.json", "qt --n 6 --q 1/5 --t 1/2 --check"),
]


@pytest.mark.parametrize("name, command", RENDERING_GOLDENS, ids=[g[0] for g in RENDERING_GOLDENS])
def test_rendering_modes_match_the_committed_output(capsys, name, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, target, shift, value",
    [
        (
            "moment --seed 11 --n 3 --mode rational --alpha 1/3 --check",
            "vacuum_expectation", ALPHA, Fraction(1, 3),
        ),
        ("qt --n 4 --q 1/5 --t 1/2 --check", "qt_y_moment", T, Fraction(1, 2)),
    ],
)
def test_a_check_mismatch_exits_1_with_both_sides(monkeypatch, capsys, command, target, shift, value):
    """The operator side goes through the same rendering or substitution as the
    partition side: a shift by a variable shows as that variable's value."""
    original = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args: original(*args) + shift)
    code, out = run_cli(capsys, *command.split())
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    side = payload.get("partition_side", payload.get("wick"))
    assert Fraction(payload["operator_side"]) == Fraction(side) + value


def test_fock_range_enforcement(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fock", "--n", "1", "--mode", "rational", "--alpha", "2"])
    assert exc.value.code == 2
    assert "type-B numeric modes require |alpha| < 1 and |q| < 1" in capsys.readouterr().err


def test_moment_check_unit(capsys):
    code, out = run_cli(
        capsys, "moment", "--n", "3", "--lambda", "0", "--check"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["partition_side"] == "a^2 + 2*a + 1"


def test_moment_seeded(capsys):
    code, out = run_cli(
        capsys, "moment", "--n", "3", "--seed", "11", "--check"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_moment_rejects_more_lambdas_than_points():
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--n", "2", "--lambda", "1", "--lambda", "2", "--lambda", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fock --n 2", "moment --seed 1 --n 2"])
def test_an_empty_signature_exits_2(capsys, command):
    # an empty signature is a zero-dimensional space, not the default one
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--signature", ""])
    assert exc.value.code == 2
    assert "dimension and truncation must be positive" in capsys.readouterr().err


def test_moment_seeded_without_lambda_is_unchanged(capsys):
    code, out = run_cli(capsys, "moment", "--n", "3", "--seed", "11")
    assert code == 0
    assert json.loads(out)["partition_side"] == "13/40*a^2 + 7/5*a + 15/8"


def test_moment_seeded_uses_the_given_lambdas(capsys):
    seeded = random_problem(random.Random(11), 3, SpaceSpec.diagonal("+-", 3), zero_lams=True)
    sides = {}
    for lam in ("5", "7"):
        code, out = run_cli(capsys, "moment", "--n", "3", "--seed", "11", "--lambda", lam, "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        expected = wick_moment(replace(seeded, lams=(Fraction(lam), Fraction(0), Fraction(0))))
        assert payload["partition_side"] == str(expected)
        sides[lam] = payload["partition_side"]
    assert sides["5"] != sides["7"]


def test_qt_fixture(capsys):
    code, out = run_cli(
        capsys, "qt", "--n", "5", "--q", "0", "--t-symbolic", "--T", "identity"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["wick"] == "t^2 + 2*t + 3"


def readme_cli_examples():
    """(argv, comment) for each line of README.md's CLI block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "bfock"
        examples.append((argv, comment.strip()))
    return examples


README_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize("argv, comment", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_cli_examples_run(capsys, argv, comment):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "qt":
        assert comment == "prints t^2 + 2*t + 3"
        assert json.loads(out)["wick"] == "t^2 + 2*t + 3"


def test_qt_check(capsys):
    code, out = run_cli(
        capsys, "qt", "--n", "4", "--t-symbolic", "--check"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize(
    "values",
    [
        ("--q", "5", "--t", "7"), ("--t", "7"), ("--t", "0"), ("--q", "3/4", "--t", "1/2"),
        ("--q", "5", "--t-symbolic"),
    ],
)
def test_qt_substituted_values_out_of_range(capsys, values):
    with pytest.raises(SystemExit) as exc:
        main(["qt", "--n", "3", *values])
    assert exc.value.code == 2
    assert "require" in capsys.readouterr().err
    code, out = run_cli(capsys, "qt", "--n", "3", "--q", "1/4", "--t", "1/2")
    assert code == 0
    code, out = run_cli(capsys, "qt", "--n", "3", "--q", "1/4", "--t-symbolic")
    assert code == 0


UNREAD_OPTIONS = [
    ("fock --n 1 --alpha 5", "--alpha"),
    ("fock --n 1 --q 1/2", "--q"),
    ("moment --n 2 --alpha 1/2", "--alpha"),
    ("moment --n 3 --signature +-", "--signature"),
    ("qt --n 3 --t 1/2 --t-symbolic", "--t"),
    ("orthopoly --family alsalam-ismail --N 3 --mode rational --t 1/3 --alpha 5", "--alpha"),
    ("orthopoly --family alsalam-ismail --N 3 --mode rational --t 1/3 --q 1/5", "--q"),
    ("orthopoly --family alphaq-poisson-B --N 3 --mode rational --t 1/2", "--t"),
    ("orthopoly --family qt-poisson --N 3 --mode rational --t 1/2 --alpha 1/3", "--alpha"),
    ("orthopoly --family qt-poisson --N 3 --q 1/5", "--q"),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[c for c, _ in UNREAD_OPTIONS])
def test_an_option_the_command_does_not_read_exits_2(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert f"error: {option} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "orthopoly --family alphaq-poisson-B --N 3 --mode rational --alpha 2",
        "orthopoly --family alphaq-poisson-B --N 3 --mode rational --q=-1",
        "orthopoly --family qt-poisson --N 3 --mode rational --t 7 --q 9",
        "orthopoly --family qt-poisson --N 3 --mode rational --q 3/4 --t 1/2",
        "orthopoly --family qt-poisson --N 3 --mode rational",  # t defaults to 0
        "orthopoly --family alsalam-ismail --N 3 --mode rational --t 1",
    ],
)
def test_orthopoly_rational_values_out_of_range_exit_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "require" in capsys.readouterr().err


def test_orthopoly_rational_reads_its_family_parameters(capsys):
    tables = set()
    for values in (("--alpha", "1/3", "--q", "1/2"), ("--alpha", "1/3", "--q", "1/4")):
        code, out = run_cli(capsys, "orthopoly", "--family", "alphaq-poisson-B", "--N", "3",
                            "--mode", "rational", *values)
        assert code == 0
        tables.add(out)
    code, out = run_cli(capsys, "orthopoly", "--family", "qt-poisson", "--N", "3",
                        "--mode", "rational", "--q", "1/5", "--t", "1/2")
    assert code == 0
    # beta_2 = gamma_1 = [2]_{q,t} = q + t
    assert json.loads(out)["beta"][2] == "7/10"
    assert len(tables) == 2


# options no command has, since they would change nothing: qt has one mode,
# the CSVs always carry the statistics, and fock reads d off --signature
ABSENT_OPTIONS = [
    ("qt --n 2 --mode rational", "--mode"),
    ("group --n 2 --stats", "--stats"),
    ("partitions --n 2 --stats", "--stats"),
    ("fock --n 1 --d 1", "--d"),
]


@pytest.mark.parametrize(
    "command, option", ABSENT_OPTIONS, ids=["qt-mode", "group-stats", "partitions-stats", "fock-d"]
)
def test_an_option_without_an_effect_is_unrecognized(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_orthopoly_tables(capsys):
    code, out = run_cli(
        capsys, "orthopoly", "--family", "alphaq-poisson-B", "--N", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["moments"][0] == "1"
    assert payload["moments"][1] == "0"
    assert payload["polynomials"][1] == ["0", "1"]
    assert payload["gamma"][0] == "a + 1"


def test_orthopoly_resource_guard_exit_code(capsys):
    assert main(["orthopoly", "--family", "qt-poisson", "--N", "20"]) == 3
    code, out = run_cli(capsys, "orthopoly", "--family", "alsalam-ismail", "--N", "19")
    assert code == 0
    assert len(json.loads(out)["polynomials"]) == 20


def test_verify_suite_passes(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "wick", "--n", "3", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1
    assert all(check["status"] == "pass" for check in payload["checks"])
    assert all(check["elapsed_ms"] == 0 for check in payload["checks"])


# comparisons each check makes at the verify defaults: a check that stops
# yielding reports would otherwise pass without comparing anything
DEFAULT_REPORT_COUNTS = {
    **{f"wick-n{n}": 1 for n in range(1, 5)},
    **{f"vector-n{n}": 3**n for n in range(1, 5)},
    "corollaries": 12,
    "qt-identity": 4,
    "qt-y5-fixture": 1,
    "factorization": 8,
    "spectral-bounds": 32,
    "orthopoly-identities": 17,
    "orthopoly-substitution": 1,
    "group-partition-counts": 12,
}


def test_default_checks_compare_every_instance():
    args = cli.build_parser().parse_args(["verify"])
    checks = [check for suite in cli.SUITES.values() for check in suite(args.n, args.seed)]
    counts = {}
    for name, run in checks:
        reports = list(run())
        assert all(report.equal for report in reports), name
        counts[name] = len(reports)
    assert counts == DEFAULT_REPORT_COUNTS


def _shifted_moment(side, n):
    """wick-n<n> with one side plus 1 on its instance: the partition side
    ``wick_moment(prob)`` or the operator side ``vacuum_expectation(ops, space)``,
    which is the row's lhs."""
    def perturb(monkeypatch):
        original = getattr(moments, side)
        size = (lambda prob: prob.n) if side == "wick_moment" else (lambda ops, space: len(ops))
        monkeypatch.setattr(moments, side, lambda *args: original(*args) + (1 if size(*args) == n else 0))

    def sides():
        # the wick suite's draw at the verify defaults: seed 7 + n on "+-"
        value = wick_moment(random_problem(random.Random(7 + n), n, SpaceSpec.diagonal("+-", truncation=n)))
        lhs, rhs = (value, value + 1) if side == "wick_moment" else (value + 1, value)
        return f"moment-identity-n{n}: {lhs}", str(rhs)

    return pytest.param(perturb, f"wick-n{n}", sides, id=f"wick-n{n}")


def _shifted_vector(sweep, word):
    """vector-n<len(word)> with one sweep off by the basis vector |1> at that word:
    the operator side ``eps_word_vectors``, which is the row's lhs, or the
    partition side ``vector_formulas``."""
    n = len(word)

    def perturb(monkeypatch):
        original = getattr(moments, sweep)

        def shifted(prob):
            for eps, v in zip(product(EPS_ALPHABET, repeat=prob.n), original(prob), strict=True):
                yield v + FockVector.basis(prob.space, (0,)) if eps == word else v

        monkeypatch.setattr(moments, sweep, shifted)

    def sides():
        # the vector suite's draw at the verify defaults: seed 7 + 100 + n on "+-"
        prob = random_problem(random.Random(7 + 100 + n), n, SpaceSpec.diagonal("+-", truncation=n))
        value = moments.eps_word_vector(word, prob)
        shifted = value + FockVector.basis(prob.space, (0,))
        lhs, rhs = (shifted, value) if sweep == "eps_word_vectors" else (value, shifted)
        return f"vector-identity-{''.join(word)}: {moments._vector_str(lhs)}", moments._vector_str(rhs)

    return pytest.param(perturb, f"vector-n{n}", sides, id=f"vector-n{n}")


def _shifted_corollary(label, evaluator):
    """corollaries with one evaluator off by one: the check stops at that
    evaluator's first instance, n = 1, where the unperturbed one agrees with
    wick_moment."""
    def perturb(monkeypatch):
        original = getattr(cli, evaluator)
        monkeypatch.setattr(cli, evaluator, lambda prob: original(prob) + 1)

    def sides():
        # the corollary suite's draw at the verify defaults: seed 7 + 200 + n on "++"
        prob = random_problem(random.Random(7 + 200 + 1), 1, SpaceSpec.diagonal("++", truncation=1), zero_lams=True)
        if label == "gaussian":
            prob = replace(prob, ts=(frac_matrix([[0, 0], [0, 0]]),))
        value = getattr(moments, evaluator)(prob)
        return f"{label} n=1: {value}", str(value + 1)

    return pytest.param(perturb, "corollaries", sides, id=f"corollaries-{label}")


def _symmetrizer_off_at_level_3(n, space):
    """P(3) on "+-" with 1 added to entry (0, 0): it no longer factors through
    R(3), and the gram stays positive definite, so spectral-bounds still passes."""
    p = symmetrizer(n, space)
    if n == 3 and space.d == 2:
        p = [[p[0][0] + 1, *p[0][1:]], *p[1:]]
    return p


def _factorization_sides():
    space = SpaceSpec.diagonal("+-", truncation=4)
    lhs = moments._matrix_str(_symmetrizer_off_at_level_3(3, space))
    return f"P(3) factorization +-: {lhs}", moments._matrix_str(symmetrizer(3, space))


def _zero_bound_at_level_3(monkeypatch):
    monkeypatch.setattr(cli, "qint", lambda n: Poly() if n == 3 else qint(n))


def _negated_gram_at_level_3(monkeypatch):
    def negated(a, alpha, q):
        m, den = mat_to_int(a, alpha, q)
        return ([[-x for x in row] for row in m] if len(a) == 8 else m), den

    monkeypatch.setattr(cli, "mat_to_int", negated)


def _perturbed_al_salam_ismail(jacobi_params):
    def perturb(monkeypatch):
        original = orthopoly.al_salam_ismail
        monkeypatch.setattr(orthopoly, "al_salam_ismail", lambda: jacobi_params(original()))
    return perturb


def _constant_beta(jacobi):
    # beta_n = 1: U_1 = y - 1 has a constant term, which t does not divide
    return orthopoly.JacobiParams(beta=lambda n: ONE, gamma=jacobi.gamma)


def _doubled_gamma(jacobi):
    # every coefficient keeps its power of t, so each division goes through,
    # but the first quotient that reads a gamma is off
    return orthopoly.JacobiParams(beta=jacobi.beta, gamma=lambda n: 2 * jacobi.gamma(n))


def _vacuum_added_to_each_step(monkeypatch):
    # P_1(B) Ω gains Ω; the check stops there, before operator_moments reads it
    original = orthopoly.apply_operator
    monkeypatch.setattr(
        orthopoly, "apply_operator",
        lambda op, v, horizon=None: original(op, v, horizon) + FockVector.vacuum(v.space),
    )


def _shifted_qt_operator_moment(monkeypatch):
    original = orthopoly.operator_moments

    def shifted(which, upto, sign="+"):
        values = original(which, upto, sign)
        return [m + 1 if which == "qt" and k == 3 else m for k, m in enumerate(values)]

    monkeypatch.setattr(orthopoly, "operator_moments", shifted)


def _shifted_qt_y_moment(monkeypatch):
    original = cli.qt_y_moment
    monkeypatch.setattr(cli, "qt_y_moment", lambda *args: original(*args) + T)


def _shifted_qt_wick_on_the_line(monkeypatch):
    # qt-identity runs on d = 2, the fixture on d = 1
    original = cli.qt_wick
    monkeypatch.setattr(
        cli, "qt_wick", lambda xs, ts, spec: original(xs, ts, spec) + (T if spec.space.d == 1 else 0)
    )


def _group_without_its_last_element(monkeypatch):
    original = cli.enumerate_group
    monkeypatch.setattr(cli, "enumerate_group", lambda n: original(n)[:-1])


def _set_partitions_without_n_alone(monkeypatch):
    # loses colored partitions; the expected count is taken from no partition walk
    original = partitions.set_partitions
    monkeypatch.setattr(
        partitions, "set_partitions", lambda n: (p for p in original(n) if (n,) not in p)
    )


# one row per way a default check is made to fail: the perturbation, the row
# that must fail, and its (lhs, rhs), or a function computing them from the
# unperturbed library
FAILING_ROWS = [
    _shifted_moment("wick_moment", 1),
    _shifted_moment("vacuum_expectation", 2),
    _shifted_moment("wick_moment", 3),
    _shifted_moment("wick_moment", 4),
    _shifted_vector("eps_word_vectors", ("*",)),
    _shifted_vector("vector_formulas", ("*", "'")),
    _shifted_vector("vector_formulas", ("*", "'", "*")),
    _shifted_vector("eps_word_vectors", ("*", "*", "1", "'")),
    _shifted_corollary("q-case", "corollary_q_case"),
    _shifted_corollary("free-alpha", "corollary_free_alpha"),
    _shifted_corollary("gaussian", "corollary_gaussian"),
    pytest.param(
        lambda monkeypatch: monkeypatch.setattr(cli, "symmetrizer", _symmetrizer_off_at_level_3),
        "factorization", _factorization_sides, id="factorization",
    ),
    # a zero norm bound at n = 3, or the negated n = 3 gram, fails the first point of n = 3
    pytest.param(
        _zero_bound_at_level_3, "spectral-bounds",
        ("norm bound n=3 at (2/5,3/10): False", "True"), id="spectral-norm-bound",
    ),
    pytest.param(
        _negated_gram_at_level_3, "spectral-bounds",
        ("gram positivity n=3 at (2/5,3/10): False", "True"), id="spectral-gram-positivity",
    ),
    pytest.param(
        _vacuum_added_to_each_step, "orthopoly-identities",
        ("vacuum-polynomial-alphaq-+ P_1: [](1) + [1](1)", "[1](1)"), id="orthopoly-vacuum-polynomial",
    ),
    pytest.param(
        _shifted_qt_operator_moment, "orthopoly-identities", ("qt-poisson m_3: 1", "2"),
        id="orthopoly-moments",
    ),
    # the Al-Salam-Ismail recurrence fails at the first U_n coefficient it changes
    pytest.param(
        _perturbed_al_salam_ismail(_constant_beta), "orthopoly-substitution",
        ("al-salam-ismail-substitution n=1 y^0: -1", "a multiple of t^1"),
        id="substitution-not-divisible",
    ),
    pytest.param(
        _perturbed_al_salam_ismail(_doubled_gamma), "orthopoly-substitution",
        ("al-salam-ismail-substitution n=2 y^0: -2", "-1"), id="substitution-wrong-quotient",
    ),
    pytest.param(_shifted_qt_y_moment, "qt-identity", ("qt n=1: t", "0"), id="qt-identity"),
    pytest.param(
        _shifted_qt_wick_on_the_line, "qt-y5-fixture",
        ("qt-y5 at q=0: t^2 + 3*t + 3", "t^2 + 2*t + 3"), id="qt-y5-fixture",
    ),
    pytest.param(
        _group_without_its_last_element, "group-partition-counts", ("|group(1)|: 1", "2"),
        id="group-order",
    ),
    pytest.param(
        _set_partitions_without_n_alone, "group-partition-counts", ("colored count n=1: 0", "1"),
        id="group-partition-counts",
    ),
]


def test_every_default_check_has_a_failing_row():
    assert {row.values[1] for row in FAILING_ROWS} == set(DEFAULT_REPORT_COUNTS)


@pytest.mark.parametrize("perturb, row, sides", FAILING_ROWS)
def test_each_default_check_fails_on_its_own_instance(monkeypatch, capsys, perturb, row, sides):
    """One side of one default check is perturbed: verify exits 1, only that
    row fails, with the sides of the instance where they part, and every
    passing row keeps both sides empty."""
    lhs, rhs = sides() if callable(sides) else sides
    perturb(monkeypatch)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [r["name"] for r in rows if r["status"] == "fail"] == [row]
    (failed,) = [r for r in rows if r["name"] == row]
    assert (failed["lhs"], failed["rhs"]) == (lhs, rhs)
    assert all(r["lhs"] == r["rhs"] == "" for r in rows if r["status"] == "pass")


def test_the_vector_suite_runs_up_to_the_guard():
    names = [name for name, _ in cli.SUITES["vector"](moments.MAX_VECTOR_N + 3, 7)]
    assert names == [f"vector-n{n}" for n in range(1, moments.MAX_VECTOR_N + 1)]


def test_colored_count_follows_the_stirling_recurrence():
    assert [cli._colored_count(n) for n in range(1, 8)] == [1, 3, 11, 49, 257, 1539, 10299]
    for n in range(10):
        expected = sum(2 ** (n - len(blocks)) for blocks in oracles.set_partitions(n))
        assert cli._colored_count(n) == expected


def test_verify_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "vector", "--n", "2", "--seed", "3")
    _, second = run_cli(capsys, "verify", "--suite", "vector", "--n", "2", "--seed", "3")
    assert first == second


def test_group_resource_guard_exit_code(capsys):
    code = main(["group", "--n", "9"])
    assert code == 3


def test_qt_resource_guard_exit_code(capsys):
    assert main(["qt", "--n", "11", "--t-symbolic"]) == 3
    assert "guarded at n <= 10" in capsys.readouterr().err
    assert main(["qt", "--n", "10", "--t-symbolic"]) == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["qt", "--n", "2", "--t-symbolic", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["wick"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["fock", "--n", "-1"],
        ["partitions", "--n", "-1"],
        ["group", "--n", "-2"],
        ["moment", "--n", "-1"],
        ["qt", "--n", "-1"],
        ["orthopoly", "--family", "qt-poisson", "--N", "-1"],
        ["verify", "--n", "-3"],
        pytest.param(["verify", "--n", "0"], id="verify-zero"),
        pytest.param(["fock", "--n", "x"], id="not-an-integer"),
        pytest.param(["fock", "--n", "1", "--mode", "rational", "--q", "abc"], id="not-a-rational"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_sizes_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_size_zero_is_unchanged(capsys):
    code, out = run_cli(capsys, "fock", "--n", "0")
    assert code == 0
    assert json.loads(out)["symmetrizer"] == [["1"]]
    code, out = run_cli(capsys, "moment", "--n", "0")
    assert code == 0
    assert json.loads(out)["partition_side"] == "1"
    # B_0 is the trivial group: one row, the empty window with its empty word
    code, out = run_cli(capsys, "group", "--n", "0")
    assert code == 0
    assert out == "window,l1,l2,word\n,0,0,\n"


# prints whether numpy is loaded after `import bfock`, the default verify's
# exit code, and whether numpy is loaded after it
NUMPY_PROBE = """
import io, sys
from contextlib import redirect_stdout
import bfock
after_import = "numpy" in sys.modules
import bfock.cli
with redirect_stdout(io.StringIO()):
    code = bfock.cli.main(["verify", "--suite", "all"])
print(after_import, code, "numpy" in sys.modules)
"""


@pytest.fixture(scope="module")
def numpy_probe():
    """(numpy after import, verify exit code, numpy after verify) in a fresh interpreter."""
    src = Path(bfock.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    after_import, code, after_verify = result.stdout.split()
    return after_import, int(code), after_verify


def test_numpy_stays_off_the_import_path(numpy_probe):
    # verify's exit code has its own test, so a kernel fault does not read as an import fault
    after_import, _, after_verify = numpy_probe
    assert (after_import, after_verify) == ("False", "False")


def test_default_verify_passes_in_a_fresh_interpreter(numpy_probe):
    assert numpy_probe[1] == 0
