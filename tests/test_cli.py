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
from bfock.scalars import ALPHA, ONE, Poly, T, mat_to_int, qint

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
    with pytest.raises(SystemExit):
        main(["fock", "--n", "1", "--mode", "rational", "--alpha", "2"])


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


def test_a_failing_check_names_its_instance(monkeypatch, capsys):
    monkeypatch.setattr(
        moments, "wick_moment", lambda prob: wick_moment(prob) + (1 if prob.n == 3 else 0)
    )
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["wick-n3"]
    # the check's instance, as the wick suite draws it: seed 7 + n on "+-"
    prob = random_problem(random.Random(7 + 3), 3, SpaceSpec.diagonal("+-", truncation=3))
    (failed,) = [row for row in rows if row["name"] == "wick-n3"]
    assert failed["lhs"] == f"moment-identity-n3: {wick_moment(prob)}"
    assert failed["rhs"] == str(wick_moment(prob) + 1)
    assert all(row["lhs"] == row["rhs"] == "" for row in rows if row["status"] == "pass")


def test_a_failing_factorization_names_its_level_and_signature(monkeypatch, capsys):
    """P(3) on "+-" gains 1 in entry (0, 0): it no longer factors through R(3),
    and the gram stays positive definite, so spectral-bounds still passes."""
    def perturbed(n, space):
        p = symmetrizer(n, space)
        if n == 3 and space.d == 2:
            p = [[p[0][0] + 1, *p[0][1:]], *p[1:]]
        return p

    monkeypatch.setattr(cli, "symmetrizer", perturbed)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["factorization"]
    (failed,) = [row for row in rows if row["name"] == "factorization"]
    space = SpaceSpec.diagonal("+-", truncation=4)
    assert failed["lhs"] == f"P(3) factorization +-: {moments._matrix_str(perturbed(3, space))}"
    assert failed["rhs"] == moments._matrix_str(symmetrizer(3, space))


def _zero_bound_at_level_3(monkeypatch):
    monkeypatch.setattr(cli, "qint", lambda n: Poly() if n == 3 else qint(n))


def _negated_gram_at_level_3(monkeypatch):
    def negated(a, alpha, q):
        m, den = mat_to_int(a, alpha, q)
        return ([[-x for x in row] for row in m] if len(a) == 8 else m), den

    monkeypatch.setattr(cli, "mat_to_int", negated)


@pytest.mark.parametrize(
    "perturb, instance",
    [(_zero_bound_at_level_3, "norm bound"), (_negated_gram_at_level_3, "gram positivity")],
    ids=["norm-bound", "gram-positivity"],
)
def test_a_failing_spectral_bound_names_its_level_and_point(monkeypatch, capsys, perturb, instance):
    """A zero norm bound at n = 3, or the negated n = 3 gram, fails the first
    point of n = 3 and nothing outside spectral-bounds."""
    perturb(monkeypatch)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["spectral-bounds"]
    (failed,) = [row for row in rows if row["name"] == "spectral-bounds"]
    assert (failed["lhs"], failed["rhs"]) == (f"{instance} n=3 at (2/5,3/10): False", "True")


def test_a_failing_vector_row_names_its_word(monkeypatch, capsys):
    """One word's vector on the partition side of vector-n3 is off by one basis
    vector: only that row fails, and it names the word."""
    eps = ("*", "'", "*")
    word_index = list(product(EPS_ALPHABET, repeat=3)).index(eps)
    original = moments.vector_formulas

    def perturbed(prob):
        for k, v in enumerate(original(prob)):
            yield v + FockVector.basis(prob.space, (0,)) if prob.n == 3 and k == word_index else v

    monkeypatch.setattr(moments, "vector_formulas", perturbed)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["vector-n3"]
    # the check's instance, as the vector suite draws it: seed 7 + 100 + n on "+-"
    prob = random_problem(random.Random(7 + 100 + 3), 3, SpaceSpec.diagonal("+-", truncation=3))
    expected = moments.eps_word_vector(eps, prob)
    (failed,) = [row for row in rows if row["name"] == "vector-n3"]
    assert failed["lhs"] == f"vector-identity-*'*: {moments._vector_str(expected)}"
    assert failed["rhs"] == moments._vector_str(expected + FockVector.basis(prob.space, (0,)))


def test_a_failing_corollary_names_its_evaluator_and_size(monkeypatch, capsys):
    """corollary_gaussian off by one fails the first Gaussian instance, n = 1,
    and nothing outside corollaries."""
    original = cli.corollary_gaussian
    values = []

    def perturbed(prob):
        values.append(original(prob))
        return values[-1] + 1

    monkeypatch.setattr(cli, "corollary_gaussian", perturbed)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["corollaries"]
    (failed,) = [row for row in rows if row["name"] == "corollaries"]
    # the check stops at its first failure, where wick_moment agrees with the
    # unperturbed evaluator
    (value,) = values
    assert (failed["lhs"], failed["rhs"]) == (f"gaussian n=1: {value}", str(value + 1))


def _constant_beta(jacobi):
    # beta_n = 1: U_1 = y - 1 has a constant term, which t does not divide
    return orthopoly.JacobiParams(beta=lambda n: ONE, gamma=jacobi.gamma)


def _doubled_gamma(jacobi):
    # every coefficient keeps its power of t, so each division goes through,
    # but the first quotient that reads a gamma is off
    return orthopoly.JacobiParams(beta=jacobi.beta, gamma=lambda n: 2 * jacobi.gamma(n))


@pytest.mark.parametrize(
    "perturb, lhs, rhs",
    [
        (_constant_beta, "al-salam-ismail-substitution n=1 y^0: -1", "a multiple of t^1"),
        (_doubled_gamma, "al-salam-ismail-substitution n=2 y^0: -2", "-1"),
    ],
    ids=["not-divisible", "wrong-quotient"],
)
def test_a_failing_substitution_names_its_degree_and_power(monkeypatch, capsys, perturb, lhs, rhs):
    """A perturbed Al-Salam-Ismail recurrence fails orthopoly-substitution at
    the first U_n coefficient it changes, and nothing else."""
    original = orthopoly.al_salam_ismail
    monkeypatch.setattr(orthopoly, "al_salam_ismail", lambda: perturb(original()))
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["orthopoly-substitution"]
    (failed,) = [row for row in rows if row["name"] == "orthopoly-substitution"]
    assert (failed["lhs"], failed["rhs"]) == (lhs, rhs)


def _shifted_moment(side, n):
    """One side of wick-n<n> plus 1 on its instance: the partition side
    ``wick_moment(prob)`` or the operator side ``vacuum_expectation(ops, space)``."""
    def perturb(monkeypatch):
        original = getattr(moments, side)
        size = (lambda prob: prob.n) if side == "wick_moment" else (lambda ops, space: len(ops))
        monkeypatch.setattr(moments, side, lambda *args: original(*args) + (1 if size(*args) == n else 0))
    return perturb


def _shifted_vector(sweep, word):
    """One side of vector-n<len(word)> off by the basis vector |1> at that word."""
    def perturb(monkeypatch):
        original = getattr(moments, sweep)

        def shifted(prob):
            for eps, v in zip(product(EPS_ALPHABET, repeat=prob.n), original(prob), strict=True):
                yield v + FockVector.basis(prob.space, (0,)) if eps == word else v

        monkeypatch.setattr(moments, sweep, shifted)
    return perturb


def _shifted_qt_y_moment(monkeypatch):
    original = cli.qt_y_moment
    monkeypatch.setattr(cli, "qt_y_moment", lambda *args: original(*args) + T)


def _shifted_qt_wick_on_the_line(monkeypatch):
    # qt-identity runs on d = 2, the fixture on d = 1
    original = cli.qt_wick
    monkeypatch.setattr(
        cli, "qt_wick", lambda xs, ts, spec: original(xs, ts, spec) + (T if spec.space.d == 1 else 0)
    )


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


@pytest.mark.parametrize(
    "perturb, row, instance",
    [
        (_shifted_moment("wick_moment", 1), "wick-n1", "moment-identity-n1"),
        (_shifted_moment("vacuum_expectation", 2), "wick-n2", "moment-identity-n2"),
        (_shifted_moment("wick_moment", 4), "wick-n4", "moment-identity-n4"),
        (_shifted_vector("eps_word_vectors", ("*",)), "vector-n1", "vector-identity-*"),
        (_shifted_vector("vector_formulas", ("*", "'")), "vector-n2", "vector-identity-*'"),
        (_shifted_vector("eps_word_vectors", ("*", "*", "1", "'")), "vector-n4", "vector-identity-**1'"),
        (_vacuum_added_to_each_step, "orthopoly-identities", "vacuum-polynomial-alphaq-+ P_1"),
        (_shifted_qt_operator_moment, "orthopoly-identities", "qt-poisson m_3"),
        (_shifted_qt_y_moment, "qt-identity", "qt n=1"),
        (_shifted_qt_wick_on_the_line, "qt-y5-fixture", "qt-y5 at q=0"),
    ],
    ids=[
        "wick-n1", "wick-n2", "wick-n4", "vector-n1", "vector-n2", "vector-n4",
        "orthopoly-vacuum-polynomial", "orthopoly-moments", "qt-identity", "qt-y5-fixture",
    ],
)
def test_each_default_check_fails_on_its_own_instance(monkeypatch, capsys, perturb, row, instance):
    """One side of one default check is perturbed: verify exits 1, only that
    row fails, and its lhs names the instance where the sides part."""
    perturb(monkeypatch)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [r["name"] for r in rows if r["status"] == "fail"] == [row]
    (failed,) = [r for r in rows if r["name"] == row]
    assert failed["lhs"].startswith(f"{instance}: ")


def test_the_vector_suite_runs_up_to_the_guard():
    names = [name for name, _ in cli.SUITES["vector"](moments.MAX_VECTOR_N + 3, 7)]
    assert names == [f"vector-n{n}" for n in range(1, moments.MAX_VECTOR_N + 1)]


def test_colored_count_follows_the_stirling_recurrence():
    assert [cli._colored_count(n) for n in range(1, 8)] == [1, 3, 11, 49, 257, 1539, 10299]
    for n in range(10):
        expected = sum(2 ** (n - len(blocks)) for blocks in oracles.set_partitions(n))
        assert cli._colored_count(n) == expected


def test_group_check_sees_lost_set_partitions(monkeypatch, capsys):
    """A set_partitions that never yields n as a singleton loses colored partitions,
    and the expected count, taken from no partition walk, shows it."""
    original = partitions.set_partitions
    monkeypatch.setattr(
        partitions, "set_partitions", lambda n: (p for p in original(n) if (n,) not in p)
    )
    code, out = run_cli(capsys, "verify", "--suite", "group")
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert (row["lhs"], row["rhs"]) == ("colored count n=1: 0", "1")


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
