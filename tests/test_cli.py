"""CLI: output formats, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import bfock
import oracles
from bfock import cli, moments, partitions
from bfock.cli import main
from bfock.fock import SpaceSpec
from bfock.moments import random_problem, wick_moment
from bfock.scalars import ALPHA, T

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_group_csv(capsys):
    code, out = run_cli(capsys, "group", "--n", "2", "--stats")
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


def test_qt_check(capsys):
    code, out = run_cli(
        capsys, "qt", "--n", "4", "--t-symbolic", "--check"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize(
    "values",
    [("--q", "5", "--t", "7"), ("--t", "7"), ("--t", "0"), ("--q", "3/4", "--t", "1/2")],
)
def test_qt_substituted_values_out_of_range(capsys, values):
    with pytest.raises(SystemExit) as exc:
        main(["qt", "--n", "3", *values])
    assert exc.value.code == 2
    code, out = run_cli(capsys, "qt", "--n", "3", "--q", "1/4", "--t", "1/2")
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


def test_qt_has_no_mode_option():
    with pytest.raises(SystemExit) as exc:
        main(["qt", "--n", "2", "--mode", "rational"])
    assert exc.value.code == 2


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
    assert main(["group", "--n", "0"]) == 3


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
