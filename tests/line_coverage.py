"""Every line of ``src/bfock`` that the tier-1 suite never runs is listed here, with why.

Run it from the repository root, as the suite itself is run:

    PYTHONPATH=src python3 tests/line_coverage.py

It runs the suite in this process under a ``sys.settrace`` line hook that
watches only the files of the package, then compares the lines that never ran
with ``ALLOWED``.  A line is executable if compiled bytecode carries its
number, and it ran if the hook saw it.  Each line that never ran belongs to a
scope: the innermost function or class around it (``Class.method``), or else
the top-level statement around it, named by its first line.  ``ALLOWED`` names
scopes whose whole body never runs.  The script exits 1 if a line that never
ran lies outside every listed scope, if a line of a listed scope runs (so the
list can only shrink), or if the suite fails.  It needs only the standard
library and the test dependencies; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bfock"

FLOAT_HELPER = (
    "a float spectral value that only the benchmark's tracer calls, as its fock.spectral "
    "metric; it goes with that metric"
)
ALLOWED = {
    "fock.py:gram_min_eigenvalue": FLOAT_HELPER,
    "fock.py:r_operator_norm": FLOAT_HELPER,
    "fock.py:gauge_norm_deformed": FLOAT_HELPER,
    "scalars.py:mat_to_float": "the float view of a matrix that only the float spectral values read",
    "scalars.py:if TYPE_CHECKING:": "the numpy import of mat_to_float's annotation, for type checkers only",
    'cli.py:if __name__ == "__main__":': "runs only as `python -m bfock.cli`, in a separate process",
}


def executable_lines(source: str, filename: str) -> set[int]:
    """The line numbers that some compiled code object of source carries."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        stack += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def scopes(source: str) -> dict[str, range]:
    """Each function and class by qualified name, and each other top-level
    statement by its first line, with the lines of its body."""
    out = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[prefix + sub.name] = range(sub.body[0].lineno, sub.end_lineno + 1)
                visit(sub, f"{prefix}{sub.name}.")
            elif node is tree and hasattr(sub, "body"):
                header = source.splitlines()[sub.lineno - 1].strip()
                out[header] = range(sub.body[0].lineno, sub.end_lineno + 1)

    tree = ast.parse(source)
    visit(tree, "")
    return out


def owner(line: int, spans: dict[str, range]) -> str | None:
    """The innermost scope whose body holds line."""
    holding = [(len(span), name) for name, span in spans.items() if line in span]
    return min(holding)[1] if holding else None


def run_suite(ran: dict[str, set[int]]) -> int:
    """Tier-1 in this process, recording each line of the package that runs."""
    prefix = str(PACKAGE) + "/"

    def lines(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)


def problems(ran: dict[str, set[int]]) -> list[str]:
    out, listed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = scopes(source)
        executable = executable_lines(source, str(path))
        never = sorted(executable - ran.get(str(path), set()))
        for line in never:
            key = f"{path.name}:{owner(line, spans) or '<module>'}"
            if key not in ALLOWED:
                text = source.splitlines()[line - 1].strip()
                out.append(f"{path.name}:{line} never runs and is not listed ({key}): {text}")
        for key in ALLOWED:
            name, _, scope = key.partition(":")
            if name != path.name:
                continue
            listed.add(key)
            if scope not in spans:
                out.append(f"{key} is listed but not found")
                continue
            body = [line for line in spans[scope] if line in executable and owner(line, spans) == scope]
            out += [f"{key} is listed but line {line} runs" for line in body if line not in never]
    out += [f"{key} is listed but its file is not in the package" for key in sorted(set(ALLOWED) - listed)]
    return out


def main() -> int:
    ran: dict[str, set[int]] = {}
    code = run_suite(ran)
    found = problems(ran)
    for problem in found:
        print(problem)
    if code != 0:
        print(f"the suite exited {code}")
    print(f"{len(ALLOWED)} listed scopes; {len(found)} problems")
    return 1 if found or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
