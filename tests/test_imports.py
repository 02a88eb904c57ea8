"""Every name a module of the package imports is used in that module, every
function the package defines is reached from the package or exported, and
every export that nothing in the package reads is listed with its reason."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import bfock

PACKAGE = Path(bfock.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")

# Functions that nothing in the package calls and ``bfock.__all__`` does not
# list, kept only because the benchmark's tracer wraps them.  Each entry goes
# when the tracer stops wrapping it (ROADMAP item 1).
TRACED_ONLY = {"cumulant_partition", "gauge_norm_deformed", "gram_min_eigenvalue", "r_operator_norm"}

# Methods that nothing in the package calls, kept only because the benchmark's
# workloads call them: ``QtSpec.make`` builds the qt-orthopoly workload's space.
# Each goes with ``bfock.qt`` (ROADMAP item 14).
WORKLOAD_ONLY = {"make"}

# Names in ``bfock.__all__`` that nothing in the package reads, so the
# reachability check counts them as reached only because they are exported;
# each stays for the paper object it stands for or for the benchmark's use.
UNREAD_EXPORTS = {
    "Q": "the deformation parameter q of the scalar ring Z[a, q, t], beside ALPHA and T",
    "create": "the type-B creation operator b+(x)",
    "annihilate": "the type-B annihilation operator b-(x)",
    "gauge": "the type-B gauge operator p(T)",
    "inner": "the deformed inner product <u, v> = <u, P v> of the vectors' space, in either model",
    "qt_apply": "a benchmark tracer target (qt.qt_apply in perfbench/spans.py)",
    "qt_wick": "the partition side of the (q,t) moment formula that the benchmark's qt-orthopoly "
               "workload calls and its tracer wraps (qt.qt_wick in perfbench/spans.py)",
    "qt_y_moment": "the operator side of the (q,t) moment formula that the benchmark's qt-orthopoly "
                   "workload calls and its tracer wraps (qt.qt_y_moment in perfbench/spans.py)",
    "enumerate_extended_eps": "a benchmark tracer target (partitions.extended in perfbench/spans.py)",
    "vector_formula": "the partition side of the vector-level theorem for one eps word; "
                      "the benchmark's vector-n6 workload calls it",
    "eps_word_vector": "the operator side of the vector-level theorem for one eps word; "
                       "the benchmark's vector-n6 workload calls it",
}


def annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_a_quoted_annotation():
    source = "from typing import Sequence\nfrom .scalars import Poly, ZERO\ndef f(x: 'Poly'): pass\n"
    assert unused_imports(source) == ["Sequence", "ZERO"]


def definitions(tree: ast.Module) -> list[tuple[ast.FunctionDef, bool]]:
    """(node, is_method) for the top-level functions and the methods of
    top-level classes, dunders excepted."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node, False))
        elif isinstance(node, ast.ClassDef):
            out += [(sub, True) for sub in node.body if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return out


def names_read(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is read in node, as an attribute (``x.name``) and,
    unless attributes_only, as a bare name."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds) and isinstance(sub.ctx, ast.Load)
    )


def unreached(sources: list[str], exported: set[str]) -> list[str]:
    """The functions and methods defined in sources that no code outside their
    own definition reads by name and that ``exported`` does not list.  A method
    is reached only through an attribute read, so a local variable of the same
    name does not hide it."""
    trees = [ast.parse(source) for source in sources]
    read = {
        method: sum((names_read(tree, method) for tree in trees), Counter())
        for method in (False, True)
    }
    return sorted(
        node.name
        for tree in trees
        for node, method in definitions(tree)
        if node.name not in exported
        and read[method][node.name] == names_read(node, method)[node.name]
    )


def test_every_function_is_reached_or_exported():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unreached(sources, set(bfock.__all__)) == sorted(TRACED_ONLY | WORKLOAD_ONLY)


def unread_exports(sources: list[str], exported: set[str]) -> list[str]:
    """The names in exported that no code in sources reads, a function's or
    class's reads of its own name inside its definition aside."""
    trees = [ast.parse(source) for source in sources]
    read = sum((names_read(tree) for tree in trees), Counter())
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read[node.name] -= names_read(node)[node.name]
    return sorted(name for name in exported if read[name] <= 0)


def test_every_unread_export_is_listed_with_its_reason():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_exports(sources, set(bfock.__all__)) == sorted(UNREAD_EXPORTS)
    assert unread_exports(["def f(): return f()\ndef g(): return f()\nX = 1\n"], {"f", "g", "X"}) == ["X", "g"]


def test_the_check_sees_an_unreached_function_and_method():
    source = (
        "def f(): return g()\n"
        "def g(): return g()\n"  # a recursive call does not reach g
        "def h(): pass\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def unused(self): return self.unused()\n"
        "    def __eq__(self, other): return self.m()\n"
        "    def hidden(self): pass\n"
        "def k(hidden): return hidden\n"  # a local of the same name does not reach C.hidden
    )
    assert unreached([source], exported={"h", "k"}) == ["f", "hidden", "unused"]


def test_every_traced_only_function_is_a_tracer_target():
    # read without importing the benchmark: TARGETS is a literal tuple of
    # (name, kind, module, attribute)
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    assignment = next(
        node for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    targets = {entry.elts[3].value.rpartition(".")[2] for entry in assignment.value.elts}
    assert TRACED_ONLY <= targets


def test_every_workload_only_method_is_called_by_a_workload():
    assert WORKLOAD_ONLY <= set(names_read(ast.parse(WORKLOADS.read_text(encoding="utf-8")), True))
