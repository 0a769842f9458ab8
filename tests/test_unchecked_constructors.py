"""The unchecked matrix and lattice constructors stay inside the library core.

`IntMatrix._trusted` skips the integer and shape checks of `IntMatrix`, and
`LatticeBasis._from_hnf` skips the normal form of `LatticeBasis`.  Both are
for results the library has just built in normal form.  Every module of the
package is parsed with `ast`, and every reference to either name is listed
with the function it appears in.  Outside `exactmat.py` only the allowlisted
functions may use them, so code that reads outside input (`cli.cmd_identify`,
`matrix_from_json`) always goes through the checked constructors.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hookzeta").glob("*.py"))
UNCHECKED = {"_trusted", "_from_hnf"}
ALLOWED = {("craig.py", "_lift_subspace")}


def unchecked_uses(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing function or "<module>", name) for every reference to an unchecked constructor."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr in UNCHECKED:
            found.append((where, node.attr))
        elif isinstance(node, ast.Name) and node.id in UNCHECKED:
            found.append((where, node.id))
        elif isinstance(node, ast.alias) and node.name in UNCHECKED:
            found.append((where, node.name))
        elif isinstance(node, ast.Constant) and node.value in UNCHECKED:
            found.append((where, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_sources_found():
    assert any(path.name == "exactmat.py" for path in SOURCES)


def test_only_allowlisted_functions_use_them():
    outside = {
        (path.name, where)
        for path in SOURCES
        if path.name != "exactmat.py"
        for where, _ in unchecked_uses(ast.parse(path.read_text(), str(path)))
    }
    assert outside <= ALLOWED, sorted(outside - ALLOWED)


def test_allowlist_is_in_use():
    # A stale allowlist entry would silently widen the gate.
    craig = next(path for path in SOURCES if path.name == "craig.py")
    assert {w for w, _ in unchecked_uses(ast.parse(craig.read_text()))} == {"_lift_subspace"}


@pytest.mark.parametrize(
    "source",
    [
        "IntMatrix._trusted(rows)",
        "def cmd_identify(args):\n    return LatticeBasis._from_hnf(m)",
        "make = IntMatrix._trusted",
        "from .exactmat import _trusted",
        "getattr(LatticeBasis, '_from_hnf')(m)",
        "f = lambda m: exactmat.LatticeBasis._from_hnf(m)",
    ],
)
def test_guard_flags_every_reference(source):
    assert unchecked_uses(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    ["IntMatrix(rows)", "LatticeBasis(m)", "IntMatrix.from_columns(cols)", "hnf(m)"],
)
def test_guard_passes_checked_constructors(source):
    assert unchecked_uses(ast.parse(source)) == []
