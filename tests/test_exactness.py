"""The library computes in exact arithmetic only: no floating point anywhere.

Every module of the package is parsed with `ast` and scanned for the ways
floating point gets in: a float or complex literal, a call to `float`,
`complex` or `round`, and an import from `math`, `cmath`, `statistics` or
`decimal` of anything other than the integer functions `gcd` and `isqrt`, and
true division `/`, which turns two ints into a float.  Exact rationals are
built with the `fractions.Fraction` constructor instead.  Every module must
also parse under the grammar of the oldest Python that pyproject.toml declares.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hookzeta").glob("*.py"))
INEXACT_CALLS = {"float", "complex", "round"}
INEXACT_MODULES = {"math", "cmath", "statistics", "decimal"}
EXACT_NAMES = {"gcd", "isqrt"}


def top_module(name: str | None) -> str:
    return (name or "").split(".")[0]


def inexact_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in INEXACT_CALLS
        ):
            found.append(f"line {node.lineno}: call to {node.func.id}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {a.name}"
                for a in node.names
                if top_module(a.name) in INEXACT_MODULES
            ]
        elif isinstance(node, ast.ImportFrom) and top_module(node.module) in INEXACT_MODULES:
            found += [
                f"line {node.lineno}: from {node.module} import {a.name}"
                for a in node.names
                if a.name not in EXACT_NAMES
            ]
    return found


def test_sources_found():
    assert any(path.name == "craig.py" for path in SOURCES)


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_at_the_declared_python_floor(path):
    # The interpreter running the suite may be newer than the floor.
    ast.parse(path.read_text(), str(path), feature_version=declared_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_is_exact(path):
    assert inexact_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "y = float(3)",
        "y = complex(1, 2)",
        "y = round(7, 1)",
        "from math import sqrt",
        "from math import gcd, log",
        "import math",
        "import decimal",
        "from statistics import mean",
        "from cmath import phase",
        "x = a / b",
        "x /= 2",
    ],
)
def test_guard_flags_inexact_code(source):
    assert inexact_uses(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "from math import gcd, isqrt",
        "from fractions import Fraction",
        "x = Fraction(1, 3)",
        "y = 7 // 2",
    ],
)
def test_guard_passes_exact_code(source):
    assert inexact_uses(ast.parse(source)) == []
