"""Every name a `hookzeta` module lists in `__all__` exists, so that
`from hookzeta.<module> import *` cannot fail on a stale entry, and the
package namespace itself lists no names: each is imported from its module.
The version is stated once, as `hookzeta.__version__`."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import hookzeta

MODULES = [
    importlib.import_module(f"hookzeta.{info.name}")
    for info in pkgutil.iter_modules(hookzeta.__path__)
]


def test_every_exported_name_resolves():
    exporting = [m for m in MODULES if hasattr(m, "__all__")]
    assert hookzeta.craig in exporting
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_namespace_holds_no_names():
    names = [
        name
        for name, value in vars(hookzeta).items()
        if not name.startswith("__") and not isinstance(value, ModuleType)
    ]
    assert names == []


def test_version_is_stated_once():
    # pyproject.toml is read as text: Python 3.10, the declared floor, has no tomllib.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', text, re.M)
    assert re.search(
        r'^\[tool\.setuptools\.dynamic\]\nversion = \{attr = "hookzeta\.__version__"\}$', text, re.M
    )
    assert not re.search(r"^version = [\"']", text, re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", hookzeta.__version__)
