"""Every name a `hookzeta` module lists in `__all__` exists, so that
`from hookzeta.<module> import *` cannot fail on a stale entry."""

import importlib
import pkgutil

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
