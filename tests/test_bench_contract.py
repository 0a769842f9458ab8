"""The benchmark's contract on `verify`, read from `bench/` without changing it.

The benchmark traces every `verify.check_*` by name and expects a report of a
fixed number of checks; a check that is dropped or renamed fails here, in the
unit tests, before it fails a benchmark operation.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from hookzeta import verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_module(monkeypatch):
    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


def test_traced_checks_are_the_checks_of_verify(bench_module):
    checks = {
        name
        for name, fn in inspect.getmembers(verify, inspect.isfunction)
        if name.startswith("check_") and fn.__module__ == verify.__name__
    }
    traced = bench_module("tracer").VERIFY_CHECKS
    assert len(set(traced)) == len(traced)
    assert checks == set(traced)


def test_report_has_the_benchmarks_check_count(bench_module):
    report = verify.run_verification(2)
    assert len(report["checks"]) == bench_module("workloads").REPORT_CHECKS
