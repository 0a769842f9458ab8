"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/test_bench.py

They cover the reference checkers (each must flag a wrong answer as a failed
op), the tracer, the metric names against BENCHMARK.json, a smoke run of
every workload in both modes with tiny grids, and a run in a directory that
holds only the benchmark, which must fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hookzeta.cli  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Hookzeta  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_answers(name: str, seed: int = 0):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, True)
    return wl, inputs, wl.run(inputs, Hookzeta)


class CheckerTests(unittest.TestCase):
    def test_right_answers_pass(self):
        for name in workloads.WORKLOADS:
            wl, inputs, result = smoke_answers(name)
            tally = wl.check(inputs, result)
            self.assertGreater(tally.ops, 0, name)
            self.assertEqual(tally.failed, 0, (name, tally.notes))

    def test_verify_flags_failed_and_missing_checks(self):
        wl, inputs, result = smoke_answers("verify")
        call = result["calls"][0]
        lines = call.stdout.splitlines()
        lines[0] = lines[0].replace("[pass]", "[FAIL]")
        wrong = workloads.CliCall(call.argv, 1, "\n".join(lines[1:]))
        tally = wl.check(inputs, {"calls": [wrong]})
        self.assertEqual((tally.ops, tally.failed), (25, 1))
        wrong = workloads.CliCall(call.argv, 1, call.stdout)
        self.assertEqual(wl.check(inputs, {"calls": [wrong]}).failed, 25)

    def test_walk_flags_wrong_count(self):
        wl, inputs, result = smoke_answers("walk")
        out = json.loads(result["calls"][0].stdout)
        out["counts"]["2"] += 1
        call = workloads.CliCall([], 0, json.dumps(out))
        self.assertEqual(wl.check(inputs, {"calls": [call]}).failed, 1)

    def test_specht_flags_wrong_d_and_intertwiner(self):
        wl, inputs, result = smoke_answers("specht")
        good = result["calls"][0]
        for tamper in ("d", "scale", "entry"):
            out = json.loads(good.stdout)
            entries = out["intertwiner"]["entries"]
            if tamper == "d":
                out["d"] = 1
            elif tamper == "scale":
                out["intertwiner"]["entries"] = [[str(2 * int(x)) for x in row] for row in entries]
            else:
                entries[0][0] = str(int(entries[0][0]) + 1)
            calls = [workloads.CliCall(good.argv, 0, json.dumps(out))] + result["calls"][1:]
            tally = wl.check(inputs, {"calls": calls})
            self.assertEqual(tally.failed, 1, tamper)

    def test_census_flags_wrong_count_and_table(self):
        wl, inputs, result = smoke_answers("census")
        key = inputs["queries"][0]
        counts = {**result["counts"], key: result["counts"][key] + 1}
        self.assertEqual(wl.check(inputs, {**result, "counts": counts}).failed, 1)
        call = result["calls"][0]
        table = json.loads(call.stdout)
        table[-1][1] += 1
        calls = [workloads.CliCall(call.argv, 0, json.dumps(table))] + result["calls"][1:]
        self.assertGreaterEqual(wl.check(inputs, {**result, "calls": calls}).failed, 1)

    def test_references_match_known_values(self):
        # L(1) for n = 8 at p = 3: 1 + X^7 + X^14 over 1 - X^8.
        self.assertEqual(
            workloads.local_series(8, 3, 1, 16),
            [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1],
        )
        # n = 3, d = 4: (1 + X + X^2) / (1 - X^3) = 1 / (1 - X) at p = 2, and odd
        # parts must be cubes.
        self.assertEqual(workloads.coefficient_table(3, 4, 10), [1, 1, 0, 1, 0, 0, 0, 1, 0, 0])


class TracerTests(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        def hnf(x):
            return x

        def lattice_intersect(x):
            return exactmat.hnf(x) + craig.hnf(x)

        exactmat = types.SimpleNamespace(hnf=hnf, lattice_intersect=lattice_intersect)
        craig = types.SimpleNamespace(hnf=hnf)
        t = tracer.Tracer()
        t.install({"exactmat": exactmat, "craig": craig})
        self.assertEqual(exactmat.lattice_intersect(1), 2)
        self.assertIs(craig.hnf, exactmat.hnf)
        self.assertEqual(
            [(t.names[s[0]], s[3]) for s in t.spans],
            [("exactmat.lattice_intersect", -1), ("exactmat.hnf", 0), ("exactmat.hnf", 0)],
        )

    def test_layer_metrics_on_a_synthetic_tree(self):
        names = ["cli.main", "exactmat.hnf", "craig.maximal_sublattices_p"]
        spans = [
            [0, 0.0, 10.0, -1, -1],
            [2, 1.0, 5.0, 0, 0],
            [1, 2.0, 3.0, 1, -1],
            [2, 6.0, 8.0, 0, 0],
            [2, 8.0, 9.0, 0, 1],
        ]
        m = tracer.layer_metrics(names, spans)
        self.assertEqual(m["cli.main.s"], 10.0)
        self.assertEqual(m["cli.main.self_s"], 10.0 - 4.0 - 2.0 - 1.0)
        self.assertEqual(m["exactmat.hnf.calls"], 1)
        self.assertEqual(m["craig.maximal_sublattices_p.calls"], 3)
        self.assertEqual(m["craig.maximal_sublattices_p.distinct_args"], 2)
        self.assertEqual(m["craig.maximal_sublattices_p.self_s"], 3.0 + 2.0 + 1.0)
        self.assertEqual(m["specht.intertwiner.calls"], 0)

    def test_targets_exist_in_hookzeta(self):
        for module, func, _ in tracer.TARGETS:
            mod = sys.modules.get(f"hookzeta.{module}")
            self.assertTrue(callable(getattr(mod, func, None)), f"{module}.{func}")


class SpecTests(unittest.TestCase):
    def test_metric_names(self):
        e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        self.assertEqual(e2e, list(run.END_TO_END))
        self.assertEqual(layers, run.per_layer_names())
        names = [n for n, _ in e2e + layers]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_workloads(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in SPEC["workloads"]],
            [(w.name, w.why) for w in workloads.WORKLOADS.values()],
        )


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTests(unittest.TestCase):
    def test_every_workload_in_both_modes(self):
        for entry in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = bench_run(entry["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[key]])

    def test_fails_without_the_program(self):
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench_run("walk", 0, Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
