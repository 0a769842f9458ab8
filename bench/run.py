"""hookzeta benchmark driver.

    python3 bench/run.py --workload {verify,walk,specht,census} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Every repetition of the workload runs in a
fresh interpreter (bench/worker.py), one at a time, so each starts with an
empty submodule cache as a CLI user's process does.  This process starts no
threads and never imports hookzeta.

--trace 0 prints the end-to-end metrics: the median over repetitions of
wall_s (first call into hookzeta to the last checked answer), setup_s
(interpreter start through importing hookzeta and building the inputs; also
sampled by set-up-only processes) and peak_rss_mb, plus ops, the operations
one repetition attempts.

--trace 1 alternates untraced and traced repetitions (at least one and two)
and prints the per-layer metrics computed from the traced spans, with the
tracing overhead.  Both modes assert that every repetition gives
byte-identical CLI output and the same tally, and trace mode asserts that the
traced repetitions give identical call counts.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment
and every sample; the same record is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metric_names, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"

MIN_REPS = 3
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops", "count"))
RUN_LAYER = (
    ("cli.stdout_bytes", "bytes"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    return layer_metric_names() + list(RUN_LAYER)


class RunError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.base = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
        if smoke:
            self.base.append("--smoke")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.start = time.monotonic()
        self.traced = 0

    def spawn(self, *extra: str) -> dict:
        timeout = HARD_LIMIT_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise RunError("out of time")
        began = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *self.base, *extra],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"worker exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        rec["setup_s"] = rec.pop("ready") - began
        rec["elapsed_s"] = time.monotonic() - began
        return rec

    def rep(self, traced: bool) -> dict:
        if not traced:
            return self.spawn()
        path = OUT / f"spans-{self.workload}-{self.traced}.json"
        self.traced += 1
        rec = self.spawn("--spans", str(path))
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        rec["layers"] = layer_metrics(spans["names"], spans["spans"])
        return rec


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
    """Set-up probes, then repetitions until the next one would overrun the time."""
    runner.spawn("--setup-only")  # warm-up: compiles bytecode, fails fast without hookzeta
    setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    plan = [False, True, True] if trace else [False] * MIN_REPS
    cycle = [False, True] if trace else [False]
    reps: list[dict] = []
    deadline = runner.start + seconds
    while True:
        if len(reps) < len(plan):
            traced = plan[len(reps)]
        else:
            traced = cycle[(len(reps) - len(plan)) % len(cycle)]
            same = [r["elapsed_s"] for r in reps if ("layers" in r) == traced]
            if time.monotonic() + statistics.median(same) > deadline:
                break
        reps.append(runner.rep(traced))
    return setups, reps


def consistency_errors(reps: list[dict]) -> list[str]:
    errors = []
    first = reps[0]
    for key in ("cli_sha256", "ops", "failed"):
        if any(r[key] != first[key] for r in reps):
            errors.append(f"repetitions disagree on {key}")
    traced = [r["layers"] for r in reps if "layers" in r]
    counts = [{k: v for k, v in t.items() if isinstance(v, int)} for t in traced]
    if any(c != counts[0] for c in counts):
        errors.append("traced repetitions disagree on call counts")
    return errors


def metrics_for(trace: bool, setups: list[float], reps: list[dict]) -> dict:
    plain = [r for r in reps if "layers" not in r]
    if not trace:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ops": plain[0]["ops"],
        }
        units = END_TO_END
    else:
        traced = [r for r in reps if "layers" in r]
        values = {}
        for name, unit in layer_metric_names():
            column = [r["layers"][name] for r in traced]
            values[name] = column[0] if unit == "count" else statistics.median(column)
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values.update(
            {
                "cli.stdout_bytes": traced[0]["stdout_bytes"],
                "trace.untraced_wall_s": untraced_wall,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
            }
        )
        units = per_layer_names()
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hookzeta").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hookzeta" / "__init__.py").is_file():
        print(f"no hookzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.smoke)
    try:
        setups, reps = measure(runner, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    errors = consistency_errors(reps)
    for e in errors:
        print(e, file=sys.stderr)
    failed = sum(r["failed"] for r in reps)
    for note in reps[0]["notes"]:
        print(f"failed op: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "metrics": metrics_for(bool(args.trace), setups, reps),
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_probes_s": setups,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "errors": errors,
        "result": result,
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("workload", "env", "setup_probes_s", "reps")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
