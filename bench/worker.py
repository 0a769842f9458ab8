"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It imports
hookzeta, builds the workload's inputs, prints the monotonic time at which
set-up ended, then (unless --setup-only) runs and checks the workload and
prints one JSON line with its wall time, operation tally, peak RSS and a
digest of the CLI output.  With --spans PATH it traces the calls into each
hookzeta module and writes the spans to PATH after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import hookzeta
import hookzeta.cli

from tracer import Tracer
from workloads import WORKLOADS, CliCall


class Hookzeta:
    """The calls a workload makes, looked up at call time so traced wrappers apply."""

    craig = hookzeta.craig
    specht = hookzeta.specht

    @staticmethod
    def cli(argv: list[str]) -> CliCall:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = hookzeta.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed answer, not a failed run
            print(f"hookzeta {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            rc = None
        return CliCall(argv, rc, buf.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(
            {k.partition(".")[2]: m for k, m in sys.modules.items() if k.partition(".")[0] == "hookzeta"}
        )
    start = time.perf_counter()
    result = workload.run(inputs, Hookzeta)
    tally = workload.check(inputs, result)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256()
    stdout_bytes = 0
    for call in result["calls"]:
        digest.update(json.dumps([call.argv, call.rc]).encode())
        digest.update(call.stdout.encode())
        stdout_bytes += len(call.stdout.encode())
    if tracer:
        tracer.dump(args.spans)
    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall,
                "ops": tally.ops,
                "failed": tally.failed,
                "notes": tally.notes,
                "peak_rss_mb": rss_mb,
                "cli_sha256": digest.hexdigest(),
                "stdout_bytes": stdout_bytes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
