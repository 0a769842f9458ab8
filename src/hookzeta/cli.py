"""Command-line front end.

Subcommands: zeta, coeffs, enumerate, identify, verify, specht.
Exit codes: 0 success, 1 verification or identification failure (or a reader
that closed standard output early), 2 bad or unreadable input, or a
computation above a configured bound (`--bound-*`; `specht --n` above
`--bound-specht-n`, `coeffs --limit` above `--bound-coeffs-limit` and
`enumerate --max-exp` above `--bound-max-exp`, or at least 1 with a residue
module above `--bound-spin`, and `verify` with a residue module of its grid
above `--bound-spin`, stop before any work).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import craig, specht, verify, zeta
from .arith import is_prime
from .bounds import Bounds, ScaleError
from .exactmat import LatticeBasis, LatticeError, matrix_from_json, matrix_to_json


# Each override flag, the `Bounds` field it sets, and what that field bounds.
_BOUND_FLAGS = (
    (
        "--bound-oracle-n",
        "polytabloid_max_n",
        "largest n at which verify and specht check the Specht action against the"
        " polytabloid oracle, and largest n of the n!-term polytabloid expansion",
    ),
    ("--bound-index", "index_enumeration_max", "largest index m of the exhaustive census"),
    (
        "--bound-spin",
        "spinning_max_order",
        "largest residue-module estimate n^3 (n + p) for the word's blocks and their digraph,"
        " and n^3 per member of the radical interval",
    ),
    ("--bound-max-exp", "walk_max_exp", "largest --max-exp accepted by enumerate"),
    ("--bound-specht-n", "specht_max_n", "largest n accepted by specht"),
    ("--bound-coeffs-limit", "coeffs_max_limit", "largest --limit accepted by coeffs"),
)


def _bounds_from_args(args) -> Bounds:
    return Bounds(**{field: getattr(args, field) for _, field, _ in _BOUND_FLAGS})


def _emit_json(obj) -> None:
    # Streamed in batches: bounded memory, and few writes to an unbuffered stdout.
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    while batch := list(islice(chunks, 4096)):
        sys.stdout.write("".join(batch))
    print()


def cmd_zeta(args) -> int:
    z = zeta.global_zeta(args.n, args.d)
    if args.format == "json":
        _emit_json(z.to_json_dict())
    elif args.format == "latex":
        print(z.to_latex())
    else:
        print(z.to_text())
    return 0


def cmd_coeffs(args) -> int:
    bounds = _bounds_from_args(args)
    if args.limit < 1:
        raise ValueError("limit must be at least 1")
    if args.limit > bounds.coeffs_max_limit:
        raise ScaleError(
            f"coeffs-scale-exceeded: limit {args.limit} is above {bounds.coeffs_max_limit}"
        )
    table = zeta.dirichlet_coeffs(zeta.global_zeta(args.n, args.d), args.limit)
    # "m<TAB>a" lines, or the bytes `_emit_json` writes for [[m, a], ...]:
    # shaped by hand and streamed in batches of one %-format each, since the
    # indent-2 encoder runs in pure Python and is several times slower on
    # this table.
    text = args.format == "text"
    sep = "\n" if text else ",\n"
    shape = "%d\t%d" if text else "  [\n    %d,\n    %d\n  ]"
    sys.stdout.write("" if text else "[\n")
    for start in range(0, len(table), 4096):
        batch = table[start : start + 4096]
        flat = [0] * (2 * len(batch))
        flat[0::2] = range(start + 1, start + 1 + len(batch))
        flat[1::2] = batch
        sys.stdout.write((sep if start else "") + sep.join([shape] * len(batch)) % tuple(flat))
    sys.stdout.write("\n" if text else "\n]\n")
    return 0


def cmd_enumerate(args) -> int:
    bounds = _bounds_from_args(args)
    # The bounds come before is_prime; the oracle's loop ends only for p > 1.
    if args.oracle and args.prime > 1:
        # top is the largest e with p^e within the bound; p^max_exp is never formed.
        top, power = -1, 1
        while power <= bounds.index_enumeration_max:
            top, power = top + 1, power * args.prime
        if args.max_exp > top:
            raise ScaleError("enumeration-scale-exceeded: oracle range above configured bound")
    if args.max_exp > bounds.walk_max_exp:
        raise ScaleError(f"walk-scale-exceeded: --max-exp is above {bounds.walk_max_exp}")
    if args.max_exp >= 1:
        craig.check_spinning_scale(args.n, args.prime, bounds)
    if not is_prime(args.prime):
        raise ValueError("--prime must be a prime number")
    base = craig.craig_lattice(args.n, args.d).basis
    # L(d) is stable exactly when d divides n + 1; `verify` checks this with is_g_stable.
    if (args.n + 1) % args.d:
        print("requested lattice is not stable", file=sys.stderr)
        return 2
    # Index p^0 holds L(d) alone: neither the walk nor the census reads the
    # generators there.
    gens = specht.craig_generators(args.n) if args.max_exp else None
    found = craig.enumerate_p_sublattices(base, gens, args.prime, args.max_exp, bounds)
    counts = {str(e): len(found.get(e, [])) for e in range(args.max_exp + 1)}
    if args.oracle:
        for e in range(args.max_exp + 1):
            direct = craig.enumerate_index_sublattices(base, gens, args.prime**e, bounds)
            if direct != found.get(e, []):
                print(
                    f"mismatch between walk and census at exponent {e}",
                    file=sys.stderr,
                )
                return 1
    payload: dict = {"p": args.prime, "counts": counts}
    if args.with_lattices:
        payload["lattices"] = {
            str(e): [matrix_to_json(lat.hnf) for lat in found.get(e, [])]
            for e in range(args.max_exp + 1)
        }
    if args.format == "text":
        print(" ".join(str(counts[str(e)]) for e in range(args.max_exp + 1)))
    else:
        _emit_json(payload)
    return 0


def cmd_identify(args) -> int:
    try:
        # json.load raises RecursionError on deeply nested input.
        with open(args.file, "r", encoding="utf-8") as fh:
            basis = matrix_from_json(json.load(fh))
        # Refused before the normal form, which can cost far more than the read.
        if basis.rows == basis.cols != args.n:
            raise ValueError("basis dimension does not match --n")
        lat = LatticeBasis(basis)
    except (LatticeError, RecursionError) as exc:
        raise ValueError(str(exc)) from None
    # By Craig-Plesken every stable lattice is r L(d) with d | n+1, so None means unstable.
    d = craig.identify_stable_lattice(lat)
    if d is None:
        print("lattice is not stable under the action", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"n": args.n, "d": d})
    else:
        print(d)
    return 0


def cmd_verify(args) -> int:
    bounds = _bounds_from_args(args)
    report = verify.run_verification(args.n_max, bounds, args.seed)
    if args.format == "text":
        for check in report["checks"]:
            mark = "pass" if check["passed"] else "FAIL"
            line = f"[{mark}] {check['name']}"
            if not check["passed"] and check["detail"]:
                line += f": {check['detail']}"
            print(line)
        arb = report["specht_factor_arbitration"]
        print(
            "Specht local factor: implemented the "
            f"{arb['implemented']} form; enumeration supports the {arb['oracle_supports']} form"
        )
        print("overall:", "pass" if report["passed"] else "FAIL")
    else:
        _emit_json(report)
    return 0 if report["passed"] else 1


def cmd_specht(args) -> int:
    bounds = _bounds_from_args(args)
    if args.n > bounds.specht_max_n:
        raise ScaleError(f"specht-scale-exceeded: n = {args.n} is above {bounds.specht_max_n}")
    closed = specht.specht_generators_closed(args.n)
    if args.n <= bounds.polytabloid_max_n:
        oracle = specht.specht_generators_oracle(args.n, bounds)
        if oracle.mats != closed.mats:
            print("closed Specht action disagrees with the oracle", file=sys.stderr)
            return 1
    p, d = specht.identify_specht_lattice(closed, specht.craig_generators(args.n))
    payload = {
        "n": args.n,
        "generators": [matrix_to_json(m) for m in closed.mats],
        "intertwiner": matrix_to_json(p),
        "d": d,
    }
    if args.format == "text":
        print(f"d = {d}")
        for k, m in enumerate(closed.mats, start=1):
            print(f"s_{k}: {[list(r) for r in m.entries]}")
        print(f"intertwiner: {[list(r) for r in p.entries]}")
    else:
        _emit_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookzeta",
        description="Sublattice counting and zeta functions for hook-module lattices "
        "of symmetric groups.",
    )
    for flag, field, text in _BOUND_FLAGS:
        parser.add_argument(flag, dest=field, type=int, default=getattr(Bounds, field), help=text)
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", help="factored zeta function of L(d)")
    p_zeta.add_argument("--n", type=int, required=True)
    p_zeta.add_argument("--d", type=int, required=True)
    p_zeta.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_zeta.set_defaults(func=cmd_zeta)

    p_coeffs = sub.add_parser("coeffs", help="sublattice counts a(m) for m up to a limit")
    p_coeffs.add_argument("--n", type=int, required=True)
    p_coeffs.add_argument("--d", type=int, required=True)
    p_coeffs.add_argument("--limit", type=int, required=True)
    p_coeffs.add_argument("--format", choices=("text", "json"), default="json")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_enum = sub.add_parser("enumerate", help="count stable sublattices of p-power index")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--d", type=int, default=1)
    p_enum.add_argument("--prime", type=int, required=True)
    p_enum.add_argument("--max-exp", type=int, required=True)
    p_enum.add_argument("--oracle", action="store_true", help="cross-check against the census")
    p_enum.add_argument("--with-lattices", action="store_true")
    p_enum.add_argument("--format", choices=("text", "json"), default="json")
    p_enum.set_defaults(func=cmd_enumerate)

    p_ident = sub.add_parser("identify", help="match a stable lattice to its representative")
    p_ident.add_argument("--file", required=True)
    p_ident.add_argument("--n", type=int, required=True)
    p_ident.add_argument("--format", choices=("text", "json"), default="text")
    p_ident.set_defaults(func=cmd_identify)

    p_verify = sub.add_parser("verify", help="run the full cross-check battery")
    p_verify.add_argument("--n-max", type=int, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_specht = sub.add_parser("specht", help="Specht action matrices and identification")
    p_specht.add_argument("--n", type=int, required=True)
    p_specht.add_argument("--format", choices=("text", "json"), default="json")
    p_specht.set_defaults(func=cmd_specht)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 2) < 2 or getattr(args, "n_max", 2) < 2:
        print("module dimension must be at least 2", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        # Flush here so that a closed pipe surfaces inside this try block.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away; send what is still buffered to devnull so
        # that the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScaleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
