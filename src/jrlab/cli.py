"""Command-line front end: parse exact elements, run the verification
suites, and emit line-delimited JSON reports plus a one-line summary.

Exit codes: 0 pass, 1 failures found, 2 parse error, 3 domain error,
4 budget exceeded, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .chambers import CONVEXITY_MAX_RANK
from .fields import PLocalContext, InfiniteValuation
from .gltilde import d_r, invariants, jordan, stratum
from .hermitian import (cayley_gl, cayley_inverse, group_moments,
                        match_invariants_group, standard_cayley_params)
from . import serialize as ser
from .orbital import fl_check, toy_transfer_check
from .suites import chambers_suite, cones_suite, descent_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

INPUT_COMMANDS = ("invariants", "jordan", "cayley", "match")   # each reads one JSON file
COMMANDS = INPUT_COMMANDS + ("fl", "toy", "cones", "chambers")

# command -> {flag: (least value, budget or None)}: a flag below its least
# value is a parse error, one above its budget exits with EXIT_BUDGET.
RANGES = {
    "fl": {"n": (1, 2), "budget_valuation": (0, 8), "instances": (1, None)},
    "toy": {"budget_valuation": (0, None)},
    "cones": {"n": (0, 3), "grid": (1, None)},
    "chambers": {"m": (2, CONVEXITY_MAX_RANK), "instances": (1, None)},
}


def _emit(args, records, summary):
    lines = [json.dumps(r, default=str) for r in records]
    text = "\n".join(lines)
    if not args.json_only:
        text += ("\n" if lines else "") + summary
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _parse_error(message):
    print(f"parse error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _load(path, build):
    """build(the JSON in path); malformed input of any shape is a parse
    error (exit 2)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return build(obj)
    except (OSError, json.JSONDecodeError, AttributeError, KeyError, IndexError,
            TypeError, ValueError, ZeroDivisionError) as e:
        _parse_error(e)


def _prime(text):
    """argparse type of --p: an odd prime."""
    try:
        return PLocalContext(int(text)).p
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


class _Parser(argparse.ArgumentParser):
    """Bad flags are parse errors too: the same first line and exit code."""

    def error(self, message):
        print(f"parse error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_invariants(args):
    X = _load(args.input, ser.triple_from_json)
    a = invariants(X)
    r = stratum(X)
    record = ser.point_to_json(a)
    record["stratum"] = r
    record["d"] = [ser.frac_to_str(d_r(X, k)) for k in range(0, X.n + 1)]
    _emit(args, [record], f"stratum {r} in dimension {X.n}")
    return EXIT_PASS


def cmd_jordan(args):
    Xs, Xn = jordan(_load(args.input, ser.triple_from_json))
    rec = {"semisimple": ser.triple_to_json(Xs), "nilpotent": ser.triple_to_json(Xn)}
    _emit(args, [rec], "decomposed")
    return EXIT_PASS


def cmd_cayley(args):
    Y = _load(args.input, lambda obj: ser.square_from_json(obj["Y"]))
    ctx = PLocalContext(args.p)
    params = standard_cayley_params(ctx, t=1, s=1)
    try:
        r = cayley_gl(Y, params)
        back = cayley_inverse(r, params)
    except ZeroDivisionError:
        print("kappa pole", file=sys.stderr)
        return EXIT_DOMAIN
    rec = {"image": [[ser.escalar_to_json(x) for x in row] for row in r],
           "round_trip_ok": back == [[ctx.embed(x) for x in row] for row in Y]}
    _emit(args, [rec], "cayley ok" if rec["round_trip_ok"] else "cayley round trip failed")
    return EXIT_PASS if rec["round_trip_ok"] else EXIT_FAIL


def cmd_match(args):
    ctx = PLocalContext(args.p)

    def build(obj):
        def scalar(x):
            return ser.escalar_from_json(x, ctx)
        return (ser.square_from_json(obj["Y1"], scalar), ser.square_from_json(obj["Y2"], scalar),
                ser.form_from_json(obj["form"], ctx))

    Y1, Y2, form = _load(args.input, build)
    try:
        ok = match_invariants_group(Y1, Y2, form)
        n = len(Y1) - 1
        moments = {
            "twisted": [ser.escalar_to_json(m) for m in group_moments(Y1, n, n)],
            "unitary": [ser.escalar_to_json(m) for m in group_moments(Y2, n, n, form)],
        }
    except (ValueError, ZeroDivisionError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(args, [{"matched": ok, "moments": moments}], f"matched: {ok}")
    return EXIT_PASS


def _verdict(args, records, fails: int, total: int) -> int:
    """Emit the records under a `PASS k/total` or `FAIL k/total` summary,
    k = total - fails, and return the matching exit code."""
    _emit(args, records, f"{'FAIL' if fails else 'PASS'} {total - fails}/{total}")
    return EXIT_FAIL if fails else EXIT_PASS


def cmd_fl(args):
    ctx = PLocalContext(args.p)
    rep = fl_check(args.n, ctx, args.budget_valuation, seed=args.seed,
                   samples=args.instances)
    return _verdict(args, rep["results"], len(rep["failures"]), len(rep["results"]))


def cmd_toy(args):
    ctx = PLocalContext(args.p)
    vals = [Fraction(0)]
    for w in range(-args.budget_valuation, args.budget_valuation + 1):
        vals.append(Fraction(args.p) ** w)
        vals.append(2 * Fraction(args.p) ** w)
    rep = toy_transfer_check(ctx, vals)
    return _verdict(args, rep["failures"] or [rep], len(rep["failures"]), rep["values"])


def cmd_cones(args):
    rep = cones_suite(args.n, points=args.grid, seed=args.seed)
    rep2 = descent_suite(args.n, seed=args.seed, samples=max(4, args.instances // 8))
    return _verdict(args, [rep, rep2], len(rep["failures"]) + len(rep2["failures"]),
                    rep["instances"] + rep2["instances"])


def cmd_chambers(args):
    rep = chambers_suite(args.m, seed=args.seed, families=args.instances)
    return _verdict(args, [rep], len(rep["failures"]), rep["instances"])


@functools.cache
def build_parser():
    ap = _Parser(prog="jrlab", description="exact verification of invariant-theoretic, polyhedral "
                 "and p-adic identities for the GL(n) x GL(n+1) comparison")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("input", nargs="?", help=f"JSON input of {', '.join(INPUT_COMMANDS)}")
    ap.add_argument("--p", type=_prime, default=3, help="odd prime")
    ap.add_argument("--n", type=int, default=1, help="base dimension")
    ap.add_argument("--m", type=int, default=4, help="chamber rank")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget-valuation", type=int, default=6)
    ap.add_argument("--grid", type=int, default=10000, help="grid points per identity")
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--out", help="also write records to FILE")
    ap.add_argument("--json-only", action="store_true")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_intermixed_args(argv)   # flags may also sit between command and input
    if args.command in INPUT_COMMANDS and args.input is None:
        ap.error("the following arguments are required: input")
    if args.command not in INPUT_COMMANDS and args.input is not None:
        ap.error(f"unrecognized arguments: {args.input}")
    limits = RANGES.get(args.command, {})
    for flag, (least, _) in limits.items():
        if getattr(args, flag) < least:
            _parse_error(f"--{flag.replace('_', '-')} must be at least {least}")
    if any(getattr(args, flag) > most for flag, (_, most) in limits.items() if most is not None):
        print("budget exceeded", file=sys.stderr)
        raise SystemExit(EXIT_BUDGET)
    try:
        code = globals()[f"cmd_{args.command}"](args)
    except InfiniteValuation as e:
        print(f"domain error: {e}", file=sys.stderr)
        code = EXIT_DOMAIN
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        code = EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    main()
