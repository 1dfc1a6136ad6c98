"""Command-line front end.

Subcommands
-----------
footprint     the 22 footprint monomials with their weights
variety       the 22 points as enc coordinate pairs
bound         per-class weight bounds from the shipped traces or auto-search
table         the thresholded [n, k, d] parameter table
oracle        coset minimum weight: one exact scan or a seeded sample
trace-verify  replay and check one trace file
verify-all    run every module's invariant suite

All randomness flows from --seed through SplitMix64 (see rng.py), so all
reports are bit-reproducible.  Every command runs on the calling thread.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import klein
from .casebound import (
    TRACED_CLASSES,
    NotInFootprint,
    TraceError,
    bound_map_from_reports,
    full_bound_map,
    parse_trace,
    verify_all_traces,
    verify_trace,
)
from .codes import (
    EXACT_LIMIT_COEFFS,
    DimensionTooLarge,
    code_for_threshold,
    construct_table,
    coset_min_weight,
    min_distance,
)
from .poly import ExponentCapExceeded, MonomialOrder, format_monomial


# oracle --mode sample draws this many messages, so a sampled report is a
# function of --seed alone.
SAMPLE_COUNT = 100_000


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_footprint(args) -> int:
    order = MonomialOrder()
    rows = [{"monomial": format_monomial(m), "exponents": list(m),
             "weight": order.weight(m)} for m in klein.klein_footprint()]
    if args.format == "json":
        sys.stdout.write(_emit_json({"size": len(rows), "monomials": rows}))
    elif args.format == "csv":
        sys.stdout.write("monomial,x_exp,y_exp,weight\n")
        for r in rows:
            sys.stdout.write(f"{r['monomial']},{r['exponents'][0]},"
                             f"{r['exponents'][1]},{r['weight']}\n")
    else:
        sys.stdout.write(f"footprint size {len(rows)}\n")
        by_b = {}
        for r in rows:
            by_b.setdefault(r["exponents"][1], []).append(r)
        for b in sorted(by_b, reverse=True):
            cells = sorted(by_b[b], key=lambda r: r["exponents"][0])
            names = "  ".join(f"{c['monomial']}({c['weight']})" for c in cells)
            sys.stdout.write(f"b={b}: {names}\n")
    return 0


def cmd_variety(args) -> int:
    pts = [list(p) for p in klein.klein_variety()]
    if args.format == "json":
        sys.stdout.write(_emit_json({"size": len(pts), "points": pts}))
    elif args.format == "csv":
        sys.stdout.write("x,y\n")
        for x, y in pts:
            sys.stdout.write(f"{x},{y}\n")
    else:
        sys.stdout.write(f"variety size {len(pts)}\n")
        for x, y in pts:
            sys.stdout.write(f"({x}, {y})\n")
    return 0


def _bound_reports(args):
    """(reports, delta map); the traces are verified once, and the delta
    map, None for auto-search, always covers every class.  A --lm class
    outside the footprint is refused before any work; one without a trace
    is reported by the replay of the empty trace, its divisibility count."""
    M = None
    if args.lm:
        M = klein.parse_monomial(args.lm)
        if M not in klein.klein_footprint():
            raise NotInFootprint(f"{format_monomial(M)} outside the footprint")
    if args.auto:
        from .autosearch import SearchBudget, auto_search

        budget = SearchBudget()
        classes = [M] if M is not None else sorted(TRACED_CLASSES)
        return {c: auto_search(c, budget) for c in classes}, None
    reports = verify_all_traces(args.traces)
    delta = bound_map_from_reports(reports)
    if M is not None:
        reports = {M: reports[M] if M in reports else verify_trace(M, ())}
    return reports, delta


def _class_entry(M, rep) -> dict:
    return {
        "monomial": format_monomial(M),
        "parameters": rep.t,
        "baseline": rep.baseline,
        "bound": rep.bound,
        "leaves": list(rep.leaf_rows()),
    }


def _write_class_csv(entries) -> None:
    sys.stdout.write("monomial,parameters,baseline,bound\n")
    for e in entries:
        sys.stdout.write(f"{e['monomial']},{e['parameters']},"
                         f"{e['baseline']},{e['bound']}\n")


def cmd_bound(args) -> int:
    reports, delta = _bound_reports(args)
    source = "auto" if delta is None else "traces"
    fp = klein.klein_footprint()
    out = [_class_entry(M, reports[M]) for M in sorted(reports, key=MonomialOrder.key)]
    if args.format == "json":
        payload = {"source": source, "classes": out}
        if delta is not None:
            payload["delta_map"] = {format_monomial(m): delta[m] for m in fp}
        sys.stdout.write(_emit_json(payload))
    elif args.format == "csv":
        _write_class_csv(out)
    else:
        for e in out:
            sys.stdout.write(f"{e['monomial']}: bound {e['bound']} "
                             f"(baseline {e['baseline']}, {len(e['leaves'])} leaves)\n")
        if delta is not None:
            sys.stdout.write("full bound map:\n")
            for b in (2, 1, 0):
                row = [(m, delta[m]) for m in fp if m[1] == b]
                row.sort()
                sys.stdout.write(f"b={b}: " + " ".join(str(d) for _, d in row) + "\n")
    return 0


def cmd_table(args) -> int:
    measure_upto = args.measure_upto
    if measure_upto > EXACT_LIMIT_COEFFS:
        raise DimensionTooLarge(
            f"--measure-upto {measure_upto} is above the exact-scan limit of "
            f"{EXACT_LIMIT_COEFFS} coefficients; no row was measured")
    delta = full_bound_map(args.traces)
    v = klein.klein_variety()
    fp = klein.klein_footprint()
    rows = construct_table(delta, v)
    enriched = []
    for r in rows:
        row = dict(r, exact=False, supplementary=(r["s"] == 1))
        if r["k"] <= measure_upto:
            code = code_for_threshold(delta, r["s"], fp, v)
            d_true, exact = min_distance(code, "exhaustive")
            row["measured_d"] = d_true
            row["exact"] = exact
        best = klein.BEST_KNOWN_DISTANCE.get(r["k"])
        if best is not None:
            row["best_known"] = best
            gap = best - r["d"]
            row["comparison"] = "exceeds" if gap < 0 else \
                {0: "matches", 1: "one-less"}.get(gap, f"{gap}-less")
        enriched.append(row)
    if args.format == "json":
        sys.stdout.write(_emit_json({"rows": enriched}))
    elif args.format == "csv":
        sys.stdout.write("s,n,k,d,exact\n")
        for r in enriched:
            sys.stdout.write(f"{r['s']},{r['n']},{r['k']},{r['d']},"
                             f"{str(r['exact']).lower()}\n")
    else:
        for r in enriched:
            mark = " (supplementary)" if r["supplementary"] else ""
            extra = ""
            if "best_known" in r:
                extra = f"  best known {r['best_known']} ({r['comparison']})"
            if "measured_d" in r:
                extra += f"  measured d = {r['measured_d']}"
            sys.stdout.write(f"[{r['n']}, {r['k']}, {r['d']}]{mark}{extra}\n")
    return 0


def cmd_oracle(args) -> int:
    M = klein.parse_monomial(args.lm)
    support = klein.class_support(M)
    mode = args.mode
    w, exact = coset_min_weight(M, support, klein.klein_variety(), mode,
                                fp=klein.klein_footprint(), seed=args.seed,
                                count=SAMPLE_COUNT)
    delta = full_bound_map()[M]
    result = {
        "monomial": format_monomial(M),
        "mode": mode,
        "coefficients": len(support),
        "states": (8 ** len(support) if mode != "sample" else SAMPLE_COUNT),
        "min_weight": w,
        "exact": exact,
        "delta": delta,
        "sound": w >= delta,
    }
    if args.format == "json":
        sys.stdout.write(_emit_json(result))
    elif args.format == "csv":
        # the json's fields
        sys.stdout.write(",".join(result) + "\n")
        sys.stdout.write(",".join(str(v).lower() if isinstance(v, bool) else str(v)
                                  for v in result.values()) + "\n")
    else:
        sys.stdout.write(
            f"{result['monomial']} ({len(support)} coefficients, {mode}): "
            f"min weight {w} (exact={exact}), bound {delta}, "
            f"{'sound' if result['sound'] else 'VIOLATION'}\n")
    return 0 if result["sound"] else 1


def cmd_trace_verify(args) -> int:
    with open(args.file) as fh:
        steps = parse_trace(fh.read())
    M = klein.parse_monomial(args.lm)
    rep = verify_trace(M, steps)
    payload = _class_entry(M, rep)
    if args.format == "json":
        sys.stdout.write(_emit_json(payload))
    elif args.format == "csv":
        _write_class_csv([payload])
    else:
        sys.stdout.write(f"{payload['monomial']}: verified bound {rep.bound} "
                         f"(baseline {rep.baseline}, {len(rep.leaves)} leaves)\n")
        for row in payload["leaves"]:
            flag = " [vacuous]" if row["vacuous"] else ""
            sys.stdout.write(f"  {row['constraints']} -> "
                             f"{','.join(row['established']) or '-'} "
                             f"count {row['count']}{flag}\n")
    return 0


def cmd_verify_all(args) -> int:
    if args.format != "text":
        raise ValueError(f"verify-all prints text only, not --format {args.format}")
    failures = []

    def report(name, ok, detail=""):
        line = f"{'ok  ' if ok else 'FAIL'} {name}"
        if detail:
            line += f": {detail}"
        sys.stdout.write(line + "\n")
        if not ok:
            failures.append(name)

    from .verify import run_suites

    # Each suite's time goes to stderr, so stdout stays reproducible.
    start = time.perf_counter()
    for name, ok, detail in run_suites(seed=args.seed, quick=args.quick):
        report(name, ok, detail)
        now = time.perf_counter()
        sys.stderr.write(f"{name}: {now - start:.3f} s\n")
        start = now
    sys.stdout.write(("PASS" if not failures else "FAIL") +
                     f" ({len(failures)} failing suites)\n")
    return 0 if not failures else 1


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative_int(text: str) -> int:
    """An argparse type: an int no smaller than 0."""
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


def _seed_arg(text: str) -> int:
    """An argparse type: an int seed in 0..2^64 - 1.  SplitMix64 keeps 64
    bits of its seed, so a seed outside this range would alias another."""
    value = _int_arg(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed is {value}, outside 0..2^64 - 1")
    return value


def main(argv=None) -> int:
    # The global flags go before or after the subcommand.  They default to
    # SUPPRESS, so a flag given before it is not overwritten by the
    # subcommand's absent copy.  Their defaults are filled in after parsing:
    # parser.set_defaults would also reset the actions every subparser
    # shares with the parent, so a flag before the subcommand would be lost.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_seed_arg, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="kleincode",
        description="Affine variety codes from the Klein quartic over GF(8)",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("footprint", parents=[common],
                   help="footprint monomials and weights")
    sub.add_parser("variety", parents=[common], help="points of the variety")

    p = sub.add_parser("bound", parents=[common], help="per-class weight bounds")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--auto", action="store_true", help="use bounded auto-search")
    g.add_argument("--traces", default=None, help="directory of trace files")
    p.add_argument("--lm", default=None, help="restrict to one leading monomial")

    p = sub.add_parser("table", parents=[common],
                       help="the [n, k, d] parameter table")
    p.add_argument("--traces", default=None)
    p.add_argument("--measure-upto", type=_non_negative_int, default=0,
                   dest="measure_upto",
                   help="exhaustively measure true d for dimensions up to K "
                        f"(at most {EXACT_LIMIT_COEFFS})")

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force coset minimum weight")
    p.add_argument("--lm", required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")

    p = sub.add_parser("trace-verify", parents=[common],
                       help="verify one trace file")
    p.add_argument("file")
    p.add_argument("--lm", required=True)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every invariant suite")
    p.add_argument("--quick", action="store_true")

    args = parser.parse_args(argv)
    vars(args).setdefault("format", "text")
    vars(args).setdefault("seed", 42)
    handlers = {
        "footprint": cmd_footprint,
        "variety": cmd_variety,
        "bound": cmd_bound,
        "table": cmd_table,
        "oracle": cmd_oracle,
        "trace-verify": cmd_trace_verify,
        "verify-all": cmd_verify_all,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except (OSError, ValueError, ExponentCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TraceError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
