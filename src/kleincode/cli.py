"""Command-line front end.

Subcommands
-----------
footprint     the 22 footprint monomials with their weights
variety       the 22 points as enc coordinate pairs
bound         per-class weight bounds from the shipped traces or auto-search
table         the thresholded [n, k, d] parameter table
oracle        brute-force coset minimum-weight scans
trace-verify  replay and check one trace file
verify-all    run every module's invariant suite

All randomness flows from --seed through SplitMix64 (see rng.py), so all
reports are bit-reproducible.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import klein
from .casebound import (
    TRACED_CLASSES,
    bound_map_from_reports,
    divisibility_bound,
    full_bound_map,
    instantiate_and_check,
    load_trace_text,
    parse_trace,
    verify_all_traces,
    verify_trace,
)
from .codes import (
    EXACT_LIMIT_COEFFS,
    DimensionTooLarge,
    build_code,
    code_for_threshold,
    construct_table,
    coset_min_weight,
    count_weight_one,
    enumerate_variety,
    evaluation_vector,
    gf_rank,
    min_distance,
    verify_fano,
    weight_via_footprint,
)
from .gf import field_make
from .groebner import buchberger, footprint
from .poly import (
    FULL,
    HEAD,
    FieldDomain,
    MonomialOrder,
    Polynomial,
    divide,
    format_monomial,
    format_poly,
    parse_monomial,
    parse_poly,
)
from .rng import SplitMix64


@dataclass
class RunConfig:
    modulus_bits: int = klein.GF8_MODULUS_BITS
    weights: tuple = klein.ORDER_WEIGHTS
    tiebreak: int = klein.ORDER_TIEBREAK
    generators: tuple = (klein.CURVE_TEXT, klein.FIELD_EQ_X_TEXT, klein.FIELD_EQ_Y_TEXT)
    seed: int = 42
    sample_count: int = 100_000
    fmt: str = "text"

    @property
    def is_klein_default(self) -> bool:
        return (self.modulus_bits == klein.GF8_MODULUS_BITS
                and tuple(self.weights) == klein.ORDER_WEIGHTS
                and self.tiebreak == klein.ORDER_TIEBREAK
                and tuple(self.generators) == (klein.CURVE_TEXT,
                                               klein.FIELD_EQ_X_TEXT,
                                               klein.FIELD_EQ_Y_TEXT))

    def spec(self):
        if self.modulus_bits == klein.GF8_MODULUS_BITS:
            return klein.klein_field()
        return field_make(self.modulus_bits.bit_length() - 1, self.modulus_bits)

    def order(self):
        return MonomialOrder(self.weights, self.tiebreak)

    def gens(self):
        dom = FieldDomain(self.spec())
        return [parse_poly(t, dom) for t in self.generators]


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None) or os.environ.get("KLEINCODE_CONFIG")
    if path:
        with open(path) as fh:
            data = json.load(fh)
        for key in ("modulus_bits", "seed", "sample_count"):
            if key in data:
                setattr(cfg, key, int(data[key]))
        if "weights" in data:
            cfg.weights = tuple(int(w) for w in data["weights"])
        if "tiebreak" in data:
            cfg.tiebreak = int(data["tiebreak"])
        if "generators" in data:
            cfg.generators = tuple(data["generators"])
        cfg.order()  # a malformed order is a usage error before any work
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "format", None):
        cfg.fmt = args.format
    return cfg


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require_klein(cfg: RunConfig, what: str):
    if not cfg.is_klein_default:
        raise ValueError(f"{what} requires the default Klein configuration")


# ---------------------------------------------------------------------------
# subcommands

def cmd_footprint(args) -> int:
    cfg = load_config(args)
    order = cfg.order()
    gb = buchberger(cfg.gens(), order)
    fp = footprint(gb)
    rows = [{"monomial": format_monomial(m), "exponents": list(m),
             "weight": order.weight(m)} for m in fp]
    if cfg.fmt == "json":
        sys.stdout.write(_emit_json({"size": len(rows), "monomials": rows}))
    elif cfg.fmt == "csv":
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
    cfg = load_config(args)
    v = enumerate_variety(cfg.gens(), cfg.spec(), 2)
    pts = [list(p) for p in v]
    if cfg.fmt == "json":
        sys.stdout.write(_emit_json({"size": len(pts), "points": pts}))
    elif cfg.fmt == "csv":
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
    map, None for auto-search, always covers every class."""
    if getattr(args, "auto", False):
        from .autosearch import SearchBudget, auto_search

        budget = SearchBudget()
        classes = ([parse_monomial(args.lm)] if getattr(args, "lm", None)
                   else sorted(TRACED_CLASSES))
        return {M: auto_search(M, budget) for M in classes}, None
    reports = verify_all_traces(getattr(args, "traces", None))
    delta = bound_map_from_reports(reports)
    if getattr(args, "lm", None):
        M = parse_monomial(args.lm)
        reports = {M: reports[M]} if M in reports else {}
    return reports, delta


def cmd_bound(args) -> int:
    cfg = load_config(args)
    _require_klein(cfg, "bound")
    reports, delta = _bound_reports(args)
    source = "auto" if delta is None else "traces"
    fp = klein.klein_footprint()
    out = []
    for M in sorted(reports, key=klein.klein_order().key):
        rep = reports[M]
        entry = {
            "monomial": format_monomial(M),
            "parameters": rep.t,
            "baseline": rep.baseline,
            "bound": rep.bound,
            "leaves": list(rep.leaf_rows()),
        }
        out.append(entry)
    if cfg.fmt == "json":
        payload = {"source": source, "classes": out}
        if delta is not None:
            payload["delta_map"] = {format_monomial(m): delta[m] for m in fp}
        sys.stdout.write(_emit_json(payload))
    elif cfg.fmt == "csv":
        sys.stdout.write("monomial,parameters,baseline,bound\n")
        for e in out:
            sys.stdout.write(f"{e['monomial']},{e['parameters']},"
                             f"{e['baseline']},{e['bound']}\n")
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
    cfg = load_config(args)
    _require_klein(cfg, "table")
    measure_upto = getattr(args, "measure_upto", 0) or 0
    if measure_upto > EXACT_LIMIT_COEFFS:
        raise DimensionTooLarge(
            f"--measure-upto {measure_upto} is above the exact-scan limit of "
            f"{EXACT_LIMIT_COEFFS} coefficients; no row was measured")
    delta = full_bound_map(getattr(args, "traces", None))
    v = enumerate_variety(cfg.gens(), cfg.spec(), 2)
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
            row["comparison"] = "matches" if best == r["d"] else "one-less"
        enriched.append(row)
    if cfg.fmt == "json":
        sys.stdout.write(_emit_json({"rows": enriched}))
    elif cfg.fmt == "csv":
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
    cfg = load_config(args)
    _require_klein(cfg, "oracle")
    M = parse_monomial(args.lm)
    order = klein.klein_order()
    fp = klein.klein_footprint()
    v = enumerate_variety(cfg.gens(), cfg.spec(), 2)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    mode = args.mode
    jobs = max(1, getattr(args, "jobs", 1) or 1)
    w, exact = coset_min_weight(M, support, v, mode, order=order, fp=fp,
                                seed=cfg.seed, count=cfg.sample_count, jobs=jobs)
    delta = full_bound_map()[M]
    result = {
        "monomial": format_monomial(M),
        "mode": mode,
        "coefficients": len(support),
        "states": (8 ** len(support) if mode != "sample" else cfg.sample_count),
        "min_weight": w,
        "exact": exact,
        "delta": delta,
        "sound": w >= delta,
    }
    if cfg.fmt == "json":
        sys.stdout.write(_emit_json(result))
    elif cfg.fmt == "csv":
        sys.stdout.write("monomial,mode,coefficients,min_weight,exact,delta\n")
        sys.stdout.write(f"{result['monomial']},{mode},{len(support)},{w},"
                         f"{str(exact).lower()},{delta}\n")
    else:
        sys.stdout.write(
            f"{result['monomial']} ({len(support)} coefficients, {mode}): "
            f"min weight {w} (exact={exact}), bound {delta}, "
            f"{'sound' if result['sound'] else 'VIOLATION'}\n")
    return 0 if result["sound"] else 1


def cmd_trace_verify(args) -> int:
    cfg = load_config(args)
    _require_klein(cfg, "trace-verify")
    with open(args.file) as fh:
        steps = parse_trace(fh.read())
    M = parse_monomial(args.lm)
    rep = verify_trace(M, steps)
    payload = {
        "monomial": format_monomial(M),
        "parameters": rep.t,
        "baseline": rep.baseline,
        "bound": rep.bound,
        "leaves": list(rep.leaf_rows()),
    }
    if cfg.fmt == "json":
        sys.stdout.write(_emit_json(payload))
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
    cfg = load_config(args)
    _require_klein(cfg, "verify-all")
    quick = getattr(args, "quick", False)
    jobs = max(1, getattr(args, "jobs", 1) or 1)
    failures = []

    def report(name, ok, detail=""):
        line = f"{'ok  ' if ok else 'FAIL'} {name}"
        if detail:
            line += f": {detail}"
        sys.stdout.write(line + "\n")
        if not ok:
            failures.append(name)

    from .verify import run_suites

    for name, ok, detail in run_suites(seed=cfg.seed, quick=quick, jobs=jobs):
        report(name, ok, detail)
    sys.stdout.write(("PASS" if not failures else "FAIL") +
                     f" ({len(failures)} failing suites)\n")
    return 0 if not failures else 1


def main(argv=None) -> int:
    # The global flags go before or after the subcommand.  They default to
    # SUPPRESS, so a flag given before it is not overwritten by the
    # subcommand's absent copy; load_config reads them with getattr.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config path (or env KLEINCODE_CONFIG)")
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
    p.add_argument("--measure-upto", type=int, default=0, dest="measure_upto",
                   help="exhaustively measure true d for dimensions up to K "
                        f"(at most {EXACT_LIMIT_COEFFS})")

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force coset minimum weight")
    p.add_argument("--lm", required=True)
    p.add_argument("--mode", choices=("exhaustive", "gray", "sample"),
                   default="exhaustive")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("trace-verify", parents=[common],
                       help="verify one trace file")
    p.add_argument("file")
    p.add_argument("--lm", required=True)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every invariant suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
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
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
