"""Every module's invariant suite, aggregated for the verify-all command.

Each suite returns (name, ok, detail).  Sample counts shrink under
--quick; all sampling is seeded, so two runs with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import numpy as np

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
    build_code,
    code_for_threshold,
    construct_table,
    count_weight_one,
    enumerate_variety,
    evaluation_vector,
    gf_rank,
    min_distance,
    monomial_vector,
    sample_weights,
    sampled_min_weight,
    verify_fano,
    weight_via_footprint,
)
from .gf import gf8
from .groebner import buchberger, footprint, normal_form, order_domain_check, s_polynomial
from .poly import (
    FULL,
    HEAD,
    MonomialOrder,
    Polynomial,
    divide,
    format_monomial,
    parse_poly,
)
from .rng import SplitMix64


def _random_poly(rng, dom, max_exp=6, max_terms=5):
    terms = {}
    for _ in range(1 + rng.below(max_terms)):
        m = (rng.below(max_exp + 1), rng.below(max_exp + 1))
        c = rng.below(8)
        if c:
            terms[m] = c
    return Polynomial(dom, 2, terms)


def suite_gf(seed, quick):
    spec = gf8()
    els = spec.elements()
    for a in els:
        for b in els:
            if spec.add(a, b) != spec.add(b, a) or spec.mul(a, b) != spec.mul(b, a):
                return False, "commutativity failed"
            if spec.mul(spec.add(a, b), spec.add(a, b)) != \
                    spec.add(spec.mul(a, a), spec.mul(b, b)):
                return False, "Frobenius failed"
            for c in els:
                if spec.mul(a, spec.mul(b, c)) != spec.mul(spec.mul(a, b), c):
                    return False, "associativity failed"
                if spec.mul(a, spec.add(b, c)) != \
                        spec.add(spec.mul(a, b), spec.mul(a, c)):
                    return False, "distributivity failed"
    for a in els:
        if spec.pow(a, 8) != a:
            return False, f"a^8 != a at {a}"
        if a and (spec.pow(a, 7) != 1 or spec.mul(a, spec.inv(a)) != 1):
            return False, f"inverse failed at {a}"
    return True, "512 triples exhaustive"


def suite_orders(seed, quick):
    order = MonomialOrder()
    monos = [(a, b) for a in range(9) for b in range(9)]
    for u in monos:
        for v in monos:
            c = order.compare(u, v)
            if (c == 0) != (u == v):
                return False, f"equality failed {u} {v}"
            if c != -order.compare(v, u):
                return False, "antisymmetry failed"
            if u != (0, 0) and order.compare((0, 0), u) >= 0:
                return False, "1 not minimal"
            w = (2, 1)
            uw = (u[0] + w[0], u[1] + w[1])
            vw = (v[0] + w[0], v[1] + w[1])
            if c != order.compare(uw, vw):
                return False, "multiplicativity failed"
    return True, f"{len(monos)**2} pairs exhaustive"


def suite_division(seed, quick):
    dom = gf8()
    rng = SplitMix64(seed ^ 0xD1)
    n = 500 if quick else 10_000
    for i in range(n):
        s = _random_poly(rng, dom)
        divisors = [p for p in (_random_poly(rng, dom),
                                _random_poly(rng, dom)) if not p.is_zero()]
        if not divisors:
            continue
        for mode in (FULL, HEAD):
            quots, r = divide(s, divisors, mode)
            acc = r
            for q, d in zip(quots, divisors):
                acc = acc.add(q.mul(d))
            if acc != s:
                return False, f"identity failed at instance {i} ({mode})"
            if mode == FULL and not r.is_zero():
                heads = [d.leading_term()[0] for d in divisors]
                for m in r.terms:
                    if any(all(h[j] <= m[j] for j in (0, 1)) for h in heads):
                        return False, f"reducible full remainder at {i}"
    return True, f"{n} instances, both modes"


def suite_eval_hom(seed, quick):
    dom = gf8()
    rng = SplitMix64(seed ^ 0xE7)
    n = 20 if quick else 200
    points = [(x, y) for x in range(8) for y in range(8)]
    for _ in range(n):
        p = _random_poly(rng, dom)
        q = _random_poly(rng, dom)
        for pt in points:
            if p.mul(q).eval(pt) != dom.mul(p.eval(pt), q.eval(pt)):
                return False, "multiplicative failure"
            if p.add(q).eval(pt) != (p.eval(pt) ^ q.eval(pt)):
                return False, "additive failure"
    return True, f"{n} pairs at 64 points"


def suite_groebner(seed, quick):
    gb = klein.klein_basis()
    if len(gb) != 3:
        return False, f"basis size {len(gb)}"
    for i, f in enumerate(gb):
        for g in gb[:i]:
            s = s_polynomial(f, g)
            if not s.is_zero():
                _, r = divide(s, gb, FULL)
                if not r.is_zero():
                    return False, "S-pair does not reduce to zero"
    dom = gf8()
    rng = SplitMix64(seed ^ 0x6B)
    n = 10 if quick else 100
    for _ in range(n):
        p = _random_poly(rng, dom)
        q = _random_poly(rng, dom)
        nf = normal_form(p, gb)
        if normal_form(nf, gb) != nf:
            return False, "normal form not idempotent"
        if normal_form(p.add(q), gb) != nf.add(normal_form(q, gb)):
            return False, "normal form not linear"
    return True, "certificate + linearity/idempotence"


def suite_footprint(seed, quick):
    order = MonomialOrder()
    fp = klein.klein_footprint()
    if len(fp) != 22:
        return False, f"size {len(fp)}"
    weights = sorted(order.weight(m) for m in fp)
    conds = order_domain_check(klein.klein_basis(), order.weights)
    if conds != (True, True, False):
        return False, f"order-domain conditions {conds}"
    return True, f"22 monomials, weights 0..{max(weights)}"


def suite_cor1(seed, quick):
    """Footprint size equals the variety size for random zero-dimensional
    ideals containing both field equations."""
    dom = gf8()
    feq = [parse_poly("X^8+X", dom), parse_poly("Y^8+Y", dom)]
    rng = SplitMix64(seed ^ 0xC1)
    n = 10 if quick else 100
    for i in range(n):
        extras = [_random_poly(rng, dom) for _ in range(1 + rng.below(2))]
        gens = feq + [p for p in extras if not p.is_zero()]
        gb = buchberger(gens)
        fp = footprint(gb)
        v = enumerate_variety(gens)
        if len(fp) != len(v):
            return False, f"instance {i}: footprint {len(fp)} vs variety {len(v)}"
    return True, f"{n} random ideals"


def suite_variety(seed, quick):
    v = klein.klein_variety()
    if len(v) != 22 or (0, 0) not in v.points:
        return False, f"size {len(v)}"
    if not verify_fano(v):
        return False, "Fano structure violated"
    fp = klein.klein_footprint()
    code = build_code(list(fp), v)
    if gf_rank(code.G) != 22:
        return False, "evaluation matrix not full rank"
    return True, "22 points, Fano plane, rank 22"


def suite_weight_identity(seed, quick):
    dom = gf8()
    fp = klein.klein_footprint()
    gb = klein.klein_basis()
    v = klein.klein_variety()
    rng = SplitMix64(seed ^ 0x1D)
    n = 50 if quick else 1000
    for i in range(n):
        terms = {}
        for m in fp:
            c = rng.below(8)
            if c:
                terms[m] = c
        if not terms:
            continue
        F = Polynomial(dom, 2, terms)
        w1 = weight_via_footprint(F, gb)
        w2 = int(np.count_nonzero(evaluation_vector(F, v)))
        if w1 != w2:
            return False, f"instance {i}: {w1} != {w2}"
    return True, f"{n} random reduced polynomials"


def suite_weight_one(seed, quick):
    fp = klein.klein_footprint()
    v = klein.klein_variety()
    full = build_code(list(fp), v)
    if count_weight_one(full) != 154:
        return False, "full code weight-one count"
    partial = build_code([m for m in fp if m != (6, 2)], v)
    if count_weight_one(partial) != 7:
        return False, "k=21 code weight-one count"
    return True, "154 and 7"


def suite_table(seed, quick):
    fp = klein.klein_footprint()
    v = klein.klein_variety()
    delta = full_bound_map()
    rows = construct_table(delta, v)
    limit = 3 if quick else 5
    for r in rows:
        if r["k"] <= limit:
            code = code_for_threshold(delta, r["s"], fp, v)
            d, exact = min_distance(code, "exhaustive")
            if not exact or d < r["s"]:
                return False, f"k={r['k']}: measured {d} below bound {r['s']}"
        else:
            code = code_for_threshold(delta, r["s"], fp, v)
            d, _ = min_distance(code, "sample", seed=seed ^ r["k"],
                                count=2000 if quick else 20_000)
            if d < r["s"]:
                return False, f"k={r['k']}: sampled weight {d} below bound {r['s']}"
    return True, f"{len(rows)} rows, exhaustive up to k={limit}"


def suite_traces(seed, quick):
    """Each memoised report equals a fresh replay of its shipped trace, and
    the bound map built from the reports is consistent with them."""
    reports = verify_all_traces()
    delta = bound_map_from_reports(reports)
    for M, rep in reports.items():
        fresh = verify_trace(M, parse_trace(load_trace_text(TRACED_CLASSES[M])))
        if ((fresh.bound, fresh.baseline, list(fresh.leaf_rows()))
                != (rep.bound, rep.baseline, list(rep.leaf_rows()))):
            return False, f"memoised report differs from a fresh replay at {format_monomial(M)}"
        if not divisibility_bound(M) == rep.baseline <= rep.bound == delta[M]:
            return False, f"map inconsistent at {format_monomial(M)}"
    return True, f"{len(reports)} traces verified, no step failures"


def suite_bound_soundness(seed, quick):
    """Seeded random codewords per class never fall below the bound."""
    fp = klein.klein_footprint()
    v = klein.klein_variety()
    delta = full_bound_map()
    count = 2000 if quick else 100_000
    rows_all = {m: monomial_vector(m, v) for m in fp}
    for M in sorted(fp):
        support = klein.class_support(M)
        rows = np.array([rows_all[m] for m in support], dtype=np.uint8).reshape(-1, len(v))
        # The class value (below 2^9) is XORed into the top 9 bits, so no
        # bit of the 64-bit seed is lost.
        rng_seed = seed ^ ((M[0] * 37 + M[1]) << 55)
        worst = sampled_min_weight(rows_all[M], rows, rng_seed, count)
        if worst < delta[M]:
            return False, f"{format_monomial(M)}: weight {worst} below {delta[M]}"
    return True, f"{count} samples x 22 classes"


def suite_instantiation(seed, quick):
    reports = verify_all_traces()
    n = 5 if quick else 50
    checked = 0
    for M, rep in sorted(reports.items()):
        for idx, leaf in enumerate(rep.leaves):
            if leaf.vacuous:
                continue
            instantiate_and_check(M, leaf, n, seed ^ (idx * 1009) ^ (M[0] * 31 + M[1]))
            checked += 1
    return True, f"{checked} leaves x {n} samples"


def suite_x7_claim(seed, quick):
    """Sampled check: every class-X^7 codeword that is not a scalar multiple
    of X^7 + 1 has weight at least 3."""
    v = klein.klein_variety()
    M = (7, 0)
    support = klein.class_support(M)
    rows = np.stack([monomial_vector(m, v) for m in support])
    offset = monomial_vector(M, v)
    count = 100_000 if quick else 1_000_000
    special = support.index((0, 0))
    for coeffs, w in sample_weights(offset, rows, seed ^ 0x777, count):
        for j in np.nonzero(w < 3)[0]:
            cvec = coeffs[j]
            is_special = cvec[special] == 1 and not any(
                cvec[i] for i in range(len(support)) if i != special)
            if not is_special:
                return False, f"weight {int(w[j])} at coefficients {cvec.tolist()}"
    return True, f"{count} samples"


def suite_autosearch(seed, quick):
    from .autosearch import SearchBudget, auto_search

    rep = auto_search((0, 1), SearchBudget(max_depth=0))
    if rep.bound != rep.baseline:
        return False, "depth-0 bound differs from baseline"
    rep = auto_search((0, 1), SearchBudget(max_depth=2, max_work=20_000))
    if rep.bound != 18:
        return False, f"Y rediscovery returned {rep.bound}"
    for M, delta in full_bound_map().items():
        minimum = klein.CLASS_MINIMUM[M]
        if delta > minimum:
            return False, f"{format_monomial(M)}: bound {delta} above coset word weight {minimum}"
    return True, "floor, Y rediscovery and bounds under coset word weights"


def run_suites(seed=42, quick=False):
    """Run every suite in turn, yielding (name, ok, detail) as each ends."""
    suites = [
        ("gf-axioms", suite_gf),
        ("poly-orders", suite_orders),
        ("poly-division", suite_division),
        ("poly-eval-hom", suite_eval_hom),
        ("groebner-basis", suite_groebner),
        ("groebner-footprint", suite_footprint),
        ("groebner-cor1", suite_cor1),
        ("codes-variety", suite_variety),
        ("codes-weight-identity", suite_weight_identity),
        ("codes-weight-one", suite_weight_one),
        ("codes-table", suite_table),
        ("casebound-traces", suite_traces),
        ("casebound-instantiation", suite_instantiation),
        ("casebound-x7-claim", suite_x7_claim),
        ("autosearch", suite_autosearch),
        ("casebound-bound-soundness", suite_bound_soundness),
    ]
    for name, fn in suites:
        try:
            ok, detail = fn(seed, quick)
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, ok, detail
