"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its elapsed time (visible
under pytest -s; captured otherwise).  Budgets are asserted, not just
reported.
"""

import time

import numpy as np

from kleincode import klein
from kleincode.autosearch import auto_search
from kleincode.casebound import (
    full_bound_map,
    instantiate_and_check,
    verify_all_traces,
)
from kleincode.codes import (
    build_code,
    construct_table,
    coset_min_weight,
    count_weight_one,
    enumerate_variety,
    evaluation_vector,
    gf_rank,
    monomial_vector,
    verify_fano,
    weight_via_footprint,
)
from kleincode.groebner import buchberger, order_domain_check
from kleincode.poly import Polynomial, format_monomial, parse_poly
from kleincode.rng import SplitMix64

EXPECTED_FOOTPRINT = {(a, b) for a in range(7) for b in range(3)} | {(7, 0)}
EXPECTED_WEIGHTS = {2: [6, 8, 10, 12, 14, 16, 18],
                    1: [3, 5, 7, 9, 11, 13, 15],
                    0: [0, 2, 4, 6, 8, 10, 12, 14]}
EXPECTED_DELTA = {
    (0, 2): 13, (1, 2): 10, (2, 2): 7, (3, 2): 5, (4, 2): 3, (5, 2): 2, (6, 2): 1,
    (0, 1): 18, (1, 1): 15, (2, 1): 12, (3, 1): 9, (4, 1): 6, (5, 1): 4, (6, 1): 2,
    (0, 0): 22, (1, 0): 19, (2, 0): 16, (3, 0): 13, (4, 0): 10, (5, 0): 7,
    (6, 0): 4, (7, 0): 1,
}
EXPECTED_TABLE_KD = "1:22 2:19 3:18 4:16 5:15 7:13 8:12 10:10 11:9 13:7 14:6 15:5 17:4 18:3 20:2"


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget}s){extra}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_footprint(order):
    t0 = time.time()
    fp = klein.klein_footprint()
    ok = set(fp) == EXPECTED_FOOTPRINT and len(fp) == 22
    for b, expected in EXPECTED_WEIGHTS.items():
        grid = sorted(order.weight(m) for m in fp if m[1] == b)
        ok = ok and grid == expected
    _report("1 footprint + weight grid", ok, time.time() - t0, 1)


def test_criterion_02_groebner(dom, order):
    t0 = time.time()
    gens = [parse_poly(t, dom) for t in ("Y^3+X^3*Y+X", "X^8+X", "Y^8+Y")]
    gb = buchberger(gens, order)
    expected = [parse_poly(t, dom) for t in ("Y^3+X^3*Y+X", "X^8+X", "X^7*Y+Y")]
    _report("2 Groebner basis reproduction", list(gb) == expected, time.time() - t0, 1)


def test_criterion_03_variety(spec):
    t0 = time.time()
    v = enumerate_variety(list(klein.ideal_generators()), spec, 2)
    ok = len(v) == 22 and (0, 0) in v.points and verify_fano(v)
    _report("3 variety + Fano", ok, time.time() - t0, 1)


def test_criterion_04_bijection(fp, variety, spec):
    t0 = time.time()
    code = build_code(list(fp), variety)
    ok = code.k == 22 and gf_rank(code.G, spec) == 22
    _report("4 evaluation bijection rank 22", ok, time.time() - t0, 1)


def test_criterion_05_weight_identity(dom, gb, fp, variety):
    t0 = time.time()
    rng = SplitMix64(0xACC5)
    checked = 0
    ok = True
    while checked < 1000:
        terms = {}
        for m in fp:
            c = rng.below(8)
            if c:
                terms[m] = c
        if not terms:
            continue
        F = Polynomial(dom, 2, terms)
        if weight_via_footprint(F, gb) != \
                int(np.count_nonzero(evaluation_vector(F, variety))):
            ok = False
            break
        checked += 1
    _report("5 weight identity x1000", ok, time.time() - t0, 60,
            f"{checked} checked")


def test_criterion_06_bound_map():
    t0 = time.time()
    reports = verify_all_traces()  # raises on any step failure
    delta = full_bound_map()
    ok = delta == EXPECTED_DELTA and len(reports) == 9
    _report("6 bound map reproduction", ok, time.time() - t0, 10)


def test_criterion_07_table(variety):
    t0 = time.time()
    rows = construct_table(full_bound_map(), variety)
    got = " ".join(f"{r['k']}:{r['d']}" for r in rows if r["s"] >= 2)
    ok = got == EXPECTED_TABLE_KD and all(r["n"] == 22 for r in rows)
    _report("7 parameter table reproduction", ok, time.time() - t0, 10, got)


def test_criterion_08_oracle_tightness(order, fp, variety):
    delta = full_bound_map()
    t0 = time.time()
    minima = {}
    ok = True
    for M in [(0, 1), (0, 2), (1, 1), (2, 1)]:
        support = [m for m in fp.descending() if order.compare(m, M) < 0]
        w, exact = coset_min_weight(M, support, variety, "exhaustive",
                                    order=order, fp=fp)
        minima[format_monomial(M)] = w
        ok = ok and exact and w >= delta[M]
    exhaustive_time = time.time() - t0
    assert exhaustive_time < 120
    t1 = time.time()
    M = (1, 2)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    w, exact = coset_min_weight(M, support, variety, "gray", order=order, fp=fp)
    minima["X*Y^2"] = w
    gray_time = time.time() - t1
    ok = ok and exact and w >= 10
    _report("8 oracle tightness", ok, exhaustive_time + gray_time, 420,
            f"measured minima {minima}")
    assert gray_time < 300


def test_criterion_09_sampled_soundness(order, fp, variety, spec):
    t0 = time.time()
    delta = full_bound_map()
    mul = spec.mul_table()
    rows_all = {m: monomial_vector(m, variety) for m in fp}
    ok = True
    detail = ""
    for M in fp:
        support = [m for m in fp.descending() if order.compare(m, M) < 0]
        rng = SplitMix64(0x5EED ^ (M[0] * 41 + M[1]))
        worst = 10 ** 9
        done = 0
        while done < 100_000:
            take = min(1 << 14, 100_000 - done)
            done += take
            coeffs = rng.fill_below(8, (take, len(support)))
            block = np.broadcast_to(rows_all[M], (take, 22)).copy()
            for i, m in enumerate(support):
                block ^= mul[coeffs[:, i][:, None], rows_all[m][None, :]]
            worst = min(worst, int(np.count_nonzero(block, axis=1).min()))
        if worst < delta[M]:
            ok = False
            detail = f"{format_monomial(M)}: {worst} < {delta[M]}"
            break
    _report("9 sampled soundness 10^5 x 22", ok, time.time() - t0, 300, detail)


def test_criterion_10_weight_one(fp, variety):
    t0 = time.time()
    partial = build_code([m for m in fp if m != (6, 2)], variety)
    full = build_code(list(fp), variety)
    ok = count_weight_one(partial) == 7 and count_weight_one(full) == 154
    _report("10 weight-one counts", ok, time.time() - t0, 1)


def test_criterion_11_leaf_instantiation():
    t0 = time.time()
    reports = verify_all_traces()
    checked = 0
    for M, rep in sorted(reports.items()):
        for idx, leaf in enumerate(rep.leaves):
            if leaf.vacuous:
                continue
            instantiate_and_check(M, leaf, nsamples=50,
                                  seed=0xACC ^ (idx * 131) ^ (M[0] * 17 + M[1]))
            checked += 1
    _report("11 leaf instantiation x50", True, time.time() - t0, 300,
            f"{checked} leaves")


def test_criterion_12_autosearch_floor():
    t0 = time.time()
    rep_y = auto_search((0, 1))
    rep_corner = auto_search((6, 2))
    ok = rep_y.bound == 18 and rep_corner.bound == 1
    _report("12 auto-search floor", ok, time.time() - t0, 120,
            f"Y={rep_y.bound} X^6*Y^2={rep_corner.bound}")


def test_criterion_13_order_domain(gb):
    t0 = time.time()
    conds = order_domain_check(gb, (2, 3))
    _report("13 order-domain check", conds == (True, True, False),
            time.time() - t0, 1, str(conds))
