#!/usr/bin/env python3
"""Cross-check the symbolic bounds with brute force, then let the bounded
search rediscover one.

Run:  python demos/04_oracles_and_search.py   (under a second)
"""

import time

from kleincode import klein
from kleincode.autosearch import SearchBudget, auto_search
from kleincode.casebound import full_bound_map
from kleincode.codes import coset_min_weight
from kleincode.poly import format_monomial

v = klein.klein_variety()
fp = klein.klein_footprint()
order = klein.klein_order()
delta = full_bound_map()

# Exact coset scans for every class small enough to enumerate (up to 10
# free coefficients, 8^10 states): the minimum weight over all coefficient
# choices with a fixed leading monomial.  Each scan packs a word into three
# bit-planes (XOR adds, popcount weighs), tabulates the five lowest
# coefficients once and XORs in the high ones a chunk at a time, one word
# per orbit of the curve's symmetry (x, y) -> (alpha*x, alpha^5*y): for
# X^2*Y, X*Y^2 and X^3*Y about 8^t/7 words.  The bounds turn out to be
# tight for each of these.
print("exact oracles (8^t codeword representatives, about 8^t/7 scanned "
      "for t >= 7):")
for M in [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (3, 1)]:
    support = klein.class_support(M)
    t0 = time.time()
    w, _ = coset_min_weight(M, support, v, "exhaustive", order=order, fp=fp)
    print(f"  {format_monomial(M):6s} t={len(support)}: min weight {w}, "
          f"bound {delta[M]}  ({time.time()-t0:.2f}s)")

# The bounded search rediscovers the two-branch argument for class Y
# without being given a trace.
t0 = time.time()
rep = auto_search((0, 1), SearchBudget(max_depth=2, max_work=20_000))
print(f"\nauto-search, class Y: proved bound {rep.bound} "
      f"(baseline {rep.baseline}) in {time.time()-t0:.1f}s")
for leaf in rep.leaves:
    print(f"  {leaf.constraints.summary():20s} -> count {leaf.count}")
