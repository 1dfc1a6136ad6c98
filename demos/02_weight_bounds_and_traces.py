#!/usr/bin/env python3
"""How a per-leading-monomial weight bound is established and verified.

The Hamming weight of a codeword ev(F) equals the number of footprint
monomials that are leading monomials of <F> + I8.  Multiples of lm(F)
come for free; a case analysis over the reduced coefficients finds more.
This demo replays the shipped derivation for lm(F) = Y step by step and
then verifies all nine traces.

Run:  python demos/02_weight_bounds_and_traces.py
"""

from kleincode.casebound import (
    KleinParametric,
    divisibility_bound,
    full_bound_map,
    load_trace_text,
    param_reduce_step,
    parse_trace,
    verify_all_traces,
    verify_trace,
)
from kleincode.klein import klein_footprint
from kleincode.poly import FULL, HEAD, format_poly

fp = klein_footprint()

# Class Y: the reduced codeword polynomial is F = Y + a1*X + a2 with two
# free coefficients.  14 footprint monomials are divisible by Y.
ctx = KleinParametric((0, 1))
print("root polynomial:", format_poly(ctx.root))
print("divisibility baseline:", divisibility_bound((0, 1), fp))

# Multiply by Y^2 and push the result down: first one head-reduction by
# the curve, then a full reduction by F itself.
cs = ctx.fresh_store()
W = ctx.root.mul_mono((0, 2))
print("\nY^2 * F           =", format_poly(W))
_, W = param_reduce_step(W, ctx.divisor("K", cs), HEAD, cs)
print("after red K head  =", format_poly(W))
_, W = param_reduce_step(W, ctx.divisor("F", cs), FULL, cs)
print("after red F full  =", format_poly(W))

# The remainder is univariate in X.  If a1 != 0 its head X^4 is a new
# established monomial, and X^4..X^7 all join the count: 14 + 4 = 18.
# The a1 = 0 branches only do better, so 18 is the class bound.
rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")))
print("\nverified bound:", rep.bound)
for leaf in rep.leaves:
    print(f"  {leaf.constraints.summary():24s} -> established "
          f"{[''.join(str(m)) for m in leaf.established]}, count {leaf.count}")

# All nine shipped traces, plus divisibility for the rest, give the full
# 22-entry bound map.
print("\nall nine traces:")
for M, r in sorted(verify_all_traces().items()):
    print(f"  {str(M):8s} baseline {r.baseline:2d}  bound {r.bound:2d}"
          f"  ({len(r.leaves)} leaves)")

delta = full_bound_map()
print("\nfull bound map (rows b = 2, 1, 0):")
for b in (2, 1, 0):
    row = [delta[m] for m in sorted(delta) if m[1] == b]
    print("  ", row)
