#!/usr/bin/env python3
"""Build the evaluation codes and reproduce the parameter table.

Thresholding the bound map at each value s spans a code from all basis
monomials whose bound reaches s; its dimension is the count of such
monomials and s lower-bounds the minimum distance.

Run:  python demos/03_codes_and_table.py
"""

import numpy as np

from kleincode import klein
from kleincode.casebound import full_bound_map
from kleincode.codes import (
    build_code,
    code_for_threshold,
    construct_table,
    count_weight_one,
    evaluation_vector,
    min_distance,
    weight_via_footprint,
)
from kleincode.poly import parse_poly

v = klein.klein_variety()
fp = klein.klein_footprint()
delta = full_bound_map()

# The two routes to a codeword weight agree: count the footprint of
# <F> + I8, or evaluate F at the 22 points and count nonzeros.
F = parse_poly("X^7+1", klein.klein_domain())
w_footprint = weight_via_footprint(F, klein.klein_basis())
w_direct = int(np.count_nonzero(evaluation_vector(F, v)))
print(f"weight of ev(X^7+1): footprint route {w_footprint}, direct {w_direct}")

# The table: one row per distinct bound.  d is the proved lower bound;
# for small dimensions the exhaustive scan certifies the true distance.
rows = construct_table(delta, v)
print("\n[n, k, d] table (d = proved lower bound):")
for r in rows:
    line = f"  [{r['n']}, {r['k']:2d}, {r['d']:2d}]"
    best = klein.BEST_KNOWN_DISTANCE.get(r["k"])
    if best is not None:
        line += f"   best known {best:2d}" + ("  =" if best == r["d"] else "  -1")
    if r["k"] <= 4:
        code = code_for_threshold(delta, r["s"], fp, v)
        d, _ = min_distance(code, "exhaustive")
        line += f"   measured d = {d}"
    print(line)

# Dropping only the top footprint monomial gives a dimension-21 code with
# exactly 7 words of weight 1 (the scalar multiples of ev(X^7 + 1)).
partial = build_code([m for m in fp if m != (6, 2)], v)
full = build_code(list(fp), v)
print(f"\nweight-1 words: full code {count_weight_one(full)}, "
      f"k=21 code {count_weight_one(partial)}")
