#!/usr/bin/env python3
"""Walk through the basic objects: the curve, its Groebner basis, the
footprint, and the 22-point variety with its Fano-plane structure.

Run:  python demos/01_footprint_and_variety.py
"""

from kleincode import klein
from kleincode.codes import enumerate_variety, verify_fano
from kleincode.gf import gf8
from kleincode.poly import format_poly

# The coefficient field is GF(8) = GF(2)[x]/(x^3 + x + 1); elements print
# as enc integers 0..7 (bit i = coefficient of alpha^i).
spec = gf8()
print("field:", spec, "with", spec.q, "elements")

# The ideal: the curve Y^3 + X^3*Y + X together with both field equations.
gens = klein.ideal_generators()
print("\ngenerators:")
for g in gens:
    print("  ", format_poly(g))

# Buchberger's algorithm turns this into the reduced basis; the third
# element X^7*Y + Y replaces Y^8 + Y.
gb = klein.klein_basis()
print("\nreduced Groebner basis (weights (2,3), larger Y wins ties):")
for g in gb:
    print("  ", format_poly(g))

# The footprint: monomials divisible by no basis head.  22 of them,
# arranged in three rows; the weight of X^a*Y^b is 2a + 3b.
fp = klein.klein_footprint()
order = klein.klein_order()
print(f"\nfootprint ({len(fp)} monomials):")
for b in (2, 1, 0):
    row = sorted(m for m in fp if m[1] == b)
    print(f"  b={b}: " + "  ".join(f"{m} w={order.weight(m)}" for m in row))

# The variety has exactly #footprint = 22 points.
v = enumerate_variety(list(gens))
print(f"\nvariety: {len(v)} points, including the origin:")
print("  ", list(v)[:6], "...")

# Away from the origin the variety is a Fano plane: each nonzero x-value
# carries a 3-point "line" of y-values, two lines always meet in one
# point, and every nonzero y lies on exactly 3 lines.
print("\nFano structure:", verify_fano(v))
lines = {}
for x, y in v:
    if x:
        lines.setdefault(x, []).append(y)
for x in sorted(lines):
    print(f"  line x={x}: y in {sorted(lines[x])}")
