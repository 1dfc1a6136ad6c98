"""Buchberger's algorithm, normal forms, and footprint enumeration.

There is one Buchberger.  It keeps its basis packed (poly.packed: dicts
keyed by the order's int key) and reduces S-pairs, and then each basis
element against the rest, with the one reduction loop poly.reduce_packed.
Bases are reduced and monic with a deterministic ordering (ascending
heads), so repeated runs produce identical output.  The footprint of a
zero-dimensional ideal is enumerated by walking the grid bounded by the
pure-power heads.
"""

from __future__ import annotations

import heapq

from .poly import (
    FULL,
    MonomialOrder,
    Polynomial,
    ZeroPolynomial,
    divide,
    from_packed,
    mono_div,
    mono_divides,
    mono_lcm,
    packed,
    prepare_divisor,
    reduce_packed,
)


class InfiniteFootprint(ValueError):
    """Some variable has no pure power among the basis heads."""


class GroebnerBasis:
    __slots__ = ("order", "gens", "reduced")

    def __init__(self, order: MonomialOrder, gens, reduced: bool = False):
        self.order = order
        self.gens = list(gens)
        self.reduced = reduced

    def heads(self):
        return [g.leading_term(self.order)[0] for g in self.gens]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """Cancel the lcm of the two heads (standard S-polynomial)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("S-polynomial of 0")
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = mono_lcm(fm, gm)
    dom = f.domain
    left = f.mul_mono(mono_div(lcm, fm), dom.inv(fc))
    right = g.mul_mono(mono_div(lcm, gm), dom.inv(gc))
    return left.add(right)


def buchberger(gens, order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis with the normal selection strategy.

    Pairs are processed smallest head-lcm first; pairs with coprime heads
    are skipped (Buchberger's first criterion).  Elements stay monic, so
    an S-pair is the sum of two shifted elements.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroPolynomial("no nonzero generators")
    dom = gens[0].domain
    add, mul, is_zero, zero = dom.add, dom.mul, dom.is_zero, dom.zero
    # the basis, packed, monic and prepared as divisors for reduce_packed:
    # (head exponents, head key, None, terms)
    basis = []

    def add_elem(d):
        dv = prepare_divisor(d, order, dom)
        if dv[3] is not None:
            dv = prepare_divisor({k: mul(dv[3], c) for k, c in d.items()}, order, dom)
        basis.append(dv)

    for g in gens:
        add_elem(packed(g, order))

    heap: list = []

    def push_pair(i, j):
        ia, ib = basis[i][:2]
        ja, jb = basis[j][:2]
        if (ia == 0 or ja == 0) and (ib == 0 or jb == 0):
            return  # coprime heads
        heapq.heappush(heap, (order.key((max(ia, ja), max(ib, jb))), i, j))

    for i in range(len(basis)):
        for j in range(i):
            push_pair(i, j)
    while heap:
        lk, i, j = heapq.heappop(heap)
        s: dict = {}
        for src in (i, j):
            tk = lk - basis[src][2]
            for k, c in basis[src][4]:
                nk = tk + k
                v = add(s.get(nk, zero), c)
                if is_zero(v):
                    s.pop(nk, None)
                else:
                    s[nk] = v
        r = reduce_packed(s, basis, order, dom)
        if r:
            k = len(basis)
            add_elem(r)
            for t in range(k):
                push_pair(k, t)

    # minimalize: drop any element whose head another head divides
    basis = [dv for i, dv in enumerate(basis) if not any(
        j != i and ev[0] <= dv[0] and ev[1] <= dv[1] and (ev[2] != dv[2] or j < i)
        for j, ev in enumerate(basis))]
    # inter-reduce tails to the unique reduced basis; heads stay put
    for i in range(len(basis)):
        r = reduce_packed(dict(basis[i][4]), basis[:i] + basis[i + 1:], order, dom)
        basis[i] = prepare_divisor(r, order, dom)
    basis.sort(key=lambda dv: dv[2])
    return GroebnerBasis(order, [from_packed(dict(dv[4]), order, dom) for dv in basis],
                         reduced=True)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique full-mode remainder modulo the basis; support in the footprint."""
    _, r = divide(p, gb.gens, gb.order, FULL)
    return r


class Footprint:
    """The finite set of monomials divisible by no basis head."""

    __slots__ = ("order", "monomials", "_set")

    def __init__(self, order: MonomialOrder, monomials):
        self.order = order
        self.monomials = tuple(sorted(monomials, key=order.key))
        self._set = frozenset(self.monomials)

    def __contains__(self, mono):
        return tuple(mono) in self._set

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def descending(self):
        return tuple(reversed(self.monomials))


def footprint(gb: GroebnerBasis) -> Footprint:
    heads = gb.heads()
    if not heads:
        raise ZeroPolynomial("empty basis")
    arity = len(heads[0])
    bounds = []
    for i in range(arity):
        pure = [h[i] for h in heads if all(e == 0 for j, e in enumerate(h) if j != i)]
        if not pure:
            raise InfiniteFootprint(f"no pure power of variable {i} among heads")
        bounds.append(min(pure))
    monos = []
    idx = [0] * arity
    total = 1
    for b in bounds:
        total *= b
    for n in range(total):
        v = n
        for i, b in enumerate(bounds):
            idx[i] = v % b
            v //= b
        m = tuple(idx)
        if not any(mono_divides(h, m) for h in heads):
            monos.append(m)
    return Footprint(gb.order, monos)


def order_domain_check(gb: GroebnerBasis, weights) -> tuple[bool, bool, bool]:
    """The three structural conditions under which divisibility-style bounds
    detect the most (satisfied 1 and 2 but not 3 in the Klein setting).

    cond1: the order is weighted-degree-lex with the given weights.
    cond2: every generator has at least two monomials in its support and at
           most two of them attain the top weight.
    cond3: no two distinct footprint monomials share a weight.
    """
    order = gb.order
    cond1 = tuple(order.weights) == tuple(weights)

    def wt(m):
        return sum(w * e for w, e in zip(weights, m))

    cond2 = True
    for g in gb.gens:
        supp = list(g.terms)
        if len(supp) < 2:
            cond2 = False
            break
        top = max(wt(m) for m in supp)
        if sum(1 for m in supp if wt(m) == top) > 2:
            cond2 = False
            break
    fp = footprint(gb)
    ws = [wt(m) for m in fp]
    cond3 = len(set(ws)) == len(ws)
    return cond1, cond2, cond3
