"""Buchberger's algorithm, normal forms, and footprint enumeration.

There is one Buchberger.  It keeps its basis packed (poly.packed: dicts
keyed by the order's int key) and runs the one reduction loop
poly.reduce_packed twice over: in the pair loop it top-reduces each input
and S-pair (head mode: only the head is cancelled, tails stay as they
are), and once the basis is complete it reduces each element's tail fully
against the rest.  The Gebauer-Moeller criteria decide which S-pairs are
reduced at all.  A basis is a tuple of polynomials, reduced and monic, in
ascending order of heads, so repeated runs produce identical output.  The
order is the one poly.MonomialOrder; buchberger still accepts it as an
optional second argument, and nothing else here takes one.  The
footprint of a zero-dimensional ideal is enumerated by walking the grid
bounded by the pure-power heads.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product

from .poly import (
    FULL,
    HEAD,
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


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the lcm of the two heads (standard S-polynomial)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("S-polynomial of 0")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = mono_lcm(fm, gm)
    dom = f.domain
    left = f.mul_mono(mono_div(lcm, fm), dom.inv(fc))
    right = g.mul_mono(mono_div(lcm, gm), dom.inv(gc))
    return left.add(right)


def buchberger(gens, order: MonomialOrder = None) -> tuple:
    """Reduced monic Groebner basis, as a tuple, with the normal selection
    strategy.  An order, if given, must be the one MonomialOrder.

    Pairs are processed smallest head-lcm first.  Each input, and each
    S-pair, is top-reduced by the active basis: reduction stops at the
    first head no active head divides, since only whether the remainder is
    zero, and its head, matter to the pair loop.  A nonzero remainder h
    enters, tail unreduced, through the update step of Gebauer and Moeller
    ("On an installation of Buchberger's algorithm", J. Symbolic Comput. 6,
    1988):

    * chain criterion on the new pairs: a pair (h, g) goes when another new
      pair's head-lcm divides its lcm (of equal lcms at most one stays);
      only after that do the pairs with coprime heads go (Buchberger's
      first criterion), since they count as dividing pairs in that test;
    * criterion B_k on the queued pairs: (i, j) goes when head(h) divides
      lcm(i, j) and lcm(i, h) != lcm(i, j) != lcm(j, h);
    * an active element whose head is a multiple of head(h) stops being a
      reducer; its queued pairs stay.

    The active heads stay pairwise non-dividing, so the final active list is
    a minimal basis; reducing each tail fully by the others, once, gives
    the reduced one, which is unique: the output does not depend on the
    generators' order, or on whether their tails were reduced.
    Elements stay monic, so an S-pair is the sum of two shifted elements.
    """
    if order is not None and not isinstance(order, MonomialOrder):
        raise TypeError(f"the order is MonomialOrder(), not {order!r}")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroPolynomial("no nonzero generators")
    dom = gens[0].domain
    add, is_zero, zero, key = dom.add, dom.is_zero, dom.zero, MonomialOrder.key
    # every element so far, packed, monic and prepared as a divisor for
    # reduce_packed: (head exponents, head key, None, terms)
    basis = []
    active = []    # indices of the reducers, oldest first
    reducers = []  # basis[t] for t in active
    heap: list = []  # (lcm key, i, j), popped lazily
    live = {}      # queued pair (i, j) -> its head lcm

    def insert(d):
        r = reduce_packed(d, reducers, dom, HEAD)
        if not r:
            return
        dv = prepare_divisor(r, dom)
        if dv[3] is not None:
            scale = dom.scaler(dv[3])
            dv = prepare_divisor({k: scale(c) for k, c in r.items()}, dom)
        k = len(basis)
        basis.append(dv)
        h = dv[:2]
        # new pairs (k, t) as (lcm, heads coprime, t); drop by the chain criterion
        new = []
        for t in active:
            g = basis[t][:2]
            new.append((mono_lcm(h, g), not (h[0] and g[0] or h[1] and g[1]), t))
        kept = []
        for n, (lcm, coprime, t) in enumerate(new):
            if coprime or not any(mono_divides(m, lcm) for m, _, _ in new[n + 1:] + kept):
                kept.append((lcm, coprime, t))
        # criterion B_k on the queued pairs
        for (i, j), lcm in list(live.items()):
            if (mono_divides(h, lcm) and mono_lcm(basis[i][:2], h) != lcm
                    and mono_lcm(basis[j][:2], h) != lcm):
                del live[i, j]
        for lcm, coprime, t in kept:
            if not coprime:
                live[k, t] = lcm
                heapq.heappush(heap, (key(lcm), k, t))
        # reducers whose heads h divides retire; their queued pairs stay
        active[:] = [t for t in active if not mono_divides(h, basis[t][:2])] + [k]
        reducers[:] = [basis[t] for t in active]

    for g in gens:
        insert(packed(g))
    while heap:
        lk, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
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
        insert(s)

    # reduce every tail fully, once, to the unique reduced basis; heads stay put
    for i in range(len(reducers)):
        r = reduce_packed(dict(reducers[i][4]), reducers[:i] + reducers[i + 1:], dom)
        reducers[i] = prepare_divisor(r, dom)
    reducers.sort(key=lambda dv: dv[2])
    return tuple(from_packed(dict(dv[4]), dom) for dv in reducers)


def normal_form(p: Polynomial, gb) -> Polynomial:
    """Unique full-mode remainder modulo the basis; support in the footprint."""
    _, r = divide(p, gb, FULL)
    return r


class Footprint:
    """The finite set of monomials divisible by no basis head."""

    __slots__ = ("monomials", "_set")

    def __init__(self, monomials):
        self.monomials = tuple(sorted(monomials, key=MonomialOrder.key))
        self._set = frozenset(self.monomials)

    def __contains__(self, mono):
        return tuple(mono) in self._set

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def descending(self):
        return tuple(reversed(self.monomials))


def footprint(gb) -> Footprint:
    """The footprint of gb's ideal, memoised by heads (all it depends on),
    so the Klein basis's footprint is walked once."""
    return _footprint(tuple(g.leading_term()[0] for g in gb))


@lru_cache(maxsize=256)
def _footprint(heads: tuple) -> Footprint:
    if not heads:
        raise ZeroPolynomial("empty basis")
    bounds = []
    for i in (0, 1):
        pure = [h[i] for h in heads if not h[1 - i]]
        if not pure:
            raise InfiniteFootprint(f"no pure power of variable {i} among heads")
        bounds.append(min(pure))
    return Footprint(m for m in product(*map(range, bounds))
                     if not any(mono_divides(h, m) for h in heads))


def order_domain_check(gb, weights) -> tuple[bool, bool, bool]:
    """The three structural conditions under which divisibility-style bounds
    detect the most (satisfied 1 and 2 but not 3 in the Klein setting).

    cond1: the order is weighted-degree-lex with the given weights.
    cond2: every generator has at least two monomials in its support and at
           most two of them attain the top weight.
    cond3: no two distinct footprint monomials share a weight.
    """
    cond1 = MonomialOrder.weights == tuple(weights)

    def wt(m):
        return sum(w * e for w, e in zip(weights, m))

    cond2 = True
    for g in gb:
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
