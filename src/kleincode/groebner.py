"""Buchberger's algorithm, normal forms, and footprint enumeration.

There is one Buchberger, and it runs on one packed int per polynomial.
X^a*Y^b has index i = (2a + 3b)*S + b, where the width S is a power of two
above every Y exponent in play, and its coefficient (an enc) sits in bits
4i..4i+2; bit 4i+3 is always 0.  The index is additive and follows the
Klein order, so a monomial multiple is a left shift by a multiple of 4, the
head's nibble is the top set bit's, its coefficient is the int shifted
down to that nibble, and addition is XOR.  Each basis element is kept monic
with its eight scalar multiples, built from (p, alpha*p, alpha^2*p) with
alpha^3 read off FieldSpec.modulus_bits, so cancelling a head is one
shifted XOR.  Heads are decoded to exponent pairs for the pair criteria
and the divisibility tests, and the reduced basis is decoded to
polynomials at the end.  poly.divide, the one generic reduction loop,
serves normal_form, over both coefficient domains.

The pair queue keeps two criteria, both cheap: coprime heads make no pair,
and criterion B_k is checked when a pair pops.  With a reduction this cheap,
the chain criterion does not pay: it saved 0.5 of 29.6 reductions per
weight identity and 0.4 of 18.7 per leaf instantiation, and without its
loop over the new pairs those calls run about 15 % faster.

A basis is a tuple of polynomials, reduced and monic, in ascending order
of heads, so repeated runs produce identical output.  The order is the one
poly.MonomialOrder; buchberger still accepts it as an optional second
argument, and nothing else here takes one.  The footprint of a
zero-dimensional ideal is enumerated by walking the grid bounded by the
pure-power heads.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product

from .gf import FieldSpec
from .poly import (
    FULL,
    MonomialOrder,
    Polynomial,
    ZeroPolynomial,
    divide,
    mono_div,
    mono_divides,
    mono_lcm,
)


class InfiniteFootprint(ValueError):
    """Some variable has no pure power among the basis heads."""


class PlaneTooWide(ValueError):
    """buchberger's packed polynomials would span more than _PLANE_BITS
    indices."""


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the lcm of the two heads (standard S-polynomial)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("S-polynomial of 0")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = mono_lcm(fm, gm)
    dom = f.domain
    left = f.mul_mono(mono_div(lcm, fm)).map_coeffs(dom.scaler(dom.inv(fc)))
    right = g.mul_mono(mono_div(lcm, gm)).map_coeffs(dom.scaler(dom.inv(gc)))
    return left.add(right)


def buchberger(gens, order: MonomialOrder = None) -> tuple:
    """Reduced monic Groebner basis over GF(8), as a tuple, with the normal
    selection strategy.  An order, if given, must be the one MonomialOrder;
    coefficients from any other domain than gf.FieldSpec raise TypeError.

    Pairs are processed smallest head-lcm first.  Each input, and each
    S-pair, is top-reduced by the active basis: reduction stops at the
    first head no active head divides, since only whether the remainder is
    zero, and its head, matter to the pair loop.  A nonzero remainder h
    enters, made monic, tail unreduced, and its pairs follow two of the
    criteria in Gebauer and Moeller ("On an installation of Buchberger's
    algorithm", J. Symbolic Comput. 6, 1988):

    * h is paired with every active element whose head is not coprime to
      its own (Buchberger's first criterion drops the others);
    * criterion B_k, checked when a pair (i, j) pops: it goes when an
      element m that entered after both has a head dividing lcm(i, j) and
      lcm(i, m) != lcm(i, j) != lcm(j, m).  These are the pairs the eager
      form drops from the queue as each m enters;
    * an active element whose head is a multiple of head(h) stops being a
      reducer; its queued pairs stay.

    The chain criterion is left out, for the measured reason in the module
    docstring.

    The active heads stay pairwise non-dividing, so the final active list is
    a minimal basis; reducing each tail fully by the others, once, gives
    the reduced one, which is unique: the output does not depend on the
    generators' order, or on whether their tails were reduced.
    Elements stay monic, so an S-pair is the XOR of two shifted elements.

    All of it runs on packed ints (see the module docstring).  Every
    monomial in play has weight at most that of an input term or of a
    reduced S-pair's lcm, and one of weight at most 3(S - 1) has a Y
    exponent below S.  So the width starts as the least power of two that
    covers the inputs; an S-pair whose lcm weight passes 3(S - 1) doubles
    S, and the run starts again.  Before anything is packed, a
    coefficient outside 0..7 raises ValueError, and a width whose indices
    would pass _PLANE_BITS raises PlaneTooWide.
    """
    if order is not None and not isinstance(order, MonomialOrder):
        raise TypeError(f"the order is MonomialOrder(), not {order!r}")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroPolynomial("no nonzero generators")
    for g in gens:
        if not isinstance(g.domain, FieldSpec):
            raise TypeError(f"buchberger needs GF(8) coefficients, not {g.domain!r}")
        FieldSpec.check_terms(g.terms)
    dom = gens[0].domain
    s = _width_shift(max(2 * a + 3 * b for g in gens for a, b in g.terms))
    while True:
        try:
            basis = _buchberger_packed([_to_packed(g, s) for g in gens], s, dom)
        except _TooNarrow as exc:
            s = _widen(s, exc.args[0])
        else:
            return tuple(_from_packed(h, s, dom) for h in basis)


# ---------------------------------------------------------------------------
# the packed kernel

# The most indices a packed polynomial may span: width 512 (weights up to
# 1533) fits, 1024 does not.
_PLANE_BITS = 1 << 20


class _TooNarrow(Exception):
    """An S-pair's lcm weight, args[0], passes 3(S - 1), so S must grow."""


def _width_shift(weight: int, s: int = 1) -> int:
    """The least s, from the given one up, whose width S = 2^s reaches the
    weight, 3(S - 1) >= weight; PlaneTooWide if its indices, which run up to
    3(S - 1)*S + S - 1, would pass _PLANE_BITS."""
    while 3 * ((1 << s) - 1) < weight:
        s += 1
    span = (3 * ((1 << s) - 1) + 1) << s
    if span > _PLANE_BITS:
        raise PlaneTooWide(f"weight {weight} needs {span} indices, more than {_PLANE_BITS}")
    return s


def _widen(s: int, weight: int) -> int:
    """The widening step: double S until 3(S - 1) reaches the weight."""
    return _width_shift(weight, s + 1)


@lru_cache(maxsize=None)
def _masks(s: int) -> tuple:
    """(0x11...1, 0x66...6) with one nibble per index of width 2^s."""
    span = (3 * ((1 << s) - 1) + 1) << s
    ones = ((1 << (span << 2)) - 1) // 15
    return ones, 6 * ones


def _to_packed(p: Polynomial, s: int) -> int:
    h = 0
    for (a, b), c in p.terms.items():
        h |= c << ((((2 * a + 3 * b) << s) | b) << 2)
    return h


def _from_packed(h: int, s: int, dom) -> Polynomial:
    """The polynomial of a packed int, terms in descending order."""
    mask = (1 << s) - 1
    terms = {}
    while h:
        n = (h.bit_length() - 1) & -4
        c = h >> n
        h ^= c << n
        b = (n >> 2) & mask
        terms[((n >> (s + 2)) - 3 * b) >> 1, b] = c
    return Polynomial(dom, 2, terms, _normalized=True)


def _multiples(p: int, s: int, cube: int) -> tuple:
    """(c*p for c = 0..7), c as an enc; cube is alpha^3 as an enc.  Times
    alpha, each nibble shifts up one bit within itself and its alpha^2 bit
    carries into the bits of cube."""
    ones, sixes = _masks(s)
    a = ((p << 1) & sixes) ^ ((p >> 2) & ones) * cube
    b = ((a << 1) & sixes) ^ ((a >> 2) & ones) * cube
    return 0, p, a, p ^ a, b, p ^ b, a ^ b, p ^ a ^ b


def _reduce(h: int, reducers, s: int, full: bool) -> int:
    """h reduced by monic reducers (a, b, head offset, multiples, index): the
    head is cancelled by the first reducer whose head divides it.  At a head
    no reducer divides, top-reduction (full false) stops and full reduction
    moves that term to the remainder and goes on."""
    r = 0
    mask = (1 << s) - 1
    while h:
        n = (h.bit_length() - 1) & -4
        b = (n >> 2) & mask
        a = ((n >> (s + 2)) - 3 * b) >> 1
        for ra, rb, rn, mults, _ in reducers:
            if ra <= a and rb <= b:
                h ^= mults[h >> n] << (n - rn)
                break
        else:
            if not full:
                break
            t = h >> n << n
            r |= t
            h ^= t
    return r | h


def _buchberger_packed(polys, s: int, dom) -> list:
    """The reduced basis of the packed polys, packed, heads ascending;
    _TooNarrow when an S-pair's lcm is past the width's reach."""
    cube = dom.modulus_bits ^ (1 << dom.m)
    mask = (1 << s) - 1
    reach = 3 * mask  # the largest weight whose Y exponents all stay below S
    # every element so far, monic: (a, b, head offset 4i, multiples by enc, index)
    basis = []
    reducers = []  # the elements no later head divides, oldest first
    heap: list = []  # (lcm offset, i, j, lcm a, lcm b), i > j

    def insert(h):
        h = _reduce(h, reducers, s, False)
        if not h:
            return
        top = (h.bit_length() - 1) & -4
        mults = _multiples(h, s, cube)
        c = h >> top
        if c != 1:
            # the monic element is mults[1/c]; its multiple by e is mults[e/c]
            mults = tuple(map(mults.__getitem__, dom.rows[dom.inv(c)]))
        b = (top >> 2) & mask
        a = ((top >> (s + 2)) - 3 * b) >> 1
        k = len(basis)
        basis.append((a, b, top, mults, k))
        for ga, gb, _, _, t in reducers:
            if a and ga or b and gb:  # coprime heads make no pair
                la, lb = a if a > ga else ga, b if b > gb else gb
                heapq.heappush(heap, ((((2 * la + 3 * lb) << s) | lb) << 2, k, t, la, lb))
        # reducers whose heads h divides retire; their queued pairs stay
        reducers[:] = [g for g in reducers if not (a <= g[0] and b <= g[1])] + [basis[k]]

    for p in polys:
        insert(p)
    while heap:
        ln, i, j, la, lb = heapq.heappop(heap)
        fi, fj = basis[i], basis[j]
        ia, ib, ja, jb = fi[0], fi[1], fj[0], fj[1]
        # criterion B_k, for every m that arrived while (i, j) was queued
        for ma, mb, _, _, _ in basis[i + 1:]:
            if (ma <= la and mb <= lb
                    and (ia if ia > ma else ma, ib if ib > mb else mb) != (la, lb)
                    != (ja if ja > ma else ma, jb if jb > mb else mb)):
                break
        else:
            # pairs within reach pop first: their indices are below (reach + 1)*S
            if 2 * la + 3 * lb > reach:
                raise _TooNarrow(2 * la + 3 * lb)
            insert(fi[3][1] << (ln - fi[2]) ^ fj[3][1] << (ln - fj[2]))

    # reduce every tail fully, once, to the unique reduced basis; heads stay put
    reducers.sort(key=lambda r: r[2])
    return [_reduce(r[3][1], reducers[:n] + reducers[n + 1:], s, True)
            for n, r in enumerate(reducers)]


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
