"""Sparse polynomials in X and Y, the monomial order, and division.

Monomials are pairs (a, b) of non-negative exponents, for X^a*Y^b.
Polynomials are term maps from monomial to a nonzero coefficient; the
plane is fixed, so Polynomial(dom, 2, terms) refuses any arity but 2.
There are two coefficient domains: ``gf.FieldSpec``, the concrete GF(8)
with enc integer coefficients, and ``params.ParamRing``, the parametric
ring GF(8)[a1..at] of the case-split engine.  A domain provides ``zero``,
``one``, ``is_zero(c)``, ``add(a, b)``, ``mul(a, b)``, ``scaler(c)`` (the
map b -> c * b, with which divide scales a divisor once per step),
``inv(a)``, ``from_enc(n)``, ``compatible(other)`` and ``parametric``, and
a parametric one also ``t``, ``var_pow(i, e)`` and ``format_coef(c)``.
Both domains have characteristic 2, so subtraction is addition throughout.

There is one order, the Klein order: weighted-degree-lex with weights
(2, 3), ties to Y.  Its key is one packed int.  Leading terms and division
read MonomialOrder.key directly; none takes an order.  One reduction loop,
``divide``, serves every division of a Polynomial, over both coefficient
domains: the trace replay, the auto-search and ``groebner.normal_form``
call it (``groebner.buchberger`` runs on GF(8) bit planes of its own).
Inside it, and nowhere else, a polynomial is a dict keyed by that int,
and ``decode`` turns the keys back into monomials.  It has two modes:

* ``full``  -- the textbook multivariate division: every monomial of the
  remainder is irreducible by every divisor head.
* ``head``  -- repeatedly cancels the leading monomial only, stopping as
  soon as the head is irreducible; lower terms may remain reducible.

Both modes return quotients such that s = sum(q_i d_i) + r exactly.
"""

from __future__ import annotations

import re

EXPONENT_CAP = 1 << 20
# The most terms a parsed sum may be written as.  Shipped and recorded
# branch expressions have at most 2, and the auto-search branches on no
# coefficient of more than 64.
TERM_CAP = 4096
# The most parentheses the parser nests; shipped and recorded branch
# expressions use none, and a printed polynomial one level.
NEST_CAP = 16

HEAD = "head"
FULL = "full"


class ArityMismatch(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class DomainMismatch(TypeError):
    pass


class NonInvertibleLeadingCoefficient(ValueError):
    pass


class ExponentCapExceeded(OverflowError):
    pass


class ParametricCoefficients(TypeError):
    """Operation needs concrete field coefficients."""


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(u: tuple, v: tuple) -> tuple:
    a, b = u[0] + v[0], u[1] + v[1]
    if a > EXPONENT_CAP or b > EXPONENT_CAP:
        raise ExponentCapExceeded(f"exponent cap {EXPONENT_CAP} exceeded")
    return (a, b)


def mono_divides(u: tuple, v: tuple) -> bool:
    return u[0] <= v[0] and u[1] <= v[1]


def mono_div(v: tuple, u: tuple) -> tuple:
    return (v[0] - u[0], v[1] - u[1])


def mono_lcm(u: tuple, v: tuple) -> tuple:
    return (u[0] if u[0] > v[0] else v[0], u[1] if u[1] > v[1] else v[1])


# ---------------------------------------------------------------------------
# the monomial order

_PB = 24
_PM = (1 << _PB) - 1


class MonomialOrder:
    """The Klein order: weighted-degree-lex on two-variable monomials with
    weights (2, 3), ties won by the larger Y exponent.

    ``key`` packs both into one int, ``((2a + 3b) << 24) | b``, so that int
    comparison is the order; exponents stay below EXPONENT_CAP = 2^20,
    inside the 24 bits.  The key is linear in the exponents, so monomial
    multiplication is key addition, and it determines the monomial, which
    ``decode`` recovers.
    """

    __slots__ = ()
    weights = (2, 3)

    @staticmethod
    def key(mono: tuple) -> int:
        try:
            a, b = mono
        except ValueError:
            raise ArityMismatch(f"monomial {mono} is not bivariate") from None
        return ((2 * a + 3 * b) << _PB) | b

    @staticmethod
    def decode(k: int) -> tuple:
        b = k & _PM
        return (((k >> _PB) - 3 * b) // 2, b)

    def weight(self, mono: tuple) -> int:
        return self.key(mono) >> _PB

    def compare(self, u: tuple, v: tuple) -> int:
        ku, kv = self.key(u), self.key(v)
        return (ku > kv) - (ku < kv)

    def __repr__(self):
        return "MonomialOrder()"


class Polynomial:
    """A polynomial in X and Y; the arity argument is 2 or refused."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain, arity: int, terms=None, _normalized=False):
        if arity != 2:
            raise ArityMismatch(f"arity {arity}: polynomials are in X and Y")
        self.domain = domain
        if terms is None:
            self.terms = {}
        elif _normalized:
            self.terms = terms
        else:
            is_zero = domain.is_zero
            self.terms = {m: c for m, c in terms.items() if not is_zero(c)}

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coef(self, mono: tuple):
        return self.terms.get(tuple(mono), self.domain.zero)

    def _check_other(self, other: "Polynomial"):
        if self.domain is not other.domain and not self.domain.compatible(other.domain):
            raise DomainMismatch("mixed coefficient domains")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._check_other(other)
        dom = self.domain
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = dom.add(out.get(m, dom.zero), c)
            if dom.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return Polynomial(dom, 2, out, _normalized=True)

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._check_other(other)
        dom = self.domain
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = dom.add(out.get(m, dom.zero), dom.mul(c1, c2))
                if dom.is_zero(v):
                    out.pop(m, None)
                else:
                    out[m] = v
        return Polynomial(dom, 2, out, _normalized=True)

    def mul_mono(self, mono: tuple) -> "Polynomial":
        out = {mono_mul(m, mono): c for m, c in self.terms.items()}
        return Polynomial(self.domain, 2, out, _normalized=True)

    def leading_term(self):
        if not self.terms:
            raise ZeroPolynomial("leading term of 0")
        m = max(self.terms, key=MonomialOrder.key)
        return m, self.terms[m]

    def eval(self, point: tuple):
        """Evaluate at a point of the coefficient field; 0^0 = 1."""
        spec = self.domain
        if spec.parametric:
            raise ParametricCoefficients("eval needs concrete coefficients")
        if len(point) != 2:
            raise ArityMismatch(f"point {point} is not in the plane")
        acc = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = spec.mul(v, spec.pow(x, e))
                    if v == 0:
                        break
            acc ^= v
        return acc

    def map_coeffs(self, fn) -> "Polynomial":
        dom = self.domain
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not dom.is_zero(v):
                out[m] = v
        return Polynomial(dom, 2, out, _normalized=True)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Polynomial({format_poly(self)})"


# ---------------------------------------------------------------------------
# division: the one reduction loop

def divide(s: Polynomial, divisors, mode: str = FULL):
    """Divide s by an ordered divisor list; returns (quotients, remainder).

    At each step the first divisor whose head divides the current head
    cancels it.  FULL moves an irreducible head to the remainder and goes
    on; HEAD stops there.  The identity s = sum(quotients[i] * divisors[i]) + r
    holds exactly in both modes.
    """
    if mode not in (HEAD, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    dom = s.domain
    add, mul, is_zero, zero = dom.add, dom.mul, dom.is_zero, dom.zero
    key, decode, scaler = MonomialOrder.key, MonomialOrder.decode, dom.scaler
    # The loop runs on dicts from order key to coefficient (see
    # MonomialOrder), so the next head is a raw int max and a multiple of a
    # divisor is a key shift.  A divisor is (head exponents, head key,
    # inverse head coefficient or None for 1, terms).
    prepared = []
    for d in divisors:
        if d.is_zero():
            raise ZeroPolynomial("zero divisor")
        head, lc = d.leading_term()
        inv = None if is_zero(add(lc, dom.one)) else dom.inv(lc)
        prepared.append((*head, key(head), inv, [(key(m), c) for m, c in d.terms.items()]))
    quots = [{} for _ in divisors]
    p = {key(m): c for m, c in s.terms.items()}
    rem: dict = {}
    while p:
        mk = max(p)
        c = p[mk]
        ma, mb = decode(mk)
        for (da, db, dk, dinv, items), q in zip(prepared, quots):
            if da <= ma and db <= mb:
                # the heads fall strictly, so each quotient monomial of one
                # divisor is new: assigned, never accumulated
                tk = mk - dk
                q[tk] = qc = c if dinv is None else mul(c, dinv)
                scale = scaler(qc)
                for dmk, dc in items:
                    nk = tk + dmk
                    v = add(p.get(nk, zero), scale(dc))
                    if is_zero(v):
                        p.pop(nk, None)
                    else:
                        p[nk] = v
                break
        else:
            if mode == HEAD:
                rem = p
                break
            rem[mk] = c
            del p[mk]

    def unpack(d):
        return Polynomial(dom, 2, {decode(k): c for k, c in d.items()}, _normalized=True)

    return [unpack(q) for q in quots], unpack(rem)


# ---------------------------------------------------------------------------
# text grammar
#
# terms joined by '+'; a term is [coef*]X^a*Y^b with factors joined by '*',
# which is never optional; only '^1' may be left out ("X*Y", not "XY").
# Concrete coefficients are enc integers ("5*X^2*Y"); parametric ones use
# a1..at, with parentheses around sums: "(a1^3+a2)*X^3".  A parenthesised
# coefficient is parsed by the same sum and term loop and must not mention
# X or Y.  Whitespace is insignificant.  Printing round-trips parsing bit-exactly.
# An X or Y exponent above EXPONENT_CAP is refused, as mono_mul refuses one,
# and so is any exponent, of a parameter too, with more digits than the cap.
# Every digit string is measured, leading zeros aside, before int() reads
# it without them (_number), since int() refuses more than 4300 digits with
# a message of its own: a coefficient has one digit, an enc of GF(8), and a
# parameter index at most as many as t.
# A sum written as more than TERM_CAP terms is refused, and a product of
# parenthesised sums before it is multiplied out; so are parentheses nested
# deeper than NEST_CAP, before the recursion could run out of stack.

_TOKEN = re.compile(r"\(|\)|\+|\*|\^|[0-9]+|a[0-9]+|[XY]")
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*")


def _tokenize(text: str):
    stripped = re.sub(r"\s+", "", text)
    pos = _TOKENS.match(stripped).end()
    if pos < len(stripped):
        raise ParseError(f"bad character at {stripped[pos:pos+8]!r}")
    return _TOKEN.findall(stripped)


_VAR_INDEX = {"X": 0, "Y": 1}


def _number(digits: str) -> int:
    """The value of a measured digit string, read without its leading zeros."""
    return int(digits.lstrip("0") or "0")


class _Parser:
    def __init__(self, tokens, domain):
        self.toks = tokens
        self.i = 0
        self.domain = domain
        self.depth = 0  # open parentheses: inside them X and Y are refused

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, tok):
        t = self.take()
        if t != tok:
            raise ParseError(f"expected {tok!r}, got {t!r}")

    def parse_poly(self) -> Polynomial:
        acc, _ = self.parse_sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return acc

    def parse_sum(self):
        """Terms joined by '+', as (sum, size).  The size counts the terms as
        written, parenthesised factors multiplied out, before anything
        cancels or folds; it is refused once it passes TERM_CAP."""
        acc, size = self.parse_term()
        while self.peek() == "+":
            self.take()
            term, n = self.parse_term()
            size += n
            if size > TERM_CAP:
                raise ParseError(f"sum of {size} terms, above the cap {TERM_CAP}")
            acc = acc.add(term)
        return acc, size

    def parse_term(self):
        """Factors joined by '*', as (term, size)."""
        if self.peek() in (None, "+", ")"):
            raise ParseError("empty term")
        coef, size, exps = self.domain.one, 1, [0, 0]
        while True:
            coef, size = self.parse_factor(coef, size, exps)
            if self.peek() in (None, "+", ")"):
                return Polynomial(self.domain, 2, {tuple(exps): coef}), size
            self.expect("*")

    def parse_factor(self, coef, size, exps):
        """Multiply one factor into a term's coefficient and size; an X or Y
        power goes into exps in place."""
        dom = self.domain
        tok = self.take()
        if tok == "(":
            if not dom.parametric:
                raise ParseError("parenthesized coefficients need a parametric ring")
            self.depth += 1
            if self.depth > NEST_CAP:
                raise ParseError(f"parentheses nested deeper than the cap {NEST_CAP}")
            val, n = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            if size * n > TERM_CAP:
                raise ParseError(f"product of {size} by {n} terms, above the cap {TERM_CAP}")
            return dom.mul(coef, val.coef((0, 0))), size * n
        if tok in _VAR_INDEX:
            if self.depth:
                raise ParseError(f"{tok} inside a parenthesized coefficient")
            idx = _VAR_INDEX[tok]
            exps[idx] += self.maybe_exponent()
            if exps[idx] > EXPONENT_CAP:
                raise ExponentCapExceeded(f"exponent cap {EXPONENT_CAP} exceeded")
            return coef, size
        if tok.startswith("a") and len(tok) > 1:
            if not dom.parametric:
                raise ParseError(f"parameter {tok} in a concrete polynomial")
            return dom.mul(coef, self.parse_param(tok)), size
        if tok.isdigit():
            if len(tok.lstrip("0")) > 1:
                raise ParseError(f"coefficient {_short(tok)} outside GF(8)")
            return dom.mul(coef, dom.from_enc(_number(tok))), size
        raise ParseError(f"unexpected token {tok!r}")

    def maybe_exponent(self) -> int:
        if self.peek() == "^":
            self.take()
            t = self.take()
            if not t.isdigit():
                raise ParseError(f"exponent expected, got {t!r}")
            if len(t.lstrip("0")) > len(str(EXPONENT_CAP)):
                raise ExponentCapExceeded(f"exponent cap {EXPONENT_CAP} exceeded")
            return _number(t)
        return 1

    def parse_param(self, tok):
        """a<i>[^e] as a power of a parameter of the ring."""
        t = self.domain.t
        if len(tok[1:].lstrip("0")) > len(str(t)) or not 0 < _number(tok[1:]) <= t:
            raise ParseError(f"parameter {_short(tok)} outside a1..a{t}")
        return self.domain.var_pow(_number(tok[1:]) - 1, self.maybe_exponent())


def _short(tok: str, cut: int = 12) -> str:
    """A token as an error message quotes it: a long one is cut at `cut` characters."""
    return tok if len(tok) <= cut else tok[:cut] + "..."


def parse_poly(text: str, domain) -> Polynomial:
    return _Parser(_tokenize(text), domain).parse_poly()


_VAR_NAMES = ("X", "Y")


def format_monomial(mono: tuple) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = _VAR_NAMES[i]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(p: Polynomial) -> str:
    """Terms in descending order."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=MonomialOrder.key, reverse=True):
        c = p.terms[m]
        mono_s = format_monomial(m)
        coef_s = _format_coef(p.domain, c)
        if coef_s is None:
            parts.append(mono_s)
        elif mono_s == "1":
            parts.append(coef_s)
        else:
            parts.append(f"{coef_s}*{mono_s}")
    return "+".join(parts)


def _format_coef(dom, c):
    """Return the coefficient prefix, or None when it prints as bare 1."""
    if dom.parametric:
        return dom.format_coef(c)
    if c == 1:
        return None
    return str(c)
