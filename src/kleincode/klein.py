"""Canonical Klein-quartic setup shared by the whole package.

GF(8) is fixed with modulus x^3 + x + 1 (gf.FieldSpec); the order is the
one poly.MonomialOrder, weighted-degree-lex with weights (2, 3) and ties
won by the larger Y exponent; the curve is Y^3 + X^3*Y + X with the two
field equations adjoined.  Any irreducible cubic modulus gives an
isomorphic field, so footprint sizes, weights and code parameters do not
depend on the choice; fixing one keeps output byte-stable.

The setting is a constant, not a parameter: all Klein-only code takes its
field, footprint, variety and class supports from here, and its order
from poly.MonomialOrder directly.
"""

from __future__ import annotations

from functools import lru_cache

from .codes import Variety, enumerate_variety
from .gf import FieldSpec, gf8
from .groebner import Footprint, buchberger, footprint
from .poly import MonomialOrder, ParseError, Polynomial, _short, parse_poly

# the curve, then the field equations of X and Y
GENERATOR_TEXTS = ("Y^3+X^3*Y+X", "X^8+X", "Y^8+Y")

# Best distances known to exist for length-22 codes over GF(8) at the 15
# constructed dimensions (static constants from the published code tables;
# no network access).  The construction's bound meets these except at
# dimensions 4, 14, 15 and 18, where the best known value is one more.
BEST_KNOWN_DISTANCE = {
    1: 22, 2: 19, 3: 18, 4: 17, 5: 15, 7: 13, 8: 12, 10: 10,
    11: 9, 13: 7, 14: 7, 15: 6, 17: 4, 18: 4, 20: 2,
}

# The least weight of a word in each class coset M + span(class_support(M)),
# rows of Y-degree 0, 1 and 2.  Each value equals the class's proved bound
# delta(M): the traces show that no coset word is lighter, and
# tests/data/class_witnesses.json holds a coset word of exactly this weight
# for every class, which a test evaluates.
CLASS_MINIMUM = {
    (0, 0): 22, (1, 0): 19, (2, 0): 16, (3, 0): 13, (4, 0): 10, (5, 0): 7, (6, 0): 4,
    (7, 0): 1,
    (0, 1): 18, (1, 1): 15, (2, 1): 12, (3, 1): 9, (4, 1): 6, (5, 1): 4, (6, 1): 2,
    (0, 2): 13, (1, 2): 10, (2, 2): 7, (3, 2): 5, (4, 2): 3, (5, 2): 2, (6, 2): 1,
}


@lru_cache(maxsize=None)
def klein_domain() -> FieldSpec:
    """The coefficient domain of the concrete Klein polynomials: GF(8)."""
    return gf8()


@lru_cache(maxsize=None)
def klein_order() -> MonomialOrder:
    return MonomialOrder()


@lru_cache(maxsize=256)
def parse_monomial(text: str) -> tuple:
    """A monic X, Y monomial written in the polynomial grammar; memoised, as
    a trace spells the same few monomials on many lines."""
    p = parse_poly(text, klein_domain())
    if len(p.terms) != 1:
        raise ParseError(f"{_short(text)!r} is not a monomial")
    ((m, c),) = p.terms.items()
    if c != 1:
        raise ParseError(f"{_short(text)!r} is not a monic monomial")
    return m


@lru_cache(maxsize=None)
def ideal_generators() -> tuple[Polynomial, ...]:
    """Generators of the full ideal: curve plus both field equations."""
    return tuple(parse_poly(text, klein_domain()) for text in GENERATOR_TEXTS)


@lru_cache(maxsize=None)
def klein_basis() -> tuple[Polynomial, ...]:
    return buchberger(ideal_generators())


@lru_cache(maxsize=None)
def klein_footprint() -> Footprint:
    return footprint(klein_basis())


@lru_cache(maxsize=None)
def klein_variety() -> Variety:
    """The 22 affine points of the curve over GF(8)."""
    return enumerate_variety(list(ideal_generators()), gf8(), 2)


@lru_cache(maxsize=None)
def class_support(M: tuple) -> tuple:
    """Footprint monomials below M, largest first: the monomials m1 > m2 > ...
    of a reduced codeword polynomial M + a1*m1 + a2*m2 + ..."""
    key = MonomialOrder.key(M)
    return tuple(m for m in klein_footprint().descending() if MonomialOrder.key(m) < key)
