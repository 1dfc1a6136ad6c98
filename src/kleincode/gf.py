"""Arithmetic in GF(8) via log/antilog tables.

GF(8) is the one field of the package, with modulus x^3 + x + 1 (bitmask
0b1011).  Elements are integers ("enc") in ``[0, 8)`` whose binary digits
are the coefficients of the polynomial-basis representation: bit i is the
coefficient of alpha^i, where alpha is a root of the modulus.  Addition is
bitwise XOR; multiplication and inversion go through discrete-log tables
to the base alpha.  All enc integers in file formats and CLI output refer
to this representation.

FieldSpec.evaluate is the package's one evaluator of polynomials at arrays
of points; codes.evaluate_terms (the variety) and params.evaluate_grid (the
parameter grids) only turn their monomials into exponent rows for it.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of the additive identity."""


class FieldSpec:
    """GF(8) with modulus x^3 + x + 1 and precomputed tables.

    Nothing is mutated after construction, so one shared instance serves
    every caller.  It is also the concrete coefficient domain of
    poly.Polynomial.
    """

    __slots__ = ("_exp", "_log", "rows", "_mul_pow_table")

    m, q, modulus_bits = 3, 8, 0b1011
    parametric = False
    zero, one = 0, 1
    # builtins, so the reduction loop pays no Python call for them
    add = staticmethod(operator.xor)
    is_zero = staticmethod(operator.not_)

    def __init__(self):
        # The unit group has prime order 7, so alpha (enc 2) generates it.
        # exp is doubled so mul can index a sum of two logs unreduced.
        exp = [0] * 14
        log = [0] * 8
        x = 1
        for i in range(7):
            exp[i] = exp[i + 7] = x
            log[x] = i
            x <<= 1
            if x & 8:
                x ^= self.modulus_bits
        self._exp = exp
        self._log = log
        # rows[a][b] = a * b, so a product is two tuple lookups
        self.rows = tuple(tuple(exp[log[a] + log[b]] if a and b else 0
                                for b in range(self.q)) for a in range(self.q))
        self._mul_pow_table = None

    def from_enc(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"enc {a} outside [0, {self.q})")
        return a

    @classmethod
    def check_terms(cls, terms: dict):
        """ValueError naming the first monomial of a term map {m: c} whose
        coefficient is no enc, an int outside [0, q)."""
        for m, c in terms.items():
            if not 0 <= c < cls.q:
                raise ValueError(f"coefficient {c} of monomial {m} is no GF({cls.q}) "
                                 f"enc, outside [0, {cls.q})")

    def compatible(self, other) -> bool:
        return isinstance(other, FieldSpec)

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def scaler(self, c: int):
        """The map b -> c * b, as one bound tuple lookup."""
        return self.rows[c].__getitem__

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inv(0)")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        # 0^0 = 1 so monomial evaluation works at points with zero
        # coordinates; exponents reduce mod q-1 for nonzero bases.
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("0 raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> list[int]:
        """All q elements exactly once, in increasing enc order."""
        return list(range(self.q))

    def mul_table(self):
        """q-by-q numpy multiplication table (uint8): mul_pow_table at e = 1."""
        return self.mul_pow_table()[:, 1]

    def mul_pow_table(self):
        """q-by-q-by-q numpy table (uint8): entry [c, e, x] is c * x^e, 0^0 = 1."""
        if self._mul_pow_table is None:
            powers = [[self.pow(x, e) for x in range(self.q)] for e in range(self.q)]
            self._mul_pow_table = np.array(self.rows, dtype=np.uint8)[:, powers]
        return self._mul_pow_table

    def evaluate(self, coefs, exps, points, starts) -> np.ndarray:
        """Sums of terms c * x_1^e_1 * ... at every column of points, as a
        uint8 array with one row per group of terms.

        Term j has coefficient coefs[j] and exponent exps[i][j], in 0..q-1,
        on variable i, whose values are the row points[i].  The groups begin
        at the indices starts, as np.bitwise_xor.reduceat splits them.  One
        table gather per variable evaluates every term at every point.
        """
        table = self.mul_pow_table()
        vals = np.array(coefs, dtype=np.uint8)[:, None]
        for e, x in zip(exps, points):
            vals = table[vals, e[:, None], x]
        vals = np.bitwise_xor.reduceat(vals, starts, axis=0)
        # constants alone leave a single column
        columns = points.shape[1]
        return vals if vals.shape[1] == columns else vals.repeat(columns, axis=1)

    def __repr__(self):
        return f"FieldSpec(m={self.m}, modulus_bits=0b{self.modulus_bits:b})"


@lru_cache(maxsize=None)
def gf8() -> FieldSpec:
    """The shared GF(8) instance."""
    return FieldSpec()
