"""Arithmetic in GF(2^m) via log/antilog tables.

Elements are represented as integers ("enc") in ``[0, 2^m)`` whose binary
digits are the coefficients of the polynomial-basis representation: bit i
is the coefficient of alpha^i, where alpha is a root of the modulus
polynomial.  Addition is bitwise XOR; multiplication and inversion go
through discrete-log tables built from a multiplicative generator, so they
stay valid for any irreducible (not necessarily primitive) modulus.

The canonical field for everything downstream is GF(8) with modulus
x^3 + x + 1 (bitmask 0b1011).  All enc integers in file formats and CLI
output refer to this representation.
"""

from __future__ import annotations

import operator
from functools import lru_cache


class ReducibleModulus(ValueError):
    """The requested modulus polynomial factors over GF(2)."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of the additive identity."""


def _gf2_poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less polynomial division of a by b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _is_irreducible(bits: int, m: int) -> bool:
    # Trial division by every polynomial of degree 1 .. m//2.  A reducible
    # polynomial of degree m has a factor in that range.
    for d in range(1, m // 2 + 1):
        for low in range(1 << d):
            candidate = (1 << d) | low
            if _gf2_poly_mod(bits, candidate) == 0:
                return False
    return True


class FieldSpec:
    """Immutable description of GF(2^m) with precomputed tables.

    Safe to share across workers: nothing is mutated after construction.
    It is also the concrete coefficient domain of poly.Polynomial.
    """

    __slots__ = ("m", "modulus_bits", "q", "_exp", "_log", "_mul_table")

    parametric = False
    zero, one = 0, 1
    # builtins, so the reduction loop pays no Python call for them
    add = staticmethod(operator.xor)
    is_zero = staticmethod(operator.not_)

    def __init__(self, m: int, modulus_bits: int):
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree m={m} out of range [1, 16]")
        if not (modulus_bits >> m) & 1:
            raise ValueError(f"bit {m} of modulus 0b{modulus_bits:b} not set")
        if modulus_bits >= 1 << (m + 1):
            raise ValueError("modulus degree exceeds m")
        if not _is_irreducible(modulus_bits, m):
            raise ReducibleModulus(f"0b{modulus_bits:b} factors over GF(2)")
        self.m = m
        self.modulus_bits = modulus_bits
        self.q = 1 << m
        self._build_tables()
        self._mul_table = None

    def _raw_mul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus_bits
        return acc

    def _build_tables(self) -> None:
        q = self.q
        # Find a multiplicative generator by trial; for m=1 the group is
        # trivial and 1 generates it.
        order = q - 1
        gen = 1
        for g in range(2, q):
            x, n = g, 1
            while x != 1:
                x = self._raw_mul(x, g)
                n += 1
            if n == order:
                gen = g
                break
        exp = [0] * (2 * order if order > 1 else 2)
        log = [0] * q
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        for i in range(order, len(exp)):
            exp[i] = exp[i - order]
        self._exp = exp
        self._log = log

    def from_enc(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"enc {a} outside [0, {self.q})")
        return a

    def compatible(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.modulus_bits == self.modulus_bits

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

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
        if self.q == 2:
            return a
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> list[int]:
        """All q elements exactly once, in increasing enc order."""
        return list(range(self.q))

    def mul_table(self):
        """q-by-q numpy multiplication table (uint8); m <= 8 only."""
        if self._mul_table is None:
            if self.m > 8:
                raise ValueError("mul_table supported for m <= 8")
            import numpy as np

            t = np.zeros((self.q, self.q), dtype=np.uint8)
            for a in range(1, self.q):
                for b in range(1, self.q):
                    t[a, b] = self.mul(a, b)
            self._mul_table = t
        return self._mul_table

    def __repr__(self):
        return f"FieldSpec(m={self.m}, modulus_bits=0b{self.modulus_bits:b})"


@lru_cache(maxsize=None)
def gf8() -> FieldSpec:
    """The canonical GF(8) with modulus x^3 + x + 1."""
    return FieldSpec(3, 0b1011)
