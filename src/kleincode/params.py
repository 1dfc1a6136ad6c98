"""Parametric coefficients a1..at over GF(8) and constraint stores.

A ParamPoly is a polynomial in the parameters with GF(8) coefficients,
kept reduced modulo a_i^8 = a_i (exponents fold into 1..7), so equality
of reduced forms is exactly equality as functions GF(8)^t -> GF(8).

A ConstraintStore records what a branch of a case analysis has assumed:
triangular substitutions a_i := expr (from "assume c = 0" branches whose
expression is linear in some parameter with a constant coefficient),
residual equality constraints for anything unsolvable, and a set of
expressions asserted nonzero.  Branches whose store admits no concrete
satisfying assignment are vacuous and drop out of bound minima.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import gf8
from .poly import NonInvertibleLeadingCoefficient
from .rng import SplitMix64

_WITNESS_SEED = 0x5EEDBA5E


class ParamRing:
    """t parameters a1..at over GF(8).

    The field is fixed: exponent folding (a^8 = a), exact division and the
    grid scans all assume q = 8.
    """

    __slots__ = ("t", "spec", "_zero", "_one")

    def __init__(self, t: int):
        self.t = t
        self.spec = gf8()
        self._zero = ParamPoly(self, {})
        self._one = ParamPoly(self, {(0,) * t: 1})

    def zero(self) -> "ParamPoly":
        return self._zero

    def one(self) -> "ParamPoly":
        return self._one

    def const(self, c: int) -> "ParamPoly":
        if c == 0:
            return self._zero
        return ParamPoly(self, {(0,) * self.t: c})

    def var(self, i: int) -> "ParamPoly":
        return self.var_pow(i, 1)

    def var_pow(self, i: int, e: int) -> "ParamPoly":
        if not 0 <= i < self.t:
            raise IndexError(f"parameter a{i+1} outside ring with t={self.t}")
        if e == 0:
            return self._one
        exps = [0] * self.t
        exps[i] = _fold(e)
        return ParamPoly(self, {tuple(exps): 1})


def _fold(e: int) -> int:
    # a^8 = a, so nonzero exponents live in 1..7.
    return e if e <= 7 else ((e - 1) % 7) + 1


class ParamPoly:
    __slots__ = ("ring", "terms", "_key")

    def __init__(self, ring: ParamRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._key = None

    def is_zero(self) -> bool:
        return not self.terms

    def as_const(self):
        """enc value when constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            if not any(m):
                return c
        return None

    def add(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) ^ c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return ParamPoly(self.ring, out)

    def mul(self, other: "ParamPoly") -> "ParamPoly":
        mul = self.ring.spec.mul
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(_fold(a + b) for a, b in zip(m1, m2))
                v = out.get(m, 0) ^ mul(c1, c2)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return ParamPoly(self.ring, out)

    def scale(self, c: int) -> "ParamPoly":
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        mul = self.ring.spec.mul
        return ParamPoly(self.ring, {m: mul(c, v) for m, v in self.terms.items()})

    def substitute(self, subs: dict) -> "ParamPoly":
        """Replace parameters by ParamPoly values; one pass."""
        if not subs or not any(any(m[i] for i in subs) for m in self.terms):
            return self
        ring = self.ring
        acc = ring.zero()
        for m, c in self.terms.items():
            term = ring.const(c)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                base = subs.get(i)
                factor = _param_pow(base, e) if base is not None else ring.var_pow(i, e)
                term = term.mul(factor)
            acc = acc.add(term)
        return acc

    def evaluate(self, assignment) -> int:
        spec = self.ring.spec
        acc = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(assignment, m):
                if e:
                    v = spec.mul(v, spec.pow(x, e))
                    if v == 0:
                        break
            acc ^= v
        return acc

    def variables(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ParamPoly({format_param(self)})"


def _param_pow(p: ParamPoly, e: int) -> ParamPoly:
    acc = p.ring.one()
    for _ in range(_fold(e)):
        acc = acc.mul(p)
    return acc


@lru_cache(maxsize=None)
def _pow_table() -> np.ndarray:
    """8x8 uint8 table of x^e over GF(8), e in 0..7, with 0^0 = 1."""
    spec = gf8()
    return np.array([[spec.pow(x, e) for e in range(8)] for x in range(8)],
                    dtype=np.uint8)


def assignment_grid(t: int, idx) -> np.ndarray:
    """t x 8^k uint8 grid of every assignment to the parameters idx (the
    others stay 0).  Column n gives idx[j] the j-th base-8 digit of n, least
    significant first: the order of the scalar scans."""
    n = np.arange(8 ** len(idx))
    grid = np.zeros((t, n.size), dtype=np.uint8)
    for j, i in enumerate(idx):
        grid[i] = (n >> (3 * j)) & 7
    return grid


def evaluate_grid(p: ParamPoly, grid: np.ndarray) -> np.ndarray:
    """p at every column of an assignment grid, as a uint8 row."""
    if not p.terms:
        return np.zeros(grid.shape[1], dtype=np.uint8)
    mul = gf8().mul_table()
    pw = _pow_table()
    exps = np.array(list(p.terms), dtype=np.intp)
    coefs = np.array(list(p.terms.values()), dtype=np.uint8)
    vals = np.broadcast_to(coefs[:, None], (coefs.size, grid.shape[1]))
    for i in np.flatnonzero(exps.any(axis=0)):
        vals = mul[vals, pw[grid[i]].T[exps[:, i]]]
    return np.bitwise_xor.reduce(vals, axis=0)


def format_param(p: ParamPoly) -> str:
    """Canonical text form: terms sorted descending, a1^2*a2 style."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = []
        if c != 1 or not any(m):
            factors.append(str(c))
        for i, e in enumerate(m):
            if e == 0:
                continue
            factors.append(f"a{i+1}" if e == 1 else f"a{i+1}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)


class ParamDomain:
    """Coefficient-domain adapter so Polynomial works over ParamPoly."""

    __slots__ = ("ring",)
    parametric = True

    def __init__(self, ring: ParamRing):
        self.ring = ring

    @property
    def zero(self):
        return self.ring.zero()

    @property
    def one(self):
        return self.ring.one()

    def is_zero(self, c) -> bool:
        return c.is_zero()

    def add(self, a, b):
        return a.add(b)

    def mul(self, a, b):
        return a.mul(b)

    def inv(self, a):
        c = a.as_const()
        if c is None:
            raise NonInvertibleLeadingCoefficient(
                f"parametric leading coefficient {format_param(a)}")
        if c == 0:
            raise NonInvertibleLeadingCoefficient("zero leading coefficient")
        return self.ring.const(self.ring.spec.inv(c))

    def from_enc(self, n: int):
        return self.ring.const(self.ring.spec.check(n))

    def format_coef(self, c):
        const = c.as_const()
        if const == 1:
            return None
        if const is not None:
            return str(const)
        if len(c.terms) == 1:
            return format_param(c)
        return f"({format_param(c)})"

    def compatible(self, other) -> bool:
        return isinstance(other, ParamDomain) and other.ring.t == self.ring.t


class ConstraintStore:
    """Substitutions, equalities and nonzero assertions for one branch."""

    __slots__ = ("ring", "subs", "nonzeros", "equalities", "_witness", "_checked",
                 "_proved_unsat", "_cache")

    def __init__(self, ring: ParamRing, subs=None, nonzeros=None, equalities=None):
        self.ring = ring
        self.subs = dict(subs or {})
        self.nonzeros = dict(nonzeros or {})
        self.equalities = list(equalities or [])
        self._witness = None
        self._checked = False
        self._proved_unsat = False
        self._cache = {}

    # -- reduction -----------------------------------------------------

    def reduce(self, p: ParamPoly) -> ParamPoly:
        """Apply substitutions to fixpoint (bounded by t passes)."""
        for _ in range(self.ring.t + 1):
            q = p.substitute(self.subs)
            if q.terms == p.terms:
                return q
            p = q
        return p

    # -- branching -------------------------------------------------------

    def with_nonzero(self, c: ParamPoly) -> "ConstraintStore":
        c = self.reduce(c)
        child = ConstraintStore(self.ring, self.subs, self.nonzeros, self.equalities)
        const = c.as_const()
        if const is not None:
            if const == 0:
                child.equalities.append(self.ring.one())  # unsatisfiable marker
            return child
        child.nonzeros[c.key()] = c
        return child

    def with_zero(self, c: ParamPoly) -> "ConstraintStore":
        c = self.reduce(c)
        child = ConstraintStore(self.ring, self.subs, self.nonzeros, self.equalities)
        const = c.as_const()
        if const is not None:
            if const != 0:
                child.equalities.append(self.ring.one())
            return child
        solved = _solve_linear(c)
        if solved is None:
            child.equalities.append(c)
            return child
        i, rhs = solved
        child.subs[i] = rhs
        child._renormalize()
        return child

    def branch(self, c: ParamPoly):
        """(zero-child, nonzero-child) for a reduced expression."""
        return self.with_zero(c), self.with_nonzero(c)

    def _renormalize(self):
        # Re-reduce every stored expression against the updated subs so all
        # right-hand sides stay free of substituted parameters.
        for _ in range(self.ring.t + 1):
            changed = False
            for i, rhs in list(self.subs.items()):
                r2 = rhs.substitute({j: v for j, v in self.subs.items() if j != i})
                if r2.terms != rhs.terms:
                    self.subs[i] = r2
                    changed = True
            if not changed:
                break
        new_nonzeros = {}
        for c in self.nonzeros.values():
            c2 = self.reduce(c)
            const = c2.as_const()
            if const == 0:
                self.equalities.append(self.ring.one())
            elif const is None:
                new_nonzeros[c2.key()] = c2
        self.nonzeros = new_nonzeros
        self.equalities = [self.reduce(e) for e in self.equalities]
        self.equalities = [e for e in self.equalities if not e.is_zero()]

    # -- queries -----------------------------------------------------------

    def certified_nonzero(self, p: ParamPoly) -> bool:
        """True when p provably never vanishes under this store.

        Certificates: nonzero constants, members of the nonzero set, and
        products of certified factors (greedy exact division).
        """
        p = self.reduce(p)
        ck = ("nz", p.key())
        if ck not in self._cache:
            self._cache[ck] = self._certified(p, 0)
        return self._cache[ck]

    def _certified(self, p: ParamPoly, depth: int) -> bool:
        const = p.as_const()
        if const is not None:
            return const != 0
        if p.key() in self.nonzeros:
            return True
        if depth >= 6:
            return False
        for f in self.nonzeros.values():
            q = _exact_divide(p, f)
            if q is not None and self._certified(q, depth + 1):
                return True
        return False

    def proves_zero(self, p: ParamPoly) -> bool:
        """True when p vanishes on every satisfying assignment."""
        p = self.reduce(p)
        if p.is_zero():
            return True
        ck = ("z", p.key())
        if ck not in self._cache:
            self._cache[ck] = self._proves_zero_scan(p)
        return self._cache[ck]

    def _proves_zero_scan(self, p: ParamPoly) -> bool:
        involved = p.variables()
        for e in self.equalities:
            involved |= e.variables()
        if not self.equalities:
            # Without residual equalities the reduced form is the function.
            # Only nonzeros inside the scanned parameters may mask the scan:
            # one outside would read as 0 on the whole grid.  Dropping a
            # nonzero only enlarges the set p must vanish on, so it is sound.
            if not involved or len(involved) > 6:
                return False
            if (8 ** len(involved)) * len(p.terms) > 2_000_000:
                return False
            return self._vanishes_on_scan(p, involved, [
                c for c in self.nonzeros.values() if c.variables() <= involved])
        for c in self.nonzeros.values():
            involved |= c.variables()
        if len(involved) > 6:
            return False
        size = len(p.terms) + sum(len(e.terms) for e in self.equalities) \
            + sum(len(c.terms) for c in self.nonzeros.values())
        if (8 ** len(involved)) * size > 2_000_000:
            return False
        return self._vanishes_on_scan(p, involved)

    def _vanishes_on_scan(self, p: ParamPoly, involved, nonzeros=None) -> bool:
        """p vanishes on every scanned assignment that meets the equalities
        and the nonzeros (all of the store's by default)."""
        grid = assignment_grid(self.ring.t, sorted(involved))
        live = np.ones(grid.shape[1], dtype=bool)
        for e in self.equalities:
            live &= evaluate_grid(e, grid) == 0
        for c in self.nonzeros.values() if nonzeros is None else nonzeros:
            live &= evaluate_grid(c, grid) != 0
        return not evaluate_grid(p, grid)[live].any()

    def witness(self):
        """A satisfying assignment (tuple of enc), or None if none found."""
        if self._checked:
            return self._witness
        self._checked = True
        self._witness, self._proved_unsat = self._find_witness()
        return self._witness

    @property
    def vacuous(self) -> bool:
        """True only when unsatisfiability is proved (exhaustive search).

        An inconclusive randomized search keeps the branch alive: dropping
        a satisfiable branch from a bound minimum would be unsound, keeping
        an unsatisfiable one merely weakens the bound.
        """
        self.witness()
        return self._proved_unsat

    def _find_witness(self):
        """(witness-or-None, proved_unsat)."""
        ring = self.ring
        q = ring.spec.q
        free = [i for i in range(ring.t) if i not in self.subs]
        # Only parameters mentioned by some constraint need searching.
        constrained = set()
        for c in self.nonzeros.values():
            constrained |= c.variables()
        for e in self.equalities:
            constrained |= e.variables()
        constrained = sorted(constrained & set(free))
        total_terms = sum(len(c.terms) for c in self.nonzeros.values()) \
            + sum(len(e.terms) for e in self.equalities) + 1
        # Exhaustive scan proves unsatisfiability, but only when affordable;
        # otherwise a failed randomized search leaves the branch alive.
        if len(constrained) <= 6 and (q ** len(constrained)) * total_terms <= 2_000_000:
            assignment = [0] * ring.t
            for n in range(q ** len(constrained)):
                v = n
                for i in constrained:
                    assignment[i] = v % q
                    v //= q
                if self._satisfied(assignment):
                    return tuple(assignment), False
            return None, True
        rng = SplitMix64(_WITNESS_SEED ^ hash(self.key()) & 0xFFFFFFFF)
        # attempts scale down with constraint size so one vacuity check
        # stays cheap on huge expressions
        attempts = max(16, min(2048, 65536 // total_terms))
        for _ in range(attempts):
            assignment = [0] * ring.t
            for i in constrained:
                assignment[i] = rng.below(q)
            if self._satisfied(assignment):
                return tuple(assignment), False
        return None, False

    def _satisfied(self, assignment) -> bool:
        # Fill substituted parameters from the assignment, then test.
        for i, rhs in self.subs.items():
            assignment[i] = rhs.evaluate(assignment)
        if any(e.evaluate(assignment) != 0 for e in self.equalities):
            return False
        return all(c.evaluate(assignment) != 0 for c in self.nonzeros.values())

    def sample_witnesses(self, count: int, seed: int):
        """Deterministic satisfying assignments (with repetition possible)."""
        ring = self.ring
        q = ring.spec.q
        free = [i for i in range(ring.t) if i not in self.subs]
        rng = SplitMix64(seed)
        out = []
        attempts = 0
        limit = max(64 * count, 4096)
        while len(out) < count and attempts < limit:
            attempts += 1
            assignment = [0] * ring.t
            for i in free:
                assignment[i] = rng.below(q)
            if self._satisfied(assignment):
                out.append(tuple(assignment))
        return out

    def key(self) -> tuple:
        return (
            tuple(sorted((i, rhs.key()) for i, rhs in self.subs.items())),
            tuple(sorted(self.nonzeros)),
            tuple(sorted(e.key() for e in self.equalities)),
        )

    def summary(self) -> str:
        bits = []
        for i in sorted(self.subs):
            bits.append(f"a{i+1} = {format_param(self.subs[i])}")
        for e in self.equalities:
            bits.append(f"{format_param(e)} = 0")
        for c in sorted(self.nonzeros):
            bits.append(f"{format_param(self.nonzeros[c])} != 0")
        return ", ".join(bits) if bits else "(no constraints)"


def _solve_linear(c: ParamPoly):
    """Find (i, rhs) with c = alpha*a_i + rest, alpha a nonzero constant and
    a_i absent from rest; returns the substitution a_i := rest/alpha."""
    ring = c.ring
    for i in range(ring.t):
        alpha = None
        ok = True
        rest = {}
        for m, coef in c.terms.items():
            if m[i] == 0:
                rest[m] = coef
                continue
            if m[i] == 1 and not any(e for j, e in enumerate(m) if j != i):
                alpha = coef
            else:
                ok = False
                break
        if ok and alpha is not None:
            inv = ring.spec.inv(alpha)
            rhs = ParamPoly(ring, rest).scale(inv)
            return i, rhs
    return None


def _exact_divide(p: ParamPoly, f: ParamPoly):
    """Quotient of p by f in the polynomial ring on reduced reps, or None."""
    if f.is_zero():
        return None
    ring = p.ring
    spec = ring.spec
    flm = max(f.terms)
    flc = f.terms[flm]
    rem = dict(p.terms)
    quot: dict = {}
    guard = len(p.terms) * 8 + 16
    while rem and guard:
        guard -= 1
        m = max(rem)
        if any(a < b for a, b in zip(m, flm)):
            return None
        t = tuple(a - b for a, b in zip(m, flm))
        qc = spec.mul(rem[m], spec.inv(flc))
        quot[t] = qc
        for fm, fc in f.terms.items():
            k = tuple(a + b for a, b in zip(t, fm))
            if any(e > 7 for e in k):
                return None  # would fold; stay in the plain polynomial ring
            v = rem.get(k, 0) ^ spec.mul(qc, fc)
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    if rem:
        return None
    return ParamPoly(ring, quot)
