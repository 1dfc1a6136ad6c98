"""Parametric coefficients a1..at over GF(8) and constraint stores.

A ParamPoly is a polynomial in the parameters with GF(8) coefficients,
kept reduced modulo a_i^8 = a_i (exponents fold into 1..7), so equality
of reduced forms is exactly equality as functions GF(8)^t -> GF(8).

A ConstraintStore records what a branch of a case analysis has assumed:
triangular substitutions a_i := expr (from "assume c = 0" branches whose
expression is linear in some parameter with a constant coefficient),
residual equality constraints for anything unsolvable, and a set of
expressions asserted nonzero.  Branches whose store admits no concrete
satisfying assignment are vacuous and drop out of bound minima.  Every
store question (vanishing, vacuity, witnesses, samples) is answered on
numpy assignment grids by one predicate; vacuity is proved only by an
exhaustive scan, so a store too large to scan stays live.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import gf8
from .poly import NonInvertibleLeadingCoefficient
from .rng import SplitMix64


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
def _mul_pow_table() -> np.ndarray:
    """uint8 table [c, e, x] -> c * x^e over GF(8), with 0^0 = 1."""
    spec = gf8()
    return np.array([[[spec.mul(c, spec.pow(x, e)) for x in range(8)] for e in range(8)]
                     for c in range(8)], dtype=np.uint8)


def assignment_grid(t: int, idx, start: int = 0, stop: int = None) -> np.ndarray:
    """t x 8^k uint8 grid of every assignment to the parameters idx (the
    others stay 0), or its columns start..stop-1.  Column n gives idx[j] the
    j-th base-8 digit of n, least significant first."""
    n = np.arange(start, 8 ** len(idx) if stop is None else stop)
    grid = np.zeros((t, n.size), dtype=np.uint8)
    for j, i in enumerate(idx):
        grid[i] = (n >> (3 * j)) & 7
    return grid


def evaluate_grid(polys, grid: np.ndarray) -> np.ndarray:
    """Each of polys at every column of an assignment grid, as a
    len(polys) x columns uint8 array.  All terms are evaluated together."""
    if not polys:
        return np.zeros((0, grid.shape[1]), dtype=np.uint8)
    starts, exps, coefs = [], [], []
    for p in polys:
        starts.append(len(coefs))
        exps += p.terms or [(0,) * len(grid)]  # the zero polynomial as 0 * 1
        coefs += p.terms.values() or [0]
    table = _mul_pow_table()
    vals = np.array(coefs, dtype=np.uint8)[:, None]
    for i, column in enumerate(zip(*exps)):
        if any(column):
            vals = table[vals, np.array(column)[:, None], grid[i]]
    vals = np.bitwise_xor.reduceat(vals, starts, axis=0)
    # constants alone leave a single column
    return vals if vals.shape[1] == grid.shape[1] else vals.repeat(grid.shape[1], axis=1)


def _affordable(involved, size: int) -> bool:
    """Whether a grid scan over `involved` through `size` terms is cheap."""
    return len(involved) <= 6 and 8 ** len(involved) * size <= 2_000_000


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

    __slots__ = ("ring", "subs", "nonzeros", "equalities", "_scan", "_cache")

    def __init__(self, ring: ParamRing, subs=None, nonzeros=None, equalities=None):
        self.ring = ring
        self.subs = dict(subs or {})
        self.nonzeros = dict(nonzeros or {})
        self.equalities = list(equalities or [])
        self._scan = None  # (witness-or-None, proved_unsat) once scanned
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
        # No scanned assignment meets the constraints with p != 0.
        nonzeros = list(self.nonzeros.values())
        if self.equalities:
            checked = [p, *self.equalities, *nonzeros]
            involved = set().union(*(q.variables() for q in checked))
            size = sum(len(q.terms) for q in checked)
        else:
            # Without residual equalities the reduced form is the function.
            # Only nonzeros inside the scanned parameters may mask the scan:
            # one outside would read as 0 on the whole grid.  Dropping a
            # nonzero only enlarges the set p must vanish on, so it is sound.
            involved, size = p.variables(), len(p.terms)
            nonzeros = [c for c in nonzeros if c.variables() <= involved]
        if not _affordable(involved, size):
            return False
        return self._first_satisfying(sorted(involved), [*nonzeros, p]) is None

    def witness(self):
        """The first satisfying assignment in scan order (tuple of enc), or
        None: the store is unsatisfiable, or too large to scan."""
        if self._scan is None:
            self._scan = self._find_witness()
        return self._scan[0]

    @property
    def vacuous(self) -> bool:
        """True only when the exhaustive scan proves unsatisfiability.

        A store above the scan limit stays live: dropping a satisfiable
        branch from a bound minimum would be unsound, keeping an
        unsatisfiable one merely weakens the bound.
        """
        self.witness()
        return self._scan[1]

    def _find_witness(self):
        """(witness-or-None, proved_unsat)."""
        # Only free parameters mentioned by some constraint need scanning;
        # the others stay 0 and the substituted ones follow from the rest.
        constraints = [*self.nonzeros.values(), *self.equalities]
        idx = sorted(set().union(*(c.variables() for c in constraints)))
        if not _affordable(idx, 1 + sum(len(c.terms) for c in constraints)):
            return None, False
        column = self._first_satisfying(idx, self.nonzeros.values())
        if column is None:
            return None, True
        self._fill_subs(column)
        return tuple(column[:, 0].tolist()), False

    def _first_satisfying(self, idx, nonzeros):
        """The first column of assignment_grid(t, idx) that meets the
        equalities and the given nonzeros, as a t x 1 grid, or None.  Scans
        in blocks: a small first one, since a hit usually comes early."""
        total = 8 ** len(idx)
        start, block = 0, 64
        while start < total:
            stop = min(total, start + block)
            grid = assignment_grid(self.ring.t, idx, start, stop)
            hits = np.flatnonzero(self._satisfied(grid, nonzeros))
            if hits.size:
                return grid[:, hits[0]:hits[0] + 1]
            start, block = stop, 4096
        return None

    def _satisfied(self, grid: np.ndarray, nonzeros) -> np.ndarray:
        """Mask of the grid columns where every equality vanishes and every
        polynomial in nonzeros does not."""
        vals = evaluate_grid([*self.equalities, *nonzeros], grid)
        n = len(self.equalities)
        live = vals[n:].all(axis=0)
        return live & ~vals[:n].any(axis=0) if n else live

    def _fill_subs(self, grid: np.ndarray) -> None:
        # Right-hand sides mention no substituted parameter (_renormalize
        # keeps them so), so one evaluation fills every substituted row.
        if self.subs:
            grid[list(self.subs)] = evaluate_grid(list(self.subs.values()), grid)

    def sample_witnesses(self, count: int, seed: int):
        """The first `count` satisfying assignments (repetition possible)
        among at most max(64 * count, 4096) seeded draws of the free
        parameters: SplitMix64(seed).fill_below(8, ...), one row per draw."""
        if count < 1:
            raise ValueError(f"sample count {count} must be at least 1")
        t = self.ring.t
        free = [i for i in range(t) if i not in self.subs]
        rng = SplitMix64(seed)
        out = []
        attempts, take = 0, 2 * count
        limit = max(64 * count, 4096)
        while len(out) < count and attempts < limit:
            take = min(take, limit - attempts)
            grid = np.zeros((t, take), dtype=np.uint8)
            grid[free] = rng.fill_below(8, (take, len(free))).T
            live = self._satisfied(grid, self.nonzeros.values())
            found = grid[:, np.flatnonzero(live)[:count - len(out)]]
            self._fill_subs(found)
            out += map(tuple, found.T.tolist())
            attempts += take
            take *= 8
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
