"""Parametric coefficients a1..at over GF(8) and constraint stores.

A ParamPoly is a polynomial in the parameters with GF(8) coefficients,
kept reduced modulo a_i^8 = a_i (exponents fold into 1..7), so equality
of reduced forms is exactly equality as functions GF(8)^t -> GF(8).

A monomial a1^e1*...*at^et is one int, the packed key
sum(e_i << 4*(t-1-i)): four bits per parameter, a1 in the most significant
nibble.  Reduced exponents stay below 8, so bit 3 of every nibble is clear
and comparing two keys compares their exponent vectors lexicographically
from a1 on: integer order is the order of exponent tuples, and sorted
terms, leading monomials and printed forms follow it.  A product of two
reduced monomials is their sum, with each nibble at most 14, so no carry
crosses nibbles; the nibbles that reach 8..14 have bit 3 set and fold to
e - 7 (a^8 = a) by one subtraction over the whole key (ParamPoly.mul).

A ConstraintStore records what a branch of a case analysis has assumed:
triangular substitutions a_i := expr (from "assume c = 0" branches whose
expression is linear in some parameter with a constant coefficient),
residual equality constraints for anything unsolvable, and a set of
expressions asserted nonzero.  Branches whose store admits no concrete
satisfying assignment are vacuous and drop out of bound minima.  Vanishing,
vacuity and witnesses are one memoised query, a blocked scan of numpy
assignment grids (see ConstraintStore); a store that holds 1 = 0 needs no
scan, and one too large to scan stays live.  Samples use the same
predicate.  evaluate_grid unpacks the exponents of the parameters in use
and hands the terms to FieldSpec.evaluate, the package's one GF(8)
evaluator.
"""

from __future__ import annotations

import numpy as np

from .gf import gf8
from .poly import NonInvertibleLeadingCoefficient
from .rng import SplitMix64


def _fold(e: int) -> int:
    # a^8 = a, so nonzero exponents live in 1..7.
    return e if e <= 7 else ((e - 1) % 7) + 1


def _accumulate(out: dict, terms: dict) -> None:
    """Add terms into out, in place."""
    for m, c in terms.items():
        v = out.get(m, 0) ^ c
        if v:
            out[m] = v
        else:
            out.pop(m, None)


class ParamPoly:
    """{packed monomial key: nonzero GF(8) coefficient}.

    The key of a1^e1*...*at^et is sum(e_i << 4*(t-1-i)), a1 in the top
    nibble.  Every e_i is at most 7, so integer order on keys is the
    lexicographic order of the exponent tuples (e1, ..., et): max() gives
    the same leading monomial and sorted() the same printed order as
    tuples would.  mul adds keys and folds each nibble that reaches 8..14
    back to 1..7 (a^8 = a).
    """

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
            if not m:
                return c
        return None

    def add(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return ParamPoly(self.ring, out)

    def mul(self, other: "ParamPoly") -> "ParamPoly":
        # m1 + m2 adds the exponents nibble by nibble, each sum at most 14,
        # so nothing carries into the next nibble.  h holds bit 3 of the
        # nibbles that reached 8..14, and s + (h >> 3) - h takes 7 from each
        # of them: a^e = a^(e - 7).
        high, rows = self.ring.high, self.ring.spec.rows
        out: dict = {}
        for m1, c1 in self.terms.items():
            row = rows[c1]
            for m2, c2 in other.terms.items():
                s = m1 + m2
                h = s & high
                m = s + (h >> 3) - h
                v = out.get(m, 0) ^ row[c2]
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return ParamPoly(self.ring, out)

    def scale(self, c: int) -> "ParamPoly":
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        row = self.ring.spec.rows[c]
        return ParamPoly(self.ring, {m: row[v] for m, v in self.terms.items()})

    def _substitute(self, subs: dict, mask: int) -> "ParamPoly":
        """Replace parameters by ParamPoly values; one pass."""
        # mask covers the nibbles of the substituted parameters, so a term
        # that mentions none of them is skipped with one &.
        for m in self.terms:
            if m & mask:
                break
        else:
            return self
        ring = self.ring
        shifts = ring.shifts
        powers = {}
        out: dict = {}
        for m, c in self.terms.items():
            term = ParamPoly(ring, {m & ~mask: c})
            for i, base in subs.items():
                e = (m >> shifts[i]) & 15
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = _param_pow(base, e)
                    term = term.mul(powers[i, e])
            _accumulate(out, term.terms)
        return ParamPoly(ring, out)

    def evaluate(self, assignment) -> int:
        spec, shifts = self.ring.spec, self.ring.shifts
        acc = 0
        for m, c in self.terms.items():
            for x, sh in zip(assignment, shifts):
                e = (m >> sh) & 15
                if e:
                    c = spec.mul(c, spec.pow(x, e))
            acc ^= c
        return acc

    def variables(self) -> set:
        used = 0
        for m in self.terms:
            used |= m
        return {i for i, sh in enumerate(self.ring.shifts) if (used >> sh) & 15}

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


class ParamRing:
    """t parameters a1..at over GF(8): the parametric coefficient domain of
    poly.Polynomial, with ParamPoly coefficients.

    The field is fixed: exponent folding (a^8 = a), exact division and the
    grid scans all assume q = 8.  `shifts[i]` places a_{i+1}'s nibble in a
    packed key and `high` has bit 3 of every nibble set.
    """

    __slots__ = ("t", "spec", "shifts", "high", "zero", "one")
    parametric = True

    def __init__(self, t: int):
        self.t = t
        self.spec = gf8()
        self.shifts = tuple(4 * (t - 1 - i) for i in range(t))
        self.high = sum(8 << sh for sh in self.shifts)
        self.zero = ParamPoly(self, {})
        self.one = ParamPoly(self, {0: 1})

    def const(self, c: int) -> "ParamPoly":
        if c == 0:
            return self.zero
        return ParamPoly(self, {0: c})

    def var(self, i: int) -> "ParamPoly":
        return self.var_pow(i, 1)

    def var_pow(self, i: int, e: int) -> "ParamPoly":
        if not 0 <= i < self.t:
            raise IndexError(f"parameter a{i+1} outside ring with t={self.t}")
        if e == 0:
            return self.one
        return ParamPoly(self, {_fold(e) << self.shifts[i]: 1})

    def nibbles(self, idx) -> int:
        """The nibbles of the parameters idx in a packed key, all bits set."""
        return sum(15 << self.shifts[i] for i in idx)

    # -- the coefficient-domain protocol of poly.Polynomial -----------------

    is_zero = staticmethod(ParamPoly.is_zero)
    add = staticmethod(ParamPoly.add)
    mul = staticmethod(ParamPoly.mul)

    @staticmethod
    def scaler(c):
        """The map b -> c * b."""
        return c.mul

    def inv(self, a):
        c = a.as_const()
        if c is None:
            raise NonInvertibleLeadingCoefficient(
                f"parametric leading coefficient {format_param(a)}")
        if c == 0:
            raise NonInvertibleLeadingCoefficient("zero leading coefficient")
        return self.const(self.spec.inv(c))

    def from_enc(self, n: int):
        return self.const(self.spec.from_enc(n))

    @staticmethod
    def format_coef(c):
        const = c.as_const()
        if const == 1:
            return None
        if const is not None:
            return str(const)
        if len(c.terms) == 1:
            return format_param(c)
        return f"({format_param(c)})"

    def compatible(self, other) -> bool:
        return isinstance(other, ParamRing) and other.t == self.t


def _param_pow(p: ParamPoly, e: int) -> ParamPoly:
    acc = p.ring.one
    for _ in range(_fold(e)):
        acc = acc.mul(p)
    return acc


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
    len(polys) x columns uint8 array.  All terms are evaluated together;
    only the parameters some term uses are unpacked from the keys."""
    if not polys:
        return np.zeros((0, grid.shape[1]), dtype=np.uint8)
    starts, monos, coefs = [], [], []
    for p in polys:
        starts.append(len(coefs))
        monos += p.terms or [0]  # the zero polynomial as 0 * 1
        coefs += p.terms.values() or [0]
    used = 0
    for m in monos:
        used |= m
    shifts = polys[0].ring.shifts
    idx = [i for i, sh in enumerate(shifts) if (used >> sh) & 15]
    exps = [np.array([(m >> shifts[i]) & 15 for m in monos], dtype=np.uint8) for i in idx]
    return gf8().evaluate(coefs, exps, grid[idx], starts)


def _affordable(involved, size: int) -> bool:
    """Whether a grid scan over `involved` through `size` terms is cheap."""
    return len(involved) <= 6 and 8 ** len(involved) * size <= 2_000_000


_TOO_LARGE = object()  # ConstraintStore._first when _affordable refuses


def format_param(p: ParamPoly) -> str:
    """Canonical text form: terms sorted descending, a1^2*a2 style."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = []
        if c != 1 or not m:
            factors.append(str(c))
        for i, sh in enumerate(p.ring.shifts):
            e = (m >> sh) & 15
            if e:
                factors.append(f"a{i+1}" if e == 1 else f"a{i+1}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)


class ConstraintStore:
    """Substitutions, equalities and nonzero assertions for one branch.

    proves_zero(p), vacuous and witness() read one memoised query, _first:
    the first scanned assignment that meets the store (and p != 0).  It
    scans, and charges to _affordable:
    * for p, no residual equalities: p's parameters, masked only by the
      nonzeros inside them (one outside would read 0 on the whole grid;
      dropping it is sound); p's terms;
    * for p, residual equalities: the parameters of p and of every
      constraint; all their terms;
    * for the store alone: the constrained parameters; 1 + their terms, or
      no scan without constraints (the zero assignment).
    A store that holds 1 = 0 (a nonzero constant equality, as _child and
    _renormalize record a contradiction) is empty: vacuous, with no scan.
    """

    __slots__ = ("ring", "subs", "nonzeros", "equalities", "_mask", "_cache")

    def __init__(self, ring: ParamRing, subs=None, nonzeros=None, equalities=None):
        self.ring = ring
        self.subs = dict(subs or {})
        self._mask = ring.nibbles(self.subs)  # kept in step with subs
        self.nonzeros = dict(nonzeros or {})
        self.equalities = list(equalities or [])
        self._cache = {}

    # -- reduction -----------------------------------------------------

    def reduce(self, p: ParamPoly) -> ParamPoly:
        """Apply the substitutions.  No right-hand side mentions a substituted
        parameter (_renormalize keeps them so), so one pass is the fixpoint."""
        return p._substitute(self.subs, self._mask)

    # -- branching -------------------------------------------------------

    def branch(self, c: ParamPoly):
        """(zero-child, nonzero-child): this store with c = 0, and with c != 0."""
        c = self.reduce(c)
        return self._child(c, True), self._child(c, False)

    def _child(self, c: ParamPoly, zero: bool) -> "ConstraintStore":
        """This store with the reduced c = 0 (zero) or c != 0 assumed."""
        child = ConstraintStore(self.ring, self.subs, self.nonzeros, self.equalities)
        const = c.as_const()
        if const is not None:
            if (const == 0) != zero:
                child.equalities.append(self.ring.one)  # 1 = 0
        elif not zero:
            child.nonzeros[c.key()] = c
        elif (solved := _solve_linear(c)) is None:
            child.equalities.append(c)
        else:
            i, rhs = solved
            child.subs[i] = rhs
            child._renormalize()
        return child

    def _renormalize(self):
        # Re-reduce every stored expression against the updated subs.  The
        # newest right-hand side is reduced, so it mentions no substituted
        # parameter, and the older ones mention none but the newest: one
        # pass leaves every right-hand side free of substituted parameters.
        self._mask = self.ring.nibbles(self.subs)
        self.subs = {i: rhs._substitute(self.subs, self._mask) for i, rhs in self.subs.items()}
        new_nonzeros = {}
        for c in self.nonzeros.values():
            c2 = self.reduce(c)
            const = c2.as_const()
            if const == 0:
                self.equalities.append(self.ring.one)
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
        return p.is_zero() or self._first(p) is None

    def witness(self):
        """The first satisfying assignment in scan order (tuple of enc), or
        None: the store is unsatisfiable, or too large to scan."""
        hit = self._first(None)
        return None if hit is _TOO_LARGE else hit

    @property
    def vacuous(self) -> bool:
        """True only when the store holds 1 = 0 or a scan proves that
        nothing meets it.  A store above the scan limit stays live:
        dropping a satisfiable branch from a bound minimum would be
        unsound, keeping an unsatisfiable one merely weakens the bound."""
        # through witness(), whose calls and None answers kbench traces
        return self.witness() is None and self._first(None) is None

    def _first(self, p):
        """The first scanned assignment that meets the store, and p != 0
        unless p is None, as a tuple of enc; None when there is none;
        _TOO_LARGE when _affordable refuses the scan.  For p None it is the
        witness, its substituted parameters filled in."""
        ck = ("z", None if p is None else p.key())
        if ck in self._cache:
            return self._cache[ck]
        nonzeros = list(self.nonzeros.values())
        constraints = [*nonzeros, *self.equalities]
        if any(e.as_const() for e in self.equalities):
            hit = None
        elif p is None and not constraints:
            # the zero assignment; each substituted parameter is its rhs at 0
            hit = tuple(self.subs[i].terms.get(0, 0) if i in self.subs else 0
                        for i in range(self.ring.t))
        else:
            if p is None:
                involved = set().union(*(c.variables() for c in constraints))
                size = 1 + sum(len(c.terms) for c in constraints)
            elif self.equalities:
                involved = set().union(*(q.variables() for q in [p, *constraints]))
                size = sum(len(q.terms) for q in [p, *constraints])
            else:
                involved, size = p.variables(), len(p.terms)
                nonzeros = [c for c in nonzeros if c.variables() <= involved]
            if p is not None:
                nonzeros.append(p)
            hit = (self._first_satisfying(sorted(involved), nonzeros)
                   if _affordable(involved, size) else _TOO_LARGE)
        if isinstance(hit, np.ndarray):
            if p is None:
                self._fill_subs(hit)
            hit = tuple(hit[:, 0].tolist())
        self._cache[ck] = hit
        return hit

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
        among at most max(64 * count, 4096) seeded attempts.  Attempt j
        sets the free parameters, in index order, to the next len(free)
        draws of SplitMix64(seed).fill_below(8, ...): bytes of successive
        outputs, least significant first, masked to 7.  The attempts come
        in blocks that grow 8x at a time, and fill_below carries a partly
        used output over from block to block, so the draws do not depend
        on the block sizes."""
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
    for i, sh in enumerate(ring.shifts):
        nibble, linear = 15 << sh, 1 << sh
        if linear in c.terms and all(m == linear or not m & nibble for m in c.terms):
            rest = {m: v for m, v in c.terms.items() if m != linear}
            return i, ParamPoly(ring, rest).scale(ring.spec.inv(c.terms[linear]))
    return None


def _exact_divide(p: ParamPoly, f: ParamPoly):
    """Quotient of p by f in the polynomial ring on reduced reps, or None."""
    if f.is_zero():
        return None
    ring = p.ring
    high, rows = ring.high, ring.spec.rows
    flm = max(f.terms)
    inv = ring.spec.inv(f.terms[flm])
    rem = dict(p.terms)
    quot: dict = {}
    guard = len(p.terms) * 8 + 16
    while rem and guard:
        guard -= 1
        m = max(rem)
        # Every exponent of m is at most 7, so each nibble of m | high holds
        # 8 + e and taking flm's nibbles (at most 7) off borrows across no
        # nibble.  Bit 3 of a nibble survives exactly where m's exponent is
        # at least flm's.
        if ((m | high) - flm) & high != high:
            return None
        t = m - flm
        qc = rows[rem[m]][inv]
        quot[t] = qc
        row = rows[qc]
        for fm, fc in f.terms.items():
            k = t + fm
            if k & high:
                return None  # would fold; stay in the plain polynomial ring
            v = rem.get(k, 0) ^ row[fc]
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    if rem:
        return None
    return ParamPoly(ring, quot)
