"""Symbolic case-split engine for per-leading-monomial weight bounds.

For a fixed leading monomial M the reduced codeword polynomial has the
shape F = M + a1*m1 + ... + at*mt, where m1 > m2 > ... are the footprint
monomials below M and the a_i range over GF(8).  Every footprint monomial
divisible by M is automatically a leading monomial of <F> + I8; a case
analysis can establish more by deriving polynomials G in <F> + I8 whose
leading coefficient is certified nonzero on a branch, which puts lm(G) and
all its footprint multiples in the established set of that branch.

A trace encodes one such derivation as a tree of steps:

    mul <monomial>           multiply the working polynomial
    red <F|K|FX|FXY> <head|full>   reduce by the root F or a basis element
                             (K = Y^3+X^3*Y+X, FX = X^8+X, FXY = X^7*Y+Y)
    branch <expr> { ... } else { ... }
                             split on expr != 0 (first block) / expr = 0
    claim <monomial>         record the working head as established
    restart                  reset the working polynomial to F

``restart`` extends the four-step vocabulary: the X^3*Y derivation keeps
returning to fresh multiples of F, which is inexpressible otherwise.  It
preserves the only invariant that matters, membership of the working
polynomial in <F> + I8.

The verifier replays every step with exact parametric arithmetic: each
reduction identity s = q*d + r is re-checked by multiplication, reductions
must change the polynomial without increasing its head, and claims require
all higher coefficients provably zero and the head coefficient certified
nonzero.  The bound of a trace is the minimum established count over its
non-vacuous leaves; vacuous branches (unsatisfiable constraint stores) are
excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groebner import Footprint, buchberger, footprint
from .klein import ideal_generators, klein_domain, klein_footprint, klein_order
from .params import (
    ConstraintStore,
    ParamDomain,
    ParamPoly,
    ParamRing,
    evaluate_grid,
    format_param,
)
from .poly import (
    FULL,
    HEAD,
    ParseError,
    Polynomial,
    divide,
    format_monomial,
    format_poly,
    mono_divides,
    parse_poly,
)

DIVISOR_IDS = ("F", "K", "FX", "FXY")


class TraceError(Exception):
    pass


class InvalidStep(TraceError):
    pass


class UnjustifiedClaim(TraceError):
    pass


class VacuousEverywhere(TraceError):
    pass


class UnsatisfiableLeaf(TraceError):
    pass


class NotInFootprint(ValueError):
    pass


class UncertifiedLeadingCoefficient(TraceError):
    pass


# ---------------------------------------------------------------------------
# upsets

def upset_in_footprint(M: tuple, fp: Footprint) -> set:
    """Footprint monomials divisible by M."""
    M = tuple(M)
    if M not in fp:
        raise NotInFootprint(f"{format_monomial(M)} outside the footprint")
    return {N for N in fp if mono_divides(M, N)}


def divisibility_bound(M: tuple, fp: Footprint) -> int:
    """Count of footprint multiples of M; what divisibility alone detects."""
    return len(upset_in_footprint(M, fp))


# ---------------------------------------------------------------------------
# trace steps

@dataclass(frozen=True)
class Mul:
    mono: tuple


@dataclass(frozen=True)
class Red:
    divisor: str
    mode: str


@dataclass(frozen=True)
class Claim:
    mono: tuple


@dataclass(frozen=True)
class Restart:
    pass


@dataclass(frozen=True)
class Branch:
    expr: str
    nonzero: tuple
    zero: tuple


def parse_trace(text: str):
    """Parse the line-oriented trace grammar into a step tree."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    steps, rest = _parse_block(lines, 0, top=True)
    if rest != len(lines):
        raise ParseError(f"unparsed trailing line: {lines[rest]!r}")
    return steps


def _parse_block(lines, i, top=False):
    from .poly import parse_monomial

    steps = []
    while i < len(lines):
        line = lines[i]
        if line.startswith("}"):
            if top:
                raise ParseError("unmatched '}'")
            return tuple(steps), i
        parts = line.split()
        if parts[0] == "mul":
            steps.append(Mul(parse_monomial(parts[1])))
            i += 1
        elif parts[0] == "red":
            if len(parts) != 3 or parts[1] not in DIVISOR_IDS or parts[2] not in (HEAD, FULL):
                raise ParseError(f"bad red step: {line!r}")
            steps.append(Red(parts[1], parts[2]))
            i += 1
        elif parts[0] == "claim":
            steps.append(Claim(parse_monomial(parts[1])))
            i += 1
        elif parts[0] == "restart":
            steps.append(Restart())
            i += 1
        elif parts[0] == "branch":
            if not line.endswith("{"):
                raise ParseError(f"branch line must end with '{{': {line!r}")
            expr = line[len("branch"):].rstrip("{").strip()
            if not expr:
                raise ParseError("branch without an expression")
            nonzero, i = _parse_block(lines, i + 1)
            if lines[i].replace(" ", "") != "}else{":
                raise ParseError(f"expected '}} else {{' after branch block, got {lines[i]!r}")
            zero, i = _parse_block(lines, i + 1)
            if lines[i].strip() != "}":
                raise ParseError(f"expected closing '}}', got {lines[i]!r}")
            i += 1
            step = Branch(expr, nonzero, zero)
            steps.append(step)
            if i < len(lines) and not lines[i].startswith("}"):
                raise ParseError("branch must be the last step of its block")
        else:
            raise ParseError(f"unknown step: {line!r}")
    if not top:
        raise ParseError("unterminated block")
    return tuple(steps), i


# ---------------------------------------------------------------------------
# reports

@dataclass
class Leaf:
    label: str
    constraints: ConstraintStore
    established: tuple
    count: int
    vacuous: bool


@dataclass
class BoundReport:
    M: tuple
    t: int
    baseline: int
    leaves: list
    bound: int
    steps: tuple  # the step tree whose replay this report is

    def leaf_rows(self):
        for leaf in self.leaves:
            yield {
                "constraints": leaf.constraints.summary(),
                "established": [format_monomial(m) for m in leaf.established],
                "count": leaf.count,
                "vacuous": leaf.vacuous,
            }


# ---------------------------------------------------------------------------
# the symbolic context

class KleinParametric:
    """Root polynomial and lifted divisors for one leading-monomial class."""

    def __init__(self, M: tuple, fp: Footprint = None):
        self.order = klein_order()
        self.fp = fp or klein_footprint()
        self.M = M = tuple(M)
        self.upset = frozenset(upset_in_footprint(M, self.fp))
        self._counts: dict = {}
        self.support = [m for m in self.fp.descending()
                        if self.order.compare(m, M) < 0]
        self.t = len(self.support)
        self.ring = ParamRing(self.t)
        self.domain = ParamDomain(self.ring)
        terms = {M: self.ring.one()}
        for i, m in enumerate(self.support):
            terms[m] = self.ring.var(i)
        self.root = Polynomial(self.domain, 2, terms, _normalized=True)
        self.divisors = {
            "K": self._lift("Y^3+X^3*Y+X"),
            "FX": self._lift("X^8+X"),
            "FXY": self._lift("X^7*Y+Y"),
        }

    def _lift(self, text: str) -> Polynomial:
        concrete = parse_poly(text, klein_domain())
        return Polynomial(self.domain, 2,
                          {m: self.ring.const(c) for m, c in concrete.terms.items()},
                          _normalized=True)

    def fresh_store(self) -> ConstraintStore:
        return ConstraintStore(self.ring)

    def parse_expr(self, text: str) -> ParamPoly:
        p = parse_poly(text, self.domain, arity=2, ring=self.ring)
        for m in p.terms:
            if any(m):
                raise ParseError(f"branch expression {text!r} mentions X or Y")
        return p.coef((0, 0))

    def divisor(self, name: str, cs: ConstraintStore) -> Polynomial:
        if name == "F":
            return self.root.map_coeffs(cs.reduce)
        return self.divisors[name]

    def covered_count(self, established) -> int:
        """Footprint monomials divisible by M or by an established monomial."""
        established = frozenset(established)
        if established not in self._counts:
            covered = set(self.upset)
            for e in established:
                covered.update(N for N in self.fp if mono_divides(e, N))
            self._counts[established] = len(covered)
        return self._counts[established]


def param_reduce_step(s: Polynomial, divisor: Polynomial, mode: str,
                      cs: ConstraintStore, order=None):
    """One trace reduction: returns (q, r) with s = q*divisor + r re-verified.

    The divisor's leading coefficient must reduce to a nonzero constant
    under the store (all four trace divisors are monic).
    """
    order = order or klein_order()
    lm, lc = divisor.leading_term(order)
    lc_const = cs.reduce(lc).as_const()
    if lc_const is None or lc_const == 0:
        raise UncertifiedLeadingCoefficient(
            f"divisor head {format_monomial(lm)} has coefficient {format_param(lc)}")
    quots, r = divide(s, [divisor], order, mode)
    if quots[0].mul(divisor).add(r) != s:
        raise InvalidStep("division identity failed")
    return quots[0], r


# ---------------------------------------------------------------------------
# trace verification

def verify_trace(M: tuple, steps, t: int = None, fp: Footprint = None) -> BoundReport:
    """Replay a trace for class M and return its verified bound report."""
    ctx = KleinParametric(M, fp)
    if t is not None and t != ctx.t:
        raise ValueError(f"class {format_monomial(ctx.M)} has {ctx.t} parameters, not {t}")
    steps = tuple(steps)
    leaves: list[Leaf] = []

    def run(steps, W, cs, established, label):
        for idx, step in enumerate(steps):
            if isinstance(step, Mul):
                W = W.mul_mono(step.mono)
            elif isinstance(step, Restart):
                W = ctx.divisor("F", cs)
            elif isinstance(step, Red):
                if step.divisor not in DIVISOR_IDS or step.mode not in (HEAD, FULL):
                    raise InvalidStep(f"{label}: bad red step {step!r}")
                if W.is_zero():
                    raise InvalidStep(f"{label}: reduce on the zero polynomial")
                before = W.leading_term(ctx.order)[0]
                _, r = param_reduce_step(W, ctx.divisor(step.divisor, cs),
                                         step.mode, cs, ctx.order)
                if r == W:
                    raise InvalidStep(
                        f"{label}: red {step.divisor} {step.mode} changed nothing")
                if not r.is_zero():
                    after = r.leading_term(ctx.order)[0]
                    if ctx.order.compare(after, before) > 0:
                        raise InvalidStep(f"{label}: head increased")
                W = r
            elif isinstance(step, Claim):
                _check_claim(ctx, W, step.mono, cs, label)
                if step.mono not in established:
                    established = established + (step.mono,)
            elif isinstance(step, Branch):
                if idx != len(steps) - 1:
                    raise InvalidStep(f"{label}: branch must be the last step of its block")
                expr = cs.reduce(ctx.parse_expr(step.expr))
                zero_cs, nonzero_cs = cs.branch(expr)
                for tag, child_cs, child_steps in (
                        ("!=0", nonzero_cs, step.nonzero),
                        ("=0", zero_cs, step.zero)):
                    child_label = f"{label}/{step.expr}{tag}"
                    if child_cs.vacuous:
                        leaves.append(Leaf(child_label, child_cs, established,
                                           ctx.covered_count(established), vacuous=True))
                        continue
                    child_W = W.map_coeffs(child_cs.reduce)
                    run(child_steps, child_W, child_cs, established, child_label)
                return
            else:
                raise InvalidStep(f"{label}: unknown step {step!r}")
        leaves.append(Leaf(label, cs, established, ctx.covered_count(established),
                           vacuous=False))

    run(steps, ctx.root, ctx.fresh_store(), (), format_monomial(ctx.M))
    live = [leaf.count for leaf in leaves if not leaf.vacuous]
    if not live:
        raise VacuousEverywhere(f"every branch of {format_monomial(ctx.M)} is vacuous")
    return BoundReport(ctx.M, ctx.t, len(ctx.upset), leaves, min(live), steps)


def _check_claim(ctx, W, mono, cs, label):
    if W.is_zero():
        raise UnjustifiedClaim(f"{label}: claim on the zero polynomial")
    above = [m for m in W.terms if ctx.order.compare(m, mono) > 0]
    for m in above:
        if not cs.proves_zero(W.terms[m]):
            raise UnjustifiedClaim(
                f"{label}: {format_monomial(m)} above claimed "
                f"{format_monomial(mono)} has coefficient "
                f"{format_param(W.terms[m])} not provably zero")
    coef = W.coef(mono)
    if coef.is_zero() or not cs.certified_nonzero(coef):
        raise UnjustifiedClaim(
            f"{label}: claimed head {format_monomial(mono)} has coefficient "
            f"{format_param(coef)} not certified nonzero")
    if mono not in ctx.fp:
        raise UnjustifiedClaim(
            f"{label}: claimed head {format_monomial(mono)} outside the footprint")


# ---------------------------------------------------------------------------
# instantiation soundness

def instantiate_and_check(M: tuple, leaf: Leaf, nsamples: int, seed: int,
                          fp: Footprint = None):
    """Sample concrete parameter values satisfying the leaf and verify every
    established monomial is absent from the footprint of <F> + I8."""
    ctx = KleinParametric(M, fp)
    if leaf.vacuous or leaf.constraints.vacuous:
        raise UnsatisfiableLeaf(leaf.label)
    assignments = leaf.constraints.sample_witnesses(nsamples, seed)
    if not assignments:
        raise UnsatisfiableLeaf(leaf.label)
    dom = klein_domain()
    gens = list(ideal_generators())
    order = klein_order()
    F_leaf = ctx.root.map_coeffs(leaf.constraints.reduce)
    grid = np.array(assignments, dtype=np.uint8).T
    values = evaluate_grid(list(F_leaf.terms.values()), grid).T.tolist()
    for assignment, column in zip(assignments, values):
        terms = {m: v for m, v in zip(F_leaf.terms, column) if v}
        F = Polynomial(dom, 2, terms, _normalized=True)
        gb = buchberger([F, *gens], order)
        fp2 = footprint(gb)
        for e in leaf.established:
            if e in fp2:
                raise UnjustifiedClaim(
                    f"{leaf.label}: {format_monomial(e)} still in the footprint "
                    f"for a = {assignment}")
    return {"leaf": leaf.label, "samples": len(assignments),
            "established": len(leaf.established)}


# ---------------------------------------------------------------------------
# the full bound map

TRACED_CLASSES = {
    (0, 1): "s31",   # Y
    (0, 2): "s32",   # Y^2
    (1, 1): "s33",   # X*Y
    (2, 1): "s34",   # X^2*Y
    (1, 2): "s35",   # X*Y^2
    (3, 1): "s36",   # X^3*Y
    (2, 2): "s37",   # X^2*Y^2
    (3, 2): "s38",   # X^3*Y^2
    (7, 0): "s39",   # X^7
}


def load_trace_text(name: str, traces_dir=None) -> str:
    if traces_dir is not None:
        from pathlib import Path

        return (Path(traces_dir) / f"{name}.trace").read_text()
    from importlib import resources

    return resources.files("kleincode").joinpath(f"traces/{name}.trace").read_text()


def full_bound_map(traces_dir=None, fp: Footprint = None) -> dict:
    """delta(M) for all 22 classes: the trace bound where one is shipped,
    the divisibility count elsewhere."""
    fp = fp or klein_footprint()
    return bound_map_from_reports(verify_all_traces(traces_dir, fp), fp)


def bound_map_from_reports(reports: dict, fp: Footprint = None) -> dict:
    """full_bound_map for trace reports that are already verified."""
    fp = fp or klein_footprint()
    out = {}
    for M in fp:
        base = divisibility_bound(M, fp)
        if M in reports:
            out[M] = max(base, reports[M].bound)
        else:
            out[M] = base
    return out


def verify_all_traces(traces_dir=None, fp: Footprint = None) -> dict:
    fp = fp or klein_footprint()
    reports = {}
    for M, name in TRACED_CLASSES.items():
        steps = parse_trace(load_trace_text(name, traces_dir))
        reports[M] = verify_trace(M, steps, fp=fp)
    return reports
