"""Symbolic case-split engine for per-leading-monomial weight bounds.

For a fixed leading monomial M the reduced codeword polynomial has the
shape F = M + a1*m1 + ... + at*mt, where m1 > m2 > ... are the footprint
monomials below M and the a_i range over GF(8).  Every footprint monomial
divisible by M is automatically a leading monomial of <F> + I8; a case
analysis can establish more by deriving polynomials G in <F> + I8 whose
leading coefficient is certified nonzero on a branch, which puts lm(G) and
all its footprint multiples in the established set of that branch.

A trace encodes one such derivation as a tree of steps:

    mul <monomial>           multiply the working polynomial (exponents <= 7)
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

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .gf import gf8
from .groebner import buchberger, footprint
from .klein import (
    class_support,
    klein_basis,
    klein_footprint,
    parse_monomial,
)
from .params import ConstraintStore, ParamPoly, ParamRing, evaluate_grid, format_param
from .poly import (
    FULL,
    HEAD,
    MonomialOrder,
    ParseError,
    Polynomial,
    _short,
    divide,
    format_monomial,
    mono_divides,
    parse_poly,
)

DIVISOR_IDS = ("F", "K", "FX", "FXY")

# The replay refuses a step that lifts an X or Y exponent of the working
# polynomial above this, so a long trace cannot make each step costlier than
# the last.  The nine shipped traces reach X^12 and Y^4, and the auto-search's
# replays at the default budget X^7 and Y^4; a footprint polynomial (X^7 at
# most) times one mul (X^7 at most) reaches X^14.
REPLAY_EXPONENT_CAP = 15
# parse_trace refuses a trace of more lines than this, blank and comment
# lines not counted: 2000 lines alternating mul X^7 and red FX full stay under
# the exponent cap and replay for about 0.6 s.  The shipped traces have <= 84.
TRACE_LINE_CAP = 1000
# _trace_text reads at most twice this many characters, so a device or a
# pipe that never ends is refused too.  The nine shipped traces total 9335 B.
TRACE_CHAR_CAP = 1 << 20


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


class ReplayTooLarge(ValueError):
    """A trace step lifts the working polynomial past REPLAY_EXPONENT_CAP."""


class NotInFootprint(ValueError):
    pass


class UncertifiedLeadingCoefficient(TraceError):
    pass


# ---------------------------------------------------------------------------
# upsets

def upset_in_footprint(M: tuple) -> set:
    """Klein footprint monomials divisible by M."""
    M = tuple(M)
    fp = klein_footprint()
    if M not in fp:
        raise NotInFootprint(f"{format_monomial(M)} outside the footprint")
    return {N for N in fp if mono_divides(M, N)}


def divisibility_bound(M: tuple) -> int:
    """Count of footprint multiples of M; what divisibility alone detects."""
    return len(upset_in_footprint(M))


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
    if len(lines) > TRACE_LINE_CAP:
        raise ParseError(f"trace of {len(lines)} lines, above the cap {TRACE_LINE_CAP}")
    steps, rest = _parse_block(lines, 0, top=True)
    if rest != len(lines):
        raise ParseError(f"unparsed trailing line: {_quote(lines[rest])}")
    return steps


# The number of tokens on each one-line step, the step name included.
_STEP_TOKENS = {"mul": 2, "red": 3, "claim": 2, "restart": 1}


def _quote(text: str) -> str:
    """A trace line or branch expression as a parse error quotes it, cut at
    40 characters: every well-formed step but a branch fits."""
    return repr(_short(text, 40))


def _parse_block(lines, i, top=False):
    steps = []
    while i < len(lines):
        line = lines[i]
        if line.startswith("}"):
            if top:
                raise ParseError("unmatched '}'")
            return tuple(steps), i
        parts = line.split()
        if len(parts) != _STEP_TOKENS.get(parts[0], len(parts)):
            raise ParseError(f"bad {parts[0]} step: {_quote(line)}")
        if parts[0] == "mul":
            # X^8 = X and Y^8 = Y on the curve, so no derivation needs a
            # higher power, and a huge one would keep the replay busy for minutes
            mono = parse_monomial(parts[1])
            if max(mono) > 7:
                raise ParseError(f"bad mul step: {_quote(line)} has an exponent above 7")
            steps.append(Mul(mono))
            i += 1
        elif parts[0] == "red":
            if parts[1] not in DIVISOR_IDS or parts[2] not in (HEAD, FULL):
                raise ParseError(f"bad red step: {_quote(line)}")
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
                raise ParseError(f"branch line must end with '{{': {_quote(line)}")
            expr = line[len("branch"):].rstrip("{").strip()
            if not expr:
                raise ParseError("branch without an expression")
            nonzero, i = _parse_block(lines, i + 1)
            if lines[i].replace(" ", "") != "}else{":
                raise ParseError(
                    f"expected '}} else {{' after branch block, got {_quote(lines[i])}")
            zero, i = _parse_block(lines, i + 1)
            if lines[i].strip() != "}":
                raise ParseError(f"expected closing '}}', got {_quote(lines[i])}")
            i += 1
            step = Branch(expr, nonzero, zero)
            steps.append(step)
            if i < len(lines) and not lines[i].startswith("}"):
                raise ParseError("branch must be the last step of its block")
        else:
            raise ParseError(f"unknown step: {_quote(line)}")
    if not top:
        raise ParseError("unterminated block")
    return tuple(steps), i


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Leaf:
    label: str
    constraints: ConstraintStore
    established: tuple
    count: int
    vacuous: bool


@dataclass(frozen=True)
class BoundReport:
    """A verified replay.  Frozen: verify_all_traces hands the same memoised
    report to every caller."""

    M: tuple
    t: int
    baseline: int
    leaves: tuple
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

    def __init__(self, M: tuple):
        self.fp = klein_footprint()
        self.M = M = tuple(M)
        self.upset = frozenset(upset_in_footprint(M))
        self._counts: dict = {}
        self.support = class_support(M)
        self.t = len(self.support)
        self.ring = ring = ParamRing(self.t)
        terms = {M: ring.one}
        for i, m in enumerate(self.support):
            terms[m] = ring.var(i)
        self.root = Polynomial(ring, 2, terms, _normalized=True)
        # the reduced basis, heads ascending: the curve, X^8+X, X^7*Y+Y
        self.divisors = dict(zip(("K", "FX", "FXY"), (
            Polynomial(ring, 2, {m: ring.const(c) for m, c in g.terms.items()},
                       _normalized=True) for g in klein_basis())))

    def fresh_store(self) -> ConstraintStore:
        return ConstraintStore(self.ring)

    def parse_expr(self, text: str) -> ParamPoly:
        p = parse_poly(text, self.ring)
        for m in p.terms:
            if any(m):
                raise ParseError(f"branch expression {_quote(text)} mentions X or Y")
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


# One context per class and process, as klein_basis is one basis: only the 22
# footprint classes have one, and nothing in it changes but its count memo.
klein_parametric = lru_cache(maxsize=None)(KleinParametric)


def param_reduce_step(s: Polynomial, divisor: Polynomial, mode: str,
                      cs: ConstraintStore):
    """One trace reduction: returns (q, r) with s = q*divisor + r re-verified.

    The divisor's leading coefficient must reduce to a nonzero constant
    under the store (all four trace divisors are monic).
    """
    lm, lc = divisor.leading_term()
    lc_const = cs.reduce(lc).as_const()
    if lc_const is None or lc_const == 0:
        raise UncertifiedLeadingCoefficient(
            f"divisor head {format_monomial(lm)} has coefficient {format_param(lc)}")
    quots, r = divide(s, [divisor], mode)
    if quots[0].mul(divisor).add(r) != s:
        raise InvalidStep("division identity failed")
    return quots[0], r


# ---------------------------------------------------------------------------
# trace verification

def verify_trace(M: tuple, steps) -> BoundReport:
    """Replay a trace for class M and return its verified bound report."""
    ctx = klein_parametric(tuple(M))
    steps = tuple(steps)
    leaves: list[Leaf] = []

    def run(steps, W, cs, established, label):
        for idx, step in enumerate(steps):
            if isinstance(step, Mul):
                W = _capped(W.mul_mono(step.mono), label,
                            f"mul {format_monomial(step.mono)}")
            elif isinstance(step, Restart):
                W = ctx.divisor("F", cs)
            elif isinstance(step, Red):
                if step.divisor not in DIVISOR_IDS or step.mode not in (HEAD, FULL):
                    raise InvalidStep(f"{label}: bad red step {step!r}")
                if W.is_zero():
                    raise InvalidStep(f"{label}: reduce on the zero polynomial")
                before = W.leading_term()[0]
                _, r = param_reduce_step(W, ctx.divisor(step.divisor, cs),
                                         step.mode, cs)
                if r == W:
                    raise InvalidStep(
                        f"{label}: red {step.divisor} {step.mode} changed nothing")
                if not r.is_zero():
                    after = r.leading_term()[0]
                    if MonomialOrder.key(after) > MonomialOrder.key(before):
                        raise InvalidStep(f"{label}: head increased")
                W = _capped(r, label, f"red {step.divisor} {step.mode}")
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
    return BoundReport(ctx.M, ctx.t, len(ctx.upset), tuple(leaves), min(live), steps)


def _capped(W: Polynomial, label: str, step: str) -> Polynomial:
    """W, unless an exponent of it passes REPLAY_EXPONENT_CAP."""
    if W.terms:
        top = (max(a for a, _ in W.terms), max(b for _, b in W.terms))
        if max(top) > REPLAY_EXPONENT_CAP:
            raise ReplayTooLarge(
                f"{label}: {step} lifts the working polynomial to exponent "
                f"{top[0]} in X and {top[1]} in Y, above the replay cap "
                f"{REPLAY_EXPONENT_CAP}")
    return W


def _check_claim(ctx, W, mono, cs, label):
    if W.is_zero():
        raise UnjustifiedClaim(f"{label}: claim on the zero polynomial")
    key = MonomialOrder.key(mono)
    above = [m for m in W.terms if MonomialOrder.key(m) > key]
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

def instantiate_and_check(M: tuple, leaf: Leaf, nsamples: int, seed: int):
    """Sample concrete parameter values satisfying the leaf and verify every
    established monomial is absent from the footprint of <F> + I8.  I8 enters
    as its reduced basis: it generates the same ideal as the curve and field
    equations, so the reduced basis and footprint of the sum are the same."""
    ctx = klein_parametric(tuple(M))
    if leaf.vacuous or leaf.constraints.vacuous:
        raise UnsatisfiableLeaf(leaf.label)
    assignments = leaf.constraints.sample_witnesses(nsamples, seed)
    if not assignments:
        raise UnsatisfiableLeaf(leaf.label)
    dom = gf8()
    gens = klein_basis()
    F_leaf = ctx.root.map_coeffs(leaf.constraints.reduce)
    grid = np.array(assignments, dtype=np.uint8).T
    values = evaluate_grid(list(F_leaf.terms.values()), grid).T.tolist()
    for assignment, column in zip(assignments, values):
        terms = {m: v for m, v in zip(F_leaf.terms, column) if v}
        F = Polynomial(dom, 2, terms, _normalized=True)
        gb = buchberger([F, *gens])
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


def _open_without_waiting(path, flags) -> int:
    """os.open that returns at once on a FIFO with no writer (which then
    reads as empty); reads from the descriptor block as usual."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    return fd


# A bad byte decodes to one escape character, so its offset can be named;
# _trace_text translates the newlines, so that offset counts every byte.
_TEXT_MODE = dict(encoding="utf-8", errors="surrogateescape", newline="")


def read_trace_text(path) -> str:
    """The text of the trace file at a path the user names; a FIFO is opened
    without waiting for a writer."""
    with open(path, opener=_open_without_waiting, **_TEXT_MODE) as fh:
        return _trace_text(fh, path)


def load_trace_text(name: str, traces_dir=None) -> str:
    if traces_dir is not None:
        return read_trace_text(Path(traces_dir) / f"{name}.trace")
    path = resources.files("kleincode") / "traces" / f"{name}.trace"
    with path.open(**_TEXT_MODE) as fh:
        return _trace_text(fh, path)


def _trace_text(fh, path) -> str:
    """The text of fh, opened in _TEXT_MODE, with newlines read as in text
    mode (the cap counts a "\\r\\n" as one character); ParseError past the
    cap or on bytes that are not UTF-8."""
    raw = fh.read(2 * (TRACE_CHAR_CAP + 1))
    text = raw.replace("\r\n", "\n").replace("\r", "\n") if "\r" in raw else raw
    if len(text) > TRACE_CHAR_CAP:
        raise ParseError(f"trace file longer than the cap of {TRACE_CHAR_CAP} characters")
    try:
        raw.encode()
    except UnicodeEncodeError as exc:  # an escape character: no UTF-8 encodes it
        at = len(raw[:exc.start].encode("utf-8", "surrogateescape"))
        raise ParseError(f"{path}: not UTF-8 at byte {at}") from None
    return text


def full_bound_map(traces_dir=None) -> dict:
    """delta(M) for all 22 classes: the trace bound where one is shipped,
    the divisibility count elsewhere."""
    return bound_map_from_reports(verify_all_traces(traces_dir))


def bound_map_from_reports(reports: dict) -> dict:
    """full_bound_map for trace reports that are already verified.  A
    report's bound is never below its baseline, the divisibility count: every
    leaf count includes M's upset."""
    return {M: reports[M].bound if M in reports else divisibility_bound(M)
            for M in klein_footprint()}


def verify_all_traces(traces_dir=None) -> dict:
    """Reports for the nine traced classes.  The texts are read on every
    call; each (M, text) pair is replayed once per process."""
    return {M: _verified_trace(M, load_trace_text(name, traces_dir))
            for M, name in TRACED_CLASSES.items()}


@lru_cache(maxsize=32)
def _verified_trace(M: tuple, text: str) -> BoundReport:
    """verify_trace of one trace text, memoised by content, so an edited
    file is replayed again and identical texts share one report.  A failing
    replay raises and is not cached."""
    return verify_trace(M, parse_trace(text))
