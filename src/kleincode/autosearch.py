"""Bounded automatic rediscovery of case-split weight bounds.

The search explores what the hand-built traces do by hand: multiply the
working polynomial by a monomial from a small move set, head-reduce
against the root F and the three basis elements, and branch on the
leading coefficient whenever neither zero nor nonzero is certified.
Claims are taken greedily (they never hurt), branch nodes score as the
minimum over their children, and choice nodes as the maximum over moves.
The search only proposes: its best strategy is a tree of trace steps, and
the report it returns is that tree's replay by ``casebound.verify_trace``,
the same verifier the shipped traces pass, so the bound is proved.  The
search is best-effort under its budget; it never returns less than the
divisibility count.  It stops before a pass once its bound reaches the
class's coset minimum, read from the table klein.CLASS_MINIMUM, since no
pass can prove more; the search itself scans no codewords.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .casebound import (
    BoundReport,
    Branch,
    Claim,
    Mul,
    Red,
    TraceError,
    klein_parametric,
    verify_trace,
)
from .klein import CLASS_MINIMUM
from .params import format_param
from .poly import HEAD, divide

DEFAULT_MOVES = ((1, 0), (0, 1), (0, 2), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0))


@dataclass(frozen=True)
class SearchBudget:
    """Depth counts multiplications; work units approximate polynomial-size
    weighted node visits, shared across the iterative-deepening passes.
    Whatever the budget, the search stops before a pass once its proved
    bound reaches the class's coset minimum, klein.CLASS_MINIMUM."""

    max_depth: int = 3
    max_branches: int = 8
    move_set: tuple = DEFAULT_MOVES
    max_work: int = 60_000


def auto_search(M: tuple, budget: SearchBudget = None) -> BoundReport:
    """Iterative deepening: complete passes at depth 0, 1, ... max_depth,
    keeping the best proved bound, until the work budget runs out or the
    bound reaches the least weight of a word in the class coset,
    CLASS_MINIMUM[M], which no pass could beat.  Returns the verified replay
    of the best pass's steps; a replay above that minimum would be unsound
    and raises TraceError."""
    budget = budget or SearchBudget()
    ctx = klein_parametric(tuple(M))
    # Working polynomials are the replay's Polynomials.  Each divisor's head
    # is read once: the root F's is M under every store, its coefficient 1.
    basis = [(name, d, d.leading_term()[0]) for name, d in ctx.divisors.items()]
    work = [0]
    memo: dict = {}
    # Stores live for the whole call, across passes, so each store's scans,
    # certificates, witness and reduced root F are computed once.
    stores: dict = {}

    def intern(cs):
        key = cs.key()
        if key not in stores:
            stores[key] = cs, ctx.divisor("F", cs)
        return stores[key]

    SIZE_CAP = 2500  # abandon states whose coefficients have exploded

    def explore(W, node, established, depth, branches):
        """(proved count, steps of the best strategy) from the working
        polynomial W under node = (interned store, its reduced root F)."""
        cs, F = node
        size = sum(len(c.terms) for c in W.terms.values())
        work[0] += 1 + size // 4
        claim = ()
        if W.terms:
            lm, lc = W.leading_term()
            # greedy claim: the formal head has nothing above it, so it is
            # established as soon as its coefficient is certified
            if lm in ctx.fp and lm not in established and cs.certified_nonzero(lc):
                established = established | {lm}
                claim = (Claim(lm),)
        here = ctx.covered_count(established)
        if work[0] > budget.max_work or size > SIZE_CAP:
            return here, claim
        key = (frozenset((m, c.key()) for m, c in W.terms.items()), cs.key(),
               established, depth, branches)
        if key in memo:
            value, steps = memo[key]
            return value, claim + steps
        memo[key] = (here, ())  # cycle guard
        best, best_steps = here, ()

        def consider(value, steps):
            nonlocal best, best_steps
            if value > best:
                best, best_steps = value, steps

        if W.terms:
            # head reductions against any divisor whose head divides ours
            for name, d, head in (("F", F, ctx.M), *basis):
                if work[0] > budget.max_work:
                    break
                if head[0] <= lm[0] and head[1] <= lm[1]:
                    _, r = divide(W, [d], HEAD)
                    value, steps = explore(r, node, established, depth, branches)
                    consider(value, (Red(name, HEAD),) + steps)
            # branch on an undetermined leading coefficient (skip monsters:
            # giving a move up only weakens the search, never its soundness)
            if branches > 0 and work[0] <= budget.max_work and len(lc.terms) <= 64 \
                    and not cs.certified_nonzero(lc) and not cs.proves_zero(lc):
                expr = cs.reduce(lc)
                zero_cs, nonzero_cs = cs.branch(expr)
                blocks = []
                value = None
                for child in (intern(nonzero_cs), intern(zero_cs)):
                    child_cs = child[0]
                    if child_cs.vacuous:
                        blocks.append(())
                        continue
                    v, steps = explore(W.map_coeffs(child_cs.reduce), child, established,
                                       depth, branches - 1)
                    blocks.append(steps)
                    value = v if value is None else min(value, v)
                if value is not None:
                    consider(value, (Branch(format_param(expr), *blocks),))
        if depth > 0:
            for u in budget.move_set:
                if work[0] > budget.max_work:
                    break
                value, steps = explore(W.mul_mono(u), node, established, depth - 1,
                                       branches)
                consider(value, (Mul(u),) + steps)
        memo[key] = (best, best_steps)
        return best, claim + best_steps

    ceiling = CLASS_MINIMUM[ctx.M]
    bound, best_steps = len(ctx.upset), ()
    for depth in range(budget.max_depth + 1):
        if work[0] > budget.max_work or bound >= ceiling:
            break
        memo.clear()
        value, steps = explore(ctx.root, intern(ctx.fresh_store()),
                               frozenset(), depth, budget.max_branches)
        if value > bound:
            bound, best_steps = value, steps
    report = verify_trace(ctx.M, best_steps)
    if report.bound != bound:
        raise TraceError(f"search proposed {bound}, its replay proves {report.bound}")
    if report.bound > ceiling:
        raise TraceError(f"replay proves {report.bound}, above the weight {ceiling} "
                         f"of a word in the coset")
    return replace(report, leaves=tuple(
        replace(leaf, established=tuple(sorted(leaf.established)))
        for leaf in report.leaves))
