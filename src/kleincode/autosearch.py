"""Bounded automatic rediscovery of case-split weight bounds.

The search explores what the hand-built traces do by hand: multiply the
working polynomial by a monomial from a small move set, head-reduce
against the root F and the three basis elements, and branch on the
leading coefficient whenever neither zero nor nonzero is certified.
Claims are taken greedily (they never hurt), branch nodes score as the
minimum over their children, and choice nodes as the maximum over moves,
so the result is a proved lower bound for the class.  The search is
best-effort under its budget; it never returns less than the
divisibility count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .casebound import BoundReport, KleinParametric, Leaf, upset_in_footprint
from .poly import Polynomial, mono_div, mono_divides, mono_mul

DEFAULT_MOVES = ((1, 0), (0, 1), (0, 2), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0))


def _bounded_head_reduce(W: Polynomial, d: Polynomial, order_key, max_size: int):
    """Head-mode reduction by a monic divisor, or None when the chain's
    coefficients outgrow max_size (the search then skips this move)."""
    dom = W.domain
    dlm = max(d.terms, key=order_key)
    items = list(d.terms.items())
    p = dict(W.terms)
    size = sum(len(c.terms) for c in p.values())
    steps = 0
    while p:
        lm = max(p, key=order_key)
        if not mono_divides(dlm, lm):
            break
        steps += 1
        if steps > 64:
            return None
        qc = p[lm]
        t = mono_div(lm, dlm)
        for dm, dc in items:
            k = mono_mul(t, dm)
            old = p.get(k)
            v = qc.mul(dc) if old is None else old.add(qc.mul(dc))
            if old is not None:
                size -= len(old.terms)
            if v.is_zero():
                p.pop(k, None)
            else:
                p[k] = v
                size += len(v.terms)
            if size > max_size:
                return None
    return Polynomial(dom, W.arity, p, _normalized=True)


@dataclass(frozen=True)
class SearchBudget:
    """Depth counts multiplications; work units approximate polynomial-size
    weighted node visits, shared across the iterative-deepening passes."""

    max_depth: int = 3
    max_branches: int = 8
    move_set: tuple = DEFAULT_MOVES
    max_work: int = 60_000


def auto_search(M: tuple, budget: SearchBudget = None, fp=None) -> BoundReport:
    """Iterative deepening: complete passes at depth 0, 1, ... max_depth,
    keeping the best proved bound, until the work budget runs out."""
    budget = budget or SearchBudget()
    ctx = KleinParametric(M, fp)
    base_upset = frozenset(upset_in_footprint(ctx.M, ctx.fp))
    divisor_names = ("F", "K", "FX", "FXY")
    work = [0]
    memo: dict = {}
    # Stores and coverage counts live for the whole call, across passes, so
    # each store's scans, certificates and witness are computed once.
    stores: dict = {}
    counts: dict = {}
    order_key = lru_cache(maxsize=None)(ctx.order.key)

    def intern(cs):
        # summary() prints equalities in list order, so the order is part
        # of a store's identity here.
        key = (cs.key(), tuple(e.key() for e in cs.equalities))
        return stores.setdefault(key, cs)

    def covered_count(established) -> int:
        if established not in counts:
            out = set(base_upset)
            for e in established:
                out.update(N for N in ctx.fp if mono_divides(e, N))
            counts[established] = len(out)
        return counts[established]

    def state_key(W, cs, established, depth, branches):
        wkey = tuple(sorted((m, c.key()) for m, c in W.terms.items()))
        return (wkey, cs.key(), established, depth, branches)

    SIZE_CAP = 2500  # abandon states whose coefficients have exploded

    def explore(W, F_cur, cs, established, depth, branches):
        """Returns (proved count, leaf list for the optimal strategy)."""
        size = sum(len(c.terms) for c in W.terms.values())
        work[0] += 1 + size // 4
        # greedy claim: the formal head has nothing above it, so it is
        # established as soon as its coefficient is certified
        if not W.is_zero():
            lm = max(W.terms, key=order_key)
            lc = W.terms[lm]
            if lm in ctx.fp and lm not in established and cs.certified_nonzero(lc):
                established = established | {lm}
        established = frozenset(established)
        here = covered_count(established)
        leaf = [Leaf("auto", cs, tuple(sorted(established)), here, False)]
        if work[0] > budget.max_work or size > SIZE_CAP:
            return here, leaf
        key = state_key(W, cs, established, depth, branches)
        if key in memo:
            return memo[key]
        memo[key] = (here, leaf)  # cycle guard
        best, best_leaves = here, leaf

        def consider(value, leaves):
            nonlocal best, best_leaves
            if value > best:
                best, best_leaves = value, leaves

        if not W.is_zero():
            # head reductions against any divisor whose head divides ours
            for name in divisor_names:
                if work[0] > budget.max_work:
                    break
                d = F_cur if name == "F" else ctx.divisors[name]
                if mono_divides(max(d.terms, key=order_key), lm):
                    r = _bounded_head_reduce(W, d, order_key, 4 * SIZE_CAP)
                    if r is not None and r != W:
                        consider(*explore(r, F_cur, cs, established, depth, branches))
            # branch on an undetermined leading coefficient (skip monsters:
            # giving a move up only weakens the search, never its soundness)
            if branches > 0 and work[0] <= budget.max_work and len(lc.terms) <= 64 \
                    and not cs.certified_nonzero(lc) and not cs.proves_zero(lc):
                zero_cs, nonzero_cs = cs.branch(cs.reduce(lc))
                children = []
                value = None
                for child in (intern(nonzero_cs), intern(zero_cs)):
                    if child.vacuous:
                        continue
                    W2 = W.map_coeffs(child.reduce)
                    F2 = F_cur.map_coeffs(child.reduce)
                    v, ls = explore(W2, F2, child, established, depth, branches - 1)
                    children.extend(ls)
                    value = v if value is None else min(value, v)
                if value is not None:
                    consider(value, children)
        if depth > 0:
            for u in budget.move_set:
                if work[0] > budget.max_work:
                    break
                consider(*explore(W.mul_mono(u), F_cur, cs, established,
                                  depth - 1, branches))
        memo[key] = (best, best_leaves)
        return best, best_leaves

    baseline = len(base_upset)
    bound, leaves = baseline, []
    for depth in range(budget.max_depth + 1):
        if work[0] > budget.max_work:
            break
        memo.clear()
        value, pass_leaves = explore(ctx.root, ctx.root, intern(ctx.fresh_store()),
                                     frozenset(), depth, budget.max_branches)
        if value > bound:
            bound, leaves = value, pass_leaves
    if not leaves:
        leaves = [Leaf("auto", ctx.fresh_store(), (), baseline, False)]
    return BoundReport(ctx.M, ctx.t, baseline, leaves, bound)
