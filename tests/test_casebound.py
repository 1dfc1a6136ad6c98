import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from kleincode import casebound
from kleincode.casebound import (
    Branch,
    Claim,
    Red,
    full_bound_map,
    InvalidStep,
    KleinParametric,
    NotInFootprint,
    UnjustifiedClaim,
    UnsatisfiableLeaf,
    divisibility_bound,
    instantiate_and_check,
    load_trace_text,
    param_reduce_step,
    parse_trace,
    upset_in_footprint,
    verify_all_traces,
    verify_trace,
)
from kleincode.poly import FULL, HEAD, ParseError, parse_poly

# full bound map, frozen: rows b = 2, 1, 0 (X^7 carries the divisibility value 1)
EXPECTED_DELTA = {
    (0, 2): 13, (1, 2): 10, (2, 2): 7, (3, 2): 5, (4, 2): 3, (5, 2): 2, (6, 2): 1,
    (0, 1): 18, (1, 1): 15, (2, 1): 12, (3, 1): 9, (4, 1): 6, (5, 1): 4, (6, 1): 2,
    (0, 0): 22, (1, 0): 19, (2, 0): 16, (3, 0): 13, (4, 0): 10, (5, 0): 7,
    (6, 0): 4, (7, 0): 1,
}

TRACE_BOUNDS = {
    (0, 1): 18, (0, 2): 13, (1, 1): 15, (2, 1): 12, (1, 2): 10,
    (3, 1): 9, (2, 2): 7, (3, 2): 5, (7, 0): 1,
}

GOLDEN = Path(__file__).parent / "golden"
TRACES = Path(casebound.__file__).parent / "traces"


# ---------------------------------------------------------------------------
# upsets

def test_upset_examples():
    assert len(upset_in_footprint((4, 0))) == 10
    assert upset_in_footprint((6, 2)) == {(6, 2)}
    assert len(upset_in_footprint((0, 0))) == 22


def test_divisibility_examples():
    assert divisibility_bound((0, 1)) == 14
    assert divisibility_bound((2, 2)) == 5
    assert divisibility_bound((7, 0)) == 1


def test_upset_outside_footprint():
    with pytest.raises(NotInFootprint):
        upset_in_footprint((8, 0))


# ---------------------------------------------------------------------------
# reduce steps

def test_param_reduce_chain():
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    s = ctx.root.mul_mono((0, 2))
    _, r1 = param_reduce_step(s, ctx.divisor("K", cs), HEAD, cs)
    q, r2 = param_reduce_step(r1, ctx.divisor("F", cs), FULL, cs)
    expected = parse_poly(
        "a1*X^4+(a1^3+a2)*X^3+a1^2*a2*X^2+(a1*a2^2+1)*X+a2^3", ctx.ring)
    assert r2 == expected
    assert q.mul(ctx.divisor("F", cs)).add(r2) == r1


def test_param_reduce_self_to_zero():
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    _, r = param_reduce_step(ctx.root, ctx.divisor("F", cs), FULL, cs)
    assert r.is_zero()


def test_param_reduce_no_step():
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    s = ctx.root  # head Y is not divisible by X^8
    q, r = param_reduce_step(s, ctx.divisor("FX", cs), HEAD, cs)
    assert q.is_zero() and r == s


# ---------------------------------------------------------------------------
# verify_trace

def test_verify_trace_s31():
    steps = parse_trace(load_trace_text("s31"))
    rep = verify_trace((0, 1), steps)
    assert rep.t == 2
    assert rep.baseline == 14
    assert rep.bound == 18
    assert [l.count for l in rep.leaves] == [18, 19, 21]


def test_verify_trace_s33():
    rep = verify_trace((1, 1), parse_trace(load_trace_text("s33")))
    assert rep.bound == 15
    assert rep.baseline == 12


def test_verify_trace_empty():
    rep = verify_trace((0, 1), ())
    assert rep.bound == rep.baseline == 14
    assert len(rep.leaves) == 1


def test_all_nine_trace_bounds():
    reports = verify_all_traces()
    assert {M: r.bound for M, r in reports.items()} == TRACE_BOUNDS
    for rep in reports.values():
        assert all(not leaf.vacuous for leaf in rep.leaves)
        assert rep.bound >= rep.baseline


def test_unjustified_claim_rejected():
    # claiming X^4 without branching on a1 must fail
    steps = parse_trace("""
    mul Y^2
    red K head
    red F full
    claim X^4
    """)
    with pytest.raises(UnjustifiedClaim):
        verify_trace((0, 1), steps)


def test_useless_reduce_rejected():
    steps = parse_trace("""
    red FX head
    """)
    with pytest.raises(InvalidStep):
        verify_trace((0, 1), steps)


def test_malformed_step_trees_rejected():
    # trees built in code bypass the parser's "branch is last" rule
    with pytest.raises(InvalidStep, match="last step"):
        verify_trace((0, 1), (Branch("a1", (), ()), Claim((4, 0))))
    with pytest.raises(InvalidStep, match="unknown step"):
        verify_trace((0, 1), ("garbage", None))
    with pytest.raises(InvalidStep, match="bad red step"):
        verify_trace((0, 1), (Red("G", HEAD),))


def test_full_bound_map_exact():
    assert full_bound_map() == EXPECTED_DELTA


def test_bound_map_rows():
    delta = full_bound_map()
    assert [delta[(a, 2)] for a in range(7)] == [13, 10, 7, 5, 3, 2, 1]
    assert [delta[(a, 1)] for a in range(7)] == [18, 15, 12, 9, 6, 4, 2]
    assert [delta[(a, 0)] for a in range(8)] == [22, 19, 16, 13, 10, 7, 4, 1]


# ---------------------------------------------------------------------------
# trace grammar

def test_parse_trace_comments_and_nesting():
    steps = parse_trace("""
    # comment
    mul X^2  # trailing comment
    branch a1 {
      claim X^2
    } else {
      branch a2 {
        claim X
      } else {
      }
    }
    """)
    assert len(steps) == 2


def test_parse_trace_errors():
    with pytest.raises(ParseError):
        parse_trace("frobnicate X")
    with pytest.raises(ParseError):
        parse_trace("branch a1 {\nclaim X\n}")  # missing else
    with pytest.raises(ParseError):
        parse_trace("branch a1 {\nclaim X\n} else {\nclaim Y\n}\nmul X")
    with pytest.raises(ParseError):
        parse_trace("red K sideways")


@pytest.mark.parametrize("line", ["mul", "mul X^2 extra", "claim", "claim Y extra",
                                  "restart extra", "red K"])
def test_parse_trace_refuses_missing_or_extra_operand(line):
    with pytest.raises(ParseError) as exc:
        parse_trace(line)
    assert str(exc.value) == f"bad {line.split()[0]} step: {line!r}"


# ---------------------------------------------------------------------------
# instantiation

def test_instantiate_s31_leaf():
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")))
    leaf = rep.leaves[0]  # a1 != 0, established {X^4}
    out = instantiate_and_check((0, 1), leaf, nsamples=25, seed=99)
    assert out["samples"] == 25


def test_instantiate_specific_assignment(dom):
    # a1 = alpha (enc 2), a2 = 0: X^4..X^7 must leave the footprint
    from kleincode.groebner import buchberger, footprint
    from kleincode.klein import ideal_generators

    F = parse_poly("Y+2*X", dom)
    gb2 = buchberger([F, *ideal_generators()])
    fp2 = footprint(gb2)
    for a in range(4, 8):
        assert (a, 0) not in fp2


def test_instantiate_footprint_matches_raw_generators(monkeypatch):
    # instantiate_and_check starts from the reduced Klein basis; for every
    # sampled leaf polynomial, the basis and footprint it sees equal those
    # of F with the curve and field equations
    from kleincode.groebner import buchberger, footprint
    from kleincode.klein import ideal_generators

    seen = []

    def recording(gens):
        gb = buchberger(gens)
        seen.append((gens[0], gb))
        return gb

    monkeypatch.setattr(casebound, "buchberger", recording)
    for M, name in (((0, 1), "s31"), ((1, 1), "s33"), ((3, 2), "s38")):
        rep = verify_trace(M, parse_trace(load_trace_text(name)))
        for leaf in rep.leaves:
            if not leaf.vacuous:
                instantiate_and_check(M, leaf, nsamples=3, seed=17)
    assert len(seen) >= 20
    for F, gb in seen:
        raw = buchberger([F, *ideal_generators()])
        assert [g.terms for g in gb] == [g.terms for g in raw]
        assert footprint(gb).monomials == footprint(raw).monomials


def test_instantiate_reuses_the_class_context(monkeypatch):
    # one context per class: repeated calls build no ParamRing, and so leave
    # no fresh multiplication table for the garbage collector
    from kleincode.params import ParamRing

    leaf = verify_trace((0, 1), parse_trace(load_trace_text("s31"))).leaves[0]
    instantiate_and_check((0, 1), leaf, nsamples=1, seed=5)
    built = [0]
    init = ParamRing.__init__

    def counting(self, t):
        built[0] += 1
        init(self, t)

    monkeypatch.setattr(ParamRing, "__init__", counting)
    for seed in range(5):
        instantiate_and_check((0, 1), leaf, nsamples=2, seed=seed)
    assert built[0] == 0


def test_instantiate_vacuous_leaf_raises():
    from kleincode.casebound import Leaf
    from kleincode.params import ConstraintStore, ParamRing

    ring = ParamRing(2)
    cs = ConstraintStore(ring).branch(ring.var(0))[1].branch(ring.var(0))[0]
    leaf = Leaf("bad", cs, (), 14, vacuous=True)
    with pytest.raises(UnsatisfiableLeaf):
        instantiate_and_check((0, 1), leaf, nsamples=5, seed=1)


def test_instantiate_deterministic():
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")))
    leaf = rep.leaves[1]
    a = leaf.constraints.sample_witnesses(10, seed=3)
    b = leaf.constraints.sample_witnesses(10, seed=3)
    assert a == b


def test_instantiate_refuses_zero_samples():
    # a satisfiable leaf with no samples asked for is a usage error, not an
    # unsatisfiable leaf
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")))
    leaf = rep.leaves[0]
    assert instantiate_and_check((0, 1), leaf, nsamples=1, seed=3)["samples"] == 1
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"sample count {n} "):
            instantiate_and_check((0, 1), leaf, nsamples=n, seed=3)


def test_instantiate_refuses_a_leaf_from_another_class():
    # an s31 (Y) leaf has 2 parameters; 1, X and X*Y have 0, 1 and 4.  The
    # first two used to pass it unchecked and X*Y raised a bare IndexError
    leaf = verify_trace((0, 1), parse_trace(load_trace_text("s31"))).leaves[0]
    for M, t in (((0, 0), 0), ((1, 0), 1), ((1, 1), 4)):
        with pytest.raises(ValueError, match=f"leaf has 2 parameters, class .* has {t}$"):
            instantiate_and_check(M, leaf, nsamples=2, seed=3)


def _live_leaves():
    for M, rep in sorted(verify_all_traces().items()):
        for leaf in rep.leaves:
            if not leaf.vacuous:
                yield M, leaf


def test_instantiate_reads_F_off_the_witness(monkeypatch):
    # the F each Buchberger run starts from equals the leaf's root with the
    # store's substitutions applied, evaluated at the witness
    from kleincode.params import evaluate_grid

    seen = []
    real = casebound.buchberger
    monkeypatch.setattr(casebound, "buchberger",
                        lambda gens: seen.append(gens[0]) or real(gens))
    leaves = 0
    for M, leaf in _live_leaves():
        cs = leaf.constraints
        F_leaf = casebound.klein_parametric(M).root.map_coeffs(cs.reduce)
        for seed in (3, 41, 0x1EAF):
            seen.clear()
            instantiate_and_check(M, leaf, nsamples=3, seed=seed)
            witnesses = cs.sample_witnesses(3, seed)
            grid = np.array(witnesses, dtype=np.uint8).T
            subs = evaluate_grid(list(cs.subs.values()), grid)
            for row, i in zip(subs, cs.subs, strict=True):
                assert grid[i].tolist() == row.tolist()
            values = evaluate_grid(list(F_leaf.terms.values()), grid).T.tolist()
            assert [F.terms for F in seen] == [
                {m: v for m, v in zip(F_leaf.terms, column) if v} for column in values]
        leaves += 1
    assert leaves == 87


def test_instantiate_refuses_a_forged_leaf(dom, gb):
    # a claim that stays in the footprint for the first sampled F is caught,
    # and the message names that assignment
    from kleincode.groebner import buchberger, footprint
    from kleincode.poly import Polynomial, format_monomial

    M = (1, 1)
    leaf = verify_trace(M, parse_trace(load_trace_text("s33"))).leaves[0]
    a = leaf.constraints.sample_witnesses(2, seed=7)[0]
    terms = {M: 1, **{m: v for m, v in zip(casebound.klein_parametric(M).support, a) if v}}
    kept = sorted(footprint(buchberger([Polynomial(dom, 2, terms), *gb])).monomials)
    e = next(m for m in kept if m not in leaf.established)
    forged = dataclasses.replace(leaf, established=leaf.established + (e,))
    with pytest.raises(UnjustifiedClaim, match=re.escape(
            f"{format_monomial(e)} still in the footprint for a = {a}")):
        instantiate_and_check(M, forged, nsamples=2, seed=7)


def test_instantiate_substitutes_nothing(monkeypatch):
    # the witnesses carry the substitutions already: no per-leaf reduce or
    # map_coeffs comes back
    from kleincode.params import ConstraintStore
    from kleincode.poly import Polynomial

    live = [(M, leaf) for M, leaf in _live_leaves() if leaf.constraints.subs]
    assert len(live) >= 10
    calls = []
    for cls, name in ((ConstraintStore, "reduce"), (Polynomial, "map_coeffs")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    for M, leaf in live:
        instantiate_and_check(M, leaf, nsamples=2, seed=5)
    assert calls == []


def test_delta_map_range_and_baseline_monotone(fp):
    from kleincode.poly import mono_divides

    delta = full_bound_map()
    assert all(1 <= d <= 22 for d in delta.values())
    for m in fp:
        for n in fp:
            if mono_divides(m, n):
                assert divisibility_bound(n) <= divisibility_bound(m)


# ---------------------------------------------------------------------------
# the memo of shipped-trace replays

def count_replays(monkeypatch) -> list:
    """Record the class of every verify_trace call the memo makes."""
    calls = []
    real = casebound.verify_trace

    def counting(M, steps):
        calls.append(M)
        return real(M, steps)

    monkeypatch.setattr(casebound, "verify_trace", counting)
    return calls


def test_each_trace_text_is_replayed_once(tmp_path, monkeypatch):
    casebound._verified_trace.cache_clear()
    calls = count_replays(monkeypatch)
    first = verify_all_traces()
    assert len(calls) == 9
    second = verify_all_traces()
    assert full_bound_map() == EXPECTED_DELTA
    assert len(calls) == 9
    assert second is not first
    assert all(second[M] is first[M] for M in TRACE_BOUNDS)
    # a copied directory holds the same texts, so it shares their replays
    for trace in TRACES.glob("*.trace"):
        shutil.copy(trace, tmp_path)
    copied = verify_all_traces(tmp_path)
    assert len(calls) == 9
    assert all(copied[M] is first[M] for M in TRACE_BOUNDS)


def test_edited_trace_is_replayed_again(tmp_path, monkeypatch):
    for trace in TRACES.glob("*.trace"):
        shutil.copy(trace, tmp_path)
    s39 = tmp_path / "s39.trace"  # X^7, the last class replayed
    s39.write_text(s39.read_text().replace("claim X^7\n", "claim X^6\n", 1))
    verify_all_traces()
    calls = count_replays(monkeypatch)
    with pytest.raises(UnjustifiedClaim):
        verify_all_traces(tmp_path)
    assert calls == [(7, 0)]
    code, out = run_cli(["bound", "--traces", str(tmp_path)])
    assert (code, out) == (1, "")
    code, out = run_cli(["bound", "--format", "json"])
    assert (code, out) == (0, GOLDEN.joinpath("bound.json").read_text())


def test_reports_are_frozen():
    rep = verify_all_traces()[(0, 1)]
    assert isinstance(rep.leaves, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.bound = 19
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.leaves[0].established = ()
