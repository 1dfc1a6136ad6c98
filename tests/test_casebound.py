import pytest

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


# ---------------------------------------------------------------------------
# upsets

def test_upset_examples(fp):
    assert len(upset_in_footprint((4, 0), fp)) == 10
    assert upset_in_footprint((6, 2), fp) == {(6, 2)}
    assert len(upset_in_footprint((0, 0), fp)) == 22


def test_divisibility_examples(fp):
    assert divisibility_bound((0, 1), fp) == 14
    assert divisibility_bound((2, 2), fp) == 5
    assert divisibility_bound((7, 0), fp) == 1


def test_upset_outside_footprint(fp):
    with pytest.raises(NotInFootprint):
        upset_in_footprint((8, 0), fp)


# ---------------------------------------------------------------------------
# reduce steps

def test_param_reduce_chain(order):
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    s = ctx.root.mul_mono((0, 2))
    _, r1 = param_reduce_step(s, ctx.divisor("K", cs), HEAD, cs, order)
    q, r2 = param_reduce_step(r1, ctx.divisor("F", cs), FULL, cs, order)
    expected = parse_poly(
        "a1*X^4+(a1^3+a2)*X^3+a1^2*a2*X^2+(a1*a2^2+1)*X+a2^3",
        ctx.domain, ring=ctx.ring)
    assert r2 == expected
    assert q.mul(ctx.divisor("F", cs)).add(r2) == r1


def test_param_reduce_self_to_zero(order):
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    _, r = param_reduce_step(ctx.root, ctx.divisor("F", cs), FULL, cs, order)
    assert r.is_zero()


def test_param_reduce_no_step(order):
    ctx = KleinParametric((0, 1))
    cs = ctx.fresh_store()
    s = ctx.root  # head Y is not divisible by X^8
    q, r = param_reduce_step(s, ctx.divisor("FX", cs), HEAD, cs, order)
    assert q.is_zero() and r == s


# ---------------------------------------------------------------------------
# verify_trace

def test_verify_trace_s31(fp):
    steps = parse_trace(load_trace_text("s31"))
    rep = verify_trace((0, 1), steps, t=2, fp=fp)
    assert rep.baseline == 14
    assert rep.bound == 18
    assert [l.count for l in rep.leaves] == [18, 19, 21]


def test_verify_trace_s33(fp):
    rep = verify_trace((1, 1), parse_trace(load_trace_text("s33")), fp=fp)
    assert rep.bound == 15
    assert rep.baseline == 12


def test_verify_trace_empty(fp):
    rep = verify_trace((0, 1), (), fp=fp)
    assert rep.bound == rep.baseline == 14
    assert len(rep.leaves) == 1


def test_verify_trace_wrong_t(fp):
    with pytest.raises(ValueError):
        verify_trace((0, 1), (), t=5, fp=fp)


def test_all_nine_trace_bounds(fp):
    reports = verify_all_traces(fp=fp)
    assert {M: r.bound for M, r in reports.items()} == TRACE_BOUNDS
    for rep in reports.values():
        assert all(not leaf.vacuous for leaf in rep.leaves)
        assert rep.bound >= rep.baseline


def test_unjustified_claim_rejected(fp):
    # claiming X^4 without branching on a1 must fail
    steps = parse_trace("""
    mul Y^2
    red K head
    red F full
    claim X^4
    """)
    with pytest.raises(UnjustifiedClaim):
        verify_trace((0, 1), steps, fp=fp)


def test_useless_reduce_rejected(fp):
    steps = parse_trace("""
    red FX head
    """)
    with pytest.raises(InvalidStep):
        verify_trace((0, 1), steps, fp=fp)


def test_malformed_step_trees_rejected(fp):
    # trees built in code bypass the parser's "branch is last" rule
    with pytest.raises(InvalidStep, match="last step"):
        verify_trace((0, 1), (Branch("a1", (), ()), Claim((4, 0))), fp=fp)
    with pytest.raises(InvalidStep, match="unknown step"):
        verify_trace((0, 1), ("garbage", None), fp=fp)
    with pytest.raises(InvalidStep, match="bad red step"):
        verify_trace((0, 1), (Red("G", HEAD),), fp=fp)


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


# ---------------------------------------------------------------------------
# instantiation

def test_instantiate_s31_leaf(fp):
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")), fp=fp)
    leaf = rep.leaves[0]  # a1 != 0, established {X^4}
    out = instantiate_and_check((0, 1), leaf, nsamples=25, seed=99, fp=fp)
    assert out["samples"] == 25


def test_instantiate_specific_assignment(dom, gb, fp, order):
    # a1 = alpha (enc 2), a2 = 0: X^4..X^7 must leave the footprint
    from kleincode.groebner import buchberger, footprint
    from kleincode.klein import ideal_generators

    F = parse_poly("Y+2*X", dom)
    gb2 = buchberger([F, *ideal_generators()], order)
    fp2 = footprint(gb2)
    for a in range(4, 8):
        assert (a, 0) not in fp2


def test_instantiate_vacuous_leaf_raises(fp):
    from kleincode.casebound import Leaf
    from kleincode.params import ConstraintStore, ParamRing

    ring = ParamRing(2)
    cs = ConstraintStore(ring).with_nonzero(ring.var(0)).with_zero(ring.var(0))
    leaf = Leaf("bad", cs, (), 14, vacuous=True)
    with pytest.raises(UnsatisfiableLeaf):
        instantiate_and_check((0, 1), leaf, nsamples=5, seed=1, fp=fp)


def test_instantiate_deterministic(fp):
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")), fp=fp)
    leaf = rep.leaves[1]
    a = leaf.constraints.sample_witnesses(10, seed=3)
    b = leaf.constraints.sample_witnesses(10, seed=3)
    assert a == b


def test_instantiate_refuses_zero_samples(fp):
    # a satisfiable leaf with no samples asked for is a usage error, not an
    # unsatisfiable leaf
    rep = verify_trace((0, 1), parse_trace(load_trace_text("s31")), fp=fp)
    leaf = rep.leaves[0]
    assert instantiate_and_check((0, 1), leaf, nsamples=1, seed=3, fp=fp)["samples"] == 1
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"sample count {n} "):
            instantiate_and_check((0, 1), leaf, nsamples=n, seed=3, fp=fp)


def test_delta_map_range_and_baseline_monotone(fp):
    from kleincode.poly import mono_divides

    delta = full_bound_map()
    assert all(1 <= d <= 22 for d in delta.values())
    for m in fp:
        for n in fp:
            if mono_divides(m, n):
                assert divisibility_bound(n, fp) <= divisibility_bound(m, fp)
