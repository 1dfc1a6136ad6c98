import itertools
import random

from kleincode import params
from kleincode.params import (
    ConstraintStore,
    ParamDomain,
    ParamRing,
    assignment_grid,
    evaluate_grid,
    format_param,
)
from kleincode.poly import parse_poly
from kleincode.rng import SplitMix64


def expr(text, ring):
    p = parse_poly(text, ParamDomain(ring), ring=ring)
    return p.coef((0, 0))


def test_exponent_fold():
    ring = ParamRing(2)
    a = ring.var(0)
    assert ring.var_pow(0, 8) == a            # a^8 = a
    assert ring.var_pow(0, 7).mul(a) == a     # a^7 * a = a
    assert ring.var_pow(0, 14) == ring.var_pow(0, 7)


def test_arithmetic_char2():
    ring = ParamRing(2)
    a, b = ring.var(0), ring.var(1)
    assert a.add(a).is_zero()
    s = a.add(b)
    assert s.mul(s) == a.mul(a).add(b.mul(b))  # Frobenius carries over


def test_substitution():
    ring = ParamRing(3)
    p = expr("a1^2*a2+a3", ring)
    q = p.substitute({0: ring.const(1)})
    assert q == expr("a2+a3", ring)
    r = p.substitute({2: expr("a1", ring)})
    assert r == expr("a1^2*a2+a1", ring)


def test_evaluate_matches_substitution():
    ring = ParamRing(2)
    p = expr("a1^3+a1*a2+1", ring)
    for x in range(8):
        for y in range(8):
            direct = p.evaluate((x, y))
            via = p.substitute({0: ring.const(x), 1: ring.const(y)}).as_const()
            assert direct == via


def test_evaluate_grid_matches_scalar():
    # zero and constant polynomials mixed in; constants alone still fill
    # every column
    rng = random.Random(0x6E1D)
    for _ in range(40):
        t = rng.randint(1, 4)
        ring = ParamRing(t)
        polys = [_random_poly(rng, ring, sorted(rng.sample(range(t), rng.randint(1, t))),
                              rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            polys = [ring.const(rng.randrange(8)) for _ in polys]
        grid = assignment_grid(t, list(range(t)))[:, rng.sample(range(8 ** t), 5)]
        vals = evaluate_grid(polys, grid)
        assert vals.shape == (len(polys), 5)
        for r, p in enumerate(polys):
            assert vals[r].tolist() == [p.evaluate(tuple(col)) for col in grid.T.tolist()]


def test_branch_linear_substitutes():
    ring = ParamRing(2)
    cs = ConstraintStore(ring)
    zero, nonzero = cs.branch(expr("a1+1", ring))
    assert zero.subs[0] == ring.const(1)
    assert not zero.vacuous
    assert list(nonzero.nonzeros.values()) == [expr("a1+1", ring)]


def test_branch_pair_substitutes_lower_index():
    ring = ParamRing(4)
    cs = ConstraintStore(ring)
    zero, _ = cs.branch(expr("a3+a4", ring))
    assert zero.subs[2] == ring.var(3)  # a3 := a4


def test_branch_constant_vacuous():
    ring = ParamRing(1)
    cs = ConstraintStore(ring)
    zero, nonzero = cs.branch(ring.const(1))
    assert zero.vacuous
    assert not nonzero.vacuous and not nonzero.nonzeros


def test_contradiction_is_vacuous():
    ring = ParamRing(1)
    cs = ConstraintStore(ring).with_nonzero(expr("a1", ring))
    child = cs.with_zero(expr("a1", ring))
    assert child.vacuous


def test_certified_products():
    ring = ParamRing(2)
    cs = ConstraintStore(ring)
    cs = cs.with_nonzero(expr("a1", ring)).with_nonzero(expr("a1+1", ring))
    assert cs.certified_nonzero(expr("a1^2+a1", ring))  # a1*(a1+1)
    assert cs.certified_nonzero(ring.const(5))
    assert not cs.certified_nonzero(expr("a2", ring))
    assert not cs.certified_nonzero(ring.zero())


def test_proves_zero_function_scan():
    # a1^7 + 1 vanishes identically under a1 != 0 though its reduced form
    # is nonzero
    ring = ParamRing(1)
    cs = ConstraintStore(ring).with_nonzero(expr("a1", ring))
    assert cs.proves_zero(expr("a1^7+1", ring))
    assert not ConstraintStore(ring).proves_zero(expr("a1^7+1", ring))


def test_proves_zero_ignores_nonzeros_outside_the_scan():
    # a2 != 0 says nothing about a1, which may still be nonzero
    ring = ParamRing(2)
    cs = ConstraintStore(ring).with_nonzero(expr("a2", ring))
    assert not cs.proves_zero(expr("a1", ring))
    assert cs.with_nonzero(expr("a1", ring)).proves_zero(expr("a1^7+1", ring))


def test_proves_zero_sound_against_brute_force():
    # seeded small stores built by branching, whose nonzeros often mention
    # parameters that p does not: a proof must hold on every assignment in
    # GF(8)^t that meets all the constraints
    rng = random.Random(0x5C0E)
    proved = outside = 0
    for _ in range(300):
        t = rng.randint(1, 3)
        ring = ParamRing(t)
        cs = ConstraintStore(ring)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            idx = sorted(rng.sample(range(t), rng.randint(1, t)))
            c = _random_poly(rng, ring, idx, rng.randint(1, 2))
            is_zero = rng.random() < 0.3
            cs = cs.with_zero(c) if is_zero else cs.with_nonzero(c)
            constraints.append((c, is_zero))
        p_idx = sorted(rng.sample(range(t), rng.randint(1, t)))
        p = _random_poly(rng, ring, p_idx, rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p.mul(p).mul(p).mul(p).mul(p).mul(p).mul(p).add(ring.one())  # p^7 + 1
        outside += any(c.variables() - p.variables() for c, z in constraints if not z)
        truth = all(p.evaluate(a) == 0 for a in itertools.product(range(8), repeat=t)
                    if all((c.evaluate(a) == 0) == z for c, z in constraints))
        got = cs.proves_zero(p)
        assert truth or not got
        proved += got
    assert proved >= 30 and outside >= 50


def test_witness_deterministic():
    ring = ParamRing(3)
    cs = ConstraintStore(ring).with_nonzero(expr("a1+a2", ring))
    w1 = cs.witness()
    cs2 = ConstraintStore(ring).with_nonzero(expr("a1+a2", ring))
    assert w1 == cs2.witness()
    assert expr("a1+a2", ring).evaluate(w1) != 0


def test_sample_witnesses_respect_constraints():
    ring = ParamRing(2)
    cs = ConstraintStore(ring).with_nonzero(expr("a1", ring))
    cs = cs.with_zero(expr("a2+a1", ring))  # a2 := a1
    for w in cs.sample_witnesses(20, seed=5):
        assert w[0] != 0 and w[1] == w[0]


def _branched_store(rng, t):
    """A seeded store built by branching; zero branches on linear
    expressions become substitutions."""
    ring = ParamRing(t)
    cs = ConstraintStore(ring)
    for _ in range(rng.randint(1, 4)):
        idx = sorted(rng.sample(range(t), rng.randint(1, t)))
        c = cs.reduce(_random_poly(rng, ring, idx, rng.randint(1, 2)))
        if rng.random() < 0.4:
            c = c.add(ring.var(rng.randrange(t)))  # often linear: a substitution
        cs = cs.with_zero(c) if rng.random() < 0.5 else cs.with_nonzero(c)
    return cs


def _scalar_satisfied(cs, assignment):
    for i, rhs in cs.subs.items():
        assignment[i] = rhs.evaluate(assignment)
    return (all(e.evaluate(assignment) == 0 for e in cs.equalities)
            and all(c.evaluate(assignment) != 0 for c in cs.nonzeros.values()))


def test_store_decisions_match_brute_force():
    rng = random.Random(0x7E57)
    shapes = {"subs": 0, "vacuous": 0, "live": 0}
    for trial in range(300):
        t = rng.randint(1, 3)
        cs = _branched_store(rng, t)
        satisfiable = any(_scalar_satisfied(cs, list(a))
                          for a in itertools.product(range(8), repeat=t))
        assert cs.vacuous == (not satisfiable)
        # the first hit of the scalar scan over the constrained parameters,
        # least significant digit first, substitutions filled
        constrained = sorted(set().union(
            *(c.variables() for c in [*cs.nonzeros.values(), *cs.equalities])))
        expected = None
        for n in range(8 ** len(constrained)):
            a = [0] * t
            for j, i in enumerate(constrained):
                a[i] = (n >> (3 * j)) & 7
            if _scalar_satisfied(cs, a):
                expected = tuple(a)
                break
        assert cs.witness() == expected
        # sampling: the first hits among per-attempt below(8) draws
        count, seed = rng.randint(1, 5), trial
        draws = SplitMix64(seed)
        free = [i for i in range(t) if i not in cs.subs]
        samples = []
        for _ in range(max(64 * count, 4096)):
            a = [0] * t
            for i in free:
                a[i] = draws.below(8)
            if _scalar_satisfied(cs, a):
                samples.append(tuple(a))
                if len(samples) == count:
                    break
        assert cs.sample_witnesses(count, seed) == samples
        shapes["subs"] += bool(cs.subs)
        shapes["vacuous"] += not satisfiable
        shapes["live"] += satisfiable
    assert min(shapes.values()) >= 30, shapes


def test_store_above_the_scan_limit_stays_live(monkeypatch):
    ring = ParamRing(7)
    cs = ConstraintStore(ring)
    for i in range(7):
        cs = cs.with_nonzero(ring.var(i))

    def no_rng(seed):
        raise AssertionError("the witness search draws no random numbers")

    monkeypatch.setattr(params, "SplitMix64", no_rng)
    assert not cs.vacuous
    assert cs.witness() is None


def test_format_param_canonical():
    ring = ParamRing(2)
    assert format_param(expr("a1^3+a2", ring)) == "a1^3+a2"
    assert format_param(expr("a1*a2^2+1", ring)) == "a1*a2^2+1"
    assert format_param(ring.zero()) == "0"


def _random_poly(rng, ring, idx, nterms):
    p = ring.zero()
    for _ in range(nterms):
        term = ring.const(rng.randrange(1, 8))
        for i in idx:
            if rng.random() < 0.6:
                term = term.mul(ring.var_pow(i, rng.randrange(1, 8)))
        p = p.add(term)
    return p


def test_vanishing_scan_matches_brute_force():
    rng = random.Random(20240611)
    outcomes = []
    for _ in range(200):
        k = rng.choices((1, 2, 3, 4, 5), weights=(4, 4, 4, 3, 2))[0]
        t = rng.randint(k, 6)
        idx = sorted(rng.sample(range(t), k))
        ring = ParamRing(t)
        equalities = [_random_poly(rng, ring, idx, rng.randint(1, 3))
                      for _ in range(rng.randint(0, 2))]
        nonzeros = [_random_poly(rng, ring, idx, rng.randint(1, 3))
                    for _ in range(rng.randint(0, 2))]
        cs = ConstraintStore(ring,
                             nonzeros={c.key(): c for c in nonzeros if not c.is_zero()},
                             equalities=[e for e in equalities if not e.is_zero()])
        # mix in polynomials that vanish on part or all of the store
        shape = rng.randrange(3)
        p = _random_poly(rng, ring, idx, rng.randint(1, 4))
        if shape == 1 and cs.equalities:
            p = p.mul(rng.choice(cs.equalities))
        elif shape == 2 and cs.nonzeros:
            c = rng.choice(list(cs.nonzeros.values()))
            p = ring.one()
            for _ in range(7):
                p = p.mul(c)
            p = p.add(ring.one())  # c^7 + 1 is zero wherever c is not
        involved = p.variables()
        for q in cs.equalities + list(cs.nonzeros.values()):
            involved |= q.variables()
        involved = sorted(involved) or idx
        expected = True
        for values in itertools.product(range(8), repeat=len(involved)):
            a = [0] * t
            for i, x in zip(involved, values):
                a[i] = x
            if any(e.evaluate(a) for e in cs.equalities):
                continue
            if not all(c.evaluate(a) for c in cs.nonzeros.values()):
                continue
            if p.evaluate(a):
                expected = False
                break
        hit = cs._first_satisfying(involved, [*cs.nonzeros.values(), p])
        assert (hit is None) == expected
        outcomes.append(expected)
    assert 20 <= sum(outcomes) <= 180
    # columns follow the scan order: the first listed parameter is the
    # least significant base-8 digit
    grid = assignment_grid(4, [1, 3])
    assert [tuple(grid[:, n]) for n in (0, 1, 8, 63)] == [
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 7, 0, 7)]
