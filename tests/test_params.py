import itertools
import random

from kleincode import params
from kleincode.params import (
    ConstraintStore,
    ParamRing,
    assignment_grid,
    evaluate_grid,
    format_param,
)
from kleincode.poly import parse_poly
from kleincode.rng import SplitMix64


def expr(text, ring):
    p = parse_poly(text, ring)
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


def substitute(p, subs):
    # one substitution pass, as a store holding subs applies it
    return ConstraintStore(p.ring, subs).reduce(p)


def test_substitution():
    ring = ParamRing(3)
    p = expr("a1^2*a2+a3", ring)
    q = substitute(p, {0: ring.const(1)})
    assert q == expr("a2+a3", ring)
    r = substitute(p, {2: expr("a1", ring)})
    assert r == expr("a1^2*a2+a1", ring)


def test_evaluate_matches_substitution():
    ring = ParamRing(2)
    p = expr("a1^3+a1*a2+1", ring)
    for x in range(8):
        for y in range(8):
            direct = p.evaluate((x, y))
            via = substitute(p, {0: ring.const(x), 1: ring.const(y)}).as_const()
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
    cs = ConstraintStore(ring).branch(expr("a1", ring))[1]
    child = cs.branch(expr("a1", ring))[0]
    assert child.vacuous


def test_certified_products():
    ring = ParamRing(2)
    cs = ConstraintStore(ring)
    cs = cs.branch(expr("a1", ring))[1].branch(expr("a1+1", ring))[1]
    assert cs.certified_nonzero(expr("a1^2+a1", ring))  # a1*(a1+1)
    assert cs.certified_nonzero(ring.const(5))
    assert not cs.certified_nonzero(expr("a2", ring))
    assert not cs.certified_nonzero(ring.zero)


def test_proves_zero_function_scan():
    # a1^7 + 1 vanishes identically under a1 != 0 though its reduced form
    # is nonzero
    ring = ParamRing(1)
    cs = ConstraintStore(ring).branch(expr("a1", ring))[1]
    assert cs.proves_zero(expr("a1^7+1", ring))
    assert not ConstraintStore(ring).proves_zero(expr("a1^7+1", ring))


def test_proves_zero_ignores_nonzeros_outside_the_scan():
    # a2 != 0 says nothing about a1, which may still be nonzero
    ring = ParamRing(2)
    cs = ConstraintStore(ring).branch(expr("a2", ring))[1]
    assert not cs.proves_zero(expr("a1", ring))
    assert cs.branch(expr("a1", ring))[1].proves_zero(expr("a1^7+1", ring))


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
            cs = cs.branch(c)[0] if is_zero else cs.branch(c)[1]
            constraints.append((c, is_zero))
        p_idx = sorted(rng.sample(range(t), rng.randint(1, t)))
        p = _random_poly(rng, ring, p_idx, rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p.mul(p).mul(p).mul(p).mul(p).mul(p).mul(p).add(ring.one)  # p^7 + 1
        outside += any(c.variables() - p.variables() for c, z in constraints if not z)
        truth = all(p.evaluate(a) == 0 for a in itertools.product(range(8), repeat=t)
                    if all((c.evaluate(a) == 0) == z for c, z in constraints))
        got = cs.proves_zero(p)
        assert truth or not got
        proved += got
    assert proved >= 30 and outside >= 50


def test_witness_deterministic():
    ring = ParamRing(3)
    cs = ConstraintStore(ring).branch(expr("a1+a2", ring))[1]
    w1 = cs.witness()
    cs2 = ConstraintStore(ring).branch(expr("a1+a2", ring))[1]
    assert w1 == cs2.witness()
    assert expr("a1+a2", ring).evaluate(w1) != 0


def test_sample_witnesses_respect_constraints():
    ring = ParamRing(2)
    cs = ConstraintStore(ring).branch(expr("a1", ring))[1]
    cs = cs.branch(expr("a2+a1", ring))[0]  # a2 := a1
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
        cs = cs.branch(c)[0] if rng.random() < 0.5 else cs.branch(c)[1]
    return cs


def _scalar_satisfied(cs, assignment):
    for i, rhs in cs.subs.items():
        assignment[i] = rhs.evaluate(assignment)
    return (all(e.evaluate(assignment) == 0 for e in cs.equalities)
            and all(c.evaluate(assignment) != 0 for c in cs.nonzeros.values()))


def _scalar_bytes(seed):
    """Draws below 8 as fill_below makes them: the bytes of successive
    next_u64() outputs, least significant first, each masked to 7."""
    g = SplitMix64(seed)
    while True:
        yield from (b & 7 for b in g.next_u64().to_bytes(8, "little"))


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
        # sampling: the first hits among the attempts, each free parameter
        # one byte of the scalar stream
        count, seed = rng.randint(1, 5), trial
        draws = _scalar_bytes(seed)
        free = [i for i in range(t) if i not in cs.subs]
        samples = []
        for _ in range(max(64 * count, 4096)):
            a = [0] * t
            for i in free:
                a[i] = next(draws)
            if _scalar_satisfied(cs, a):
                samples.append(tuple(a))
                if len(samples) == count:
                    break
        assert cs.sample_witnesses(count, seed) == samples
        shapes["subs"] += bool(cs.subs)
        shapes["vacuous"] += not satisfiable
        shapes["live"] += satisfiable
    assert min(shapes.values()) >= 30, shapes


def test_store_with_only_substitutions_needs_no_scan(monkeypatch):
    ring = ParamRing(3)
    cs = ConstraintStore(ring).branch(expr("a2+a1^2+5", ring))[0]
    cs = cs.branch(expr("a3+a1+3", ring))[0]
    assert cs.subs and not cs.nonzeros and not cs.equalities

    def no_scan(self, grid, nonzeros):
        raise AssertionError("a store without constraints is never scanned")

    monkeypatch.setattr(ConstraintStore, "_satisfied", no_scan)
    # a3 = 0 is free; a1 = a3 + 3 and a2 = a3^2 follow
    assert cs.witness() == (3, 0, 0)
    assert cs.vacuous is False
    for text in ("a2+a1^2+5", "a3+a1+3"):
        assert expr(text, ring).evaluate(cs.witness()) == 0


def test_store_above_the_scan_limit_stays_live(monkeypatch):
    ring = ParamRing(7)
    cs = ConstraintStore(ring)
    for i in range(7):
        cs = cs.branch(ring.var(i))[1]

    def no_rng(seed):
        raise AssertionError("the witness search draws no random numbers")

    monkeypatch.setattr(params, "SplitMix64", no_rng)
    assert not cs.vacuous
    assert cs.witness() is None


def test_contradiction_decides_the_store_without_a_scan(monkeypatch):
    # seven nonzero parameters put each store above the scan limit; 1 = 0
    # comes from a constant branch, from a nonzero that a substitution
    # makes 0, and from an equality that a substitution makes constant
    ring = ParamRing(8)
    cs = ConstraintStore(ring)
    for i in range(1, 8):
        cs = cs.branch(ring.var(i))[1]
    a1_plus_1 = expr("a1+1", ring)
    stores = [
        cs.branch(ring.one)[0],
        cs.branch(a1_plus_1)[1].branch(a1_plus_1)[0],
        cs.branch(expr("a1^3+a1+1", ring))[0].branch(a1_plus_1)[0],
    ]
    assert [[format_param(e) for e in s.equalities] for s in stores] == [["1"], ["1"], ["1"]]

    def no_scan(*args):
        raise AssertionError("a store that holds 1 = 0 is never scanned")

    monkeypatch.setattr(ConstraintStore, "_first_satisfying", no_scan)
    monkeypatch.setattr(ConstraintStore, "_satisfied", no_scan)
    for store in stores:
        assert store.vacuous and store.witness() is None
        assert store.proves_zero(expr("a2+a3^2", ring))
    assert not cs.vacuous and cs.witness() is None  # above the limit, live


def test_store_questions_scan_what_their_rules_name(monkeypatch):
    # what each question hands the scan: the parameters scanned, the
    # nonzeros that mask it (the last one p itself) and the cost charged
    seen = []
    affordable, first = params._affordable, ConstraintStore._first_satisfying
    monkeypatch.setattr(params, "_affordable", lambda involved, size: (
        seen.append(("cost", sorted(involved), size)) or affordable(involved, size)))
    monkeypatch.setattr(ConstraintStore, "_first_satisfying", lambda self, idx, nonzeros: (
        seen.append(("scan", list(idx), [format_param(c) for c in nonzeros]))
        or first(self, idx, nonzeros)))

    def asked(question):
        seen.clear()
        question()
        question()  # memoised: the second ask scans nothing
        return seen[:]

    ring = ParamRing(4)
    cs = ConstraintStore(ring).branch(expr("a1", ring))[1].branch(expr("a2*a3", ring))[1]
    p = expr("a1^3+a1", ring)
    # p without residual equalities: p's parameters, the nonzeros inside
    # them, p's terms alone
    assert asked(lambda: cs.proves_zero(p)) == [
        ("cost", [0], 2), ("scan", [0], ["a1", "a1^3+a1"])]
    # the store alone: every constrained parameter, 1 + the constraints' terms
    assert asked(cs.witness) == [
        ("cost", [0, 1, 2], 3), ("scan", [0, 1, 2], ["a1", "a2*a3"])]
    # p with a residual equality: every parameter of p, the equalities and
    # the nonzeros, and all their terms
    eq = cs.branch(expr("a4^3+a4+1", ring))[0]
    assert [format_param(e) for e in eq.equalities] == ["a4^3+a4+1"]
    assert asked(lambda: eq.proves_zero(p)) == [
        ("cost", [0, 1, 2, 3], 7), ("scan", [0, 1, 2, 3], ["a1", "a2*a3", "a1^3+a1"])]
    assert asked(lambda: eq.vacuous) == [
        ("cost", [0, 1, 2, 3], 6), ("scan", [0, 1, 2, 3], ["a1", "a2*a3"])]
    # a refused scan is not run; a zero p and a store without constraints
    # need no scan at all
    big = ConstraintStore(ParamRing(7))
    for i in range(7):
        big = big.branch(big.ring.var(i))[1]
    assert asked(big.witness) == [("cost", list(range(7)), 8)]
    assert asked(lambda: cs.proves_zero(p.add(p))) == []
    assert asked(ConstraintStore(ring, {0: ring.one}).witness) == []


def test_format_param_canonical():
    ring = ParamRing(2)
    assert format_param(expr("a1^3+a2", ring)) == "a1^3+a2"
    assert format_param(expr("a1*a2^2+1", ring)) == "a1*a2^2+1"
    assert format_param(ring.zero) == "0"


def _random_poly(rng, ring, idx, nterms):
    p = ring.zero
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
            p = ring.one
            for _ in range(7):
                p = p.mul(c)
            p = p.add(ring.one)  # c^7 + 1 is zero wherever c is not
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


def _fixpoint_reduce(cs, p):
    # substitution repeated until nothing changes: the reference for reduce
    for _ in range(cs.ring.t + 1):
        q = substitute(p, cs.subs)
        if q == p:
            return q
        p = q
    raise AssertionError("substitutions did not reach a fixpoint")


def test_reduce_is_one_substitution_on_branched_stores():
    # seeded chains of branches whose expressions are mostly linear in some
    # parameter, so substitutions pile up and rewrite each other: every
    # right-hand side, nonzero and equality stays free of substituted
    # parameters, and one substitute() pass is the fixpoint
    rng = random.Random(0x5EB5)
    substituted = 0
    for _ in range(150):
        t = rng.randint(2, 5)
        ring = ParamRing(t)
        cs = ConstraintStore(ring)
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(t)
            others = [j for j in range(t) if j != i]
            rest = _random_poly(rng, ring, sorted(rng.sample(others, rng.randint(0, t - 1))),
                                rng.randint(1, 2))
            c = ring.var(i).scale(rng.randrange(1, 8)).add(rest)
            if rng.random() < 0.2:
                c = _random_poly(rng, ring, range(t), rng.randint(1, 2))
            cs = cs.branch(c)[0] if rng.random() < 0.7 else cs.branch(c)[1]
            done = set(cs.subs)
            for q in [*cs.subs.values(), *cs.nonzeros.values(), *cs.equalities]:
                assert not q.variables() & done
            p = _random_poly(rng, ring, range(t), rng.randint(1, 3))
            r = cs.reduce(p)
            assert r == _fixpoint_reduce(cs, p)
            assert cs.reduce(r) == r
        substituted += len(cs.subs)
    assert substituted >= 150


def _from_tuples(ring, terms):
    """A ParamPoly built through the public constructors from
    [(exponent tuple, coefficient)], and its pointwise reference value."""
    p = ring.zero
    for exps, c in terms:
        term = ring.const(c)
        for i, e in enumerate(exps):
            term = term.mul(ring.var_pow(i, e))
        p = p.add(term)
    spec = ring.spec

    def value(point):
        acc = 0
        for exps, c in terms:
            v = c
            for x, e in zip(point, exps):
                v = spec.mul(v, spec.pow(x, e))
            acc ^= v
        return acc
    return p, value


def _random_terms(rng, t, top=7):
    used = rng.sample(range(t), min(t, rng.randint(1, 3)))
    return [(tuple(rng.randint(0, top) if i in used else 0 for i in range(t)),
             rng.randrange(1, 8)) for _ in range(rng.randint(1, 4))]


def _check_arithmetic(rng, t, points, trials):
    ring = ParamRing(t)
    spec = ring.spec
    divided = 0
    for _ in range(trials):
        p, p_ref = _from_tuples(ring, _random_terms(rng, t))
        q, q_ref = _from_tuples(ring, _random_terms(rng, t))
        # exponents up to 3 keep g * f unfolded, so f divides it exactly
        g, _ = _from_tuples(ring, _random_terms(rng, t, top=3))
        f, _ = _from_tuples(ring, _random_terms(rng, t, top=3))
        c, e = rng.randrange(8), rng.randrange(16)
        subs = {i: _from_tuples(ring, _random_terms(rng, t))[0]
                for i in rng.sample(range(t), rng.randint(1, min(t, 3)))}
        results = {
            "add": p.add(q), "mul": p.mul(q), "scale": p.scale(c),
            "pow": params._param_pow(p, e), "subs": substitute(p, subs)}
        quotient = params._exact_divide(p, q)
        if not f.is_zero():
            assert params._exact_divide(g.mul(f), f) == g
        divided += quotient is not None
        for x in points:
            px, qx = p_ref(x), q_ref(x)
            assert p.evaluate(x) == px and q.evaluate(x) == qx
            assert results["add"].evaluate(x) == px ^ qx
            assert results["mul"].evaluate(x) == spec.mul(px, qx)
            assert results["scale"].evaluate(x) == spec.mul(c, px)
            assert results["pow"].evaluate(x) == spec.pow(px, e)
            moved = [subs[i].evaluate(x) if i in subs else v for i, v in enumerate(x)]
            assert results["subs"].evaluate(x) == p.evaluate(moved)
            if quotient is not None:
                assert spec.mul(quotient.evaluate(x), qx) == px
    return divided


def test_packed_arithmetic_matches_pointwise_evaluation():
    # every point for t <= 3; seeded points of X^6*Y^2's ring, t = 21
    rng = random.Random(0xBADC0DE)
    divided = 0
    for t in (1, 2, 3):
        points = list(itertools.product(range(8), repeat=t))
        divided += _check_arithmetic(rng, t, points, 40 if t < 3 else 15)
    points = [tuple(rng.randrange(8) for _ in range(21)) for _ in range(24)]
    divided += _check_arithmetic(rng, 21, points, 60)
    assert divided >= 5  # some random pairs divide outright


def test_packed_folds_in_the_top_and_bottom_nibbles():
    ring = ParamRing(21)
    a1, a21 = ring.var_pow(0, 7), ring.var_pow(20, 7)
    assert a1.mul(a1) == a1 and a21.mul(a21) == a21  # a^14 = a^7
    both = ring.var_pow(0, 4).mul(ring.var_pow(20, 5))
    product = both.mul(ring.var_pow(0, 6).mul(ring.var_pow(20, 3)))
    assert format_param(product) == "a1^3*a21"  # a1^10 = a1^3, a21^8 = a21
    assert params._param_pow(ring.var(20), 15) == ring.var(20)


def test_exact_divide_refuses_a_borrow_in_a_lower_nibble():
    # a1*a2 is the larger key, but a2^2 does not divide it
    ring = ParamRing(2)
    assert params._exact_divide(expr("a1*a2", ring), expr("a2^2", ring)) is None
    assert params._exact_divide(expr("a1*a2^2", ring), expr("a2^2", ring)) == ring.var(0)
    # a quotient term times the divisor may not fold: a1^4 * a1^4 = a1
    assert params._exact_divide(expr("a1", ring), expr("a1^4", ring)) is None
