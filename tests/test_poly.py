import pytest

from kleincode.klein import class_support
from kleincode.params import ParamRing
from kleincode.poly import (
    EXPONENT_CAP,
    FULL,
    HEAD,
    ArityMismatch,
    ExponentCapExceeded,
    MonomialOrder,
    ParametricCoefficients,
    ParseError,
    Polynomial,
    ZeroPolynomial,
    divide,
    format_poly,
    parse_poly,
)
from kleincode.rng import SplitMix64


def P(text, dom):
    return parse_poly(text, dom)


# ---------------------------------------------------------------------------
# ordering

def test_order_examples(order):
    assert order.compare((1, 0), (0, 1)) < 0        # X < Y
    assert order.compare((3, 0), (0, 2)) < 0        # X^3 < Y^2 (tie on 6)
    assert order.compare((0, 0), (1, 0)) < 0        # 1 minimal


def test_order_axioms_exhaustive(order):
    monos = [(a, b) for a in range(9) for b in range(9)]
    for u in monos:
        for v in monos:
            c = order.compare(u, v)
            assert (c == 0) == (u == v)
            assert c == -order.compare(v, u)
            uw = (u[0] + 1, u[1] + 2)
            vw = (v[0] + 1, v[1] + 2)
            assert c == order.compare(uw, vw)
    for u in monos:
        if u != (0, 0):
            assert order.compare((0, 0), u) < 0


def test_arity_mismatch(order):
    with pytest.raises(ArityMismatch):
        order.compare((1, 0), (1, 0, 0))


def test_order_key_packs_weight_then_tiebreak():
    # the int key orders like (weighted degree, Y exponent), adds under
    # monomial multiplication and decodes back to the monomial; the Klein
    # order is the only one
    with pytest.raises(TypeError):
        MonomialOrder((3, 2), 0)
    order = MonomialOrder()
    monos = [(a, b) for a in range(12) for b in range(12)]
    assert sorted(monos, key=order.key) == sorted(
        monos, key=lambda m: (2 * m[0] + 3 * m[1], m[1]))
    for u in monos:
        assert order.decode(order.key(u)) == u
        assert order.weight(u) == 2 * u[0] + 3 * u[1]
        v = (u[1], u[0])
        assert order.key((u[0] + v[0], u[1] + v[1])) == order.key(u) + order.key(v)


def test_order_key_round_trip_at_exponent_cap():
    order = MonomialOrder()
    cap = EXPONENT_CAP
    corners = [(a, b) for a in (0, 1, cap - 1, cap) for b in (0, 1, cap - 1, cap)]
    for u in corners:
        assert order.decode(order.key(u)) == u
        assert order.weight(u) == 2 * u[0] + 3 * u[1]
    assert sorted(corners, key=order.key) == sorted(
        corners, key=lambda m: (2 * m[0] + 3 * m[1], m[1]))


def test_non_bivariate_input_refused(dom):
    # constructing a non-bivariate Polynomial is refused
    for arity in (1, 3):
        with pytest.raises(ArityMismatch):
            Polynomial(dom, arity, {(1,) * arity: 1})


# ---------------------------------------------------------------------------
# arithmetic

def test_poly_arith_examples(dom):
    yx = P("Y+X", dom)
    assert yx.add(yx).is_zero()
    assert P("Y", dom).mul(P("Y^2", dom)) == P("Y^3", dom)


def test_leading_terms(dom):
    k = P("Y^3+X^3*Y+X", dom)
    assert k.leading_term() == ((0, 3), 1)
    assert P("X^7*Y+Y", dom).leading_term() == ((7, 1), 1)
    assert P("5", dom).leading_term() == ((0, 0), 5)
    with pytest.raises(ZeroPolynomial):
        Polynomial(dom, 2).leading_term()


def test_exponent_cap(dom):
    big = Polynomial(dom, 2, {(1 << 20, 0): 1})
    with pytest.raises(ExponentCapExceeded):
        big.mul(big)


def test_parse_refuses_exponent_above_cap(dom):
    assert parse_poly("X^1048576", dom).terms == {(EXPONENT_CAP, 0): 1}
    for text in ("Y^1048577", "X^1048576*X", "Y*X^99999999"):
        with pytest.raises(ExponentCapExceeded, match="^exponent cap 1048576 exceeded$"):
            parse_poly(text, dom)


# ---------------------------------------------------------------------------
# division

def test_divide_single_step(dom):
    k = P("Y^3+X^3*Y+X", dom)
    quots, r = divide(P("Y^3", dom), [k], FULL)
    assert r == P("X^3*Y+X", dom)
    assert quots[0].mul(k).add(r) == P("Y^3", dom)


def test_divide_empty_divisors(dom):
    s = P("Y^2+X", dom)
    quots, r = divide(s, [], HEAD)
    assert quots == [] and r == s


def test_divide_parametric_chain():
    # Y^2 * (Y + a1*X + a2) reduced by the curve (head) then by F (full)
    # terminates with the displayed quartic remainder.
    ring = ParamRing(2)
    F = parse_poly("Y+a1*X+a2", ring)
    K = parse_poly("Y^3+X^3*Y+X", ring)
    s = F.mul_mono((0, 2))
    _, r1 = divide(s, [K], HEAD)
    assert r1 == parse_poly("X^3*Y+a1*X*Y^2+a2*Y^2+X", ring)
    quots, r2 = divide(r1, [F], FULL)
    expected = parse_poly(
        "a1*X^4+(a1^3+a2)*X^3+a1^2*a2*X^2+(a1*a2^2+1)*X+a2^3", ring)
    assert r2 == expected
    assert quots[0].mul(F).add(r2) == r1


def _random_poly(rng, dom, max_exp=6, max_terms=6):
    terms = {}
    for _ in range(1 + rng.below(max_terms)):
        c = rng.below(8)
        if c:
            terms[(rng.below(max_exp + 1), rng.below(max_exp + 1))] = c
    return Polynomial(dom, 2, terms)


def test_division_identity_random(dom):
    rng = SplitMix64(0xD1D1)
    for i in range(10_000):
        s = _random_poly(rng, dom)
        divisors = [p for p in (_random_poly(rng, dom), _random_poly(rng, dom))
                    if not p.is_zero()]
        if not divisors:
            continue
        for mode in (FULL, HEAD):
            quots, r = divide(s, divisors, mode)
            acc = r
            for q, d in zip(quots, divisors):
                acc = acc.add(q.mul(d))
            assert acc == s
            if r.is_zero():
                continue
            heads = [d.leading_term()[0] for d in divisors]
            if mode == FULL:
                for m in r.terms:
                    assert not any(h[0] <= m[0] and h[1] <= m[1] for h in heads)
            else:
                lm = r.leading_term()[0]
                assert not any(h[0] <= lm[0] and h[1] <= lm[1] for h in heads)


def _random_param_poly(rng, ring, max_exp=5, max_terms=5):
    """Random terms whose coefficients are sums of scaled parameter powers."""
    terms = {}
    for _ in range(1 + rng.below(max_terms)):
        c = ring.zero
        for _ in range(1 + rng.below(3)):
            power = ring.var_pow(rng.below(ring.t), rng.below(8))
            c = c.add(power.mul(ring.const(rng.below(8))))
        terms[(rng.below(max_exp + 1), rng.below(max_exp + 1))] = c
    return Polynomial(ring, 2, terms)


def test_parametric_division_identity_several_divisors():
    # divide assigns each quotient term: the heads one divisor cancels fall
    # strictly, so its quotient monomials never repeat, and a repeat would
    # drop a term and break the identity
    ring = ParamRing(3)
    rng = SplitMix64(0xD1D2)
    for _ in range(300):
        s = _random_param_poly(rng, ring)
        divisors = []
        for _ in range(2 + rng.below(2)):
            head = (rng.below(4), rng.below(4))
            tail = _random_param_poly(rng, ring, max_exp=3, max_terms=4).terms
            terms = {m: c for m, c in tail.items()
                     if MonomialOrder.key(m) < MonomialOrder.key(head)}
            terms[head] = ring.const(1 + rng.below(7))  # a constant, not always 1
            divisors.append(Polynomial(ring, 2, terms))
        heads = [d.leading_term()[0] for d in divisors]
        for mode in (FULL, HEAD):
            quots, r = divide(s, divisors, mode)
            acc = r
            for q, d in zip(quots, divisors):
                acc = acc.add(q.mul(d))
            assert acc == s
            reducible = [m for m in r.terms
                         if any(h[0] <= m[0] and h[1] <= m[1] for h in heads)]
            if mode == FULL:
                assert reducible == []
            elif not r.is_zero():
                assert r.leading_term()[0] not in reducible


def test_head_full_consistency_spot(dom):
    # when the head-mode remainder is already fully irreducible the two
    # modes must agree
    rng = SplitMix64(0xC0)
    hits = 0
    for _ in range(2000):
        s = _random_poly(rng, dom, max_exp=4, max_terms=4)
        d = _random_poly(rng, dom, max_exp=3, max_terms=3)
        if d.is_zero():
            continue
        _, rh = divide(s, [d], HEAD)
        h = d.leading_term()[0]
        if all(not (h[0] <= m[0] and h[1] <= m[1]) for m in rh.terms):
            _, rf = divide(s, [d], FULL)
            assert rf == rh
            hits += 1
    assert hits > 100


def test_divisor_list_order_preference(dom):
    # the first divisor whose head divides wins each step
    d1 = P("Y+X", dom)
    d2 = P("Y", dom)
    s = P("Y", dom)
    q12, _ = divide(s, [d1, d2], FULL)
    q21, _ = divide(s, [d2, d1], FULL)
    assert not q12[0].is_zero() and q12[1].is_zero()
    assert not q21[0].is_zero() and q21[1].is_zero()


# ---------------------------------------------------------------------------
# evaluation

def test_eval_examples(dom, spec):
    k = P("Y^3+X^3*Y+X", dom)
    assert k.eval((0, 0)) == 0
    x7p1 = P("X^7+1", dom)
    assert x7p1.eval((0, 0)) == 1
    for x in range(1, 8):
        for y in range(8):
            assert x7p1.eval((x, y)) == 0


def test_eval_requires_concrete():
    ring = ParamRing(1)
    p = parse_poly("a1*X", ring)
    with pytest.raises(ParametricCoefficients):
        p.eval((1, 1))


def test_eval_is_homomorphism(dom, spec):
    rng = SplitMix64(0xE0)
    points = [(x, y) for x in range(8) for y in range(8)]
    for _ in range(50):
        p = _random_poly(rng, dom)
        q = _random_poly(rng, dom)
        for pt in points:
            assert p.mul(q).eval(pt) == spec.mul(p.eval(pt), q.eval(pt))
            assert p.add(q).eval(pt) == (p.eval(pt) ^ q.eval(pt))


# ---------------------------------------------------------------------------
# text grammar

def test_parse_print_round_trip(dom):
    cases = [
        "Y^3+X^3*Y+X",
        "X^8+X",
        "5*X^2*Y",
        "X^7*Y+Y",
        "7*X^6*Y^2+3*X+1",
        "0",
        "1",
    ]
    for text in cases:
        p = parse_poly(text, dom)
        assert format_poly(p) == text
        assert parse_poly(format_poly(p), dom) == p


def test_parse_whitespace_insensitive(dom):
    assert parse_poly(" Y^3 + X^3 * Y + X ", dom) == parse_poly("Y^3+X^3*Y+X", dom)


def test_parse_parametric_round_trip():
    ring = ParamRing(3)
    cases = [
        "a1*X^4+(a1^3+a2)*X^3+a1^2*a2*X^2+(a1*a2^2+1)*X+a2^3",
        "(a1+1)*X^3*Y+a2*X*Y^2",
        "a3",
    ]
    for text in cases:
        p = parse_poly(text, ring)
        assert format_poly(p) == text
        assert parse_poly(format_poly(p), ring) == p


def test_parse_parenthesized_coefficient_is_a_sum_without_x_or_y():
    ring = ParamRing(2)
    assert parse_poly("((a1+1))*X", ring) == parse_poly("(a1+1)*X", ring)
    assert parse_poly("(a1*(a2+1)+3)*Y", ring) == parse_poly("(a1*a2+a1+3)*Y", ring)
    for bad in ["(a1+X)*Y", "(Y)", "((a1+X^2))", "(a1", "()*X"]:
        with pytest.raises(ParseError):
            parse_poly(bad, ring)


def test_random_print_parse_round_trip(dom):
    rng = SplitMix64(0x99)
    for _ in range(500):
        p = _random_poly(rng, dom)
        assert parse_poly(format_poly(p), dom) == p


def test_parse_errors(dom):
    for bad in ["X^", "++", "a1*X", "5*", "(a1+1)*X", "Z"]:
        with pytest.raises(ParseError):
            parse_poly(bad, dom)


def test_parse_requires_star_between_factors(dom):
    for bad in ["XY", "5X"]:
        with pytest.raises(ParseError, match="expected '\\*'"):
            parse_poly(bad, dom)


def test_parse_parameters_run_to_a21():
    # X^6*Y^2, the largest class, has the most parameters
    ring = ParamRing(len(class_support((6, 2))))
    assert parse_poly("a21*X", ring) == Polynomial(ring, 2, {(1, 0): ring.var(20)})
    with pytest.raises(ParseError, match="a1..a21"):
        parse_poly("a22*X", ring)


def test_parse_long_digit_strings_refused_before_int(dom):
    # int() refuses more than 4300 digits with a message of its own
    with pytest.raises(ParseError, match=r"coefficient 999999999999\.\.\. outside GF\(8\)"):
        parse_poly("9" * 5000 + "*X", dom)
    ring = ParamRing(21)
    with pytest.raises(ParseError, match=r"parameter a11111111111\.\.\. outside a1\.\.a21"):
        parse_poly("a" + "1" * 5000, ring)
    assert parse_poly("0005*X", dom) == parse_poly("5*X", dom)
    assert parse_poly("a021", ring) == parse_poly("a21", ring)


def test_parse_zero_padded_numbers_of_any_length(dom):
    # leading zeros are aside: int() reads the digits without them, so
    # 5000 of them stay under its 4300-digit limit
    zeros = "0" * 5000
    assert parse_poly(f"X^{zeros}3*Y^{zeros}1", dom) == parse_poly("X^3*Y", dom)
    assert parse_poly(f"X^{zeros}", dom) == parse_poly("1", dom)
    assert parse_poly(f"{zeros}5*X+{zeros}", dom) == parse_poly("5*X", dom)
    ring = ParamRing(21)
    assert parse_poly(f"a{zeros}21^{zeros}2*X", ring) == parse_poly("a21^2*X", ring)
    assert parse_poly(f"({zeros}1+a{zeros}1)*Y", ring) == parse_poly("(1+a1)*Y", ring)
    with pytest.raises(ParseError, match="outside a1..a21"):
        parse_poly(f"a{zeros}", ring)
    with pytest.raises(ExponentCapExceeded):
        parse_poly(f"X^{zeros}1048577", dom)
