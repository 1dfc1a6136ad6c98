import time

import pytest

from kleincode import casebound, groebner, klein
from kleincode.codes import weight_via_footprint
from kleincode.groebner import (
    InfiniteFootprint,
    PlaneTooWide,
    buchberger,
    footprint,
    normal_form,
    order_domain_check,
    s_polynomial,
)
from kleincode.codes import enumerate_variety
from kleincode.poly import (
    FULL,
    ArityMismatch,
    MonomialOrder,
    Polynomial,
    divide,
    mono_divides,
    parse_poly,
)
from kleincode.params import ParamRing
from kleincode.rng import SplitMix64

EXPECTED_FOOTPRINT = {(a, b) for a in range(7) for b in range(3)} | {(7, 0)}

# weight grid: rows b = 2, 1, 0
EXPECTED_WEIGHTS = {
    2: [6, 8, 10, 12, 14, 16, 18],
    1: [3, 5, 7, 9, 11, 13, 15],
    0: [0, 2, 4, 6, 8, 10, 12, 14],
}


def test_s_polynomial_self_cancel(dom):
    k = parse_poly("Y^3+X^3*Y+X", dom)
    assert s_polynomial(k, k).is_zero()


def test_s_polynomial_of_monomials(dom):
    u = parse_poly("X^2*Y", dom)
    v = parse_poly("X*Y^2", dom)
    assert s_polynomial(u, v).is_zero()


def test_s_polynomial_reduces_to_zero(dom, gb):
    s = s_polynomial(parse_poly("Y^3+X^3*Y+X", dom), parse_poly("X^8+X", dom))
    _, r = divide(s, list(gb), FULL)
    assert r.is_zero()


def test_buchberger_reproduces_basis(dom, order):
    gens = [parse_poly(t, dom) for t in ("Y^3+X^3*Y+X", "X^8+X", "Y^8+Y")]
    gb = buchberger(gens, order)
    expected = [parse_poly(t, dom) for t in ("Y^3+X^3*Y+X", "X^8+X", "X^7*Y+Y")]
    assert list(gb) == expected


def test_buchberger_monomial_ideal(dom):
    gb = buchberger([parse_poly("X", dom), parse_poly("Y", dom)])
    assert sorted(g.leading_term()[0] for g in gb) == [(0, 1), (1, 0)]


def test_buchberger_single_generator(dom):
    g = parse_poly("X^2+X", dom)
    gb = buchberger([g])
    assert list(gb) == [g]


def test_normal_form_examples(dom, gb):
    assert normal_form(parse_poly("Y^3+X^3*Y+X", dom), gb).is_zero()
    assert normal_form(parse_poly("Y^3", dom), gb) == parse_poly("X^3*Y+X", dom)
    assert normal_form(parse_poly("X^8", dom), gb) == parse_poly("X", dom)


def test_normal_form_linear_idempotent(dom, gb):
    rng = SplitMix64(0x9F)
    for _ in range(200):
        terms_p = {(rng.below(9), rng.below(9)): rng.below(8) for _ in range(4)}
        terms_q = {(rng.below(9), rng.below(9)): rng.below(8) for _ in range(4)}
        p = Polynomial(dom, 2, terms_p)
        q = Polynomial(dom, 2, terms_q)
        np_, nq = normal_form(p, gb), normal_form(q, gb)
        assert normal_form(np_, gb) == np_
        assert normal_form(p.add(q), gb) == np_.add(nq)


def test_footprint_klein(gb, fp, order):
    assert set(fp) == EXPECTED_FOOTPRINT
    assert len(fp) == 22
    for b, expected in EXPECTED_WEIGHTS.items():
        row = sorted(order.weight(m) for m in fp if m[1] == b)
        assert row == expected


def test_footprint_closed_downward(fp):
    for (a, b) in fp:
        for da in range(a + 1):
            for db in range(b + 1):
                assert (da, db) in fp


def test_footprint_origin_ideal(dom):
    gb = buchberger([parse_poly("X", dom), parse_poly("Y", dom)])
    assert list(footprint(gb)) == [(0, 0)]


def test_footprint_infinite(dom):
    gb = buchberger([parse_poly("X^2+X", dom)])
    with pytest.raises(InfiniteFootprint):
        footprint(gb)


def test_basis_certificate_reverified(gb):
    gens = list(gb)
    for i, f in enumerate(gens):
        for g in gens[:i]:
            s = s_polynomial(f, g)
            if s.is_zero():
                continue
            _, r = divide(s, gens, FULL)
            assert r.is_zero()


def test_footprint_counts_variety_points(dom, spec):
    # 100 random zero-dimensional ideals containing both field equations
    feq = [parse_poly("X^8+X", dom), parse_poly("Y^8+Y", dom)]
    rng = SplitMix64(0xC02)
    for i in range(100):
        extras = []
        for _ in range(1 + rng.below(2)):
            terms = {(rng.below(7), rng.below(7)): rng.below(8) for _ in range(4)}
            p = Polynomial(dom, 2, terms)
            if not p.is_zero():
                extras.append(p)
        gens = feq + extras
        gbi = buchberger(gens)
        assert len(footprint(gbi)) == len(enumerate_variety(gens, spec, 2))


def _random_extras(rng, dom):
    """One or two random polynomials with four terms of exponents below 7."""
    extras = []
    for _ in range(1 + rng.below(2)):
        terms = {(rng.below(7), rng.below(7)): rng.below(8) for _ in range(4)}
        p = Polynomial(dom, 2, terms)
        if not p.is_zero():
            extras.append(p)
    return extras


def _assert_reduced_basis_of(gb, gens, spec, zero_dim):
    """Certificate through paths that use no pair criterion: the basis is
    reduced and monic, every S-pair of it reduces to 0 by full division,
    every generator has normal form 0, and a zero-dimensional radical ideal
    has as many footprint monomials as variety points."""
    basis = list(gb)
    heads = [g.leading_term() for g in basis]
    for g in gens:
        assert divide(g, basis, FULL)[1].is_zero()
    for i, g in enumerate(basis):
        assert heads[i][1] == 1
        assert not any(mono_divides(h, m) for j, (h, _) in enumerate(heads) if j != i
                       for m in g.terms)
        for f in basis[:i]:
            assert divide(s_polynomial(g, f), basis, FULL)[1].is_zero()
    if zero_dim:
        assert len(footprint(gb)) == len(enumerate_variety(gens, spec, 2))


def test_buchberger_under_klein_order(dom, spec):
    # the one Buchberger under the Klein order, on random zero-dimensional
    # ideals
    feq = [parse_poly("X^8+X", dom), parse_poly("Y^8+Y", dom)]
    rng = SplitMix64(0xB0C4 + 4 * 2 + 1)
    for _ in range(25):
        gens = feq + _random_extras(rng, dom)
        _assert_reduced_basis_of(buchberger(gens), gens, spec, True)


def test_buchberger_pair_criteria_certificate(dom, spec):
    # the pair criteria drop S-pairs without reducing them; the certificate
    # reduces every S-pair of the output, on 60 random ideals, half of them
    # without the field equations (mostly positive-dimensional, some the
    # unit ideal), the other half with the field equations before or after
    # the random generators
    feq = [parse_poly("X^8+X", dom), parse_poly("Y^8+Y", dom)]
    rng = SplitMix64(0x6E4D)
    shapes = set()
    for i in range(60):
        gens = _random_extras(rng, dom)
        if i % 2:
            gens = [*gens, *feq] if rng.below(2) else [*feq, *gens]
        else:
            gens += _random_extras(rng, dom)
        gb = buchberger(gens)
        _assert_reduced_basis_of(gb, gens, spec, bool(i % 2))
        shapes.add((bool(i % 2), len(gb)))
    assert len(shapes) >= 8, shapes


def test_buchberger_planes_work_on_a_dense_codeword(dom, gb, fp, monkeypatch):
    # The basis of one weight identity, for an F on all 22 footprint
    # monomials.  Kernel reductions, inputs and inter-reduction included:
    # 30 with coprime heads and B_k (28 top-reductions in the pair loop, then
    # one full reduction per element of the 2-element basis), as many as
    # with the chain criterion as well; with coprime heads alone it is 113.
    F = Polynomial(dom, 2, {(a, b): 1 + (a + 2 * b) % 7 for a, b in fp})
    calls = []
    real = groebner._reduce

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counting)
    bigger = buchberger([F, *gb])
    assert len(calls) <= 188 // 4
    assert len(fp) - len(footprint(bigger)) == 21


def test_buchberger_work_on_the_live_leaves(monkeypatch):
    # The shape of kbench's algebra job2 and of acceptance criterion 11:
    # the 87 live trace leaves, instantiated at 2 samples each.  Kernel
    # reductions in all: 3281 with coprime heads and B_k, 3200 with the chain
    # criterion as well, 7816 with coprime heads alone.
    klein.klein_basis()  # its own run is not counted
    calls = []
    real = groebner._reduce

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counting)
    leaves = 0
    for M, rep in sorted(casebound.verify_all_traces().items()):
        for leaf in rep.leaves:
            if not leaf.vacuous:
                casebound.instantiate_and_check(M, leaf, 2, 0x1EAF + leaves)
                leaves += 1
    assert leaves == 87
    assert len(calls) <= 3400


def _shuffled(items, rng):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_reduced_basis_is_unique(dom, gb, fp):
    # The pair loop top-reduces and the instantiation check starts from the
    # reduced Klein basis; both rely on the reduced basis of <F> + I8 being
    # one and the same however the ideal is presented.  50 seeded F, dense
    # and sparse, from the raw generators, from the reduced basis, and from
    # a shuffled list of both.
    rng = SplitMix64(0x0B17)
    raw = list(klein.ideal_generators())
    monos = list(fp) + [(8, 0), (0, 3), (9, 4)]
    shapes = set()
    for i in range(50):
        keep = 2 + (i % 5) * 6
        F = Polynomial(dom, 2, {monos[rng.below(len(monos))]: 1 + rng.below(7)
                                for _ in range(keep)})
        ref = [g.terms for g in buchberger([F, *raw])]
        assert [g.terms for g in buchberger([*gb, F])] == ref
        mixed = _shuffled([F, *raw, *gb], rng)
        assert [g.terms for g in buchberger(mixed)] == ref
        shapes.add(len(ref))
    assert len(shapes) >= 3, shapes


def test_order_domain_check_klein(gb):
    assert order_domain_check(gb, (2, 3)) == (True, True, False)


def test_order_domain_check_univariate(dom):
    # the ideal of the line Y = 1: footprint X^0..X^7, weights all distinct
    gb1 = buchberger([parse_poly("X^8+X", dom), parse_poly("Y+1", dom)])
    assert order_domain_check(gb1, (2, 3)) == (True, True, True)


def test_buchberger_refuses_non_bivariate(dom):
    # constructing a non-bivariate Polynomial is refused, so none reaches it
    with pytest.raises(ArityMismatch):
        buchberger([Polynomial(dom, 1, {(8,): 1, (1,): 1})])


def test_buchberger_takes_only_the_klein_order(dom):
    gens = [parse_poly(t, dom) for t in ("Y^3+X^3*Y+X", "X^8+X", "Y^8+Y")]
    assert buchberger(gens, MonomialOrder()) == buchberger(gens)
    with pytest.raises(TypeError):
        buchberger(gens, "grevlex")


def test_order_domain_check_single_monomial(dom):
    gb2 = buchberger([parse_poly("X^2", dom), parse_poly("Y", dom)])
    cond1, cond2, cond3 = order_domain_check(gb2, (2, 3))
    assert cond2 is False


# ---------------------------------------------------------------------------
# the packed kernel

def _poly_within(rng, dom, s, draws):
    """A random polynomial whose monomials all lie within the reach of width
    2^s: weight at most 3(2^s - 1)."""
    reach = 3 * ((1 << s) - 1)
    terms = {}
    for _ in range(draws):
        b = rng.below(1 << s)
        terms[rng.below((reach - 3 * b) // 2 + 1), b] = rng.below(8)
    return Polynomial(dom, 2, terms)


def _head_index(packed):
    return (packed.bit_length() - 1) >> 2


def test_plane_index_follows_the_klein_order(dom):
    for s in (2, 3, 4):
        reach = 3 * ((1 << s) - 1)
        monos = [(a, b) for b in range(1 << s) for a in range((reach - 3 * b) // 2 + 1)]
        index = {m: _head_index(groebner._to_packed(Polynomial(dom, 2, {m: 1}), s))
                 for m in monos}
        assert sorted(monos, key=index.get) == sorted(monos, key=MonomialOrder.key)
        for u in monos[::5]:
            for v in monos[::7]:
                if 2 * (u[0] + v[0]) + 3 * (u[1] + v[1]) <= reach:
                    assert index[u] + index[v] == index[u[0] + v[0], u[1] + v[1]]


def test_planes_round_trip(dom):
    rng = SplitMix64(0x9A7E)
    for s in (1, 3, 4, 6):
        for _ in range(40):
            p = _poly_within(rng, dom, s, 12)
            packed = groebner._to_packed(p, s)
            back = groebner._from_packed(packed, s, dom)
            assert back == p
            assert list(back.terms) == sorted(p.terms, key=MonomialOrder.key, reverse=True)
            if p.terms:
                (a, b), _ = p.leading_term()
                assert _head_index(packed) == ((2 * a + 3 * b) << s) | b


def test_plane_multiples_match_field_mul(dom, spec):
    rng = SplitMix64(0x3C1A)
    cube = spec.modulus_bits ^ (1 << spec.m)
    for _ in range(20):
        p = _poly_within(rng, dom, 4, 15)
        mults = groebner._multiples(groebner._to_packed(p, 4), 4, cube)
        assert len(mults) == 8
        for c in range(8):
            expected = {m: spec.mul(c, v) for m, v in p.terms.items() if spec.mul(c, v)}
            assert groebner._from_packed(mults[c], 4, dom).terms == expected


def test_packed_multiples_at_the_top_of_reach(dom, spec):
    # The top index of width 2^s is that of Y^(S-1), weight 3(S - 1): its
    # nibble is the last one the masks cover, and times alpha its alpha^2 bit
    # carries into the bits of alpha^3.  No product may set a nibble's top bit.
    cube = spec.modulus_bits ^ (1 << spec.m)
    for s in range(1, 7):
        S = 1 << s
        top = (0, S - 1)
        assert _head_index(groebner._to_packed(Polynomial(dom, 2, {top: 1}), s)) == (
            (3 * (S - 1) + 1) * S - 1)
        for v in range(1, 8):
            p = Polynomial(dom, 2, {top: v, (1, 0): 8 - v})
            mults = groebner._multiples(groebner._to_packed(p, s), s, cube)
            for c in range(8):
                expected = {m: spec.mul(c, x) for m, x in p.terms.items() if spec.mul(c, x)}
                assert groebner._from_packed(mults[c], s, dom).terms == expected
                assert all(int(d, 16) < 8 for d in f"{mults[c]:x}")


def test_buchberger_refuses_coefficients_that_are_no_enc(dom, gb):
    # 8 would read as 0, 9 as 1 and -1 as 7 by their low three bits
    for bad in (8, 9, -1, 1 << 40):
        F = Polynomial(dom, 2, {(1, 0): bad, (0, 0): 1})
        with pytest.raises(ValueError, match=rf"coefficient {bad} of monomial \(1, 0\)"):
            buchberger([F])
        with pytest.raises(ValueError, match=str(bad)):
            weight_via_footprint(F, gb)


def test_high_y_exponents_widen_the_planes(dom, spec, monkeypatch):
    # Heads with Y^9 or more and weight at most 45 start at width 16; their
    # S-pair's lcm weighs more than 45, so the width doubles and the run
    # starts again.  The certificate does not use the kernel.
    widened = []
    real = groebner._widen

    def recording(s, weight):
        widened.append(weight)
        return real(s, weight)

    monkeypatch.setattr(groebner, "_widen", recording)
    rng = SplitMix64(0x51DE)
    cases = [[parse_poly("X*Y^10+X", dom), parse_poly("X^12*Y+Y", dom)]]
    for _ in range(12):
        b1 = 9 + rng.below(4)
        p = 1 + rng.below((45 - 3 * b1) // 2)
        q, r = 10 + rng.below(6), 1 + rng.below(3)
        gens = []
        for head in ((p, b1), (q, r)):
            terms = {(rng.below(5), rng.below(4)): rng.below(8) for _ in range(2)}
            terms[head] = 1 + rng.below(7)
            gens.append(Polynomial(dom, 2, terms))
        cases.append(gens)
    for gens in cases:
        del widened[:]
        gb = buchberger(gens)
        assert widened and all(w > 45 for w in widened)
        _assert_reduced_basis_of(gb, gens, spec, False)
    assert buchberger(cases[0]) == (parse_poly("X^13+X", dom), parse_poly("X^12*Y+Y", dom),
                                    parse_poly("Y^10+X^12", dom))


def test_too_wide_planes_refused_at_once(dom):
    # Y^(2^20) would need planes of about 3 * 2^40 bits
    start = time.perf_counter()
    with pytest.raises(PlaneTooWide):
        buchberger([parse_poly("Y^1048576+1", dom)])
    assert time.perf_counter() - start < 1.0
    assert issubclass(PlaneTooWide, ValueError)
    # width 512 reaches weight 1533; the next weight needs width 1024
    assert buchberger([parse_poly("Y^511+X", dom)]) == (parse_poly("Y^511+X", dom),)
    with pytest.raises(PlaneTooWide):
        buchberger([parse_poly("X*Y^511+X", dom)])


def test_buchberger_refuses_coefficients_outside_gf8(dom):
    ring = ParamRing(2)
    p = Polynomial(ring, 2, {(1, 0): ring.one, (0, 0): ring.var(0)})
    with pytest.raises(TypeError):
        buchberger([p])
    with pytest.raises(TypeError):
        buchberger([parse_poly("X^8+X", dom), p])


def test_klein_shaped_inputs_never_widen(dom, gb, fp, monkeypatch):
    # The Klein basis, weight identities and leaf instantiations start at a
    # width that covers every S-pair they reduce.
    def refuse(s, weight):
        raise AssertionError(f"widened from 2^{s} for weight {weight}")

    monkeypatch.setattr(groebner, "_widen", refuse)
    assert klein.klein_basis.__wrapped__() == gb
    rng = SplitMix64(0xF00D)
    monos = list(fp)
    for i in range(40):
        terms = {monos[rng.below(len(monos))]: 1 + rng.below(7) for _ in range(2 + i % 20)}
        weight_via_footprint(Polynomial(dom, 2, terms), gb)
    leaves = 0
    for M, rep in sorted(casebound.verify_all_traces().items()):
        for leaf in rep.leaves:
            if not leaf.vacuous:
                casebound.instantiate_and_check(M, leaf, 2, 0x1EAF + leaves)
                leaves += 1
    assert leaves == 87
