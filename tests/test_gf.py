import itertools
import random

import numpy as np
import pytest

from kleincode import codes, klein, params
from kleincode.gf import DivisionByZero, FieldSpec, gf8
from kleincode.poly import MonomialOrder, parse_poly


def test_gf8_construction(spec):
    assert spec is gf8()
    assert spec.q == 8
    assert len(spec.elements()) == 8


def test_klein_handles_are_the_constants():
    # one handle per constant: klein's names are the same objects
    assert klein.klein_domain is gf8
    assert klein.klein_order is MonomialOrder
    assert klein.klein_domain() is gf8()


def _carry_less_mul_mod(a, b):
    prod = 0
    for i in range(3):
        if (b >> i) & 1:
            prod ^= a << i
    for i in (4, 3):
        if (prod >> i) & 1:
            prod ^= 0b1011 << (i - 3)
    return prod


def test_tables_match_carry_less_reference(spec):
    # the hard-coded generator alpha = 2 against schoolbook arithmetic
    for a in range(8):
        for b in range(8):
            assert spec.mul(a, b) == _carry_less_mul_mod(a, b)
    powers = [spec.pow(2, e) for e in range(7)]
    assert sorted(powers) == list(range(1, 8))
    x = 1
    for p in powers:
        assert p == x
        x = _carry_less_mul_mod(x, 2)


def test_arith_examples(spec):
    assert spec.add(5, 5) == 0
    assert spec.mul(2, 4) == 3  # alpha^3 = alpha + 1
    # inverse of alpha by exhaustive search
    inv = next(b for b in range(8) if spec.mul(2, b) == 1)
    assert inv == 5
    assert spec.inv(2) == inv


def test_inv_zero_raises(spec):
    with pytest.raises(DivisionByZero):
        spec.inv(0)
    with pytest.raises(DivisionByZero):
        spec.pow(0, -1)


def test_field_axioms_exhaustive(spec):
    els = spec.elements()
    for a in els:
        for b in els:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            # Frobenius
            s = spec.add(a, b)
            assert spec.mul(s, s) == spec.add(spec.mul(a, a), spec.mul(b, b))
            for c in els:
                assert spec.mul(a, spec.mul(b, c)) == spec.mul(spec.mul(a, b), c)
                assert spec.mul(a, spec.add(b, c)) == \
                    spec.add(spec.mul(a, b), spec.mul(a, c))


def test_unit_group_and_field_equation(spec):
    for a in spec.elements():
        assert spec.pow(a, 8) == a
        if a:
            assert spec.pow(a, 7) == 1
            assert spec.mul(a, spec.inv(a)) == 1


def test_pow_conventions(spec):
    assert spec.pow(0, 0) == 1
    assert spec.pow(0, 3) == 0
    for a in range(1, 8):
        assert spec.pow(a, 9) == spec.pow(a, 2)  # exponents mod q-1
        assert spec.pow(a, -1) == spec.inv(a)


def test_nonzero_count(spec):
    assert sum(1 for a in spec.elements() if a) == 7



def test_mul_pow_table_is_scalar_arithmetic(spec):
    table = spec.mul_pow_table()
    assert table.shape == (8, 8, 8) and table.dtype == np.uint8
    for c, e, x in itertools.product(range(8), repeat=3):
        assert table[c, e, x] == spec.mul(c, spec.pow(x, e))


def _scalar_evaluate(spec, groups, points):
    """FieldSpec.evaluate's result, one term and one point at a time."""
    out = []
    for terms in groups:
        row = []
        for col in points.T.tolist():
            acc = 0
            for c, exps in terms:
                for e, x in zip(exps, col):
                    c = spec.mul(c, spec.pow(x, e))
                acc ^= c
            row.append(acc)
        out.append(row)
    return out


def test_evaluate_matches_scalar_loop(spec):
    # seeded random groups over 0 to 3 variables and 0 to 70 columns; the
    # last two groups hold only constants and the zero polynomial's 0 * 1
    rnd = random.Random(0x8E7)
    for _ in range(60):
        nvars, columns = rnd.randint(0, 3), rnd.randint(0, 70)
        groups = [[(rnd.randrange(8), tuple(rnd.randrange(8) for _ in range(nvars)))
                   for _ in range(rnd.randint(1, 6))] for _ in range(rnd.randint(1, 4))]
        groups += [[(rnd.randrange(8), (0,) * nvars), (5, (0,) * nvars)], [(0, (0,) * nvars)]]
        terms = [term for g in groups for term in g]
        starts = list(itertools.accumulate([0] + [len(g) for g in groups[:-1]]))
        exps = np.array([e for _, e in terms], dtype=np.uint8).reshape(len(terms), nvars).T
        points = np.array([[rnd.randrange(8) for _ in range(columns)] for _ in range(nvars)],
                          dtype=np.uint8).reshape(nvars, columns)
        got = spec.evaluate([c for c, _ in terms], exps, points, starts)
        assert got.dtype == np.uint8 and got.shape == (len(groups), columns)
        assert got.tolist() == _scalar_evaluate(spec, groups, points)


def test_every_evaluator_reaches_the_one_kernel(spec, dom, variety, monkeypatch):
    calls = []
    kernel = FieldSpec.evaluate

    def counting(self, *args):
        calls.append(args[2].shape)  # the points
        return kernel(self, *args)

    monkeypatch.setattr(FieldSpec, "evaluate", counting)
    codes.evaluation_vector(parse_poly("X^3*Y+Y^3+X", dom), variety)
    assert calls == [(2, 22)]
    gens = list(klein.ideal_generators())
    assert codes.enumerate_variety(gens, spec).points == variety.points
    assert calls[1:] == [(2, 64)] * len(gens)
    ring = params.ParamRing(3)
    params.evaluate_grid([ring.var(0).mul(ring.var(2))], params.assignment_grid(3, [0, 2]))
    assert calls[-1] == (2, 64) and len(calls) == 2 + len(gens)
