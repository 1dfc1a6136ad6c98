import pytest

from kleincode.gf import DivisionByZero, ReducibleModulus, FieldSpec


def test_gf8_construction():
    spec = FieldSpec(3, 0b1011)
    assert spec.q == 8
    assert len(spec.elements()) == 8


def test_gf2_construction():
    spec = FieldSpec(1, 0b11)
    assert spec.q == 2
    assert spec.elements() == [0, 1]


def test_reducible_modulus_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1): confirm by carry-less multiplication
    a, b = 0b11, 0b111
    prod = 0
    for i in range(2):
        if (a >> i) & 1:
            prod ^= b << i
    assert prod == 0b1001
    with pytest.raises(ReducibleModulus):
        FieldSpec(3, 0b1001)


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


def test_imprimitive_modulus_still_works():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15;
    # the generator search must still build consistent tables.
    spec = FieldSpec(4, 0b11111)
    for a in range(1, 16):
        assert spec.mul(a, spec.inv(a)) == 1
    assert spec.pow(2, 5) == 1
