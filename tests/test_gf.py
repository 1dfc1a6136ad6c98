import pytest

from kleincode.gf import DivisionByZero, gf8


def test_gf8_construction(spec):
    assert spec is gf8()
    assert spec.q == 8
    assert len(spec.elements()) == 8


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

