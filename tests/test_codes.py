import itertools
import threading

import numpy as np
import pytest

from kleincode import codes
from kleincode.casebound import full_bound_map
from kleincode.codes import (
    DimensionTooLarge,
    DuplicateMonomial,
    SupportNotBelowM,
    Variety,
    build_code,
    code_for_threshold,
    construct_table,
    coset_min_weight,
    count_weight_one,
    enumerate_variety,
    evaluation_vector,
    exact_min_weight,
    gf_rank,
    min_distance,
    monomial_vector,
    pack_planes,
    sample_weights,
    sampled_min_weight,
    verify_fano,
    weight_via_footprint,
)
from kleincode.poly import Polynomial, ZeroPolynomial, parse_poly
from kleincode.rng import SplitMix64

EXPECTED_TABLE = [(1, 22), (2, 19), (3, 18), (4, 16), (5, 15), (7, 13), (8, 12),
               (10, 10), (11, 9), (13, 7), (14, 6), (15, 5), (17, 4), (18, 3),
               (20, 2)]


# ---------------------------------------------------------------------------
# variety

def test_variety_klein(variety):
    assert len(variety) == 22
    assert (0, 0) in variety.points
    assert len(set(variety.points)) == 22


def test_variety_origin_only(dom, spec):
    v = enumerate_variety([parse_poly("X", dom), parse_poly("Y", dom)], spec, 2)
    assert v.points == ((0, 0),)


def test_variety_empty(dom, spec):
    v = enumerate_variety([parse_poly("1", dom)], spec, 2)
    assert len(v) == 0


def test_fano(variety, dom, spec):
    assert verify_fano(variety)
    assert sum(1 for p in variety if p[0] != 0) == 21
    tiny = enumerate_variety([parse_poly("X", dom), parse_poly("Y", dom)], spec, 2)
    assert not verify_fano(tiny)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluation_vectors(dom, variety):
    w1 = evaluation_vector(parse_poly("X^7+1", dom), variety)
    assert int(np.count_nonzero(w1)) == 1
    assert evaluation_vector(Polynomial.zero(dom, 2), variety).sum() == 0
    ones = evaluation_vector(parse_poly("1", dom), variety)
    assert int(np.count_nonzero(ones)) == 22


def test_evaluation_linear(dom, variety):
    rng = SplitMix64(0xA1)
    for _ in range(100):
        p = Polynomial(dom, 2, {(rng.below(7), rng.below(3)): rng.below(8)
                                for _ in range(4)})
        q = Polynomial(dom, 2, {(rng.below(7), rng.below(3)): rng.below(8)
                                for _ in range(4)})
        lhs = evaluation_vector(p.add(q), variety)
        rhs = evaluation_vector(p, variety) ^ evaluation_vector(q, variety)
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# codes

def test_build_code_full(fp, variety, spec):
    code = build_code(list(fp), variety)
    assert code.n == 22 and code.k == 22
    assert gf_rank(code.G, spec) == 22


def test_build_code_repetition(variety):
    code = build_code([(0, 0)], variety)
    assert min_distance(code, "exhaustive") == (22, True)


def test_build_code_empty(variety):
    code = build_code([], variety)
    assert code.k == 0
    with pytest.raises(ZeroPolynomial):
        min_distance(code)


def test_build_code_duplicates(variety):
    with pytest.raises(DuplicateMonomial):
        build_code([(0, 0), (0, 0)], variety)


def test_random_subcodes_full_rank(fp, variety, spec):
    rng = SplitMix64(0xB0)
    monos = list(fp)
    for _ in range(25):
        take = sorted({monos[rng.below(22)] for _ in range(1 + rng.below(12))})
        code = build_code(take, variety)
        assert gf_rank(code.G, spec) == len(take)


# ---------------------------------------------------------------------------
# weights

def test_weight_via_footprint_examples(dom, gb, variety):
    assert weight_via_footprint(parse_poly("X^7+1", dom), gb) == 1
    # the footprint of <X^7+1> + I8 must count the 21 zeros directly
    zeros = sum(1 for p in variety if parse_poly("X^7+1", dom).eval(p) == 0)
    assert zeros == 21
    assert weight_via_footprint(parse_poly("1", dom), gb) == 22
    with pytest.raises(ZeroPolynomial):
        weight_via_footprint(Polynomial.zero(dom, 2), gb)


def test_weight_identity_random(dom, gb, fp, variety):
    rng = SplitMix64(0x1DE)
    for _ in range(100):
        terms = {}
        for m in fp:
            c = rng.below(8)
            if c:
                terms[m] = c
        if not terms:
            continue
        F = Polynomial(dom, 2, terms)
        assert weight_via_footprint(F, gb) == \
            int(np.count_nonzero(evaluation_vector(F, variety)))


# ---------------------------------------------------------------------------
# distance oracles

def test_min_distance_k2(variety):
    code = build_code([(0, 0), (1, 0)], variety)
    d, exact = min_distance(code, "exhaustive")
    assert exact and d == 19  # frozen from the 63-codeword scan
    assert d >= 19            # Table row [22, 2, 19]


def test_min_distance_limit(variety, fp):
    code = build_code(list(fp)[:11], variety)
    with pytest.raises(DimensionTooLarge):
        min_distance(code, "exhaustive")


def test_min_distance_sample_is_upper_bound(variety, fp):
    code = build_code(list(fp)[:12], variety)
    d, exact = min_distance(code, "sample", seed=3, count=5000)
    assert not exact and 1 <= d <= 22
    d2, _ = min_distance(code, "sample", seed=3, count=5000)
    assert d2 == d


def test_min_distance_sample_refuses_no_codeword(variety):
    code = build_code([(0, 0)], variety)
    with pytest.raises(ValueError):
        min_distance(code, "sample", seed=0, count=0)
    # seed 6 draws the zero message once: no codeword was sampled
    with pytest.raises(ValueError):
        min_distance(code, "sample", seed=6, count=1)
    assert min_distance(code, "sample", seed=0, count=1) == (22, False)


def test_coset_min_weight_y(order, fp, variety):
    w, exact = coset_min_weight((0, 1), [(1, 0), (0, 0)], variety, "exhaustive",
                                order=order, fp=fp)
    assert exact and w == 18  # frozen: 64-case scan meets the bound


def test_coset_min_weight_corner(order, fp, variety):
    w, exact = coset_min_weight((6, 2), [], variety, "exhaustive",
                                order=order, fp=fp)
    assert exact and w == 21  # frozen single evaluation; >= 1


def test_coset_sample_deterministic(order, fp, variety):
    support = [(1, 0), (0, 0)]
    w1, e1 = coset_min_weight((0, 1), support, variety, "sample",
                              order=order, fp=fp, seed=11, count=500)
    w2, e2 = coset_min_weight((0, 1), support, variety, "sample",
                              order=order, fp=fp, seed=11, count=500)
    assert (w1, e1) == (w2, e2) and e1 is False


def test_coset_support_validation(order, fp, variety):
    with pytest.raises(SupportNotBelowM):
        coset_min_weight((0, 1), [(0, 2)], variety, "exhaustive",
                         order=order, fp=fp)
    with pytest.raises(SupportNotBelowM):
        coset_min_weight((8, 0), [], variety, "exhaustive", order=order, fp=fp)


def test_gray_matches_exhaustive(order, fp, variety):
    for M in [(0, 1), (1, 1), (0, 2)]:
        support = [m for m in fp.descending() if order.compare(m, M) < 0]
        w1, _ = coset_min_weight(M, support, variety, "exhaustive",
                                 order=order, fp=fp)
        w2, _ = coset_min_weight(M, support, variety, "gray", order=order, fp=fp)
        assert w1 == w2


def test_x3y_coset_is_tight(order, fp, variety):
    M = (3, 1)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    assert len(support) == 10  # 8^10 states, the largest exact scan allowed
    w, exact = coset_min_weight(M, support, variety, "exhaustive", order=order, fp=fp)
    assert exact and w >= full_bound_map()[M]
    assert w == 9  # frozen: the proved bound is the true coset minimum


def test_exact_scan_limit_refuses_before_work(order, fp, variety):
    M = (6, 2)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    for mode, jobs in (("exhaustive", 1), ("gray", 1), ("gray", 2)):
        with pytest.raises(DimensionTooLarge, match="8\\^21"):
            coset_min_weight(M, support, variety, mode, order=order, fp=fp, jobs=jobs)
    code = build_code(list(fp)[:11], variety)
    with pytest.raises(DimensionTooLarge):
        min_distance(code, "exhaustive")


# ---------------------------------------------------------------------------
# the bit-plane scanner against uint8 references

def _unpack(planes, n):
    """Reference decoder: symbol j is the bits at position j of each plane."""
    out = np.zeros(planes.shape[1:] + (n,), dtype=np.uint8)
    for b, plane in enumerate(planes):
        for j in range(n):
            out[..., j] |= (((plane >> j) & 1) << b).astype(np.uint8)
    return out


def test_pack_planes_round_trip():
    rng = SplitMix64(0x9A)
    for shape in [(22,), (5, 22), (3, 4, 22), (7, 1), (2, 32), (2, 33), (2, 64)]:
        words = rng.fill_below(8, shape)
        planes = pack_planes(words, 8)
        assert planes.shape == (3,) + shape[:-1]
        assert np.array_equal(_unpack(planes, shape[-1]), words)
        weights = np.bitwise_count(planes[0] | planes[1] | planes[2])
        assert np.array_equal(weights, np.count_nonzero(words, axis=-1))


def test_pack_planes_refuses_bad_shapes():
    words = np.zeros((2, 22), dtype=np.uint8)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            pack_planes(words, q)
    with pytest.raises(ValueError):
        pack_planes(np.zeros((2, 65), dtype=np.uint8), 8)


def _brute_min(offset, rows, mul, skip_zero):
    weights = []
    for coeffs in itertools.product(range(8), repeat=len(rows)):
        word = offset.copy()
        for c, row in zip(coeffs, rows):
            word ^= mul[c, row]
        weights.append(int(np.count_nonzero(word)))
    if skip_zero:
        weights = [w for w in weights if w]
    return min(weights)


@pytest.mark.parametrize("low_coeffs, chunk_words", [(None, None), (1, 24)])
def test_exact_scan_matches_brute_force(spec, monkeypatch, low_coeffs, chunk_words):
    if low_coeffs is not None:
        # a one-row low table and 3-state chunks put k <= 4 through the high
        # table, partial chunks and the leading-coefficient parts
        monkeypatch.setattr(codes, "_LOW_COEFFS", low_coeffs)
        monkeypatch.setattr(codes, "_CHUNK_WORDS", chunk_words)
    mul = spec.mul_table()
    rng = SplitMix64(0xB17)
    for case in range(120):
        k = case % 5
        rows = rng.fill_below(8, (k, 22))
        # sparse rows and offsets reach low weights, and zero rows make
        # nonzero messages with zero words
        rows &= rng.fill_below(8, (k, 22)) & rng.fill_below(8, (k, 22))
        if case % 7 == 0 and k:
            rows[-1] = 0
        offset = rng.fill_below(8, (22,)) & rng.fill_below(8, (22,))
        skip_zero = case % 2 == 1
        if skip_zero:
            offset[:] = 0
        if skip_zero and not rows.any():
            with pytest.raises(ValueError):
                exact_min_weight(offset, rows, spec, skip_zero=True)
            continue
        expected = _brute_min(offset, rows, mul, skip_zero)
        assert exact_min_weight(offset, rows, spec, skip_zero=skip_zero) == expected
        assert exact_min_weight(offset, rows, spec, skip_zero=skip_zero, jobs=3) == expected


def test_exact_scan_threads_end_with_the_call(order, fp, variety):
    M = (2, 1)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    before = threading.active_count()
    w1, _ = coset_min_weight(M, support, variety, "exhaustive", order=order, fp=fp)
    w4, _ = coset_min_weight(M, support, variety, "gray", order=order, fp=fp, jobs=4)
    assert w1 == w4 == 12
    assert threading.active_count() == before


def test_sampled_scan_matches_uint8_formula(spec, variety, fp):
    mul = spec.mul_table()
    for seed, k, count in [(0, 3, 500), (5, 10, 40_000), (77, 21, 3000), (2024, 1, 64)]:
        rows = np.stack([monomial_vector(m, variety) for m in list(fp)[:k]])
        offset = monomial_vector((7, 0), variety)
        coeffs = SplitMix64(seed).fill_below(8, (count, k))
        block = np.broadcast_to(offset, (count, 22)).copy()
        for i in range(k):
            block ^= mul[coeffs[:, i][:, None], rows[i][None, :]]
        blocks = list(sample_weights(offset, rows, spec, seed, count))
        assert np.array_equal(np.concatenate([c for c, _ in blocks]), coeffs)
        weights = np.count_nonzero(block, axis=1)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), weights)
        assert sampled_min_weight(offset, rows, spec, seed, count) == weights.min()


# ---------------------------------------------------------------------------
# weight-one counting and the table

def test_count_weight_one(fp, variety):
    full = build_code(list(fp), variety)
    assert count_weight_one(full) == 154
    partial = build_code([m for m in fp if m != (6, 2)], variety)
    assert count_weight_one(partial) == 7
    rep = build_code([(0, 0)], variety)
    assert count_weight_one(rep) == 0


def test_construct_table_expected(variety):
    delta = full_bound_map()
    rows = construct_table(delta, variety)
    got = [(r["k"], r["d"]) for r in rows if r["s"] >= 2]
    assert got == EXPECTED_TABLE
    assert [(r["k"], r["d"]) for r in rows if r["s"] == 1] == [(22, 1)]
    assert all(r["k"] >= 1 for r in rows)


def test_construct_table_flat(variety, fp):
    rows = construct_table({m: 1 for m in fp}, variety)
    assert rows == [{"s": 1, "n": 22, "k": 22, "d": 1}]


def test_table_codes_reach_bound(variety, fp):
    delta = full_bound_map()
    rows = construct_table(delta, variety)
    for r in rows:
        if r["k"] <= 5:
            code = code_for_threshold(delta, r["s"], fp, variety)
            d, exact = min_distance(code, "exhaustive")
            assert exact and d >= r["s"]


def test_bound_soundness_sampled(order, fp, variety, spec):
    delta = full_bound_map()
    mul = spec.mul_table()
    rows_all = {m: monomial_vector(m, variety) for m in fp}
    rng = SplitMix64(0x50F7)
    for M in fp:
        support = [m for m in fp.descending() if order.compare(m, M) < 0]
        coeffs = rng.fill_below(8, (2000, len(support)))
        block = np.broadcast_to(rows_all[M], (2000, 22)).copy()
        for i, m in enumerate(support):
            block ^= mul[coeffs[:, i][:, None], rows_all[m][None, :]]
        assert int(np.count_nonzero(block, axis=1).min()) >= delta[M]
