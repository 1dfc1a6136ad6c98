import itertools
import random
import tracemalloc

import numpy as np
import pytest

from kleincode import codes, klein
from kleincode.casebound import full_bound_map
from kleincode.codes import (
    DimensionTooLarge,
    DuplicateMonomial,
    RankDeficient,
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
from kleincode.poly import EXPONENT_CAP, ArityMismatch, Polynomial, ZeroPolynomial, parse_poly
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


def test_variety_lies_in_the_plane(dom, spec):
    for arity in (1, 3):
        with pytest.raises(ArityMismatch):
            enumerate_variety([parse_poly("X", dom)], spec, arity)


def test_pinned_field_argument_is_checked_and_otherwise_unused(dom, spec, variety):
    gens = list(klein.ideal_generators())
    assert enumerate_variety(gens).points == enumerate_variety(gens, spec, 2).points
    for bad in ("GF8", object()):
        with pytest.raises(TypeError, match="the field is gf8"):
            enumerate_variety(gens, bad, 2)
    G = np.stack([monomial_vector(m, variety) for m in [(0, 0), (1, 0), (0, 1)]])
    assert gf_rank(G) == gf_rank(G, spec) == 3
    for bad in ("GF8", object()):
        with pytest.raises(TypeError, match="the field is gf8"):
            gf_rank(G, bad)


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
    assert evaluation_vector(Polynomial(dom, 2), variety).sum() == 0
    ones = evaluation_vector(parse_poly("1", dom), variety)
    assert int(np.count_nonzero(ones)) == 22


def test_evaluation_refuses_coefficients_that_are_no_enc(dom, variety):
    # as buchberger does, so both sides of the weight identity refuse alike
    for bad in (8, 9, -1, 1 << 40):
        F = Polynomial(dom, 2, {(1, 0): bad, (0, 0): 1})
        with pytest.raises(ValueError, match=rf"coefficient {bad} of monomial \(1, 0\)"):
            evaluation_vector(F, variety)


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


def _assert_matches_scalar_eval(F, variety):
    assert evaluation_vector(F, variety).tolist() == [F.eval(p) for p in variety]


def test_evaluator_matches_scalar_eval(dom, variety):
    # the vectorised evaluator against Polynomial.eval, point by point, on
    # 200 seeded random polynomials with exponents up to 30 (past q - 1 and
    # 2(q - 1), where the power table wraps)
    rng = SplitMix64(0xE7A1)
    for _ in range(200):
        F = Polynomial(dom, 2, {(rng.below(31), rng.below(31)): rng.below(8)
                                for _ in range(1 + rng.below(8))})
        _assert_matches_scalar_eval(F, variety)


def test_evaluator_edge_cases(dom, variety):
    # the zero polynomial, the constant 1, exponents 7, 8, 14 and near
    # EXPONENT_CAP; the origin is a point of the variety, so 0^0 = 1 and
    # 0^e = 0 are both met
    assert (0, 0) in variety.points
    cap = EXPONENT_CAP
    _assert_matches_scalar_eval(Polynomial(dom, 2), variety)
    assert evaluation_vector(parse_poly("1", dom), variety).tolist() == [1] * 22
    for e in (1, 6, 7, 8, 13, 14, 15, cap - 7, cap - 1, cap):
        for mono in ((e, 0), (0, e), (e, e), (e, 1), (1, e)):
            for c in (1, 5):
                _assert_matches_scalar_eval(Polynomial(dom, 2, {mono: c}), variety)
        _assert_matches_scalar_eval(
            Polynomial(dom, 2, {(e, 0): 3, (0, e): 6, (0, 0): 1}), variety)


def test_monomial_vector_is_monomial_evaluation(dom, fp, variety):
    for m in fp:
        vec = monomial_vector(m, variety)
        assert vec.dtype == np.uint8
        assert np.array_equal(vec, evaluation_vector(Polynomial(dom, 2, {m: 1}), variety))
        assert vec.tolist() == [Polynomial(dom, 2, {m: 1}).eval(p) for p in variety]


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


def test_dependent_rows_are_refused(spec, variety):
    mul = spec.mul_table()
    G = np.stack([monomial_vector(m, variety) for m in [(0, 0), (1, 0), (0, 1)]])
    dependent = G.copy()
    dependent[2] = mul[3, G[0]] ^ G[1]
    zero_row = G.copy()
    zero_row[1] = 0
    for rows in (dependent, zero_row):
        with pytest.raises(RankDeficient):
            codes.EvaluationCode([(0, 0), (1, 0), (0, 1)], variety, rows)
    # x^8 = x on GF(8), so X and X^8 give one row
    with pytest.raises(RankDeficient):
        build_code([(1, 0), (8, 0)], variety)
    # X vanishes on the line x = 0: a zero row
    with pytest.raises(RankDeficient):
        build_code([(0, 0), (1, 0)], Variety([(0, 0), (0, 1)]))


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
        weight_via_footprint(Polynomial(dom, 2), gb)


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


def test_min_distance_limit(variety, fp, monkeypatch):
    # the first part of a k = 11 scan has 10 rows, so min_distance refuses
    # by itself, before the scanner is entered
    from kleincode import cli

    def entered(*args, **kwargs):
        raise AssertionError("the scan was entered")

    for name in ("_scan_min", "_table_min", "_packed_multiples", "pack_planes"):
        monkeypatch.setattr(codes, name, entered)
    code = build_code(list(fp)[:11], variety)
    with pytest.raises(DimensionTooLarge) as exc:
        min_distance(code, "exhaustive")
    assert str(exc.value) == ("11 coefficients (8^11 = 8589934592 states) above the "
                              "exact-scan limit of 10 coefficients")
    assert cli.main(["table", "--measure-upto", "11"]) == 2


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
    # the below-M check needs no order argument, and takes no other order
    with pytest.raises(SupportNotBelowM):
        coset_min_weight((0, 1), [(0, 2)], variety)
    with pytest.raises(TypeError):
        coset_min_weight((0, 1), [], variety, order="lex")


def test_gray_matches_exhaustive(order, fp, variety):
    minima = {}
    for M in [(0, 1), (1, 1), (0, 2), (2, 1)]:
        support = [m for m in fp.descending() if order.compare(m, M) < 0]
        w1, _ = coset_min_weight(M, support, variety, "exhaustive",
                                 order=order, fp=fp)
        w2, _ = coset_min_weight(M, support, variety, "gray", order=order, fp=fp)
        assert w1 == w2
        minima[M] = w1
    # Y, X*Y, Y^2 and X^2*Y: each proved bound is the true coset minimum
    assert minima == {(0, 1): 18, (1, 1): 15, (0, 2): 13, (2, 1): 12}


def _count_scanned(monkeypatch) -> list:
    """Wrap codes._table_min so that each call appends the number of words
    it was handed to the returned list."""
    scanned = []
    table_min = codes._table_min

    def counting(high, low):
        scanned.append(high.shape[1] * low.shape[1])
        return table_min(high, low)

    monkeypatch.setattr(codes, "_table_min", counting)
    return scanned


def _assert_orbit_scan(scanned, t):
    """The scan of 8^t states visited about one word per orbit of the group
    of order 21 that sigma and Frobenius generate: a sigma-only scan, about
    8^t/7 words, fails this."""
    assert sum(scanned) <= 8 ** t / 18, f"{sum(scanned)} words for 8^{t} states"


def test_x3y_coset_is_tight(order, fp, variety, monkeypatch):
    scanned = _count_scanned(monkeypatch)
    M = (3, 1)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    assert len(support) == 10  # 8^10 states, the largest exact scan allowed
    w, exact = coset_min_weight(M, support, variety, "exhaustive", order=order, fp=fp)
    assert exact and w >= full_bound_map()[M]
    assert w == 9  # frozen: the proved bound is the true coset minimum
    _assert_orbit_scan(scanned, 10)


def test_exact_scan_limit_refuses_before_work(order, fp, variety):
    M = (6, 2)
    support = [m for m in fp.descending() if order.compare(m, M) < 0]
    for mode in ("exhaustive", "gray"):
        with pytest.raises(DimensionTooLarge, match="8\\^21"):
            coset_min_weight(M, support, variety, mode, order=order, fp=fp)
    code = build_code(list(fp)[:11], variety)
    with pytest.raises(DimensionTooLarge):
        min_distance(code, "exhaustive")


def _brute_distance(G, mul):
    """Least weight over all nonzero messages, by itertools.product: 0 when
    some nonzero message gives the zero word, that is when the rows are
    dependent."""
    msgs = np.array([m for m in itertools.product(range(8), repeat=len(G)) if any(m)],
                    dtype=np.uint8).reshape(-1, len(G))
    words = np.zeros((len(msgs), G.shape[1]), dtype=np.uint8)
    for i, row in enumerate(G):
        words ^= mul[msgs[:, i][:, None], row[None, :]]
    return int(np.count_nonzero(words, axis=1).min())


def _distance_generators(variety, fp, mul):
    """Generator matrices with k = 0..5 in shuffled row order: monomial rows,
    sparse rows, dependent rows and zero rows; first the repetition code."""
    rnd = random.Random(0xD157)
    monomial_rows = [monomial_vector(m, variety) for m in fp]
    yield build_code([(0, 0)], variety).G
    for case in range(90):
        k = case % 6
        rows = [monomial_rows[i].copy() for i in rnd.sample(range(len(fp)), k)]
        for row in rows:
            if rnd.random() < 0.4:  # sparse: low weights, unique minima
                row[:] = 0
                for j in rnd.sample(range(22), rnd.randint(1, 5)):
                    row[j] = rnd.randint(1, 7)
        if k >= 2 and case % 5 == 0:
            i, j = rnd.sample(range(k), 2)
            rows[i] = mul[rnd.randint(1, 7), rows[j]] ^ mul[rnd.randint(0, 7), rows[i - 1]]
        if k and case % 4 == 1:
            rows[rnd.randrange(k)][:] = 0
        if k and case % 15 == 7:
            rows = [np.zeros(22, dtype=np.uint8) for _ in rows]
        rnd.shuffle(rows)
        yield np.array(rows, dtype=np.uint8).reshape(k, 22)


def test_projective_distance_matches_brute_force(spec, variety, fp, monkeypatch):
    mul = spec.mul_table()
    scanned = _count_scanned(monkeypatch)
    seen = set()
    for G in _distance_generators(variety, fp, mul):
        k = len(G)
        expected = _brute_distance(G, mul) if k else None
        # G's rows are set directly; the monomials only give the code its k
        if expected == 0:  # dependent or zero rows: no code is built
            with pytest.raises(RankDeficient):
                codes.EvaluationCode(list(fp)[:k], variety, G)
            seen.add((k, True))
            continue
        code = codes.EvaluationCode(list(fp)[:k], variety, G)
        scanned.clear()
        if k == 0:
            with pytest.raises(ZeroPolynomial):
                min_distance(code, "exhaustive")
        else:
            assert min_distance(code, "exhaustive") == (expected, True)
        # one message per projective point: (8^k - 1)/7 words in all
        assert sum(scanned) == (8 ** k - 1) // 7
        seen.add((k, False))
    assert seen >= {(k, False) for k in range(6)} | {(k, True) for k in range(1, 6)}


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
        planes = pack_planes(words)
        assert planes.shape == (3,) + shape[:-1]
        assert np.array_equal(_unpack(planes, shape[-1]), words)
        weights = np.bitwise_count(planes[0] | planes[1] | planes[2])
        assert np.array_equal(weights, np.count_nonzero(words, axis=-1))


def test_pack_planes_refuses_bad_shapes():
    with pytest.raises(ValueError):
        pack_planes(np.zeros((2, 65), dtype=np.uint8))


def _brute_min(offset, rows, mul):
    weights = []
    for coeffs in itertools.product(range(8), repeat=len(rows)):
        word = offset.copy()
        for c, row in zip(coeffs, rows):
            word ^= mul[c, row]
        weights.append(int(np.count_nonzero(word)))
    return min(weights)


@pytest.mark.parametrize("low_coeffs, chunk_words", [(None, None), (1, 24)])
def test_exact_scan_matches_brute_force(spec, monkeypatch, low_coeffs, chunk_words):
    if low_coeffs is not None:
        # a one-row low table and 3-state chunks put k <= 4 through the high
        # table and partial chunks
        monkeypatch.setattr(codes, "_LOW_COEFFS", low_coeffs)
        monkeypatch.setattr(codes, "_CHUNK_WORDS", chunk_words)
    mul = spec.mul_table()
    rng = SplitMix64(0xB17)
    for case in range(120):
        k = case % 5
        rows = rng.fill_below(8, (k, 22))
        # sparse rows and offsets reach low weights; a zero row repeats words
        rows &= rng.fill_below(8, (k, 22)) & rng.fill_below(8, (k, 22))
        if case % 7 == 0 and k:
            rows[-1] = 0
        offset = rng.fill_below(8, (22,)) & rng.fill_below(8, (22,))
        assert exact_min_weight(offset, rows) == _brute_min(offset, rows, mul)


def test_exact_scan_counts_the_zero_word_of_a_coset(spec, variety, fp):
    # an offset in the span makes the coset the span itself, whose least
    # weight is that of the zero word.  Eight rows put three through the
    # high table; the scan runs with both reductions (the offset 0), with
    # sigma only (alpha^3 times a row), with squaring only (ev(1) + ev(Y),
    # no sigma eigenvector), with neither, and with no map.
    mul = spec.mul_table()
    rows = np.stack([monomial_vector(m, variety) for m in list(fp)[:8]])
    pi, psi = variety.symmetry(), variety.frobenius()
    for offset, sigma, squares in ((np.zeros(22, dtype=np.uint8), True, True),
                                   (mul[3, rows[1]], True, False),
                                   (rows[0] ^ rows[2], False, True),
                                   (mul[3, rows[1]] ^ mul[5, rows[6]], False, False)):
        words = np.vstack([offset, rows])
        assert (codes._orbit_phases(words, pi) is not None) == sigma
        assert codes._frobenius_holds(words, psi) == squares
        assert exact_min_weight(offset, rows, symmetry=pi, frobenius=psi) == 0
        assert exact_min_weight(offset, rows, symmetry=pi) == 0
        assert exact_min_weight(offset, rows) == 0
    # outside the span the coset holds no zero word
    assert exact_min_weight(rows[7], rows[:7], symmetry=pi, frobenius=psi) > 0


# ---------------------------------------------------------------------------
# the exact scan's orbit reduction

def _klein_phase(m):
    """e with ev(m)[pi] = g^e * ev(m) for sigma(x, y) = (g*x, g^5*y)."""
    return (m[0] + 5 * m[1]) % 7


def _part_words(r, squares):
    """Words of a part of the high table with r free rows: all 8^r, or one
    per orbit of squaring.  By Burnside, the identity fixes 8^r vectors and
    each of the two other powers of squaring the 2^r vectors over GF(2)."""
    return (8 ** r + 2 * 2 ** r) // 3 if squares else 8 ** r


def _scan_words(phases, sigma=True, squares=True):
    """The words a scan hands _table_min for rows with these phases
    relative to the offset's: the high rows in sigma's parts (one per moved
    row, with the earlier moved rows and itself fixed, and one with every
    moved row 0), times the whole low table."""
    t = len(phases)
    split = max(0, t - codes._LOW_COEFFS)
    moved = sum(1 for e in phases[:split] if e % 7) if sigma else 0
    free = [split - moved] + [split - 1 - j for j in range(moved)]
    return sum(_part_words(r, squares) for r in free) * 8 ** (t - split)


def _coset_words(M, support, **reductions):
    return _scan_words([_klein_phase(m) - _klein_phase(M) for m in support], **reductions)


def _distance_words(monomials, **reductions):
    """An exact distance scans the coset G[p] + span(G[p+1:]) for each p."""
    return sum(_coset_words(monomials[p], monomials[p + 1:], **reductions)
               for p in range(len(monomials)))


def test_klein_symmetry(spec, variety, fp):
    pi = variety.symmetry()
    assert variety.symmetry() is pi  # looked for once, then kept
    g, g5 = 2, spec.pow(2, 5)
    image = [(spec.mul(g, x), spec.mul(g5, y)) for x, y in variety.points]
    assert [variety.points[j] for j in pi] == image
    # phases relative to ev(1), whose phase is 0
    rows = np.stack([monomial_vector(m, variety) for m in ((0, 0), *fp)])
    assert codes._orbit_phases(rows, pi).tolist() == [_klein_phase(m) for m in fp]
    assert codes._orbit_phases(rows, None) is None


def test_klein_frobenius(spec, variety, fp):
    psi = variety.frobenius()
    assert variety.frobenius() is psi  # looked for once, then kept
    image = [(spec.mul(x, x), spec.mul(y, y)) for x, y in variety.points]
    assert [variety.points[j] for j in psi] == image
    square = spec.mul_pow_table()[1, 2]
    rows = np.stack([monomial_vector(m, variety) for m in fp])
    assert len(rows) == 22
    for u in rows:
        assert np.array_equal(u[psi], square[u])
    assert codes._frobenius_holds(rows, psi)
    assert codes._frobenius_holds(rows[:1] ^ rows[5:6], psi)  # sums of monomials too
    assert not codes._frobenius_holds(rows, None)
    # alpha * ev(Y) keeps ev(Y)'s sigma phase, but squares to alpha^2 * ev(Y)^2
    alpha_y = spec.mul_table()[2, monomial_vector((0, 1), variety)]
    words = np.stack([rows[0], alpha_y])
    assert codes._orbit_phases(words, variety.symmetry()).tolist() == [5]
    assert not codes._frobenius_holds(words, psi)


def test_frobenius_needs_points_closed_under_squaring(spec):
    assert Variety([(2, 0)]).frobenius() is None  # alpha^2 = 4: (4, 0) is missing
    assert Variety([(2, 3), (4, 5), (6, 6)]).frobenius() is None
    # squaring cycles alpha -> alpha^2 -> alpha^4 = alpha^2 + alpha
    assert spec.mul(4, 4) == 6 and spec.mul(6, 6) == 2
    assert Variety([(2, 0), (4, 0), (6, 0)]).frobenius().tolist() == [1, 2, 0]
    # points over GF(2) are fixed
    assert Variety([(0, 0), (1, 0), (1, 1)]).frobenius().tolist() == [0, 1, 2]


def test_frobenius_table_takes_one_vector_per_squaring_orbit(spec):
    square = spec.mul_pow_table()[1, 2]
    assert (codes._SQUARE_FIXED, codes._SQUARE_LEADS) == ([0, 1], [2, spec.pow(2, 3)])

    def orbit(c):
        return min(tuple(c), tuple(square[c]), tuple(square[square[c]]))

    for r in range(5):
        # unit rows and a zero base: the word of c is c itself
        table = codes._frobenius_table(codes._packed_multiples(np.eye(r, dtype=np.uint8)),
                                       pack_planes(np.zeros(r, dtype=np.uint8)))
        vectors = _unpack(table, r)
        everything = {orbit(np.array(c, dtype=np.uint8))
                      for c in itertools.product(range(8), repeat=r)}
        assert {orbit(c) for c in vectors} == everything
        assert len(vectors) == len(everything) == _part_words(r, True)


def test_orbit_scan_matches_full_scan(fp, variety, monkeypatch):
    # every class with t <= 10 and every table row with k <= 10, scanned
    # with sigma and Frobenius, with sigma only (Variety.frobenius()
    # returning None) and unreduced (Variety.symmetry() returning None too)
    delta = full_bound_map()
    cosets = [M for M in fp if len(klein.class_support(M)) <= 10]
    table_codes = [code_for_threshold(delta, r["s"], fp, variety)
                   for r in construct_table(delta, variety) if r["k"] <= 10]
    assert len(cosets) == 11 and [c.k for c in table_codes] == [1, 2, 3, 4, 5, 7, 8, 10]

    def scan_all():
        return ([coset_min_weight(M, klein.class_support(M), variety)[0] for M in cosets],
                [min_distance(code)[0] for code in table_codes])

    def words(**reductions):
        return (sum(_coset_words(M, klein.class_support(M), **reductions) for M in cosets)
                + sum(_distance_words(code.monomials, **reductions) for code in table_codes))

    scanned = _count_scanned(monkeypatch)
    minima = scan_all()
    assert minima[0] == [klein.CLASS_MINIMUM[M] for M in cosets]
    assert sum(scanned) == words()
    for patched, reductions in (("frobenius", {"squares": False}),
                                ("symmetry", {"sigma": False, "squares": False})):
        scanned.clear()
        monkeypatch.setattr(codes.Variety, patched, lambda self: None)
        assert scan_all() == minima
        assert sum(scanned) == words(**reductions)
    assert sum(scanned) == (sum(8 ** len(klein.class_support(M)) for M in cosets)
                            + sum((8 ** code.k - 1) // 7 for code in table_codes))
    assert words() < words(squares=False) / 2.7


def test_scan_word_counts(fp, variety, monkeypatch):
    # about a third of the sigma-only scan's words on the largest scans
    scanned = _count_scanned(monkeypatch)
    sigma_only = {}
    for M, words, minimum in (((3, 1), 51_838_976, 9), ((1, 2), 6_815_744, 10)):
        support = klein.class_support(M)
        scanned.clear()
        assert coset_min_weight(M, support, variety) == (minimum, True)
        assert sum(scanned) == _coset_words(M, support) == words
        sigma_only[M] = _coset_words(M, support, squares=False)
    delta = full_bound_map()
    (s,) = [r["s"] for r in construct_table(delta, variety) if r["k"] == 10]
    code = code_for_threshold(delta, s, fp, variety)
    scanned.clear()
    assert min_distance(code) == (10, True)
    assert sum(scanned) == _distance_words(code.monomials) == 8_032_841
    sigma_only[10] = _distance_words(code.monomials, squares=False)
    assert sigma_only == {(3, 1): 153_419_776, (1, 2): 19_398_656, 10: 22_057_545}


@pytest.mark.parametrize("low_coeffs", [0, 1])
def test_reduced_scan_matches_brute_force(spec, variety, fp, monkeypatch, low_coeffs):
    # small cosets of monomials (both reductions) and of sums of monomials
    # (squaring only): with at most one low row, up to four rows go through
    # the high table's parts and _frobenius_table
    monkeypatch.setattr(codes, "_LOW_COEFFS", low_coeffs)
    scanned = _count_scanned(monkeypatch)
    mul = spec.mul_table()
    pi, psi = variety.symmetry(), variety.frobenius()
    monos = list(fp)
    rnd = random.Random(0xF40B)
    for case in range(40):
        k = 1 + case % 4
        picked = rnd.sample(monos, k + 1)
        words = np.stack([monomial_vector(m, variety) for m in picked])
        sigma = case % 2 == 0
        if not sigma:
            # a sum of two monomials of different phases is no eigenvector
            i = rnd.randrange(k + 1)
            other = next(m for m in rnd.sample(monos, len(monos))
                         if _klein_phase(m) != _klein_phase(picked[i]))
            words[i] ^= monomial_vector(other, variety)
        offset, rows = words[0], words[1:]
        scanned.clear()
        got = exact_min_weight(offset, rows, symmetry=pi, frobenius=psi)
        assert got == _brute_min(offset, rows, mul)
        assert sum(scanned) == _coset_words(picked[0], picked[1:], sigma=sigma)


def test_scaled_offset_falls_back_to_sigma_only(spec, variety, monkeypatch):
    # alpha * ev(X*Y^2) is a sigma eigenvector but fails u[psi] = u^2, so
    # the scan takes exactly the sigma-only words; the coset is alpha times
    # the class coset, with the class's minimum
    M = (1, 2)
    support = klein.class_support(M)
    rows = np.stack([monomial_vector(m, variety) for m in support])
    offset = spec.mul_table()[2, monomial_vector(M, variety)]
    pi, psi = variety.symmetry(), variety.frobenius()
    scanned = _count_scanned(monkeypatch)
    assert exact_min_weight(offset, rows, symmetry=pi, frobenius=psi) == 10
    both = sum(scanned)
    scanned.clear()
    assert exact_min_weight(offset, rows, symmetry=pi) == 10
    assert both == sum(scanned) == _coset_words(M, support, squares=False) == 19_398_656


def test_symmetry_checks_the_curve_map_only(spec):
    # the line y = 1 is permuted by (x, y) -> (g*x, y), but sigma sends it
    # to y = g^5: only sigma is tried, so there is no symmetry
    line = Variety([(x, 1) for x in range(1, 8)])
    assert line.symmetry() is None
    # sigma permutes the seven points (g^i, g^(5i)) cyclically
    orbit = Variety([(spec.pow(2, i), spec.pow(2, 5 * i)) for i in range(7)])
    pi = orbit.symmetry()
    assert sorted(pi.tolist()) == list(range(7)) and all(pi != np.arange(7))
    # a fixed point alone is not moved
    assert Variety([(0, 0)]).symmetry() is None
    assert Variety([]).symmetry() is None


def _without_symmetry(variety):
    """The Klein points less one point that sigma and squaring move: no
    diagonal map and no squaring permutes what is left."""
    pi, psi = variety.symmetry(), variety.frobenius()
    drop = next(j for j in range(len(pi)) if pi[j] != j and psi[j] != j)
    return Variety([p for j, p in enumerate(variety.points) if j != drop])


@pytest.mark.parametrize("low_coeffs", [None, 1])
def test_orbit_scan_off_without_eigenvectors(spec, variety, fp, monkeypatch, low_coeffs):
    if low_coeffs is not None:
        # a one-row low table puts k <= 4 through the high table
        monkeypatch.setattr(codes, "_LOW_COEFFS", low_coeffs)
    scanned = _count_scanned(monkeypatch)
    mul = spec.mul_table()
    plain = _without_symmetry(variety)
    assert plain.symmetry() is None and plain.frobenius() is None
    monos = list(fp)
    rnd = random.Random(0x5167)
    reduced = 0
    for case in range(48):
        k = 1 + case % 4
        picked = rnd.sample(monos, k + 1)
        phase = {m: _klein_phase(m) for m in picked}
        v = plain if case % 3 == 2 else variety
        words = np.stack([monomial_vector(m, v) for m in picked])
        if case % 3 == 1:
            # a sum of two monomials of different phases is no eigenvector
            i = rnd.randrange(k + 1)
            other = next(m for m in rnd.sample(monos, len(monos))
                         if _klein_phase(m) != phase[picked[i]])
            words[i] ^= monomial_vector(other, v)
        offset, rows = words[0], words[1:]
        scanned.clear()
        got = exact_min_weight(offset, rows, symmetry=v.symmetry(), frobenius=v.frobenius())
        assert got == _brute_min(offset, rows, mul)
        if v is plain:
            assert sum(scanned) == 8 ** k
        else:
            # monomials keep both reductions, a sum of monomials squaring only
            assert sum(scanned) == _coset_words(picked[0], picked[1:], sigma=case % 3 == 0)
        split = max(0, k - codes._LOW_COEFFS)
        moved = any(phase[m] != phase[picked[0]] for m in picked[1:1 + split])
        reduced += case % 3 == 0 and moved
        if case % 3:
            code = codes.EvaluationCode(picked, v, words)
            scanned.clear()
            assert min_distance(code, "exhaustive") == (_brute_distance(words, mul), True)
            if v is plain:
                assert sum(scanned) == (8 ** (k + 1) - 1) // 7
    assert reduced >= (8 if low_coeffs else 0)


def test_forged_symmetry_is_caught(fp, variety, monkeypatch):
    # A wrong permutation gives the rows no phase, so the scan falls back to
    # squaring alone, 176 of the 8^3 high states: the minimum stays right
    # and the orbit guard fails.
    pi = variety.symmetry().copy()
    pi[[1, 2]] = pi[[2, 1]]
    monkeypatch.setattr(codes.Variety, "symmetry", lambda self: pi)
    scanned = _count_scanned(monkeypatch)
    M = (4, 0)
    support = klein.class_support(M)
    assert coset_min_weight(M, support, variety) == (10, True)
    assert sum(scanned) == _coset_words(M, support, sigma=False) == 176 * 8 ** 5
    with pytest.raises(AssertionError):
        _assert_orbit_scan(scanned, 8)


def _scalar_coeffs(seed, count, k):
    """The sampler's coefficients, drawn one scalar at a time: the bytes of
    successive next_u64() outputs, least significant first, masked to 7."""
    g = SplitMix64(seed)
    draws = []
    while len(draws) < count * k:
        draws += [b & 7 for b in g.next_u64().to_bytes(8, "little")]
    return np.array(draws[:count * k], dtype=np.uint8).reshape(count, k)


# (seed, offset monomial, k, count): k = 0 is the class 1, k = 5, 6 and 7
# are not multiples of the 4-row groups, and k = 22 is the whole footprint
SAMPLED_CASES = [(0, (7, 0), 3, 500), (5, (7, 0), 10, 40_000), (77, (7, 0), 21, 3000),
                 (2024, (7, 0), 1, 64), (3, (0, 0), 0, 100), (8, (7, 0), 5, 999),
                 (9, (7, 0), 6, 1000), (10, (7, 0), 7, 1001), (11, (7, 0), 22, 2000),
                 (12, (7, 0), 4, 1)]


def test_sampled_scan_matches_uint8_formula(spec, variety, fp, monkeypatch):
    mul = spec.mul_table()
    # 7-message blocks make many blocks per case, the last one partial
    for sample_chunk in (codes._SAMPLE_CHUNK, 7):
        monkeypatch.setattr(codes, "_SAMPLE_CHUNK", sample_chunk)
        for seed, M, k, count in SAMPLED_CASES:
            rows = np.array([monomial_vector(m, variety) for m in list(fp)[:k]],
                            dtype=np.uint8).reshape(k, 22)
            offset = monomial_vector(M, variety)
            coeffs = _scalar_coeffs(seed, count, k)
            block = np.broadcast_to(offset, (count, 22)).copy()
            for i in range(k):
                block ^= mul[coeffs[:, i][:, None], rows[i][None, :]]
            blocks = list(sample_weights(offset, rows, seed, count))
            assert len(blocks) == -(-count // sample_chunk)
            assert np.array_equal(np.concatenate([c for c, _ in blocks]), coeffs)
            weights = np.count_nonzero(block, axis=1)
            assert np.array_equal(np.concatenate([w for _, w in blocks]), weights)
            assert sampled_min_weight(offset, rows, seed, count) == weights.min()


def test_sampled_scan_memory_is_block_sized(variety):
    M = (6, 2)
    support = klein.class_support(M)
    assert len(support) == 21
    rows = np.stack([monomial_vector(m, variety) for m in support])
    offset = monomial_vector(M, variety)
    tracemalloc.start()
    try:
        for _ in sample_weights(offset, rows, 5, 100_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
