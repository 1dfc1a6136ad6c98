"""Variety enumeration, evaluation codes, and weight/distance oracles.

The heavy scans are numpy-vectorized over uint8 enc values: addition of
codeword vectors is XOR, scalar multiplication goes through the field's
q-by-q table, and Hamming weights are nonzero counts.  Exhaustive scans
enumerate messages in blocks (all combinations of the lowest coefficients
are precomputed as one array); the gray strategy additionally walks the
high coefficients in reflected q-ary Gray order so each step updates the
running vector by a single scaled row.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec
from .groebner import GroebnerBasis, buchberger, footprint
from .poly import MonomialOrder, Polynomial, ZeroPolynomial
from .rng import SplitMix64


class DuplicateMonomial(ValueError):
    pass


class RankDeficient(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


class SupportNotBelowM(ValueError):
    pass


class Variety:
    """Ordered list of distinct points, sorted by enc coordinates."""

    __slots__ = ("spec", "points")

    def __init__(self, spec: FieldSpec, points):
        self.spec = spec
        self.points = tuple(sorted(points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def enumerate_variety(gens, spec: FieldSpec, arity: int = 2) -> Variety:
    """Brute-force scan of all q^arity points for common zeros."""
    points = []
    coords = [0] * arity
    for n in range(spec.q ** arity):
        v = n
        for i in range(arity):
            coords[i] = v % spec.q
            v //= spec.q
        pt = tuple(coords)
        if all(g.eval(pt, spec) == 0 for g in gens):
            points.append(pt)
    return Variety(spec, points)


def verify_fano(v: Variety) -> bool:
    """Check the 21 non-origin points realize a 7-point projective plane:
    one point with x = 0, three b-values per nonzero x ("lines"), any two
    lines meeting in exactly one b, and every nonzero b on exactly 3 lines.
    """
    zero_x = [p for p in v if p[0] == 0]
    if len(zero_x) != 1:
        return False
    lines = {}
    for x, y in v:
        if x != 0:
            lines.setdefault(x, set()).add(y)
    if len(lines) != 7 or any(len(bs) != 3 for bs in lines.values()):
        return False
    keys = sorted(lines)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if len(lines[a] & lines[b]) != 1:
                return False
    incidence = {}
    for bs in lines.values():
        for b in bs:
            if b == 0:
                return False
            incidence[b] = incidence.get(b, 0) + 1
    return len(incidence) == 7 and all(c == 3 for c in incidence.values())


def evaluation_vector(F: Polynomial, v: Variety) -> np.ndarray:
    """(F(P_1), ..., F(P_n)) as a uint8 enc vector in variety order."""
    return np.array([F.eval(p, v.spec) for p in v], dtype=np.uint8)


def monomial_vector(mono: tuple, v: Variety) -> np.ndarray:
    spec = v.spec
    out = np.empty(len(v), dtype=np.uint8)
    for j, pt in enumerate(v):
        val = 1
        for x, e in zip(pt, mono):
            if e:
                val = spec.mul(val, spec.pow(x, e))
                if val == 0:
                    break
        out[j] = val
    return out


class EvaluationCode:
    __slots__ = ("monomials", "variety", "G", "n", "k")

    def __init__(self, monomials, variety: Variety, G: np.ndarray):
        self.monomials = tuple(monomials)
        self.variety = variety
        self.G = G
        self.n = len(variety)
        self.k = len(self.monomials)


def build_code(L, v: Variety) -> EvaluationCode:
    """Assemble the generator matrix row-per-monomial and assert full rank."""
    L = [tuple(m) for m in L]
    if len(set(L)) != len(L):
        raise DuplicateMonomial("repeated basis monomial")
    G = np.zeros((len(L), len(v)), dtype=np.uint8)
    for i, m in enumerate(L):
        G[i] = monomial_vector(m, v)
    if L and gf_rank(G, v.spec) != len(L):
        raise RankDeficient("evaluation vectors are dependent")
    return EvaluationCode(L, v, G)


# ---------------------------------------------------------------------------
# GF(q) linear algebra on enc matrices

def gf_rank(M: np.ndarray, spec: FieldSpec) -> int:
    return len(_row_echelon(M, spec)[0])


def _row_echelon(M: np.ndarray, spec: FieldSpec):
    mul = spec.mul_table()
    A = M.copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if A[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        A[[r, pivot]] = A[[pivot, r]]
        inv = spec.inv(int(A[r, c]))
        A[r] = mul[inv, A[r]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] ^= mul[int(A[i, c]), A[r]]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, A[:r]


def gf_kernel(M: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Basis of the right kernel (rows are kernel vectors)."""
    rows, cols = M.shape
    pivots, R = _row_echelon(M, spec)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.uint8)
    for idx, fc in enumerate(free):
        out[idx, fc] = 1
        for r, pc in enumerate(pivots):
            out[idx, pc] = R[r, fc]  # char 2: negation is identity
    return out


# ---------------------------------------------------------------------------
# weights via the footprint identity

def weight_via_footprint(F: Polynomial, gb: GroebnerBasis) -> int:
    """n minus the footprint size of <F> + ideal(gb); must equal the direct
    Hamming weight of the evaluation vector."""
    if F.is_zero():
        raise ZeroPolynomial("weight of the zero codeword")
    n = len(footprint(gb))
    bigger = buchberger([F, *gb.gens], gb.order)
    return n - len(footprint(bigger))


# ---------------------------------------------------------------------------
# enumeration helpers

def _low_block(rows: np.ndarray, spec: FieldSpec, n: int) -> np.ndarray:
    """All q^r combinations of the given rows as a (q^r, n) array."""
    mul = spec.mul_table()
    block = np.zeros((1, n), dtype=np.uint8)
    for row in rows:
        variants = mul[:, row]  # (q, n): c*row for each scalar c
        block = (block[:, None, :] ^ variants[None, :, :]).reshape(-1, n)
    return block


def _gray_transitions(q: int, digits: int):
    """Reflected q-ary Gray transitions: yields (position, old, new) so that
    consecutive states differ in one digit by +-1; starts from all zeros."""
    state = [0] * digits
    direction = [1] * digits
    total = q ** digits
    for _ in range(total - 1):
        i = 0
        while True:
            nxt = state[i] + direction[i]
            if 0 <= nxt < q:
                yield i, state[i], nxt
                state[i] = nxt
                break
            direction[i] = -direction[i]
            i += 1


def _weights_min(block: np.ndarray, skip_zero: bool) -> int:
    w = np.count_nonzero(block, axis=1)
    if skip_zero:
        w = w[w > 0]
        if w.size == 0:
            return 10 ** 9
    return int(w.min())


def _scan_offset_span(offset: np.ndarray, rows: np.ndarray, spec: FieldSpec,
                      gray: bool, skip_zero: bool = False) -> int:
    """Minimum weight of offset + span(rows), scanning all q^k combinations.

    skip_zero ignores the single all-zero combination when offset is zero.
    gray chooses single-row running updates for the high digits; otherwise
    each high state is recomputed directly.
    """
    k = rows.shape[0]
    mul = spec.mul_table()
    low = min(k, 5)
    high = k - low
    table = _low_block(rows[:low], spec, len(offset))
    table = table ^ offset[None, :]
    best = _weights_min(table, skip_zero)
    if high == 0:
        return best
    high_rows = rows[low:]
    if gray:
        base = np.zeros_like(offset)
        for pos, old, new in _gray_transitions(spec.q, high):
            base ^= mul[old ^ new, high_rows[pos]]
            best = min(best, _weights_min(table ^ base[None, :], False))
        return best
    digits = [0] * high
    q = spec.q
    for n in range(1, q ** high):
        v = n
        base = np.zeros_like(offset)
        for i in range(high):
            digits[i] = v % q
            v //= q
            if digits[i]:
                base ^= mul[digits[i], high_rows[i]]
        best = min(best, _weights_min(table ^ base[None, :], False))
    return best


def _check_sample_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"sample count {count} must be at least 1")


def _scan_offset_sample(offset: np.ndarray, rows: np.ndarray, spec: FieldSpec,
                        seed: int, count: int) -> int:
    _check_sample_count(count)
    mul = spec.mul_table()
    rng = SplitMix64(seed)
    best = 10 ** 9
    chunk = 1 << 15
    k = rows.shape[0]
    done = 0
    while done < count:
        take = min(chunk, count - done)
        done += take
        coeffs = rng.fill_below(spec.q, (take, k))
        block = np.broadcast_to(offset, (take, len(offset))).copy()
        for i in range(k):
            block ^= mul[coeffs[:, i][:, None], rows[i][None, :]]
        best = min(best, _weights_min(block, False))
    return best


# ---------------------------------------------------------------------------
# distance and coset oracles

EXHAUSTIVE_LIMIT_K = 8
GRAY_LIMIT_COEFFS = 10


def min_distance(code: EvaluationCode, strategy: str = "exhaustive",
                 limit_k: int = EXHAUSTIVE_LIMIT_K, seed: int = 0,
                 count: int = 100_000) -> tuple[int, bool]:
    """True minimum weight for small k, or a sampled upper bound.

    strategy "exhaustive" scans all q^k - 1 nonzero messages with Gray-order
    running updates; "sample" draws seeded random messages (exact=False).
    """
    if code.k < 1:
        raise ZeroPolynomial("zero code has no nonzero codeword")
    spec = code.variety.spec
    zero = np.zeros(code.n, dtype=np.uint8)
    if strategy == "exhaustive":
        if code.k > limit_k:
            raise DimensionTooLarge(f"k={code.k} above exhaustive limit {limit_k}")
        return _scan_offset_span(zero, code.G, spec, gray=True, skip_zero=True), True
    if strategy == "sample":
        # weight-0 draws can only come from the zero message; they are
        # dropped inside the scan, so the bound quantifies over codewords
        return _scan_offset_sample_nonzero(code, spec, seed, count), False
    raise ValueError(f"unknown strategy {strategy!r}")


def _scan_offset_sample_nonzero(code: EvaluationCode, spec: FieldSpec,
                                seed: int, count: int) -> int:
    _check_sample_count(count)
    mul = spec.mul_table()
    rng = SplitMix64(seed)
    best = 10 ** 9
    chunk = 1 << 15
    done = 0
    while done < count:
        take = min(chunk, count - done)
        done += take
        coeffs = rng.fill_below(spec.q, (take, code.k))
        block = np.zeros((take, code.n), dtype=np.uint8)
        for i in range(code.k):
            block ^= mul[coeffs[:, i][:, None], code.G[i][None, :]]
        w = np.count_nonzero(block, axis=1)
        w = w[w > 0]
        if w.size:
            best = min(best, int(w.min()))
    if best == 10 ** 9:
        raise ValueError(f"all {count} sampled messages were zero")
    return best


def coset_min_weight(M: tuple, support, v: Variety, mode: str = "exhaustive",
                     order: MonomialOrder = None, fp=None, seed: int = 0,
                     count: int = 100_000) -> tuple[int, bool]:
    """Minimum weight of ev(M + sum a_i m_i) over all coefficient choices.

    support must consist of footprint monomials strictly below M.  Modes:
    exhaustive (direct recompute), gray (running single-row updates), and
    sample (seeded, exact=False).
    """
    support = [tuple(m) for m in support]
    if order is not None:
        for m in support:
            if order.compare(m, M) >= 0:
                raise SupportNotBelowM(f"{m} not below {M}")
    if fp is not None:
        if tuple(M) not in fp:
            raise SupportNotBelowM(f"{M} outside the footprint")
        for m in support:
            if m not in fp:
                raise SupportNotBelowM(f"{m} outside the footprint")
    spec = v.spec
    offset = monomial_vector(tuple(M), v)
    rows = np.zeros((len(support), len(v)), dtype=np.uint8)
    for i, m in enumerate(support):
        rows[i] = monomial_vector(m, v)
    if mode in ("exhaustive", "gray"):
        if mode == "gray" and len(support) > GRAY_LIMIT_COEFFS:
            raise DimensionTooLarge(
                f"{len(support)} coefficients above gray limit {GRAY_LIMIT_COEFFS}")
        return _scan_offset_span(offset, rows, spec, gray=(mode == "gray")), True
    if mode == "sample":
        return _scan_offset_sample(offset, rows, spec, seed, count), False
    raise ValueError(f"unknown mode {mode!r}")


def count_weight_one(code: EvaluationCode) -> int:
    """Number of weight-1 codewords via dual membership of unit vectors."""
    spec = code.variety.spec
    H = gf_kernel(code.G, spec)
    if H.shape[0] == 0:
        return code.n * (spec.q - 1)
    member_dirs = int(np.sum(~np.any(H != 0, axis=0)))
    return member_dirs * (spec.q - 1)


# ---------------------------------------------------------------------------
# the parameter table

def construct_table(delta_map: dict, v: Variety):
    """Threshold the weight-bound map: one row per distinct bound s with
    k = #{M : delta(M) >= s}, descending in s."""
    n = len(v)
    values = sorted(set(delta_map.values()), reverse=True)
    rows = []
    for s in values:
        k = sum(1 for d in delta_map.values() if d >= s)
        if k:
            rows.append({"s": s, "n": n, "k": k, "d": s})
    return rows


def code_for_threshold(delta_map: dict, s: int, fp, v: Variety) -> EvaluationCode:
    """The code spanned by the footprint monomials whose bound reaches s."""
    L = [m for m in fp if delta_map[m] >= s]
    return build_code(L, v)
