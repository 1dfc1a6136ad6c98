"""Variety enumeration, evaluation codes, and weight/distance oracles.

Every codeword scan runs on one bit-plane scanner: a word of n symbols of
GF(2^m) is packed into m unsigned n-bit planes, one per bit of the enc
value, so adding words is XOR of planes and the Hamming weight is
np.bitwise_count(p0 | p1 | ...).  The exact scan (modes "exhaustive" and
"gray" alike) packs all combinations of the lowest coefficients into one
table and XORs in the high-coefficient states a chunk at a time, refusing
more than EXACT_LIMIT_COEFFS coefficients before any work.  The sampled
scan gathers precomputed packed scalar multiples of each row by seeded
SplitMix64 coefficients.
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
# the bit-plane weight scanner

EXACT_LIMIT_COEFFS = 10
_LOW_COEFFS = 5          # coefficients enumerated in the packed low table
_CHUNK_WORDS = 1 << 18   # words per temporary of the exact scan
_SAMPLE_CHUNK = 1 << 15  # messages drawn per block of the sampled scan


def pack_planes(words: np.ndarray, q: int) -> np.ndarray:
    """Bit-plane form of enc words over GF(q): (..., n) -> (log2 q, ...).

    Plane b holds bit b of every symbol, symbol j at bit j of one unsigned
    word, so adding words is XOR of planes and the Hamming weight is the
    popcount of the OR of the planes.
    """
    if q < 2 or q & (q - 1):
        raise ValueError(f"q={q} is not a power of two")
    n = words.shape[-1]
    if n > 64:
        raise ValueError(f"length {n} does not fit a 64-bit plane word")
    dtype = np.uint32 if n <= 32 else np.uint64
    shifts = np.arange(n, dtype=dtype)
    return np.stack([np.bitwise_or.reduce(((words >> b) & 1).astype(dtype) << shifts,
                                          axis=-1)
                     for b in range(q.bit_length() - 1)])


def _packed_multiples(rows: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """(bits, k, q) packed planes of c * rows[i] for every scalar c."""
    return pack_planes(spec.mul_table()[:, rows], spec.q).transpose(0, 2, 1)


def _span_table(mults: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Packed base + span of the rows whose multiples are given, as
    (bits, q^r); the first row's coefficient is the leading digit."""
    table = base[:, None]
    for i in range(mults.shape[1]):
        table = (table[:, :, None] ^ mults[:, i, None, :]).reshape(len(base), -1)
    return table


def _min_weight(w: np.ndarray, skip_zero: bool):
    """Least weight in w, ignoring zero words under skip_zero (None if
    nothing is left)."""
    best = int(w.min())
    if best == 0 and skip_zero:
        w = w[w > 0]
        return int(w.min()) if w.size else None
    return best


def _least(mins):
    """Least of the entries that are not None; None if there is none."""
    return min((m for m in mins if m is not None), default=None)


def _table_min(high: np.ndarray, low: np.ndarray, skip_zero: bool):
    """Minimum weight of high[:, i] ^ low[:, j] over all i, j, in chunks of
    about _CHUNK_WORDS words so the temporaries stay a few MB."""
    per = max(1, _CHUNK_WORDS // low.shape[1])
    acc = np.empty((per, low.shape[1]), dtype=low.dtype)
    tmp = np.empty_like(acc)
    w = np.empty(acc.shape, dtype=np.uint8)
    mins = []
    for s in range(0, high.shape[1], per):
        e = min(s + per, high.shape[1])
        a, t, wc = acc[:e - s], tmp[:e - s], w[:e - s]
        np.bitwise_xor(high[0, s:e, None], low[0], out=a)
        for b in range(1, len(low)):
            np.bitwise_xor(high[b, s:e, None], low[b], out=t)
            np.bitwise_or(a, t, out=a)
        np.bitwise_count(a, out=wc)
        mins.append(_min_weight(wc, skip_zero))
    return _least(mins)


def exact_min_weight(offset: np.ndarray, rows: np.ndarray, spec: FieldSpec,
                     skip_zero: bool = False, jobs: int = 1) -> int:
    """Minimum weight of offset + span(rows) over all q^k coefficient choices.

    The low coefficients form one packed table; the high ones are XORed in
    chunk by chunk.  skip_zero ignores zero words (the zero codeword of a
    code).  jobs > 1 scans the q parts with different leading coefficients
    on that many threads; the minimum does not depend on jobs.  More than
    EXACT_LIMIT_COEFFS rows raise DimensionTooLarge before any work.
    """
    k = rows.shape[0]
    if k > EXACT_LIMIT_COEFFS:
        raise DimensionTooLarge(
            f"{k} coefficients ({spec.q}^{k} = {spec.q ** k} states) above the "
            f"exact-scan limit of {EXACT_LIMIT_COEFFS} coefficients")
    mults = _packed_multiples(rows, spec)
    split = max(0, k - _LOW_COEFFS)
    base = pack_planes(offset, spec.q)
    high = _span_table(mults[:, :split], base)
    low = _span_table(mults[:, split:], np.zeros_like(base))
    # one part per leading coefficient (the top digit of the high table)
    step = high.shape[1] // spec.q if split else high.shape[1]

    def part(start):
        return _table_min(high[:, start:start + step], low, skip_zero)

    starts = range(0, high.shape[1], step)
    if jobs > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            best = _least(list(pool.map(part, starts)))
    else:
        best = _least(map(part, starts))
    if best is None:
        raise ValueError("the exact scan met only zero words")
    return best


def sample_weights(offset: np.ndarray, rows: np.ndarray, spec: FieldSpec,
                   seed: int, count: int):
    """Yield (coeffs, weights) blocks for `count` seeded random messages:
    weights[j] is the weight of offset + sum coeffs[j, i] * rows[i].

    The coefficients are the SplitMix64(seed).fill_below(q, (take, k))
    stream, so results do not depend on the block size.
    """
    if count < 1:
        raise ValueError(f"sample count {count} must be at least 1")
    mults = _packed_multiples(rows, spec)
    base = pack_planes(offset, spec.q)
    rng = SplitMix64(seed)
    for done in range(0, count, _SAMPLE_CHUNK):
        take = min(_SAMPLE_CHUNK, count - done)
        coeffs = rng.fill_below(spec.q, (take, rows.shape[0]))
        planes = np.repeat(base[:, None], take, axis=1)
        for i in range(rows.shape[0]):
            planes ^= mults[:, i, coeffs[:, i]]
        yield coeffs, np.bitwise_count(np.bitwise_or.reduce(planes, axis=0))


def sampled_min_weight(offset: np.ndarray, rows: np.ndarray, spec: FieldSpec,
                       seed: int, count: int, skip_zero: bool = False) -> int:
    """Least weight among the sample_weights draws; skip_zero ignores zero
    words and raises ValueError when every draw was one."""
    best = _least(_min_weight(w, skip_zero)
                  for _, w in sample_weights(offset, rows, spec, seed, count))
    if best is None:
        raise ValueError(f"all {count} sampled messages were zero")
    return best


# ---------------------------------------------------------------------------
# distance and coset oracles

def min_distance(code: EvaluationCode, strategy: str = "exhaustive",
                 seed: int = 0, count: int = 100_000) -> tuple[int, bool]:
    """True minimum weight for small k, or a sampled upper bound.

    strategy "exhaustive" scans all q^k - 1 nonzero messages (k at most
    EXACT_LIMIT_COEFFS); "sample" draws seeded random messages (exact=False).
    Zero words are ignored, so both quantify over nonzero codewords.
    """
    if code.k < 1:
        raise ZeroPolynomial("zero code has no nonzero codeword")
    spec = code.variety.spec
    zero = np.zeros(code.n, dtype=np.uint8)
    if strategy == "exhaustive":
        return exact_min_weight(zero, code.G, spec, skip_zero=True), True
    if strategy == "sample":
        return sampled_min_weight(zero, code.G, spec, seed, count, skip_zero=True), False
    raise ValueError(f"unknown strategy {strategy!r}")


def coset_min_weight(M: tuple, support, v: Variety, mode: str = "exhaustive",
                     order: MonomialOrder = None, fp=None, seed: int = 0,
                     count: int = 100_000, jobs: int = 1) -> tuple[int, bool]:
    """Minimum weight of ev(M + sum a_i m_i) over all coefficient choices.

    support must consist of footprint monomials strictly below M.  Modes:
    exhaustive and gray (both the exact bit-plane scan, on `jobs` threads)
    and sample (seeded, exact=False).
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
    if mode not in ("exhaustive", "gray", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    spec = v.spec
    offset = monomial_vector(tuple(M), v)
    rows = np.zeros((len(support), len(v)), dtype=np.uint8)
    for i, m in enumerate(support):
        rows[i] = monomial_vector(m, v)
    if mode == "sample":
        return sampled_min_weight(offset, rows, spec, seed, count), False
    return exact_min_weight(offset, rows, spec, jobs=jobs), True


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
