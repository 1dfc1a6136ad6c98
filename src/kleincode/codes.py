"""Variety enumeration, evaluation codes, and weight/distance oracles.

Evaluation is vectorised: a Variety keeps its points as a 2 x n uint8
array of coordinates, and evaluate_terms folds each exponent into 0..7 and
hands the terms to FieldSpec.evaluate, the package's one GF(8) evaluator,
all points and terms at once.  Evaluation vectors, monomial rows and the
variety scan itself all go through it; Polynomial.eval stays the scalar
reference.

Every codeword scan runs on one bit-plane scanner: a word of n symbols of
GF(8) is packed into three unsigned n-bit planes, one per bit of the enc
value, so adding words is XOR of planes and the Hamming weight is
np.bitwise_count(p0 | p1 | ...).  The exact scan (modes "exhaustive" and
"gray" name the same scan) packs all combinations of the lowest
coefficients into one table and XORs in the high-coefficient states a chunk
at a time on the calling thread, refusing more than EXACT_LIMIT_COEFFS
coefficients before any work.

GF(8) is the one field, read from gf.gf8(); only the pinned call forms
enumerate_variety(gens, spec, 2) and gf_rank(M, spec) take one, checked.

The high states visit one word per orbit of a group of order 21, made of
two maps of the Klein quartic.  Variety.symmetry() is the coordinate
permutation pi of sigma(x, y) = (g*x, g^5*y), when it permutes the points.
When the offset and every row u satisfy u[pi] = g^e*u for some phase e,
read off the vector itself, the first nonzero high coefficient whose phase
differs from the offset's is scaled to 1.  This relies on q - 1 = 7 being
prime, true of GF(8) (FieldSpec.m = 3).  Variety.frobenius() is the
permutation psi of phi(x, y) = (x^2, y^2).  When every vector also
satisfies u[psi] = u^2, as every monomial's word does, squaring the
coefficients keeps the weight, so each sigma-normalised part takes one
coefficient vector per squaring orbit, of size 1 or 3.  Each reduction is
checked on the vectors and is off when they fail it; with neither, every
state is visited.  On a 2-CPU x86 host the X^3*Y coset (8^10 states)
takes about 0.07-0.1 s and the X*Y^2 coset (8^9) about 10-14 ms.  An exact
distance scans one message per projective point: the messages whose first
nonzero coefficient is 1, (8^k - 1)/7 of them, as the cosets
G[p] + span(G[p+1:]), and each coset gets the same orbit reductions, so the
k = 10 distance takes about 12-18 ms.  An EvaluationCode's rows are
independent, so none of these cosets holds the zero word and the exact
scan counts every word it meets; zero words are ignored by the sampled
scan only, which can draw the zero message.

The sampled scan splits the rows into groups of four, tabulates the
packed span of each group once (8^4 words) and adds up one gathered table
word per group for each seeded SplitMix64 message, a few thousand messages
per block so that every temporary stays in cache; the gather indices of all
groups come from one float32 product.
A message's coefficients are bytes of SplitMix64 outputs, eight per
output (rng.SplitMix64.fill_below), so the generator costs one mix per
eight coefficients.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .gf import FieldSpec, gf8
from .groebner import buchberger, footprint
from .poly import (
    ArityMismatch,
    MonomialOrder,
    ParametricCoefficients,
    Polynomial,
    ZeroPolynomial,
    format_monomial,
)
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
    """Ordered list of distinct points of the GF(8) plane, sorted by enc
    coordinates.

    coords[i, j] is coordinate i of point j: the rows that evaluate_terms
    hands to FieldSpec.evaluate.  A variety takes no field (it is gf8()),
    and symmetry() and frobenius() check the Klein quartic's two maps.
    """

    __slots__ = ("points", "coords", "_symmetry", "_frobenius")
    spec = gf8()  # the one field; kept because the benchmark tracer reads v.spec.q

    def __init__(self, points):
        self.points = tuple(sorted(points))
        self.coords = np.array(self.points, dtype=np.uint8).reshape(-1, 2).T
        self._symmetry = self._frobenius = False  # not looked for yet

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _image(self, x, y) -> np.ndarray:
        """The index of point (x[j], y[j]) for each j, -1 where it is none."""
        where = np.full((FieldSpec.q, FieldSpec.q), -1)  # [x, y] -> point index
        where[tuple(self.coords)] = np.arange(len(self))
        return where[x, y]

    def symmetry(self):
        """The coordinate permutation pi of sigma(x, y) = (g*x, g^5*y), with
        g = alpha, when sigma permutes the points and moves one of them:
        point pi[j] is the image of point j.  None otherwise.  Computed on
        the first call and then kept.

        On the Klein quartic Y^3 + X^3*Y + X, sigma sends the curve to g
        times itself, so it permutes the curve's points.  Its exponents are
        the order's weights scaled: (1, 5) = 4*(2, 3) mod 7.
        """
        if self._symmetry is False:
            x, y = self.coords
            scale = gf8().mul_pow_table()[:, :, 2]  # [x, e] -> g^e * x
            pi = self._image(scale[x, 1], scale[y, 5])
            moves = (pi >= 0).all() and (pi != np.arange(len(pi))).any()
            self._symmetry = pi if moves else None
        return self._symmetry

    def frobenius(self):
        """The coordinate permutation psi of phi(x, y) = (x^2, y^2) when
        phi permutes the points: point psi[j] is the image of point j.
        None otherwise.  Computed on the first call and then kept.

        The Klein quartic is defined over GF(2), so phi permutes its
        points, and ev(m)[psi] = ev(m)^2 coordinate-wise for every
        monomial m.
        """
        if self._frobenius is False:
            psi = self._image(*_SQUARE[self.coords])
            self._frobenius = psi if (psi >= 0).all() else None
        return self._frobenius


def _check_field(field):
    """A pinned call form's field: None or a FieldSpec, and otherwise unused."""
    if field is not None and not isinstance(field, FieldSpec):
        raise TypeError(f"the field is gf8(), not {field!r}")


def enumerate_variety(gens, spec: FieldSpec = None, arity: int = 2) -> Variety:
    """Brute-force scan of all q^2 points of the GF(8) plane for common
    zeros; the field is checked, and arity is 2 or refused."""
    _check_field(spec)
    if arity != 2:
        raise ArityMismatch(f"arity {arity}: the variety lies in the plane")
    grid = Variety(product(range(FieldSpec.q), repeat=2))
    common = np.ones(len(grid), dtype=bool)
    for g in gens:
        common &= evaluation_vector(g, grid) == 0
    return Variety([p for p, z in zip(grid.points, common) if z])


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


def evaluate_terms(terms: dict, v: Variety) -> np.ndarray:
    """sum of c * x^m over a concrete term map {m: c}, at every point x of v,
    as a uint8 enc vector in variety order.

    An exponent e >= 1 folds to (e - 1) % (q - 1) + 1, which keeps 0^e = 0,
    and e = 0 stays 0, so x^0 = 1 for every x; the plane's exponents reach
    EXPONENT_CAP, past the table FieldSpec.evaluate gathers from.  A
    coefficient outside 0..7 raises ValueError, as buchberger does."""
    FieldSpec.check_terms(terms)
    terms = terms or {(0, 0): 0}
    exps = np.array(list(terms), dtype=np.int64).T
    folded = np.where(exps > 0, (exps - 1) % (FieldSpec.q - 1) + 1, 0)
    return gf8().evaluate(list(terms.values()), folded, v.coords, [0])[0]


def evaluation_vector(F: Polynomial, v: Variety) -> np.ndarray:
    """(F(P_1), ..., F(P_n)) as a uint8 enc vector in variety order."""
    if F.domain.parametric:
        raise ParametricCoefficients("evaluation needs concrete coefficients")
    return evaluate_terms(F.terms, v)


def monomial_vector(mono: tuple, v: Variety) -> np.ndarray:
    """The evaluation vector of the monic monomial mono."""
    return evaluate_terms({tuple(mono): 1}, v)


class EvaluationCode:
    """The code spanned by the rows of G, one row per monomial.  The rows
    are independent, or RankDeficient is raised, so k is the dimension and
    no nonzero message gives the zero word."""

    __slots__ = ("monomials", "variety", "G", "n", "k")

    def __init__(self, monomials, variety: Variety, G: np.ndarray):
        self.monomials = tuple(monomials)
        self.variety = variety
        self.G = G
        self.n = len(variety)
        self.k = len(self.monomials)
        if gf_rank(G) != self.k:
            raise RankDeficient("evaluation vectors are dependent")


def build_code(L, v: Variety) -> EvaluationCode:
    """Assemble the generator matrix row-per-monomial; the code checks its
    rank."""
    L = [tuple(m) for m in L]
    if len(set(L)) != len(L):
        raise DuplicateMonomial("repeated basis monomial")
    G = np.zeros((len(L), len(v)), dtype=np.uint8)
    for i, m in enumerate(L):
        G[i] = monomial_vector(m, v)
    return EvaluationCode(L, v, G)


# ---------------------------------------------------------------------------
# GF(q) linear algebra on enc matrices

def gf_rank(M: np.ndarray, spec: FieldSpec = None) -> int:
    """Rank over GF(8); a field, if given, must be a FieldSpec."""
    _check_field(spec)
    return len(_row_echelon(M)[0])


def _row_echelon(M: np.ndarray):
    field = gf8()
    mul = field.mul_table()
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
        inv = field.inv(int(A[r, c]))
        A[r] = mul[inv, A[r]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] ^= mul[int(A[i, c]), A[r]]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, A[:r]


def gf_kernel(M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel (rows are kernel vectors)."""
    rows, cols = M.shape
    pivots, R = _row_echelon(M)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.uint8)
    for idx, fc in enumerate(free):
        out[idx, fc] = 1
        for r, pc in enumerate(pivots):
            out[idx, pc] = R[r, fc]  # char 2: negation is identity
    return out


# ---------------------------------------------------------------------------
# weights via the footprint identity

def weight_via_footprint(F: Polynomial, gb) -> int:
    """n minus the footprint size of <F> + ideal(gb); must equal the direct
    Hamming weight of the evaluation vector."""
    if F.is_zero():
        raise ZeroPolynomial("weight of the zero codeword")
    n = len(footprint(gb))
    bigger = buchberger([F, *gb])
    return n - len(footprint(bigger))


# ---------------------------------------------------------------------------
# the bit-plane weight scanner

EXACT_LIMIT_COEFFS = 10
_LOW_COEFFS = 5          # coefficients enumerated in the packed low table
# The exact scan's temporaries hold _CHUNK_WORDS words (256 KB as uint32):
# of 2^15 to 2^18, 2^16 gave the fastest kbench oracle passes on a 2-CPU
# machine.  The sampled scan draws _SAMPLE_CHUNK messages per block, so none
# of its temporaries outgrows the cache.
_CHUNK_WORDS = 1 << 16   # words per temporary of the exact scan
_SAMPLE_CHUNK = 1 << 12  # messages drawn per block of the sampled scan
_GROUP_ROWS = 4          # rows per span table of the sampled scan


def pack_planes(words: np.ndarray) -> np.ndarray:
    """Bit-plane form of GF(8) enc words: (..., n) -> (3, ...).

    Plane b holds bit b of every symbol, symbol j at bit j of one unsigned
    word, so adding words is XOR of planes and the Hamming weight is the
    popcount of the OR of the planes.
    """
    n = words.shape[-1]
    if n > 64:
        raise ValueError(f"length {n} does not fit a 64-bit plane word")
    dtype = np.uint32 if n <= 32 else np.uint64
    shifts = np.arange(n, dtype=dtype)
    return np.stack([np.bitwise_or.reduce(((words >> b) & 1).astype(dtype) << shifts,
                                          axis=-1)
                     for b in range(FieldSpec.m)])


def _packed_multiples(rows: np.ndarray) -> np.ndarray:
    """(bits, k, q) packed planes of c * rows[i] for every scalar c."""
    return pack_planes(gf8().mul_table()[:, rows]).transpose(0, 2, 1)


def _span_table(mults: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Packed base + span of the rows whose multiples are given, as
    (bits, words); the first row's coefficient is the leading digit.  base
    is one packed word (bits,) or several (bits, N), each taken with every
    combination; a row takes the scalars along mults' last axis."""
    table = base.reshape(len(base), -1)
    for i in range(mults.shape[1]):
        table = (table[:, :, None] ^ mults[:, i, None, :]).reshape(len(base), -1)
    return table


# Squaring permutes GF(8).  It fixes 0 and 1, the subfield GF(2), and its
# other orbits are {alpha, alpha^2, alpha^4} and {alpha^3, alpha^6, alpha^5}
# (c, c^2, c^4): _SQUARE_LEADS holds the least element of each, alpha and
# alpha^3 (enc 2 and 3).
_SQUARE = gf8().mul_pow_table()[1, 2]  # [x] -> x^2
_SQUARE_FIXED = [c for c in range(FieldSpec.q) if _SQUARE[c] == c]
_SQUARE_LEADS = [c for c in range(FieldSpec.q)
                 if c not in _SQUARE_FIXED and c == min(c, _SQUARE[c], _SQUARE[_SQUARE[c]])]


def _frobenius_table(mults: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Packed base + sum c_i * row_i over one coefficient vector c per
    orbit of squaring, c -> c^2 coordinate-wise, as (bits, words).

    A vector with a coefficient outside GF(2) lies in an orbit of size 3:
    its first such coefficient c_j runs once over a squaring orbit of
    GF(8) while the 0s and 1s before it stay.  So the part for each j
    takes c_0..c_(j-1) in {0, 1}, c_j in {alpha, alpha^3} and the rest
    free, and each of its words stands for 3; the last part, every
    coefficient in {0, 1}, is fixed by squaring and each word stands for
    itself.  For r rows that is (8^r + 2*2^r)/3 words.
    """
    table = base.reshape(len(base), -1)  # base + the GF(2) span of the rows before j
    parts = []
    for j in range(mults.shape[1]):
        lead = _span_table(mults[:, j:j + 1, _SQUARE_LEADS], table)
        parts.append(_span_table(mults[:, j + 1:], lead))
        table = _span_table(mults[:, j:j + 1, _SQUARE_FIXED], table)
    return np.concatenate(parts + [table], axis=1)


def _table_min(high: np.ndarray, low: np.ndarray) -> int:
    """Minimum weight of high[:, i] ^ low[:, j] over all i, j, in chunks of
    about _CHUNK_WORDS words so the temporaries stay in cache."""
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
        mins.append(int(wc.min()))
    return min(mins)


def _refuse_above_limit(k: int):
    if k > EXACT_LIMIT_COEFFS:
        q = FieldSpec.q
        raise DimensionTooLarge(
            f"{k} coefficients ({q}^{k} = {q ** k} states) above the "
            f"exact-scan limit of {EXACT_LIMIT_COEFFS} coefficients")


def _orbit_phases(words: np.ndarray, pi):
    """The phases of words[1:] less that of words[0], the offset, mod q - 1,
    where u[pi] = g^e * u gives u's phase e (a zero word has phase 0).
    None if pi is None or some word has no phase, which turns the sigma
    reduction off."""
    if pi is None:
        return None
    units = FieldSpec.q - 1
    scaled = gf8().mul_pow_table()[words, np.arange(units)[:, None, None], 2]
    match = np.all(scaled == words[:, pi], axis=-1)  # (q - 1, words)
    if not match.any(axis=0).all():
        return None
    e = match.argmax(axis=0)
    return (e[1:] - e[0]) % units


def _frobenius_holds(words: np.ndarray, psi) -> bool:
    """Whether every word u satisfies u[psi] = u^2 coordinate-wise, which
    turns the squaring reduction on.  False if psi is None.

    Then (o + sum c_i * u_i)^2 = (o + sum c_i^2 * u_i)[psi] for the offset
    o = words[0] and the rows u_i = words[1:], so the words of c and of c^2
    have one weight.  Every monomial's word passes; alpha times one fails.
    """
    return psi is not None and bool(np.array_equal(words[:, psi], _SQUARE[words]))


def _high_table(base: np.ndarray, mults: np.ndarray, phases, squares: bool):
    """Packed base + sum c_i * row_i over one coefficient vector c per
    orbit of the group that sigma and Frobenius generate, as (bits, words).

    sigma maps the word of c to a nonzero multiple of the word of c',
    c'_i = g^phases[i] * c_i, so both have one weight and both are zero or
    neither.  A row is "moved" when its phase is nonzero; since q - 1 = 7
    is prime, the nonzero values of a moved coefficient form one orbit, so
    the first nonzero moved coefficient can be made 1.  The table is one
    part per moved row p (earlier moved rows 0, c_p = 1, the rest free) and
    a part with every moved row 0.  With phases None or no moved row the
    one part is the whole span.  phases may go on past these k rows (into
    the low table's).

    When squares is true (_frobenius_holds), squaring the coefficients
    keeps the weight and each part's fixed 0s and 1s, so each part takes
    one vector per squaring orbit of its free rows (_frobenius_table):
    each word stands for 1 or 3 words of its part.  A part of r free rows
    then holds (8^r + 2*2^r)/3 words instead of 8^r, and the whole table
    about 1/21 of the q^k words when every row is moved.
    """
    k = mults.shape[1]
    span = _frobenius_table if squares else _span_table
    moved = [] if phases is None else [i for i in range(k) if phases[i]]
    parts = [span(mults[:, [i for i in range(k) if i not in moved]], base)]
    for j, p in enumerate(moved):
        free = [i for i in range(k) if i != p and i not in moved[:j]]
        parts.append(span(mults[:, free], base ^ mults[:, p, 1]))
    return np.concatenate(parts, axis=1)


def _scan_min(base: np.ndarray, mults: np.ndarray, phases, squares: bool) -> int:
    """Least weight of packed base + span of the rows with these multiples.
    The low coefficients form one table; the high ones visit one word per
    orbit of sigma when phases (the rows' phases relative to base's) are
    not None, and of squaring when squares is true (_high_table)."""
    split = max(0, mults.shape[1] - _LOW_COEFFS)
    high = _high_table(base, mults[:, :split], phases, squares)
    low = _span_table(mults[:, split:], np.zeros_like(base))
    return _table_min(high, low)


def exact_min_weight(offset: np.ndarray, rows: np.ndarray, symmetry=None,
                     frobenius=None) -> int:
    """Minimum weight of offset + span(rows) over all q^k coefficient choices;
    every word counts, so it is 0 when the offset lies in the span.

    symmetry and frobenius are coordinate permutations (Variety.symmetry()
    and Variety.frobenius()).  When the offset and every row are
    eigenvectors of symmetry, the scan visits one word per sigma orbit,
    and when they satisfy u[frobenius] = u^2, one per squaring orbit of
    that (_high_table).  Each reduction is checked on the vectors and left
    off when they fail it.  More than EXACT_LIMIT_COEFFS rows raise
    DimensionTooLarge before any work.
    """
    _refuse_above_limit(rows.shape[0])
    words = np.vstack([offset, rows])
    return _scan_min(pack_planes(offset), _packed_multiples(rows),
                     _orbit_phases(words, symmetry), _frobenius_holds(words, frobenius))


def sample_weights(offset: np.ndarray, rows: np.ndarray, seed: int, count: int):
    """Yield (coeffs, weights) blocks for `count` seeded random messages:
    weights[j] is the weight of offset + sum coeffs[j, i] * rows[i].

    The coefficients are the SplitMix64(seed).fill_below(q, (take, k))
    stream: each is one byte of an output, masked, eight per output.
    fill_below carries a partly used output over to the next block, so
    results do not depend on the block size.  Each group of
    _GROUP_ROWS consecutive rows has a packed span table (offset folded
    into the first), so a word is one gather per group.  All the groups'
    table indices come from one product coeffs @ digits.
    """
    if count < 1:
        raise ValueError(f"sample count {count} must be at least 1")
    k = rows.shape[0]
    q = FieldSpec.q
    mults = _packed_multiples(rows)
    base = pack_planes(offset)
    starts = range(0, max(k, 1), _GROUP_ROWS)
    # row-major (q^r, bits), so one gather fetches every plane of a word
    tables = [np.ascontiguousarray(_span_table(
        mults[:, g:g + _GROUP_ROWS], base if g == 0 else np.zeros_like(base)).T)
        for g in starts]
    # digits[c, j]: the place value of coefficient c in group j's table
    # index, whose first coefficient is the top digit.  Every index is an
    # integer below q^4 < 2^24, so the float32 product is exact.
    digits = np.zeros((k, len(starts)), dtype=np.float32)
    for j, g in enumerate(starts):
        digits[g:g + _GROUP_ROWS, j] = q ** np.arange(min(_GROUP_ROWS, k - g))[::-1]
    words = np.empty((_SAMPLE_CHUNK, len(base)), dtype=base.dtype)
    part = np.empty_like(words)
    rng = SplitMix64(seed)
    for done in range(0, count, _SAMPLE_CHUNK):
        take = min(_SAMPLE_CHUNK, count - done)
        coeffs = rng.fill_below(q, (take, k))
        # (groups, take): each group's indices contiguous for its gather
        index = (coeffs @ digits).T.astype(np.intp, order="C")
        w, p = words[:take], part[:take]
        for j, table in enumerate(tables):
            # mode "clip" (the indices are in range) writes out unbuffered
            np.take(table, index[j], axis=0, out=p if j else w, mode="clip")
            if j:
                w ^= p
        # the planes' OR column by column: a reduce over the short axis is slower
        word = w[:, 0] | w[:, 1]
        word |= w[:, 2]
        yield coeffs, np.bitwise_count(word)


def sampled_min_weight(offset: np.ndarray, rows: np.ndarray, seed: int, count: int) -> int:
    """Least weight among the sample_weights draws."""
    return min(int(w.min()) for _, w in sample_weights(offset, rows, seed, count))


# ---------------------------------------------------------------------------
# distance and coset oracles

def min_distance(code: EvaluationCode, strategy: str = "exhaustive",
                 seed: int = 0, count: int = 100_000) -> tuple[int, bool]:
    """True minimum weight for small k, or a sampled upper bound.

    strategy "exhaustive" (k at most EXACT_LIMIT_COEFFS) scans one message
    per projective point, (q^k - 1)/(q - 1) in all: a nonzero word and its
    scalar multiples have one weight, so it takes the messages whose first
    nonzero coefficient is 1, the coset G[p] + span(G[p+1:]) for each p;
    the rows are independent, so none of these words is zero.  "sample"
    draws seeded random messages (exact=False) and ignores the zero words
    of drawn zero messages.  Both quantify over nonzero codewords.
    """
    if code.k < 1:
        raise ZeroPolynomial("zero code has no nonzero codeword")
    if strategy == "exhaustive":
        _refuse_above_limit(code.k)
        mults = _packed_multiples(code.G)  # mults[:, p, 1] is G[p] itself
        pi, psi = code.variety.symmetry(), code.variety.frobenius()
        return min(_scan_min(mults[:, p, 1], mults[:, p + 1:],
                             _orbit_phases(code.G[p:], pi),
                             _frobenius_holds(code.G[p:], psi))
                   for p in range(code.k)), True
    if strategy != "sample":
        raise ValueError(f"unknown strategy {strategy!r}")
    # A drawn zero message gives the zero word, no codeword: a block whose
    # least weight is 0 takes its least nonzero weight instead, n + 1 if none.
    least = min(int(w.min()) or int(w.min(where=w > 0, initial=code.n + 1))
                for _, w in sample_weights(np.zeros(code.n, dtype=np.uint8), code.G,
                                           seed, count))
    if least > code.n:
        raise ValueError(f"all {count} sampled messages were zero")
    return least, False


def coset_min_weight(M: tuple, support, v: Variety, mode: str = "exhaustive",
                     order: MonomialOrder = None, fp=None, seed: int = 0,
                     count: int = 100_000) -> tuple[int, bool]:
    """Minimum weight of ev(M + sum a_i m_i) over all coefficient choices.

    support must consist of footprint monomials strictly below M.  Modes:
    exhaustive and gray (one and the same exact bit-plane scan; "gray" is
    kept as an alias for callers that name it) and sample (seeded,
    exact=False).  An order, if given, must be the one MonomialOrder.
    """
    if order is not None and not isinstance(order, MonomialOrder):
        raise TypeError(f"the order is MonomialOrder(), not {order!r}")
    M = tuple(M)
    support = [tuple(m) for m in support]
    key = MonomialOrder.key(M)
    for m in support:
        if MonomialOrder.key(m) >= key:
            raise SupportNotBelowM(f"{format_monomial(m)} not below {format_monomial(M)}")
    if fp is not None:
        for m in (M, *support):
            if m not in fp:
                raise SupportNotBelowM(f"{format_monomial(m)} outside the footprint")
    if mode not in ("exhaustive", "gray", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    offset = monomial_vector(M, v)
    rows = np.zeros((len(support), len(v)), dtype=np.uint8)
    for i, m in enumerate(support):
        rows[i] = monomial_vector(m, v)
    if mode == "sample":
        return sampled_min_weight(offset, rows, seed, count), False
    return exact_min_weight(offset, rows, symmetry=v.symmetry(),
                            frobenius=v.frobenius()), True


def count_weight_one(code: EvaluationCode) -> int:
    """Number of weight-1 codewords via dual membership of unit vectors."""
    H = gf_kernel(code.G)
    if H.shape[0] == 0:
        return code.n * (FieldSpec.q - 1)
    member_dirs = int(np.sum(~np.any(H != 0, axis=0)))
    return member_dirs * (FieldSpec.q - 1)


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
