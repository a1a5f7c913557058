"""Exact linear algebra and combinatorics for binary linear codes.

Words are plain Python ints used as bit vectors. Coordinate i (1-indexed,
matching the convention that the coordinate set is {1, ..., n}) lives in bit
i-1, so the printed string '1100' is the word with coordinates 1 and 2 set.

Codes are stored in reduced row echelon form with strictly increasing pivot
columns, which makes code equality literal equality of basis tuples. That
canonical form lets codes serve as hash keys, as in aut_binary's memo.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import EnumerationLimit
from .matrixio import parse_binary_matrix

# The one span limit: up to this dimension every weight question enumerates
# the span; above it codewords(), weight_classes and weight_distribution raise
# EnumerationLimit, and weight_words and min_weight test the weight-m words
# for membership, at most _COMB_ENUM_CAP of them for each weight m.
SPAN_ENUM_CAP = 28
_COMB_ENUM_CAP = 1 << 26

# Dimension of the packed span (2^16 words, 256 or 512 KB a limb).
INNER_BITS = 16
# Span words the kernel evaluates per call: a span of width w takes
# max(1, BLOCK // w) cosets at once. On a 2-CPU Xeon host, with the 32-bit
# limbs of length 24, the median z4._weight_scan of z4-pseudo-golay-1 (4096
# cosets of 4096 words) took 46, 35, 29, 27 and 26 ms at BLOCK = 2^14 ..
# 2^18, and that of z4-leech-standard (256 cosets of 65536) 23, 23, 23, 21
# and 21 ms (21 alternating runs each). The 2-3 ms that 2^17 would save
# there does not set the value alone: the span kernel of the frame reports
# runs at the same BLOCK.
BLOCK = 1 << 16
# Up to this dimension weight counts walk codewords() in Python: the span
# kernel's fixed cost of about ten numpy calls outweighs 2^dim words. On the
# small sides (dimensions 1-6) of the codes that frame reports of the length-8
# and Leech Z4-codes search, one weight_distribution + weight_classes pair
# takes 4-113 us looped against 30-186 us on the kernel; at dimension 7 both
# take about 0.55 ms. Every frame report's search setup pays this: on a 2-CPU
# Xeon host, benchmark frames-e8 with the loop deleted read wall_s 0.0195 ->
# 0.0201 s (+2.7%) and op_p50_s 0.00372 -> 0.00384 s (+3.0%), medians of 8
# alternating pairs of 5 s runs (seeds 1-8), lower in only 2 of 8.
SMALL_DIM = 6


def weight(word: int) -> int:
    """Hamming weight of a word."""
    return word.bit_count()


def parse_word(s: str) -> int:
    """Read a word from a 0/1 string, first character = coordinate 1."""
    w = 0
    for i, ch in enumerate(s):
        if ch == "1":
            w |= 1 << i
        elif ch != "0":
            raise ValueError(f"unexpected character {ch!r} in word")
    return w


def format_word(word: int, n: int) -> str:
    return "".join("1" if word >> i & 1 else "0" for i in range(n))


def support(word: int) -> tuple[int, ...]:
    """1-indexed coordinates of the set bits, ascending."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length())
        word ^= low
    return tuple(out)


def _rref(rows) -> tuple[int, ...]:
    basis: list[tuple[int, int]] = []  # (pivot, row), sorted by pivot
    for row in rows:
        for p, b in basis:
            if row >> p & 1:
                row ^= b
        if row:
            p = (row & -row).bit_length() - 1
            basis = [(q, b ^ row if b >> p & 1 else b) for q, b in basis]
            basis.append((p, row))
            basis.sort()
    return tuple(b for _, b in basis)


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear code in canonical (RREF) form."""

    length: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.dim

    def contains(self, word: int) -> bool:
        for b in self.basis:
            low = b & -b
            if word & low:
                word ^= b
        return word == 0

    def __contains__(self, word: int) -> bool:
        return self.contains(word)

    def codewords(self):
        """Iterate all codewords in Gray-code order (dim capped)."""
        if self.dim > SPAN_ENUM_CAP:
            raise EnumerationLimit(
                f"dim {self.dim} above span enumeration cap {SPAN_ENUM_CAP}"
            )
        w = 0
        yield 0
        for i in range(1, 1 << self.dim):
            w ^= self.basis[(i & -i).bit_length() - 1]
            yield w

    def __str__(self):
        rows = ",".join(format_word(b, self.length) for b in self.basis)
        return f"[{self.length},{self.dim}]<{rows}>"


def span(length: int, generators) -> BinaryCode:
    """Canonical code spanned by the given words (ints or 0/1 strings).

    Dependent or duplicate generators are fine; string generators must have
    exactly the stated length.
    """
    masks = []
    for g in generators:
        if isinstance(g, str):
            if len(g) != length:
                raise ValueError(f"generator {g!r} has length {len(g)}, expected {length}")
            g = parse_word(g)
        if g < 0 or g >> length:
            raise ValueError(f"generator 0b{g:b} does not fit in length {length}")
        masks.append(g)
    return BinaryCode(length, _rref(masks))


def consistent(n: int, rows) -> bool:
    """Whether the linear system over GF(2) whose rows are masks over n
    unknowns, each with its right-hand side in bit n, has a solution.

    Rows are reduced one at a time against those kept so far, each kept
    under its lowest bit. The system is inconsistent exactly when 1 << n
    lies in the span of the rows; since bit n is the highest, that is when
    some row reduces to 1 << n itself, and the answer is False at once.
    """
    kept: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = kept.get(low)
            if pivot is None:
                break
            row ^= pivot
        if row == 1 << n:
            return False
        if row:
            kept[row & -row] = row
    return True


def columns(c: BinaryCode) -> list[int]:
    """The columns of the matrix whose rows are the basis of c: one int per
    coordinate, bit k from row k. They are read off the rows' binary
    strings, last row first, so that int() puts row 0 in bit 0."""
    if not c.basis:
        return [0] * c.length
    fmt = f"0{c.length}b"
    rows = [format(b, fmt)[::-1] for b in reversed(c.basis)]
    return [int("".join(column), 2) for column in zip(*rows)]


def from_text(text: str) -> BinaryCode:
    n, rows = parse_binary_matrix(text)
    return span(n, rows)


def dual(c: BinaryCode) -> BinaryCode:
    """Dual under the intersection-parity pairing <x,y> = |x & y| mod 2."""
    pivots = [(b & -b).bit_length() - 1 for b in c.basis]
    pivot_set = set(pivots)
    gens = []
    for f in range(c.length):
        if f in pivot_set:
            continue
        w = 1 << f
        for p, b in zip(pivots, c.basis):
            if b >> f & 1:
                w |= 1 << p
        gens.append(w)
    return span(c.length, gens)


# ---------------------------------------------------------------------------
# Span kernel
# ---------------------------------------------------------------------------
# A word is split into little-endian limbs whose width follows its length
# (limb_layout): one uint32 limb up to length 32, else 64-bit limbs, so
# that short codes move half the bytes through the XOR and AND. The span of
# up to INNER_BITS words is built once as a limbs x 2^k array of that
# width, and a block of its cosets (the span XOR one offset word per row) is
# counted at once with np.bitwise_count, into buffers allocated once per
# enumeration. The offsets of all cosets are built up front as one limb
# array.


def limb_layout(length: int) -> tuple[int, np.dtype]:
    """Limb count and dtype of the span kernel's words of this length: one
    uint32 limb up to length 32, else as many uint64 limbs as it takes."""
    if length <= 32:
        return 1, np.dtype(np.uint32)
    return -(-length // 64), np.dtype(np.uint64)


def limb_array(words, count: int, dtype=np.uint64) -> np.ndarray:
    """words (non-negative Python ints) as a len(words) x count array of
    dtype, one row of little-endian limbs of that width each."""
    bits = 8 * np.dtype(dtype).itemsize
    mask = (1 << bits) - 1
    return np.array([[v >> (bits * l) & mask for l in range(count)] for v in words],
                    dtype=dtype).reshape(-1, count)


def limb_ints(rows: np.ndarray) -> list[int]:
    """The rows of a limb array as Python ints; inverse of limb_array."""
    bits = 8 * rows.itemsize
    found = rows[:, 0].tolist()
    for l in range(1, rows.shape[1]):
        found = [f | p << (bits * l) for f, p in zip(found, rows[:, l].tolist())]
    return found


def packed_span(words, length: int) -> np.ndarray:
    """The span of words of this length as a count x 2^len(words) limb
    array, with the count and dtype of limb_layout(length).

    Column j holds the sum of the words[i] for the set bits i of j.
    """
    count, dtype = limb_layout(length)
    span = np.zeros((count, 1 << len(words)), dtype=dtype)
    parts = limb_array(words, count, dtype).reshape(-1, count, 1)
    for i, part in enumerate(parts):
        span[:, 1 << i:2 << i] = span[:, :1 << i] ^ part
    return span


def span_buffers(span: np.ndarray, cosets: int):
    """Scratch for span_weights: the number of cosets it evaluates per call,
    max(1, BLOCK // width) but no more than cosets, and a rows x width
    block of the span's dtype with the weight arrays of that shape."""
    count, width = span.shape
    rows = min(cosets, max(1, BLOCK // width))
    x = np.empty((rows, width), dtype=span.dtype)
    t = np.empty((rows, width), dtype=np.uint8 if count == 1 else np.uint16)
    c = np.empty((rows, width), dtype=np.uint8) if count > 1 else None
    return rows, (x, c, t)


def span_weights(span: np.ndarray, offsets: np.ndarray, masks: np.ndarray | None = None,
                 *, out) -> np.ndarray:
    """Hamming weights of (span ^ offsets[r]) & masks[r]: one row per row r of
    the limb arrays offsets and masks, of the span's dtype, and one column
    per span column.

    out is span_buffers(span, ...)[1]; the result is a view of its weight
    array, valid until the next call.
    """
    rows = len(offsets)
    x, c, t = (None if b is None else b[:rows] for b in out)
    for l, row in enumerate(span):
        np.bitwise_xor(row, offsets[:, l, None], out=x)
        if masks is not None:
            np.bitwise_and(x, masks[:, l, None], out=x)
        if l:
            np.add(t, np.bitwise_count(x, out=c), out=t)
        else:
            np.bitwise_count(x, out=t)
    return t


def span_words(span: np.ndarray, offsets: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """The words at the flat indices hits of a span_weights block, as a
    len(hits) x count limb array of the span's dtype."""
    rows, cols = np.divmod(hits, span.shape[1])
    return span.T[cols] ^ offsets[rows]


def _span_blocks(c: BinaryCode):
    """Every codeword once, by blocks of cosets of the packed span of the
    first INNER_BITS basis words: yields (span, offsets, t) with t the
    span_weights of the block's offsets.

    The zero word is t[0, 0] of the first block.
    """
    if c.dim > SPAN_ENUM_CAP:
        raise EnumerationLimit(f"dim {c.dim} above span enumeration cap {SPAN_ENUM_CAP}")
    span = packed_span(c.basis[:INNER_BITS], c.length)
    offsets = packed_span(c.basis[INNER_BITS:], c.length).T
    rows, out = span_buffers(span, len(offsets))
    for s in range(0, len(offsets), rows):
        block = offsets[s:s + rows]
        yield span, block, span_weights(span, block, out=out)


def weight_classes(c: BinaryCode, weights) -> list[list[int]]:
    """The codewords of each weight in weights, each list sorted by support,
    from one span enumeration."""
    if c.dim <= SMALL_DIM:
        words = list(c.codewords())
        return [sorted((w for w in words if w.bit_count() == m), key=support) for m in weights]
    found = [[] for _ in weights]
    for span, offsets, t in _span_blocks(c):
        for words, m in zip(found, weights):
            words.extend(limb_ints(span_words(span, offsets, np.flatnonzero(t == m))))
    return [sorted(words, key=support) for words in found]


def weight_words(c: BinaryCode, m: int) -> list[int]:
    """All codewords of weight exactly m, sorted by support.

    Enumerates the span up to dimension SPAN_ENUM_CAP. Above it, tests each
    of the C(length, m) words of weight m for membership, and raises
    EnumerationLimit if they are more than _COMB_ENUM_CAP.
    """
    if not 0 <= m <= c.length:
        raise ValueError(f"weight {m} out of range for length {c.length}")
    if c.dim <= SPAN_ENUM_CAP:
        return weight_classes(c, [m])[0]
    if comb(c.length, m) > _COMB_ENUM_CAP:
        raise EnumerationLimit(f"C({c.length},{m}) candidates of [{c.length},{c.dim}] above cap")
    # combinations come in lexicographic order, which is support order
    words = (sum(1 << i for i in coords) for coords in combinations(range(c.length), m))
    return [w for w in words if c.contains(w)]


def min_weight(c: BinaryCode) -> int:
    """Minimum nonzero codeword weight.

    One span enumeration up to dimension SPAN_ENUM_CAP; above it, the least
    m for which weight_words(c, m) is not empty.
    """
    if c.dim == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if c.dim <= SPAN_ENUM_CAP:
        # the zero word, the first entry of the first block, is left out
        return min(int(t.ravel()[0 if k else 1:].min())
                   for k, (_, _, t) in enumerate(_span_blocks(c)))
    return next(m for m in range(1, c.length + 1) if weight_words(c, m))


def weight_distribution(c: BinaryCode) -> dict[int, int]:
    """Weight enumerator as a dict weight -> count, in increasing weight."""
    if c.dim <= SMALL_DIM:
        return dict(sorted(Counter(w.bit_count() for w in c.codewords()).items()))
    counts = np.zeros(c.length + 1, dtype=np.int64)
    for _, _, t in _span_blocks(c):
        counts += np.bincount(t.ravel(), minlength=c.length + 1)
    return {k: v for k, v in enumerate(counts.tolist()) if v}


# ---------------------------------------------------------------------------
# Doubling maps d, e : Z2^n -> Z2^(2n)
# ---------------------------------------------------------------------------

def d_word(word: int) -> int:
    """(c1,...,cn) -> (c1,c1,...,cn,cn)."""
    out = 0
    while word:
        low = word & -word
        i = low.bit_length() - 1
        out |= 0b11 << (2 * i)
        word ^= low
    return out


def e_word(word: int) -> int:
    """(c1,...,cn) -> (0,c1,0,c2,...,0,cn)."""
    out = 0
    while word:
        low = word & -word
        i = low.bit_length() - 1
        out |= 1 << (2 * i + 1)
        word ^= low
    return out


def d_map(c: BinaryCode) -> BinaryCode:
    return span(2 * c.length, [d_word(b) for b in c.basis])


def e_map(c: BinaryCode) -> BinaryCode:
    return span(2 * c.length, [e_word(b) for b in c.basis])


# ---------------------------------------------------------------------------
# Code families
# ---------------------------------------------------------------------------

def full_code(n: int) -> BinaryCode:
    return span(n, [1 << i for i in range(n)])


def even_code(n: int) -> BinaryCode:
    """All even-weight words of length n."""
    if n < 1:
        raise ValueError("length must be positive")
    return span(n, [0b11 << i for i in range(n - 1)])


def reed_muller(r: int, m: int) -> BinaryCode:
    """RM(r, m) via evaluation vectors of monomials of degree <= r.

    Point j of F_2^m is the coordinate j+1; variable x_i evaluates to bit i
    of the point index.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    n = 1 << m
    ones = (1 << n) - 1
    var = []
    for i in range(m):
        v = 0
        for j in range(n):
            if j >> i & 1:
                v |= 1 << j
        var.append(v)
    gens = []
    for deg in range(r + 1):
        for vs in combinations(range(m), deg):
            w = ones
            for i in vs:
                w &= var[i]
            gens.append(w)
    return span(n, gens)


def hamming8() -> BinaryCode:
    """The [8,4,4] extended Hamming code, realized as RM(1,3)."""
    return reed_muller(1, 3)


@lru_cache(maxsize=1)
def golay24() -> BinaryCode:
    """The [24,12,8] binary Golay code as the extended quadratic-residue code.

    Built from cyclic shifts of the quadratic-residue indicator of length 23
    plus an overall parity coordinate; the construction re-verifies the
    [24,12,8] self-dual parameters before returning.
    """
    p = 23
    residues = {pow(i, 2, p) for i in range(1, p)}
    base = sum(1 << r for r in residues)
    shifts = []
    for s in range(p):
        w = ((base << s) | (base >> (p - s))) & ((1 << p) - 1)
        shifts.append(w)
    for extra in ([], [(1 << p) - 1]):
        c23 = span(p, shifts + extra)
        ext = span(24, [b | ((b.bit_count() & 1) << p) for b in c23.basis])
        if ext.dim != 12:
            continue
        if ext != dual(ext):
            continue
        if min_weight(ext) != 8:
            continue
        return ext
    raise AssertionError("extended quadratic-residue construction failed self-check")

