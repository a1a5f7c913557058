"""Linear codes over Z4: Howell canonical form, duality, weights, Type II.

A code is parsed and reduced as digit tuples. The canonical basis is the
Howell normal form; since Z4 has zero divisors, plain row echelon form does
not determine the row span uniquely, but the Howell form does, so code
equality is again literal equality of bases. Rows with a unit pivot come
with every multiple of the pivot column realized; rows with pivot 2 get
their double appended during reduction so that trailing spans survive.

Past the Howell form, words are packed as bit planes (lo, hi), digit
d = lo_bit + 2*hi_bit (pack). The Euclidean weight uses representatives
{0, +-1, 2}: digits 0, 1, 2, 3 contribute 0, 1, 4, 1, so (lo, hi) weighs
|lo| + 4|hi & ~lo|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .errors import EnumerationLimit
from .gf2 import INNER_BITS
from .matrixio import parse_z4_matrix

# Largest code that the minimum-weight scan (_weight_scan) enumerates.
ENUM_CAP = 1 << 30


def _howell(rows, n):
    """Howell normal form; returns tuple of (pivot_col, pivot_type, row)."""
    work = [list(r) for r in rows if any(r)]
    placed = []
    for col in range(n):
        unit_idx = next((i for i, r in enumerate(work) if r[col] % 2 == 1), None)
        if unit_idx is not None:
            row = work.pop(unit_idx)
            if row[col] == 3:
                row = [3 * x % 4 for x in row]
            for r in work:
                k = r[col]
                if k:
                    for j in range(col, n):
                        r[j] = (r[j] - k * row[j]) % 4
            placed.append((col, 1, row))
        else:
            two_idx = next((i for i, r in enumerate(work) if r[col]), None)
            if two_idx is None:
                continue
            row = work.pop(two_idx)
            for r in work:
                if r[col]:
                    for j in range(col, n):
                        r[j] = (r[j] - row[j]) % 4
            # keep the span of trailing coordinates: 2*row starts later
            double = [2 * x % 4 for x in row]
            if any(double):
                work.append(double)
            placed.append((col, 2, row))
        work = [r for r in work if any(r)]
    # clear entries above each pivot (fully for unit pivots, mod 2 above 2-pivots)
    for i, (col, typ, row) in enumerate(placed):
        for j in range(i):
            above = placed[j][2]
            e = above[col]
            k = e if typ == 1 else e >> 1
            if k:
                for t in range(col, n):
                    above[t] = (above[t] - k * row[t]) % 4
    return tuple((col, typ, tuple(row)) for col, typ, row in placed)


@dataclass(frozen=True)
class Z4Code:
    """A linear code over Z4 in Howell canonical form."""

    length: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(column, pivot value in {1,2}) per basis row."""
        out = []
        for row in self.basis:
            col = next(i for i, d in enumerate(row) if d)
            out.append((col, 2 if row[col] == 2 else 1))
        return tuple(out)

    def size(self) -> int:
        return 1 << sum(3 - t for _, t in self.pivots)  # 2 bits per unit pivot, 1 per 2-pivot

    def __str__(self):
        rows = ",".join("".join(map(str, r)) for r in self.basis)
        return f"Z4[{self.length}]{group_shape(self)}<{rows}>"


def z4_span(length: int, generators) -> Z4Code:
    """Howell-canonical code spanned by the given Z4 words."""
    rows = []
    for g in generators:
        if isinstance(g, str):
            g = tuple(int(ch) for ch in g)
        g = tuple(int(d) % 4 for d in g)
        if len(g) != length:
            raise ValueError(f"generator has length {len(g)}, expected {length}")
        rows.append(g)
    placed = _howell(rows, length)
    return Z4Code(length, tuple(row for _, _, row in placed))


def from_text(text: str) -> Z4Code:
    n, rows = parse_z4_matrix(text)
    return z4_span(n, rows)


def z4_dual(c: Z4Code) -> Z4Code:
    """Annihilator of c under <x,y> = sum x_i y_i in Z4, by a Howell
    reduction of an n x (k + n) matrix; no library path takes it."""
    n = c.length
    k = len(c.basis)
    # rows (column_i of the generator matrix | e_i); Howell rows whose left
    # block vanishes generate exactly the kernel of x -> Gx.
    aug = []
    for i in range(n):
        left = tuple(row[i] for row in c.basis)
        right = tuple(1 if j == i else 0 for j in range(n))
        aug.append(left + right)
    placed = _howell(aug, k + n)
    gens = [row[k:] for _, _, row in placed if not any(row[:k])]
    return z4_span(n, gens)


def residue(c: Z4Code) -> gf2.BinaryCode:
    """The mod-2 image of c (written C1): the span of the basis rows' residues."""
    return gf2.span(
        c.length,
        [sum((d & 1) << i for i, d in enumerate(row)) for row in c.basis],
    )


def torsion(c: Z4Code) -> gf2.BinaryCode:
    """The binary code C0 with 2*C0 = c intersect 2*Z4^n.

    C0 is the span of the residues of the lifts and of the halves that
    residue_lifts gives: c = <lifts> + 2*<halves>, and the lifts' residues
    are independent, so a word of c inside 2*Z4^n takes each lift an even
    number of times, and twice a lift is twice its residue.
    """
    lifts, halves = residue_lifts(c)
    return gf2.span(c.length, [lo for lo, _ in lifts] + list(halves))


def group_shape(c: Z4Code) -> str:
    """Abelian group shape 4^k1 * 2^(k0-k1) with k1 = dim C1, k0 = dim C0.

    Note this is basis-independent, unlike the pivot-type counts of the
    Howell form (a 2-pivot row may still have order 4, e.g. span{(2,1)}).
    """
    k1 = residue(c).dim
    k2 = torsion(c).dim - k1
    parts = []
    if k1:
        parts.append(f"4^{k1}" if k1 > 1 else "4")
    if k2:
        parts.append(f"2^{k2}" if k2 > 1 else "2")
    return "*".join(parts) if parts else "1"


def _pairings_vanish(lifts, halves) -> bool:
    """Whether <lifts> + 2*<halves> is self-orthogonal. <x, y> is
    |lo & ylo| + 2(|lo & yhi| + |hi & ylo|) mod 4 for any two lifts, a lift
    with itself included, and <g, 2h> = 2|lo(g) & h|; halves pair to 0."""
    for i, (lo, hi) in enumerate(lifts):
        if any((lo & h).bit_count() & 1 for h in halves):
            return False
        for ylo, yhi in lifts[i:]:
            if ((lo & ylo).bit_count() + 2 * ((lo & yhi).bit_count() + (hi & ylo).bit_count())) & 3:
                return False
    return True


def is_self_orthogonal(c: Z4Code) -> bool:
    return _pairings_vanish(*residue_lifts(c))


def is_self_dual(c: Z4Code) -> bool:
    """Self-orthogonal of size 2^n, since |c| * |dual(c)| = 4^n."""
    return c.size() == 2**c.length and is_self_orthogonal(c)


def is_type_ii(c: Z4Code) -> bool:
    """Self-dual with every Euclidean weight divisible by 8: of size 2^n, and
    all_weights_divisible_by_8, which implies self-orthogonality."""
    return c.size() == 2**c.length and all_weights_divisible_by_8(c)


def all_weights_divisible_by_8(c: Z4Code) -> bool:
    """Whether every Euclidean weight in c is divisible by 8.

    wt(x+y) = wt(x) + wt(y) + 2<x,y> mod 8. If every weight is divisible by
    8, every pairing vanishes mod 4, so the code is self-orthogonal; for a
    self-orthogonal code the same identity carries divisibility from the
    generators, the residue lifts and twice the halves (2h weighs 4|h|), to
    every codeword.
    """
    lifts, halves = residue_lifts(c)
    return (all((lo.bit_count() + 4 * (hi & ~lo).bit_count()) % 8 == 0 for lo, hi in lifts)
            and all(h.bit_count() % 2 == 0 for h in halves)
            and _pairings_vanish(lifts, halves))


# ---------------------------------------------------------------------------
# Coset-split enumeration for Euclidean weights
# ---------------------------------------------------------------------------
# A word is packed as two bitplanes (lo, hi): digit d = lo_bit + 2*hi_bit.
# Every codeword is g_S + 2u for a unique subset S of the lifts g_1..g_k1
# (residue_lifts, whose residues are a basis of C1, so the residue of g_S is
# a word c of C1) and a unique u in C0 (Hammons, Kumar, Calderbank, Sloane &
# Sole 1994), the span of the lifts' residues and the halves. With
# g_S = (c, m) packed, the word is (c, m ^ u) and its Euclidean weight is
# |c| + 4*wt((m ^ u) & ~c). The scan takes the cosets g_S + 2*C0, together
# with the torsion basis vectors beyond the first INNER_BITS, in
# binary-reflected Gray order: it builds every coset representative up
# front as limb arrays, and evaluates the cosets a block at a time over the
# span of the first INNER_BITS torsion vectors with the span kernel of gf2,
# at the limb width that gf2.limb_layout gives the code's length.
# Minimum-weight words are kept as rows of uint64 limbs, the lo limbs then
# the hi limbs, in scan order: cosets in Gray order, then span column.

# Number of minimum-weight words a scan keeps; the count stays exact beyond it.
_WORD_LIMIT = 1 << 18


def pack(word):
    """A Z4 word as its two bitplanes (lo, hi)."""
    lo = hi = 0
    for i, d in enumerate(word):
        lo |= (d & 1) << i
        hi |= (d >> 1) << i
    return lo, hi


def packed_add(word, other):
    """The sum of packed Z4 words (lo, hi), on Python ints or numpy arrays."""
    (lo, hi), (plo, phi) = word, other
    return lo ^ plo, hi ^ phi ^ (lo & plo)


def lift_remainder(word, lifts):
    """The packed word (lo, hi) plus, in turn, each of the packed lifts whose
    lowest residue bit the running sum holds."""
    for lift in lifts:
        if word[0] & lift[0] & -lift[0]:
            word = packed_add(word, lift)
    return word


def residue_lifts(c: Z4Code) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(lifts, halves): packed codewords (lo, hi) whose residues are an
    echelon basis of C1, and words h with c = <lifts> + 2*<halves>.

    Each Howell row is reduced against the lifts kept so far
    (lift_remainder): it is kept as a lift if its residue stays nonzero (a
    2-pivot row such as (2, 1) can be one), and otherwise leaves (0, h), a
    half. The lifts come sorted by the lowest bit of their residue, and
    these bits are distinct.
    """
    lifts, halves = [], []
    for row in c.basis:
        lo, hi = lift_remainder(pack(row), lifts)
        if lo:
            lifts.append((lo, hi))
        else:
            halves.append(hi)
    return tuple(sorted(lifts, key=lambda g: g[0] & -g[0])), tuple(halves)


def _gray_sums(steps, limbs: int, dtype):
    """Packed sums g_S of the words steps[j] over the sets S = s ^ (s >> 1),
    for s = 0, 1, ..., 2^len(steps) - 1: their lo and hi bitplanes as limb
    arrays of dtype with one row per s."""
    lo = np.zeros((1 << len(steps), limbs), dtype=dtype)
    hi = np.zeros_like(lo)
    parts = gf2.limb_array([w for step in steps for w in step], limbs, dtype)
    for j in range(len(steps)):
        a, b = 1 << j, 2 << j
        lo[a:b], hi[a:b] = packed_add((lo[:a], hi[:a]), parts[2 * j:2 * j + 2])
    s = np.arange(len(lo))
    gray = s ^ s >> 1
    return lo[gray], hi[gray]


@lru_cache(maxsize=8)
def _weight_scan(c: Z4Code):
    """Full enumeration pass: (min Euclidean weight, exact count of words at
    the minimum, the words).

    The words form a read-only uint64 array with one row per word: its lo
    bitplane as little-endian 64-bit limbs, then its hi bitplane
    (gf2.limb_array's layout), whatever limb width the scan itself ran at.
    They come in scan order, cosets in Gray order and then span column, and
    stop after _WORD_LIMIT rows.
    """
    if c.size() > ENUM_CAP:
        raise EnumerationLimit(f"|C| = {c.size()} above enumeration cap {ENUM_CAP}")
    if c.size() == 1:
        raise ValueError("the zero code has no nonzero codeword")
    tors = torsion(c).basis
    inner, extra = tors[:INNER_BITS], tors[INNER_BITS:]
    span = gf2.packed_span(inner, c.length)
    limbs, width = span.shape
    # one step per residue lift and one per torsion vector beyond the inner
    # span, at the span's limb width
    los, his = _gray_sums(list(residue_lifts(c)[0]) + [(0, v) for v in extra],
                          limbs, span.dtype)
    masks = ~los
    residue_weights = np.bitwise_count(los).sum(axis=1, dtype=np.int64)
    rows, out = gf2.span_buffers(span, len(los))
    # two values above any weight: the zero word's, and the target of a row
    # that holds no word at the minimum
    zero_word = np.iinfo(out[2].dtype).max
    no_target = zero_word - 1

    # the words at the minimum are kept as flat indices coset * width + column
    best, count, found, kept = 1 << 62, 0, [], 0
    for s in range(0, len(los), rows):
        # cosets whose residue weight is above the best before the block
        # hold no word at the minimum
        idx = s + np.flatnonzero(residue_weights[s:s + rows] <= best)
        if not len(idx):
            continue
        t = gf2.span_weights(span, his[idx], masks[idx], out=out)
        if s == 0:
            # coset 0, of residue weight 0, is never skipped
            t[0, 0] = zero_word
        tmin = t.min(axis=1)
        w = residue_weights[idx] + 4 * tmin.astype(np.int64)
        wmin = int(w.min())
        if wmin > best:
            continue
        if wmin < best:
            best, count, found, kept = wmin, 0, [], 0
        target = np.where(w == best, tmin, no_target)
        hits = np.flatnonzero(t == target[:, None])
        count += len(hits)
        hits = hits[:_WORD_LIMIT - kept]
        found.append(idx[hits // width] * width + hits % width)
        kept += len(hits)
    found = np.concatenate(found)
    words = np.hstack([los[found // width], gf2.span_words(span, his, found)],
                      dtype=np.uint64)
    words.flags.writeable = False
    return best, count, words


def min_euclidean_weight(c: Z4Code) -> int:
    return _weight_scan(c)[0]


def min_weight_words(c: Z4Code) -> np.ndarray:
    """The minimum-Euclidean-weight codewords, as _weight_scan's read-only
    limb rows (lo limbs, then hi limbs) in scan order."""
    _, count, words = _weight_scan(c)
    if count > len(words):
        raise EnumerationLimit("minimum-weight word list truncated")
    return words


def is_extremal(c: Z4Code) -> bool:
    """Type II meeting the bound 8*(floor(n/24) + 1) on the minimum weight."""
    if not is_type_ii(c):
        return False
    return min_euclidean_weight(c) == 8 * (c.length // 24 + 1)
