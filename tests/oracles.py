"""Test oracles: independent, brute-force routes the tests check the library
against. Nothing in framestab uses them.

- Construction A lattices from Z4-codes, with exact integer arithmetic.
  A lattice is stored through its doubled basis: an upper-triangular
  integer matrix M (Hermite normal form) whose rows are twice the actual
  basis vectors. The actual lattice is (1/2) * rowspan_Z(M), so Gram
  entries are rationals with denominator 4 and every predicate is decided
  exactly.
- Leech lattice membership, with vectors scaled by sqrt(8): a LeechWord is
  the integer vector sqrt(8) * v, and membership is decided by the
  congruence conditions of the standard Golay-code construction.
- The Euclidean weight and the pairing of Z4 words, digit by digit: the
  reference definitions that the library's packed forms are checked against.
- Z4 codeword listing and membership by reduction against the Howell basis,
  permutation group element listing, permutations from cycles, random
  self-orthogonal Z4-codes and random monomial relabelings.
- Sign compatibility of a coordinate permutation of a Z4-code from the
  pairings of the permuted code with its Z4 dual.
- Whether a word list separates the coordinates, by intersecting the words
  through each coordinate.
- The members of the orbifold family H, spanned one by one from the period
  matchings and told apart by canonical (RREF) basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from framestab import gf2, permgrp, z4
from framestab.errors import EnumerationLimit

# ---------------------------------------------------------------------------
# Z4-codes
# ---------------------------------------------------------------------------


_EUCLIDEAN = (0, 1, 4, 1)


def euclidean_weight(word) -> int:
    """Euclidean weight over the representatives {0, +-1, 2}: digits 0, 1,
    2, 3 contribute 0, 1, 4, 1."""
    return sum(_EUCLIDEAN[d] for d in word)


def inner_product(x, y) -> int:
    return sum(a * b for a, b in zip(x, y)) % 4


def add_words(x, y):
    return tuple((a + b) % 4 for a, b in zip(x, y))


def reduce(c: z4.Z4Code, word):
    """word reduced against the Howell basis of c; zero exactly on codewords."""
    word = list(word)
    for (col, typ), row in zip(c.pivots, c.basis):
        e = word[col] % 4
        k = e if typ == 1 else (e >> 1 if e % 2 == 0 else 0)
        if k:
            for j in range(col, c.length):
                word[j] = (word[j] - k * row[j]) % 4
    return tuple(d % 4 for d in word)


def contains(c: z4.Z4Code, word) -> bool:
    return not any(reduce(c, word))


def codewords(c: z4.Z4Code):
    """Iterate all codewords of c as digit tuples (constant memory)."""
    if c.size() > z4.ENUM_CAP:
        raise EnumerationLimit(f"|C| = {c.size()} above enumeration cap {z4.ENUM_CAP}")
    rows = list(c.basis)
    radix = [2 if typ == 2 else 4 for _, typ in c.pivots]

    def rec(i, acc):
        if i == len(rows):
            yield acc
            return
        word = acc
        for k in range(radix[i]):
            yield from rec(i + 1, word)
            if k + 1 < radix[i]:
                word = add_words(word, rows[i])

    return rec(0, tuple([0] * c.length))


def random_self_orthogonal(n: int, rows: int, rng: random.Random) -> z4.Z4Code:
    """Random self-orthogonal code built by greedy orthogonal extension."""
    gens: list[tuple[int, ...]] = []
    attempts = 0
    while len(gens) < rows and attempts < 200 * rows:
        attempts += 1
        cand = tuple(rng.randrange(4) for _ in range(n))
        if euclidean_weight(cand) % 4 != 0:
            continue
        if any(inner_product(cand, g) != 0 for g in gens):
            continue
        gens.append(cand)
    return z4.z4_span(n, gens)


def monomial_relabeling(c: z4.Z4Code, rng: random.Random) -> z4.Z4Code:
    """A random coordinate permutation and sign flip of the code, spanned from
    its basis rows in shuffled order."""
    n = c.length
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, 3)) for _ in range(n)]
    rows = []
    for row in c.basis:
        out = [0] * n
        for i, d in enumerate(row):
            out[perm[i]] = d * signs[i] % 4
        rows.append(out)
    rng.shuffle(rows)
    return z4.z4_span(n, rows)


def pairing_sign_rows(c: z4.Z4Code, perm: permgrp.Perm | None):
    """The GF(2) rows (mask, right-hand side in bit n) of the sign vectors s
    compatible with perm, or None if the pairings already rule every s out.

    Flipping the signs s turns a word w = lo + 2hi into w + 2(s & lo). A
    Z4-code is the annihilator of its Z4 dual, so that word lies in the code
    exactly when, for every basis row y = ylo + 2yhi of the dual, the pairing
    <w, y> = |lo & ylo| + 2(|lo & yhi| + |hi & ylo|) is even and
    s . (lo & ylo) = <w, y>/2 mod 2.
    """
    n = c.length
    dual = [z4.pack(y) for y in z4.z4_dual(c).basis]
    rows = set()
    for row in c.basis:
        lo, hi = z4.pack(row)
        if perm is not None:
            lo, hi = permgrp.apply_word(perm, lo), permgrp.apply_word(perm, hi)
        for ylo, yhi in dual:
            mask = lo & ylo
            pairing = mask.bit_count() + 2 * ((lo & yhi).bit_count() + (hi & ylo).bit_count())
            if pairing & 1:
                return None
            if mask:
                rows.add(mask | (pairing & 2) << (n - 1))
            elif pairing & 2:
                return None
    return rows


def pencils_separate(n: int, words: list[int]) -> bool:
    """Whether each coordinate is the exact intersection of the words through
    it. Recovering coordinate permutations from word permutations needs only
    distinct pencils; this stronger rule is the word-graph route's
    performance gate."""
    for i in range(n):
        mask = -1
        for w in words:
            if w >> i & 1:
                mask &= w
        if mask != 1 << i:
            return False
    return True


def word_perm(q: permgrp.Perm, words: list[int]) -> tuple:
    """The permutation the point permutation q induces on a list of words,
    one word at a time (None where an image is not in the list)."""
    index = {w: a for a, w in enumerate(words)}
    return tuple(index.get(permgrp.apply_word(q, w)) for w in words)


# ---------------------------------------------------------------------------
# Orbifold subcode family
# ---------------------------------------------------------------------------


def family_one(n: int, matching) -> gf2.BinaryCode:
    gens = [gf2.d_word(x) for x in matching]
    gens += [gf2.e_word(matching[i] ^ matching[i + 1]) for i in range(len(matching) - 1)]
    return gf2.span(2 * n, gens)


def _pick_w(xa: int, xb: int) -> int:
    return (xa & -xa) | (xb & -xb)


def family_two(n: int, matching) -> gf2.BinaryCode:
    """Second family: e(y_j) + d(w_j) with w_j meeting consecutive pairs once.

    All four choices of w_j differ by d(x_j) or d(x_(j+1)), which are already
    generators, so any choice spans the same subcode; the smallest points are
    used for determinism.
    """
    gens = [gf2.d_word(x) for x in matching]
    for i in range(len(matching) - 1):
        y = matching[i] ^ matching[i + 1]
        w = _pick_w(matching[i], matching[i + 1])
        gens.append(gf2.e_word(y) ^ gf2.d_word(w))
    return gf2.span(2 * n, gens)


def period_matchings(c0: gf2.BinaryCode) -> list[tuple[int, ...]]:
    """The period matchings that frames._period_matchings counts: per period
    s != 0 of the check-matrix columns of c0, the pairs of columns that sum
    to s, as pair masks in the order of their first points."""
    cols = gf2.columns(gf2.dual(c0))
    index = {col: i for i, col in enumerate(cols)}
    out = []
    for j in range(1, len(cols)):
        s = cols[0] ^ cols[j]
        partner = [index.get(col ^ s) for col in cols]
        if None not in partner:
            out.append(tuple((1 << i) | (1 << p) for i, p in enumerate(partner) if i < p))
    return out


def orbifold_members(n: int, c0: gf2.BinaryCode) -> list[gf2.BinaryCode]:
    """The distinct subcodes d(E_n), family_one and family_two of every
    period matching of c0 (period_matchings), d(E_n) first."""
    d_en = gf2.d_map(gf2.even_code(n))
    found = {d_en.basis: d_en}
    for matching in period_matchings(c0):
        for e in (family_one(n, matching), family_two(n, matching)):
            found[e.basis] = e
    return list(found.values())


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

# Largest group order that elements iterates.
ELEMENTS_CAP = 1 << 20


def perm_from_cycles(n: int, cycles) -> permgrp.Perm:
    """Build a permutation from 1-indexed cycles."""
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def elements(group: permgrp.PermGroup):
    """Iterate all elements of group (order capped)."""
    if group.order() > ELEMENTS_CAP:
        raise ValueError(f"order {group.order()} above element-iteration cap")
    levels = len(group.base)

    def rec(l, current):
        if l == levels:
            yield current
            return
        for u in group.transversal(l).values():
            yield from rec(l + 1, permgrp.compose(u, current))

    yield from rec(0, permgrp.identity(group.degree))


def closure(n: int, gens) -> set[permgrp.Perm]:
    """Every product of gens, found breadth first: the group's elements,
    without a stabilizer chain."""
    out = {permgrp.identity(n)}
    queue = [permgrp.identity(n)]
    while queue:
        p = queue.pop()
        for g in gens:
            q = permgrp.compose(p, g)
            if q not in out:
                out.add(q)
                queue.append(q)
    return out


def partial_group(err, degree: int) -> permgrp.PermGroup:
    """The group that the generators of a budget stop generate."""
    return permgrp.PermGroup(degree, err.partial)


# ---------------------------------------------------------------------------
# Construction A
# ---------------------------------------------------------------------------


def _hnf(rows: list[list[int]], n: int) -> list[list[int]]:
    """Hermite normal form (row span preserved) of a full-rank integer matrix."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(n):
        live = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not live:
            raise ValueError("matrix does not have full column support")
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(n):
                    r[j] -= q * pivot[j]
            live, extra = [r for r in live if r[col]], [r for r in live if not r[col] and any(r)]
            rest.extend(extra)
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
    # reduce entries above each pivot into [0, pivot)
    for i in range(n):
        d = basis[i][i]
        for j in range(i):
            q = basis[j][i] // d
            if q:
                for t in range(n):
                    basis[j][t] -= q * basis[i][t]
    return basis


@dataclass(frozen=True)
class ALattice:
    """A rank-n lattice inside (1/2)Z^n, stored via its doubled HNF basis."""

    n: int
    doubled: tuple[tuple[int, ...], ...]
    code: z4.Z4Code | None = None

    @property
    def gram4(self) -> tuple[tuple[int, ...], ...]:
        """4 * Gram matrix (integer)."""
        m = self.doubled
        return tuple(
            tuple(sum(m[i][t] * m[j][t] for t in range(self.n)) for j in range(self.n))
            for i in range(self.n)
        )

    def det_doubled(self) -> int:
        out = 1
        for i in range(self.n):
            out *= self.doubled[i][i]
        return out

    def contains_doubled(self, vec) -> bool:
        """Membership of (1/2)*vec in the lattice, vec an integer vector."""
        v = list(vec)
        for i in range(self.n):
            d = self.doubled[i][i]
            q, r = divmod(v[i], d)
            if r:
                return False
            if q:
                for t in range(self.n):
                    v[t] -= q * self.doubled[i][t]
        return not any(v)


def construction_a(c: z4.Z4Code) -> ALattice:
    """A_4(c) = (1/2){x in Z^n : x mod 4 in c}."""
    n = c.length
    rows = [list(row) for row in c.basis]
    rows += [[4 if j == i else 0 for j in range(n)] for i in range(n)]
    hnf = _hnf(rows, n)
    lat = ALattice(n, tuple(tuple(r) for r in hnf), c)
    assert lat.det_doubled() * c.size() == 4**n
    return lat


def four_frame_lattice(n: int) -> ALattice:
    """A_4(0): the orthogonal frame lattice with Gram 4*I."""
    return construction_a(z4.z4_span(n, []))


def is_integral(lat: ALattice) -> bool:
    return all(x % 4 == 0 for row in lat.gram4 for x in row)


def is_even(lat: ALattice) -> bool:
    if not is_integral(lat):
        return False
    return all(lat.gram4[i][i] % 8 == 0 for i in range(lat.n))


def is_unimodular(lat: ALattice) -> bool:
    return abs(lat.det_doubled()) == 2**lat.n


def four_frame_check(lat: ALattice) -> bool:
    """Whether the standard frame vectors 2*e_i all lie in the lattice.

    Their pairwise inner products are (2e_i, 2e_j) = 4*delta identically, so
    membership is the only nontrivial condition; a lattice that fails it
    (such as the rowspan of 3*I scaled by 1/2) has no standard 4-frame.
    """
    n = lat.n
    frame = [[4 if j == i else 0 for j in range(n)] for i in range(n)]
    if not all(lat.contains_doubled(v) for v in frame):
        return False
    for i in range(n):
        for j in range(n):
            if sum(frame[i][t] * frame[j][t] for t in range(n)) != (16 if i == j else 0):
                return False
    return True


def verify_quotient(c: z4.Z4Code) -> bool:
    """Check that A_4(c)/A_4(0) realizes c: index determinant identity plus
    exactness of the reduction map on a generating set."""
    lat = construction_a(c)
    n = c.length
    if lat.det_doubled() * c.size() != 4**n:
        return False
    # frame inside, with the right index
    if not four_frame_check(lat):
        return False
    # every doubled basis row reduces into c
    for row in lat.doubled:
        if not contains(c, tuple(x % 4 for x in row)):
            return False
    # every code generator lifts into the lattice
    for g in c.basis:
        if not lat.contains_doubled(list(g)):
            return False
    return True


# ---------------------------------------------------------------------------
# Leech lattice membership (coordinates scaled by sqrt(8))
# ---------------------------------------------------------------------------

# The Golay copy the membership congruences refer to is pinned by the choice
# of coordinates; this is the copy adapted to the standard 4-frame pairing
# (epsilon_1 epsilon_2)(epsilon_3 epsilon_4)... of the 24 coordinates. The
# test suite re-verifies that it is a doubly-even self-dual [24,12,8] code
# equivalent to the extended quadratic-residue construction.
_LEECH_GOLAY_ROWS = """
    100000010001011100011000
    010000010001010001110010
    001000010001001000101110
    000100010001000101001011
    000010010000011000110101
    000001010000010101101100
    000000110000001101010110
    000000001001011001101001
    000000000101010101010101
    000000000011001100110011
    000000000000111100001111
    000000000000000011111111
"""


@lru_cache(maxsize=1)
def leech_golay_copy():
    rows = [gf2.parse_word(line) for line in _LEECH_GOLAY_ROWS.split()]
    return gf2.span(24, rows)


def leech_member(vec) -> bool:
    """Membership of (1/sqrt(8)) * vec in the Leech lattice.

    vec must be an integer vector of length 24. The even part requires
    (vec - 2c)/4 integral for the Golay word c = (vec/2 mod 2) with even
    coordinate sum; the odd part shifts by the all-ones vector and requires
    an odd coordinate sum.
    """
    vec = tuple(vec)
    if len(vec) != 24:
        raise ValueError("Leech vectors have 24 coordinates")
    golay = leech_golay_copy()
    parities = {x & 1 for x in vec}
    if parities == {0}:
        cbits = sum(((x >> 1) & 1) << i for i, x in enumerate(vec))
        if not golay.contains(cbits):
            return False
        total = sum(x - 2 * ((x >> 1) & 1) for x in vec)
        return total % 8 == 0
    if parities == {1}:
        cbits = sum((((x - 1) >> 1) & 1) << i for i, x in enumerate(vec))
        if not golay.contains(cbits):
            return False
        total = sum(x - 1 - 2 * (((x - 1) >> 1) & 1) for x in vec)
        return total % 8 == 4
    return False


def leech_frame_vectors() -> list[tuple[int, ...]]:
    """The 24 standard 4-frame vectors, scaled by sqrt(8)."""
    out = []
    for i in range(12):
        a = [0] * 24
        a[2 * i] = 4
        a[2 * i + 1] = 4
        out.append(tuple(a))
        b = [0] * 24
        b[2 * i] = -4
        b[2 * i + 1] = 4
        out.append(tuple(b))
    return out


def leech_scaled_generator(g) -> tuple[int, ...]:
    """Map a Z4 word g (length 24) in frame coordinates to the integer vector
    sqrt(8) * sum_i (g_i / 4) * alpha_i in epsilon-coordinates, where
    alpha_(2i-1), alpha_(2i) are the standard frame vectors. The word lies in
    the frame-quotient code exactly when this vector is in the Leech lattice.
    """
    g = tuple(g)
    if len(g) != 24:
        raise ValueError("expected a length-24 generator")
    out = [0] * 24
    for i in range(12):
        u, v = g[2 * i], g[2 * i + 1]
        out[2 * i] = u - v
        out[2 * i + 1] = u + v
    return tuple(out)
