import hashlib
import math
import random

import numpy as np
import pytest

import oracles
from framestab import catalog, gf2, z4
from framestab.errors import EnumerationLimit, ParseError

LEN8_IDS = [f"z4-len8-{k}" for k in (1, 2, 3, 4)]


def len8(k):
    return catalog.get(f"z4-len8-{k}").code()


def unpack(lo, hi, n):
    return tuple((lo >> i & 1) + 2 * (hi >> i & 1) for i in range(n))


def unpack_rows(words):
    """_weight_scan's limb rows (lo limbs, then hi limbs) as (lo, hi) ints."""
    limbs = words.shape[1] // 2
    return [(sum(v << 64 * l for l, v in enumerate(row[:limbs])),
             sum(v << 64 * l for l, v in enumerate(row[limbs:])))
            for row in words.tolist()]


def relabel(c, rng):
    """A random coordinate permutation and sign change, rows shuffled."""
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


def test_span_sizes_and_shapes():
    expected = {1: "4*2^6", 2: "4^2*2^4", 3: "4^3*2^2", 4: "4^4"}
    for k, shape in expected.items():
        c = len8(k)
        assert c.size() == 256
        assert z4.group_shape(c) == shape


def test_span_zero():
    c = z4.z4_span(5, [(0, 0, 0, 0, 0)])
    assert c.size() == 1
    assert c == z4.z4_span(5, [])


def test_span_length_mismatch():
    with pytest.raises(ValueError):
        z4.z4_span(4, [(1, 2, 3)])


def test_howell_canonical_under_generator_changes():
    rng = random.Random(17)
    c = len8(3)
    for _ in range(20):
        gens = list(c.basis)
        k = rng.randrange(4)
        gens.append(oracles.add_words(gens[0], tuple(k * a % 4 for a in gens[-1])))
        units = [rng.choice([1, 3]) for _ in gens]
        gens = [tuple(u * a % 4 for a in g) for u, g in zip(units, gens)]
        rng.shuffle(gens)
        assert z4.z4_span(8, gens) == c


def test_howell_two_pivot_row_with_odd_tail():
    c = z4.z4_span(2, [(2, 1)])
    assert c.basis == ((2, 1), (0, 2))
    assert c.size() == 4
    assert z4.group_shape(c) == "4"
    assert oracles.contains(c, (2, 3)) and oracles.contains(c, (0, 2))
    assert not oracles.contains(c, (1, 0))


def test_dual_zero():
    d = z4.z4_dual(z4.z4_span(3, []))
    assert d.size() == 4**3


def test_length8_self_dual():
    for k in (1, 2, 3, 4):
        c = len8(k)
        assert z4.z4_dual(c) == c
        assert z4.is_self_dual(c)
        assert z4.is_type_ii(c)


def test_dual_product_law_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 9)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        c = z4.z4_span(n, gens)
        d = z4.z4_dual(c)
        assert c.size() * d.size() == 4**n
        assert z4.z4_dual(d) == c
        for x in c.basis:
            for y in d.basis:
                assert z4.inner_product(x, y) == 0


def test_residue_torsion_examples():
    c1 = len8(1)
    assert z4.torsion(c1) == gf2.even_code(8)
    assert z4.residue(c1) == gf2.span(8, [(1 << 8) - 1])
    c4 = len8(4)
    assert z4.torsion(c4) == gf2.hamming8()
    assert z4.residue(c4) == gf2.hamming8()


def torsion_oracle(c):
    """C0 from its definition: c meets 2*Z4^n in dual(dual(c) + 2*Z4^n),
    whose words halve to C0."""
    n = c.length
    twos = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    even_part = z4.z4_dual(z4.z4_span(n, list(z4.z4_dual(c).basis) + twos))
    return gf2.span(n, [sum((d >> 1) << i for i, d in enumerate(row))
                        for row in even_part.basis])


def test_torsion_matches_definition():
    everything = z4.z4_span(4, [tuple(int(i == j) for j in range(4)) for i in range(4)])
    codes = [catalog.get(code_id).code() for code_id in catalog.list_ids()
             if code_id.startswith("z4-")]
    codes += [
        z4.z4_span(5, []),
        everything,
        z4.z4_span(2, [(2, 1)]),
        z4.z4_span(3, [(2, 1, 0), (0, 2, 3)]),
        z4.z4_span(1, [(2,)]),
    ]
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(0, n + 2)):
            word = tuple(rng.randrange(4) for _ in range(n))
            gens.append(tuple(2 * a % 4 for a in word) if rng.random() < 0.3 else word)
        codes.append(z4.z4_span(n, gens))
    for c in codes:
        assert z4.torsion(c) == torsion_oracle(c), str(c)
    assert z4.torsion(z4.z4_span(5, [])) == gf2.span(5, [])
    assert z4.torsion(everything) == gf2.full_code(4)
    # span{(2, 1)} = {0, (2, 1), (0, 2), (2, 3)} meets 2*Z4^2 in (0, 2) alone
    assert z4.torsion(z4.z4_span(2, [(2, 1)])) == gf2.span(2, [0b10])


def test_leech_residue_span():
    lee = catalog.get("z4-leech-standard").code()
    c1 = z4.residue(lee)
    assert c1.dim == 6
    assert gf2.min_weight(c1) == 8
    gens = [
        gf2.parse_word("1" * 8 + "0" * 16),
        gf2.parse_word("0" * 8 + "1" * 8 + "0" * 8),
    ]
    for b in gf2.hamming8().basis:
        block = gf2.format_word(b, 8)
        gens.append(gf2.parse_word(block * 3))
    assert c1 == gf2.span(24, gens)


def test_size_product_of_residue_and_torsion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 10)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        c = z4.z4_span(n, gens)
        assert c.size() == len(z4.torsion(c)) * len(z4.residue(c))


def test_self_orthogonal_inclusions():
    rng = random.Random(23)
    for _ in range(40):
        c = oracles.random_self_orthogonal(rng.randrange(4, 12), rng.randrange(1, 5), rng)
        c0, c1 = z4.torsion(c), z4.residue(c)
        dual_c1 = gf2.dual(c1)
        for b in c1.basis:
            assert c0.contains(b)
        for b in c0.basis:
            assert dual_c1.contains(b)
    for k in (1, 2, 3, 4):
        c = len8(k)
        assert z4.torsion(c) == gf2.dual(z4.residue(c))


def test_self_orthogonal_not_self_dual():
    c = z4.z4_span(2, [(2, 0)])
    assert z4.is_self_orthogonal(c)
    assert not z4.is_self_dual(c)
    assert not z4.is_type_ii(c)


def test_type_ii_residue_doubly_even():
    for k in (1, 2, 3, 4):
        c1 = z4.residue(len8(k))
        assert all(w.bit_count() % 4 == 0 for w in c1.codewords())


def test_euclidean_weights():
    assert z4.euclidean_weight((0, 1, 2, 3)) == 0 + 1 + 4 + 1
    word = tuple([2] + [0] * 7)
    assert z4.euclidean_weight(word) == 4


def test_min_euclidean_weight_len8():
    for k in (1, 2, 3, 4):
        c = len8(k)
        assert z4.min_euclidean_weight(c) == 8
        assert z4.is_extremal(c)


def test_min_weight_words_len8():
    c = len8(1)
    words = unpack_rows(z4.min_weight_words(c))
    assert all(z4.euclidean_weight(unpack(lo, hi, 8)) == 8 for lo, hi in words)
    direct = [w for w in oracles.codewords(c) if z4.euclidean_weight(w) == 8]
    assert len(words) == len(direct)


def _codeword_scan(c):
    """Reference for _weight_scan: every nonzero codeword, one at a time."""
    best, words = None, set()
    for w in oracles.codewords(c):
        if not any(w):
            continue
        e = z4.euclidean_weight(w)
        if best is None or e < best:
            best, words = e, set()
        if e == best:
            words.add(w)
    return best, words


def test_residue_lifts_are_codewords_over_an_echelon_basis_of_c1():
    rng = random.Random(23)
    codes = [catalog.get(i).code() for i in catalog.list_ids() if i.startswith("z4-")]
    codes += [z4.z4_span(2, [(2, 1)]), z4.z4_span(5, [(2, 1, 0, 3, 2), (0, 2, 2, 0, 1)])]
    for n in (64, 70, 130):
        # the last generator leads with a 2 and has an odd tail, like (2, 1)
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(4)]
        gens.append((2,) + tuple(2 * rng.randrange(2) for _ in range(n - 2)) + (1,))
        codes.append(z4.z4_span(n, gens))
    for c in codes:
        lifts = z4.residue_lifts(c)
        lows = [lo for lo, _ in lifts]
        assert gf2.span(c.length, lows) == z4.residue(c)
        assert len({lo & -lo for lo in lows}) == len(lows) == z4.residue(c).dim
        assert all(oracles.contains(c, unpack(lo, hi, c.length)) for lo, hi in lifts)


def test_weight_scan_matches_codeword_scan():
    rng = random.Random(41)
    codes = [z4.z4_span(2, [(2, 1)]), z4.z4_span(5, [(2, 1, 0, 3, 2), (0, 2, 2, 0, 1)])]
    codes += [relabel(len8(k), rng) for k in (1, 2, 3, 4)]
    for _ in range(30):
        n = rng.randrange(2, 12)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 5))]
        codes.append(z4.z4_span(n, gens))
    # 64-bit limbs, then 32-bit limbs up to length 32 and 64-bit ones at 33
    for n in (64, 65, 130, 31, 32, 33):
        # the last generator leads with a 2 and has an odd tail, like (2, 1)
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(3)]
        gens.append((2,) + tuple(2 * rng.randrange(2) for _ in range(n - 2)) + (1,))
        codes.append(z4.z4_span(n, gens))
    for c in codes:
        if c.size() == 1:
            continue
        best, words = _codeword_scan(c)
        m, count, packed = z4._weight_scan(c)
        assert (m, count) == (best, len(words))
        assert {unpack(lo, hi, c.length) for lo, hi in unpack_rows(packed)} == words


def test_weight_scan_beyond_inner_span_leech():
    # k0 = 18 > INNER_BITS: the coset representatives also range over
    # torsion vectors, so each must be the Z4 sum g_S; a lift counted twice
    # would shift its word by 2*res(g), outside the inner span
    c = catalog.get("z4-leech-standard").code()
    assert z4.torsion(c).dim > z4.INNER_BITS
    words = unpack_rows(z4.min_weight_words(c))
    assert len(words) == 95610
    assert len(set(words)) == len(words)
    unpacked = [unpack(lo, hi, 24) for lo, hi in words]
    assert all(z4.euclidean_weight(w) == 16 for w in unpacked)
    # c is self-dual, so membership is orthogonality to its basis
    assert z4.is_self_dual(c)
    pairings = np.array(unpacked) @ np.array(c.basis).T % 4
    assert not pairings.any()


def _scan_blocks(c):
    """Cosets of _weight_scan and the number of them it evaluates per block."""
    span = gf2.packed_span(z4.torsion(c).basis[:z4.INNER_BITS], c.length)
    cosets = 1 << (z4.residue(c).dim + max(0, z4.torsion(c).dim - z4.INNER_BITS))
    return cosets, gf2.span_buffers(span, cosets)[0]


def test_weight_scan_cosets_sharing_a_block():
    # the octacode's span of C0 has 16 columns, so all 16 cosets are one
    # block, and the zero word is the first entry of its first row
    c = len8(4)
    assert _scan_blocks(c) == (16, 16)
    best, words = _codeword_scan(c)
    m, count, packed = z4._weight_scan(c)
    got = unpack_rows(packed)
    assert (m, count, len(got)) == (best, len(words), len(words))
    assert {unpack(lo, hi, 8) for lo, hi in got} == words
    assert (0, 0) not in got


def test_weight_scan_later_block_lowers_minimum(monkeypatch):
    # 2*C0 = span{(2, 2, 0, 0), (2, 2, 2, 2)} has minimum weight 8; the
    # coset of the lift (1, 1, 0, 0) holds (1, 1, 0, 0) and (3, 3, 0, 0),
    # of weight 2
    c = z4.z4_span(4, [(2, 2, 2, 2), (1, 1, 0, 0)])
    want = {(1, 1, 0, 0), (3, 3, 0, 0)}
    for block in (gf2.BLOCK, 1):
        # at BLOCK = 1 each coset is a block of its own, so the first block
        # sets the minimum 8 and the second lowers it to 2
        monkeypatch.setattr(gf2, "BLOCK", block)
        assert _scan_blocks(c) == (2, 2 if block > 1 else 1)
        m, count, packed = z4._weight_scan.__wrapped__(c)
        assert (m, count) == (2, 2)
        assert {unpack(lo, hi, 4) for lo, hi in unpack_rows(packed)} == want


def test_weight_scan_two_limbs():
    # the octacode on coordinates 60-67, across the limb boundary, next to
    # a weight-12 word of 2s
    octa = len8(4)
    n = 70
    gens = [(0,) * 60 + row + (0, 0) for row in octa.basis]
    gens.append((2,) * 6 + (0,) * 62 + (2,) * 2)
    c = z4.z4_span(n, gens)
    best, words = _codeword_scan(c)
    m, count, packed = z4._weight_scan(c)
    assert packed.shape == (count, 4)
    assert (m, count) == (best, len(words)) == (8, len(z4.min_weight_words(octa)))
    got = unpack_rows(packed)
    assert {unpack(lo, hi, n) for lo, hi in got} == words
    assert any(lo >> 64 and lo & (1 << 64) - 1 for lo, _ in got)


@pytest.mark.parametrize("code_id, limit", [("z4-len8-4", 50), ("z4-leech-standard", 1000)])
def test_weight_scan_truncated_word_list(monkeypatch, code_id, limit):
    # the octacode's one block holds all its 128 words at the minimum, and
    # each of Leech's blocks is one coset holding hundreds
    c = catalog.get(code_id).code()
    m, count, full = z4._weight_scan.__wrapped__(c)
    assert limit < count
    # the cut falls between two words of one coset: their lo limbs agree
    assert np.array_equal(full[limit - 1, :1], full[limit, :1])
    monkeypatch.setattr(z4, "_WORD_LIMIT", limit)
    z4._weight_scan.cache_clear()
    try:
        got = z4._weight_scan(c)
        assert got[:2] == (m, count)
        assert np.array_equal(got[2], full[:limit])
        with pytest.raises(EnumerationLimit):
            z4.min_weight_words(c)
    finally:
        z4._weight_scan.cache_clear()


def _octacode_at_end(n):
    """The octacode on coordinates n-8..n-1, plus the weight-24 word of 2s
    on coordinates 0-5: 128 words of weight 8, the last through coordinate
    n-1."""
    gens = [(0,) * (n - 8) + row for row in len8(4).basis]
    return z4.z4_span(n, gens + [(2,) * 6 + (0,) * (n - 6)])


@pytest.mark.parametrize("code, count, digest", [
    (lambda: _octacode_at_end(32), 128, "5127e868b009b4dd"),
    (lambda: _octacode_at_end(33), 128, "6960bde517023c0d"),
    (lambda: catalog.get("z4-pseudo-golay-1").code(), 98256, "d65fb9c933e6a7f3"),
    (lambda: catalog.get("z4-leech-standard").code(), 95610, "fe8f46c2d6e4284c"),
], ids=["octacode-32", "octacode-33", "pseudo-golay-1", "leech"])
def test_weight_scan_words_contract(code, count, digest):
    # whatever limb width the scan runs at, its words are uint64 limb rows,
    # lo then hi, in the order of the 64-bit scan: the digests are of that
    # scan's little-endian bytes
    words = z4.min_weight_words(code())
    assert words.dtype == np.uint64
    assert words.shape == (count, 2)
    assert not words.flags.writeable
    assert hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()[:16] == digest


def test_weight_scan_words_read_only():
    # the lru_cache hands one array to every caller
    c = len8(2)
    words = z4.min_weight_words(c)
    with pytest.raises(ValueError):
        words[0, 0] = 0
    assert z4.min_weight_words(c) is words
    assert z4.euclidean_weight(unpack(*unpack_rows(words)[0], 8)) == 8


def _scan_order_reference(c):
    """_weight_scan one coset at a time in Python: (minimum, every word at
    it as (lo, hi) in scan order, (residue weight, minimum) of each coset).

    The cosets come in Gray order over the residue lifts and then the
    torsion vectors beyond the first INNER_BITS, each word g_S summed
    afresh; within a coset, span column j holds the sum of the inner
    torsion vectors at the set bits of j."""
    tors = z4.torsion(c).basis
    inner, extra = tors[:z4.INNER_BITS], tors[z4.INNER_BITS:]
    steps = list(z4.residue_lifts(c)) + [(0, v) for v in extra]
    span = [0]
    for v in inner:
        span += [u ^ v for u in span]
    best, words, cosets = None, [], []
    for s in range(1 << len(steps)):
        lo = hi = 0
        for j, (glo, ghi) in enumerate(steps):
            if (s ^ s >> 1) >> j & 1:
                lo, hi = lo ^ glo, hi ^ ghi ^ (lo & glo)
        cols = span[1:] if s == 0 else span  # the zero word is left out
        weights = [lo.bit_count() + 4 * ((hi ^ u) & ~lo).bit_count() for u in cols]
        for u, w in zip(cols, weights):
            if best is None or w < best:
                best, words = w, []
            if w == best:
                words.append((lo, hi ^ u))
        cosets.append((lo.bit_count(), min(weights, default=math.inf)))
    return best, words, cosets


def _skips_before_a_hit(cosets, best, rows):
    """Whether some block of rows cosets skips one (residue weight above the
    minimum before the block) ahead of one holding a word at best."""
    before = math.inf
    for b in range(0, len(cosets), rows):
        block = cosets[b:b + rows]
        if any(rw > before and any(m == best for _, m in block[i + 1:])
               for i, (rw, _) in enumerate(block)):
            return True
        before = min([before] + [m for _, m in block])
    return False


def test_weight_scan_order_matches_coset_walk(monkeypatch):
    # three cosets a block, so that cosets skipped by residue weight sit
    # between others of their block; INNER_BITS = 2 puts torsion vectors
    # into the Gray walk
    rng = random.Random(5)
    codes = [relabel(len8(k), rng) for k in (1, 2, 3, 4)]
    for _ in range(25):
        n = rng.randrange(3, 11)
        gens = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                for _ in range(rng.randrange(1, 5))]
        codes.append(z4.z4_span(n, gens))
    skipped = 0
    for inner_bits in (z4.INNER_BITS, 2):
        monkeypatch.setattr(z4, "INNER_BITS", inner_bits)
        for c in codes:
            if c.size() == 1:
                continue
            width = 1 << min(z4.torsion(c).dim, inner_bits)
            monkeypatch.setattr(gf2, "BLOCK", 3 * width)
            best, words, cosets = _scan_order_reference(c)
            m, count, packed = z4._weight_scan.__wrapped__(c)
            assert (m, count) == (best, len(words))
            assert unpack_rows(packed) == words
            skipped += _skips_before_a_hit(cosets, best, 3)
    assert skipped


def test_weight_scan_invariant_under_relabeling():
    rng = random.Random(7)
    expected = {"z4-pseudo-golay-1": 98256, "z4-pseudo-golay-2": 98256, "z4-leech-standard": 95610}
    split_forms = 0
    for eid, count in expected.items():
        code = catalog.get(eid).code()
        for _ in range(2):
            c = relabel(code, rng)
            # a Howell form with fewer unit pivots than dim C1 (11 + 2 rows)
            split_forms += c.k1 < z4.residue(c).dim
            m, got, _ = z4._weight_scan(c)
            assert (m, got) == (16, count)
    assert split_forms


def test_weight_scan_zero_code():
    with pytest.raises(ValueError):
        z4.min_euclidean_weight(z4.z4_span(4, []))


def test_enumeration_cap():
    n = 16
    c = z4.z4_span(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
    assert c.size() == 4**n > z4.ENUM_CAP
    with pytest.raises(EnumerationLimit):
        z4.min_euclidean_weight(c)
    with pytest.raises(EnumerationLimit):
        z4.min_weight_words(c)
    with pytest.raises(EnumerationLimit):
        oracles.codewords(c)


def test_type_ii_generator_criterion_matches_enumeration():
    rng = random.Random(31)
    seen_both = set()
    for _ in range(60):
        c = oracles.random_self_orthogonal(8, 3, rng)
        if not z4.is_self_dual(c):
            continue
        full = all(z4.euclidean_weight(w) % 8 == 0 for w in oracles.codewords(c))
        gens = all(z4.euclidean_weight(row) % 8 == 0 for row in c.basis)
        assert full == gens
        seen_both.add(full)


def test_weights_divisible_by_8_needs_self_orthogonality():
    # every weight divisible by 8 forces self-orthogonality, so a code that
    # is not self-orthogonal answers False at any size, without a scan
    units = z4.z4_span(24, [tuple(int(j == i) for j in range(24)) for i in range(23)])
    assert units.size() == 4**23
    assert not z4.is_self_orthogonal(units)
    assert not z4.all_weights_divisible_by_8(units)
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        n = rng.randrange(3, 8)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        c = z4.z4_span(n, gens)
        if z4.is_self_orthogonal(c):
            continue
        scan = all(z4.euclidean_weight(w) % 8 == 0 for w in oracles.codewords(c))
        assert z4.all_weights_divisible_by_8(c) == scan
        checked += 1
    assert checked >= 30


def test_str_shows_group_shape():
    c = catalog.get("z4-len8-4").code()
    assert str(c) == "Z4[8]4^4<10011203,01011012,00111120,00021331,00002222>"


def test_parse_z4():
    with pytest.raises(ParseError):
        z4.from_text("0123\n014\n")
    c = z4.from_text("31 11\n# comment\n11 12\n")
    assert c.length == 4


def test_pseudo_golay_type_ii_and_extremal():
    for eid in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        c = catalog.get(eid).code()
        assert z4.is_type_ii(c)
        assert z4.min_euclidean_weight(c) == 16
        assert z4.is_extremal(c)


def test_leech_standard_extremal():
    c = catalog.get("z4-leech-standard").code()
    assert z4.is_type_ii(c)
    assert z4.min_euclidean_weight(c) == 16
    assert z4.is_extremal(c)
