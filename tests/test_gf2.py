import random
from itertools import combinations
from math import comb

import pytest

from framestab import gf2
from framestab.errors import EnumerationLimit, ParseError


def brute_dual(c):
    """Oracle: enumerate the whole ambient space."""
    words = [
        w
        for w in range(1 << c.length)
        if all((w & b).bit_count() % 2 == 0 for b in c.basis)
    ]
    return gf2.span(c.length, words)


def random_code(rng, n, k):
    return gf2.span(n, [rng.randrange(1 << n) for _ in range(k)])


def test_span_dependent_generators():
    c = gf2.span(4, ["1100", "0110", "1010"])
    assert c.dim == 2
    assert gf2.parse_word("1010") in c


def test_span_empty():
    c = gf2.span(4, [])
    assert c.dim == 0
    assert len(c) == 1


def test_span_length_mismatch():
    with pytest.raises(ValueError):
        gf2.span(4, ["11000"])
    with pytest.raises(ValueError):
        gf2.span(3, [0b1111])


def test_span_standard_even_double_generators():
    # the standard generator matrix of d(E_8): staircase of 1111 blocks
    # shifted by two positions per row
    rows = [("0" * (2 * i)) + "1111" + ("0" * (12 - 2 * i)) for i in range(7)]
    c = gf2.span(16, rows)
    assert c.dim == 7
    assert c == gf2.d_map(gf2.even_code(8))


def test_consistent_matches_brute_force():
    # rows over n unknowns with the right-hand side in bit n: solvable
    # exactly when some assignment satisfies every row, which is exactly
    # when 1 << n is outside the span; the lone right-hand side as a row, a
    # contradiction only after reduction, and no rows at all are included
    rng = random.Random(23)
    systems = [(3, []), (3, [1 << 3]), (3, [0b1011, 0b0011, 0b1000]), (3, [0b0101, 0b1101])]
    for _ in range(300):
        n = rng.randrange(1, 7)
        systems.append((n, [rng.randrange(1 << (n + 1)) for _ in range(rng.randrange(0, n + 3))]))
    outcomes = set()
    for n, rows in systems:
        brute = any(all(((row & x).bit_count() & 1) == row >> n & 1 for row in rows)
                    for x in range(1 << n))
        assert gf2.consistent(n, rows) == brute, (n, rows)
        assert brute == (not gf2.span(n + 1, rows).contains(1 << n))
        outcomes.add(brute)
    assert outcomes == {False, True}


def test_columns_read_bit_k_from_row_k():
    rng = random.Random(47)
    codes = [gf2.span(5, []), gf2.span(1, [1])]
    codes += [gf2.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(n + 1))])
              for n in rng.choices(range(1, 70), k=40)]
    for c in codes:
        want = [sum((b >> i & 1) << k for k, b in enumerate(c.basis)) for i in range(c.length)]
        assert gf2.columns(c) == want


def test_dual_zero_code():
    assert gf2.dual(gf2.span(5, [])) == gf2.full_code(5)


def test_dual_even_sixteen():
    assert gf2.dual(gf2.even_code(16)) == gf2.span(16, [(1 << 16) - 1])


def test_dual_involution_random():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(2, 13)
        c = random_code(rng, n, rng.randrange(1, n))
        d = gf2.dual(c)
        assert gf2.dual(d) == c
        assert c.dim + d.dim == n
        if n <= 10:
            assert d == brute_dual(c)


def test_weight_words_even4():
    words = gf2.weight_words(gf2.even_code(4), 2)
    assert [gf2.format_word(w, 4) for w in words] == [
        "1100", "1010", "1001", "0110", "0101", "0011",
    ]


def test_weight_words_hamming():
    # weight enumerator of the [8,4,4] code is 1 + 14 z^4 + z^8
    h8 = gf2.hamming8()
    assert len(gf2.weight_words(h8, 4)) == 14
    assert gf2.weight_distribution(h8) == {0: 1, 4: 14, 8: 1}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_weight_words_doubled_even(n):
    w4 = gf2.weight_words(gf2.d_map(gf2.even_code(n)), 4)
    assert len(w4) == n * (n - 1) // 2


def test_weight_words_strategies_agree():
    rng = random.Random(5)
    for _ in range(10):
        c = random_code(rng, 10, 4)
        for m in range(11):
            by_span = [w for w in c.codewords() if w.bit_count() == m]
            assert sorted(by_span) == sorted(gf2.weight_words(c, m))


def test_weight_words_routes_agree(monkeypatch):
    # each code takes the span route by default; with SPAN_ENUM_CAP set below
    # its dimension, the candidate scan gives the same words and minimum
    from framestab import catalog, z4
    rng = random.Random(13)
    cases = [(z4.torsion(catalog.get("z4-leech-standard").code()), 4)]
    for dim in (18, 19):
        c = random_code(rng, 20, dim + 4)
        while c.dim != dim:
            c = random_code(rng, 20, dim + 4)
        cases.append((c, 3))
    assert cases[0][0].dim == 18
    spans = []
    weight_classes = gf2.weight_classes

    def counted(c, weights):
        spans.append(c.dim)
        return weight_classes(c, weights)

    for c, m in cases:
        monkeypatch.setattr(gf2, "weight_classes", counted)
        spans.clear()
        default, least = gf2.weight_words(c, m), gf2.min_weight(c)
        assert spans == [c.dim]
        assert default and all(w.bit_count() == m and c.contains(w) for w in default)
        monkeypatch.setattr(gf2, "SPAN_ENUM_CAP", c.dim - 1)
        assert (gf2.weight_words(c, m), gf2.min_weight(c)) == (default, least)
        assert spans == [c.dim]
        monkeypatch.undo()


def pair_words_loop(c):
    """Oracle: the weight-2 words, testing each of the C(n, 2) supports."""
    out = []
    for i in range(c.length):
        for j in range(i + 1, c.length):
            w = (1 << i) | (1 << j)
            if c.contains(w):
                out.append(w)
    return out


def test_weight_two_words_match_pair_loop(monkeypatch):
    # seeded codes of dimension 4-12 (span route) and 31-36 (candidate
    # route, above SPAN_ENUM_CAP), each holding pairs on a few points, so
    # that its weight-2 words form cliques; then the lattice C of every Z4
    # catalog code
    from framestab import catalog, frames
    rng = random.Random(29)
    codes = []
    for dims, lengths in ((range(4, 13), range(24, 49)), (range(31, 37), range(40, 49))):
        for _ in range(6):
            n, dim = rng.choice(lengths), rng.choice(dims)
            points = rng.sample(range(n), 8)
            pairs = [(1 << a) | (1 << b) for a, b in (rng.sample(points, 2) for _ in range(4))]
            codes.append(gf2.span(n, pairs + [rng.randrange(1 << n) for _ in range(dim - 4)]))
    assert sum(c.dim > gf2.SPAN_ENUM_CAP for c in codes) == 6
    lattice_cs = [frames.structure_codes_lattice(catalog.get(code_id).code()).c_code
                  for code_id in catalog.list_ids() if code_id.startswith("z4-")]
    spans = []
    weight_classes = gf2.weight_classes

    def counted(c, weights):
        spans.append(c)
        return weight_classes(c, weights)

    monkeypatch.setattr(gf2, "weight_classes", counted)
    for group in (codes, lattice_cs):
        spans.clear()
        for c in group:
            want = pair_words_loop(c)
            assert want
            assert gf2.weight_words(c, 2) == want
        # both routes ran
        assert 0 < len(spans) < len(group)


def test_min_weight():
    assert gf2.min_weight(gf2.golay24()) == 8
    assert gf2.min_weight(gf2.hamming8()) == 4
    assert gf2.min_weight(gf2.even_code(9)) == 2
    with pytest.raises(ValueError):
        gf2.min_weight(gf2.span(3, []))


def test_enumeration_cap():
    # dimension 30 is past the span caps, and the C(2^14, 2) weight-2
    # candidates are past _COMB_ENUM_CAP
    n = 1 << 14
    c = gf2.span(n, [(1 << i) | (1 << (n - 1 - i)) for i in range(30)])
    assert c.dim > gf2.SPAN_ENUM_CAP and comb(n, 2) > gf2._COMB_ENUM_CAP
    with pytest.raises(EnumerationLimit):
        gf2.weight_words(c, 2)
    with pytest.raises(EnumerationLimit):
        gf2.min_weight(c)  # no word of weight 1, then weight 2 is past the cap


def test_min_weight_large_dim_path():
    # dims 20 and 21 take the span, and dim 30 (above SPAN_ENUM_CAP) the
    # candidate scan
    c = gf2.dual(gf2.span(30, [0b111 << i for i in range(0, 27, 3)]))
    assert c.dim == 21
    assert gf2.min_weight(c) == 1  # coordinates 28..30 are unconstrained
    # covered version: all pairs inside blocks, min weight 2
    c2 = gf2.dual(gf2.span(30, [0b111 << i for i in range(0, 30, 3)]))
    assert c2.dim == 20
    assert gf2.min_weight(c2) == 2
    c3 = gf2.dual(gf2.span(45, [0b111 << i for i in range(0, 45, 3)]))
    assert c3.dim == 30 > gf2.SPAN_ENUM_CAP
    assert gf2.min_weight(c3) == 2
    pairs = gf2.weight_words(c3, 2)
    assert len(pairs) == 45 and pairs == pair_words_loop(c3)


def test_min_weight_of_golay_pair():
    # G⊕G, the Golay code on coordinates 1-24 and a copy on 25-48: its 2^24
    # words take one span pass, where a candidate scan would test C(48, m)
    # words for each m up to 8
    g = gf2.golay24()
    c = gf2.span(48, list(g.basis) + [b << 24 for b in g.basis])
    assert c.dim == 24
    assert gf2.min_weight(c) == 8
    assert len(gf2.weight_words(c, 8)) == 2 * 759


def span_kernel_corpus():
    """Seeded codes for the numpy span kernel: one 32-bit limb, one, two
    and three 64-bit limbs, and dimensions 17-20, whose spans take a Gray
    walk beyond the first 16 basis words."""
    rng = random.Random(29)
    out = [random_code(rng, n, rng.randrange(3, 9)) for n in (65, 100, 128, 129, 130)]
    for n, k in ((70, 17), (130, 20), (40, 17), (57, 20)):
        out.append(random_code(rng, n, k))
    # a sparse basis, so low weights occur
    out.append(gf2.span(100, [(0b1011 << rng.randrange(96)) ^ (1 << rng.randrange(100))
                              for _ in range(18)]))
    # either side of the limb-width boundary at length 32, each with a word
    # through the last coordinate, the top bit of a 32-bit limb at n = 32
    for n, k in ((31, 17), (32, 20), (33, 17)):
        out.append(gf2.span(n, [rng.randrange(1 << n) for _ in range(k - 1)]
                            + [rng.randrange(1 << n) | 1 << (n - 1)]))
    return out


def test_span_kernel_matches_codewords_oracle():
    corpus = span_kernel_corpus()
    assert {(c.length + 63) // 64 for c in corpus} == {1, 2, 3}
    assert {c.dim for c in corpus} >= {17, 20}
    # both limb widths, either side of length 32, on codes that span beyond
    # the first 16 words and have a word through their last coordinate
    boundary = [c for c in corpus if c.length in (31, 32, 33)]
    assert [gf2.limb_layout(c.length)[1].itemsize for c in boundary] == [4, 4, 8]
    assert all(c.dim >= 17 and any(b >> (c.length - 1) for b in c.basis) for c in boundary)
    for c in corpus:
        by_weight = {}
        for w in c.codewords():
            by_weight.setdefault(w.bit_count(), []).append(w)
        assert gf2.weight_distribution(c) == {m: len(ws) for m, ws in by_weight.items()}
        # the zero word is left out of the minimum
        assert gf2.min_weight(c) == min(m for m in by_weight if m) > 0
        # all but weight 2 of the sparse code take the span route
        for m in sorted(by_weight)[1:4] + [max(by_weight)]:
            assert gf2.weight_words(c, m) == sorted(by_weight[m], key=gf2.support)


def test_span_kernel_blocks_of_several_cosets(monkeypatch):
    # three cosets of the 2^16-column span share a block, and the last block
    # of the 2^(dim - 16) cosets is partial, at both limb widths (the
    # length-32 code has 16 cosets)
    monkeypatch.setattr(gf2, "BLOCK", 3 << 16)
    test_span_kernel_matches_codewords_oracle()


def test_weight_distribution_of_small_codes():
    assert gf2.weight_distribution(gf2.span(5, [])) == {0: 1}
    assert gf2.weight_distribution(gf2.golay24()) == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


@pytest.mark.parametrize("dim", [gf2.SMALL_DIM, gf2.SMALL_DIM + 1])
def test_small_codes_count_alike_on_both_routes(monkeypatch, dim):
    # the codewords() loop counts codes up to SMALL_DIM, the span kernel the
    # rest; on either side of the crossover both give the same counts and
    # the same sorted word lists
    rng = random.Random(dim)
    codes = []
    while len(codes) < 8:
        n = rng.randrange(dim, 80)
        c = gf2.span(n, [rng.randrange(1 << n) for _ in range(dim)])
        if c.dim == dim:
            codes.append(c)
    results = []
    for small_dim in (gf2.SMALL_DIM, -1):
        monkeypatch.setattr(gf2, "SMALL_DIM", small_dim)
        results.append([(list(gf2.weight_distribution(c).items()),
                         gf2.weight_classes(c, range(c.length + 1))) for c in codes])
    assert results[0] == results[1]
    for c, (dist, classes) in zip(codes, results[0]):
        assert dist == [(m, len(words)) for m, words in enumerate(classes) if words]


def test_d_and_e_maps():
    c = gf2.span(2, ["11"])
    assert gf2.d_map(c) == gf2.span(4, ["1111"])
    assert gf2.e_map(c) == gf2.span(4, ["0101"])
    d8 = gf2.d_map(gf2.full_code(8))
    assert d8.dim == 8
    assert all(w.bit_count() % 2 == 0 for w in d8.codewords())
    pairs = gf2.weight_words(d8, 2)
    assert len(pairs) == 8
    union = 0
    for p in pairs:
        assert union & p == 0
        union |= p
    assert union == (1 << 16) - 1


def test_map_weights():
    rng = random.Random(9)
    for _ in range(50):
        w = rng.randrange(1 << 12)
        assert gf2.d_word(w).bit_count() == 2 * w.bit_count()
        assert gf2.e_word(w).bit_count() == w.bit_count()


def test_reed_muller_families():
    rm14 = gf2.reed_muller(1, 4)
    assert (rm14.length, rm14.dim) == (16, 5)
    assert gf2.min_weight(rm14) == 8
    rm24 = gf2.reed_muller(2, 4)
    assert (rm24.length, rm24.dim) == (16, 11)
    assert gf2.min_weight(rm24) == 4
    assert gf2.dual(rm24) == rm14
    with pytest.raises(ValueError):
        gf2.reed_muller(3, 2)


def test_golay_parameters():
    g = gf2.golay24()
    assert (g.length, g.dim) == (24, 12)
    assert gf2.dual(g) == g
    assert gf2.min_weight(g) == 8
    assert all(w.bit_count() % 4 == 0 for w in g.codewords())


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        gf2.from_text("1100\n1x00\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        gf2.from_text("# only a comment\n")


def test_matrix_roundtrip():
    g = gf2.golay24()
    text = "\n".join(gf2.format_word(b, 24) for b in g.basis)
    assert gf2.from_text(text) == g


# -- the even-double code property suite (used by the orbifold pipeline) -----


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_doubled_even_properties(n):
    w = gf2.d_map(gf2.even_code(n))
    w4 = gf2.weight_words(w, 4)
    # (1) generated by its weight-4 words
    assert gf2.span(2 * n, w4) == w
    # (2) all pairwise intersections even
    basis_words = list(w.basis)
    for a in basis_words:
        for b in basis_words:
            assert (a & b).bit_count() % 2 == 0
    # (3) each weight-4 word meets exactly 2n-4 others in two coordinates
    for a in w4:
        hits = sum(1 for b in w4 if b != a and (a & b).bit_count() == 2)
        assert hits == 2 * n - 4
    # (4) chain extension counts: given a chain w_1..w_k with consecutive
    # overlaps, exactly n-k-1 weight-4 words continue it
    chain = [gf2.d_word(0b11 << i) for i in range(n - 1)]
    for k in range(2, min(len(chain), 5) + 1):
        head = chain[:k]
        count = sum(
            1
            for cand in w4
            if all((cand & head[i]).bit_count() == (2 if i == k - 1 else 0)
                   for i in range(k))
        )
        assert count == n - k - 1
    dual4 = gf2.weight_words(gf2.dual(w), 4)
    dual2 = gf2.weight_words(gf2.dual(w), 2)
    if n > 8:
        # (5) the dual has the same weight-4 words
        assert set(dual4) == set(w4)
    # (6)/(7) weight-4 words are exactly sums of distinct weight-2 dual words
    sums = {a | b for a, b in combinations(dual2, 2) if a & b == 0}
    assert set(w4) == sums
    for a in w4:
        splits = [(p, q) for p, q in combinations(dual2, 2) if (p | q) == a and p & q == 0]
        assert len(splits) == 1


def test_structure_code_weight4_decomposition():
    # C = span{d(E_8), e(H8)}: its weight-4 words split into the doubled
    # pairs d(x) and the shifted words e(y) + d(z) with z inside y
    n = 8
    h8 = gf2.hamming8()
    c = gf2.span(16, list(gf2.d_map(gf2.even_code(n)).basis) + list(gf2.e_map(h8).basis))
    got = set(gf2.weight_words(c, 4))
    expected = {gf2.d_word(x) for x in gf2.weight_words(gf2.even_code(n), 2)}
    for y in gf2.weight_words(h8, 4):
        subsets = [0]
        for i in gf2.support(y):
            subsets += [s | (1 << (i - 1)) for s in subsets]
        for z in subsets:
            if z.bit_count() % 2 == 0:
                expected.add(gf2.e_word(y) ^ gf2.d_word(z))
    assert got == expected
    # second and third clauses: intersection behavior against doubled words
    for y in gf2.weight_words(h8, 4):
        u = gf2.e_word(y)
        for x in gf2.weight_words(gf2.even_code(n), 2):
            inter = (u & gf2.d_word(x)).bit_count()
            assert (inter == 0) == ((x & y).bit_count() == 0)
            assert (inter == 2) == (x & y == x)
