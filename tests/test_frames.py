import random
from dataclasses import asdict, replace
from itertools import combinations
from math import factorial

import pytest

import oracles
from framestab import autsearch, catalog, frames, gf2, permgrp, z4
from framestab.errors import FramestabError
from framestab.frames import VariantError


def len8(k):
    return catalog.get(f"z4-len8-{k}").code()


def expected_case_codes():
    """The four displayed structure-code pairs of length 16."""
    e16 = gf2.even_code(16)
    rep16 = gf2.span(16, [(1 << 16) - 1])
    # case 2: two even blocks of length 8
    blocks2 = []
    for blk in (0, 8):
        for off in range(7):
            blocks2.append(0b11 << (blk + off))
    case2_c = gf2.span(16, blocks2)
    case2_d = gf2.span(16, ["1" * 8 + "0" * 8, "0" * 8 + "1" * 8])
    # case 3: four even blocks of length 4, plus one bit per block
    blocks3 = []
    for blk in range(0, 16, 4):
        for off in range(3):
            blocks3.append(0b11 << (blk + off))
    case3_c = gf2.span(16, blocks3 + [gf2.parse_word("1000100010001000")])
    case3_d = gf2.span(16, ["1" * 8 + "0" * 8, "0" * 8 + "1" * 8, "1111000011110000"])
    case4_c = gf2.span(16, list(gf2.d_map(gf2.full_code(8)).basis)
                       + list(gf2.e_map(gf2.hamming8()).basis))
    case4_d = gf2.d_map(gf2.hamming8())
    return {
        1: (e16, rep16),
        2: (case2_c, case2_d),
        3: (case3_c, case3_d),
        4: (case4_c, case4_d),
    }


def test_structure_codes_lattice_exact():
    for k, (want_c, want_d) in expected_case_codes().items():
        sc = frames.structure_codes_lattice(len8(k))
        assert sc.c_code == want_c, f"case {k} C"
        assert sc.d_code == want_d, f"case {k} D"


def test_structure_codes_zero_code():
    sc = frames.structure_codes_lattice(z4.z4_span(4, []))
    assert sc.c_code == gf2.d_map(gf2.full_code(4))
    assert sc.d_code == gf2.span(8, [])
    assert not frames.holomorphic(sc)


def test_structure_codes_orbifold_exact():
    sc = frames.structure_codes_orbifold(len8(4))
    assert sc.c_code == gf2.reed_muller(2, 4)
    assert sc.d_code == gf2.reed_muller(1, 4)


def test_structure_codes_orbifold_requires_type_ii():
    with pytest.raises(VariantError):
        frames.structure_codes_orbifold(z4.z4_span(2, [(2, 0)]))


def test_structure_codes_lattice_requires_even_lattice():
    with pytest.raises(VariantError):
        frames.structure_codes_lattice(z4.z4_span(2, [(1, 0)]))  # not self-orthogonal
    with pytest.raises(VariantError):
        frames.structure_codes_lattice(z4.z4_span(2, [(2, 0)]))  # weight 4, not 8


def test_pseudo_golay_structure_codes():
    pg = catalog.get("z4-pseudo-golay-1").code()
    sc = frames.structure_codes_orbifold(pg)
    g24 = gf2.golay24()
    want_c = gf2.span(48, list(gf2.d_map(gf2.even_code(24)).basis)
                      + [gf2.e_word(b) for b in z4.residue(pg).basis])
    assert sc.c_code == want_c
    assert sc.d_code == gf2.span(
        48, [gf2.d_word(b) for b in z4.residue(pg).basis] + [gf2.e_word((1 << 24) - 1)]
    )


def test_moonshine_d_matches_catalog_matrix():
    lee = catalog.get("z4-leech-standard").code()
    sc = frames.structure_codes_orbifold(lee)
    assert sc.d_code == catalog.get("bin-moonshine-d").code()
    assert frames.holomorphic(sc)


def test_holomorphic_iff_type_ii_cases():
    for k in (1, 2, 3, 4):
        assert frames.holomorphic(frames.structure_codes_lattice(len8(k)))
        assert frames.holomorphic(frames.structure_codes_orbifold(len8(k)))
    # self-orthogonal but not self-dual: dimensions fall short
    c = z4.z4_span(4, [(2, 2, 0, 0), (0, 0, 2, 2)])
    sc = frames.structure_codes_lattice(c)
    assert not frames.holomorphic(sc)
    assert sc.c_code.dim + sc.d_code.dim < sc.r


def test_dim_p_all_cases():
    expected = {1: 15, 2: 14, 3: 12, 4: 9}
    for k, want in expected.items():
        sc = frames.structure_codes_lattice(len8(k))
        assert frames.compute_p(sc).dim == want
    assert frames.compute_p(frames.structure_codes_orbifold(len8(4))).dim == 5
    pg = catalog.get("z4-pseudo-golay-1").code()
    sc = frames.structure_codes_orbifold(pg)
    p = frames.compute_p(sc)
    assert p.dim == 13
    assert p == sc.d_code
    lee = catalog.get("z4-leech-standard").code()
    assert frames.compute_p(frames.structure_codes_orbifold(lee)).dim == 27


def test_moonshine_p_is_reed_muller_triples():
    # P = {(x, y, z) : each in RM(2,4), x + y + z in RM(1,4)}, of dimension
    # 11 + 11 + 5 = 27
    lee = catalog.get("z4-leech-standard").code()
    sc = frames.structure_codes_orbifold(lee)
    p = frames.compute_p(sc)
    rm2 = gf2.reed_muller(2, 4)
    rm1 = gf2.reed_muller(1, 4)
    gens = [a | (a << 32) for a in rm2.basis]
    gens += [(b << 16) | (b << 32) for b in rm2.basis]
    gens += [d for d in rm1.basis]
    triples = gf2.span(48, gens)
    assert triples.dim == 27
    assert p == triples


def test_p_between_duals_on_catalog():
    # every xi in dual(C) satisfies the defining condition of P
    cases = [frames.structure_codes_lattice(len8(k)) for k in (1, 2, 3, 4)]
    cases += [frames.structure_codes_orbifold(len8(4))]
    for sc in cases:
        p = frames.compute_p(sc)
        for xi in gf2.dual(sc.c_code).basis:
            assert p.contains(xi)
        for xi in p.basis:
            assert sc.c_code.contains(xi)


def test_pointwise_orders():
    expected = {1: (1, 14), 2: (2, 12), 3: (3, 9), 4: (4, 5)}
    for k, want in expected.items():
        assert frames.pointwise_order(frames.structure_codes_lattice(len8(k))) == want
    assert frames.pointwise_order(frames.structure_codes_orbifold(len8(4))) == (5, 0)


# -- subcode families ----------------------------------------------------------


def list_perfect_matchings(n_points, edges, compatible=None):
    """Oracle: perfect matchings of a graph on bitmask edges, as edge tuples,
    by backtracking. compatible(edge, chosen), when given, must hold for
    each edge against the edges already chosen on its path."""
    out = []

    def rec(remaining, chosen):
        if not remaining:
            out.append(tuple(chosen))
            return
        low = remaining & -remaining
        for e in edges:
            if e & low and not (e & ~remaining) and (
                compatible is None or compatible(e, chosen)
            ):
                chosen.append(e)
                rec(remaining & ~e, chosen)
                chosen.pop()

    rec((1 << n_points) - 1, [])
    return out


def compatible_matchings(c0):
    """Oracle: matchings of the coordinates whose pairs sum pairwise into c0."""
    n = c0.length
    weight4 = set(gf2.weight_words(c0, 4))
    pairs = [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)]
    return list_perfect_matchings(
        n, pairs, lambda e, chosen: all((e | f) in weight4 for f in chosen)
    )


def lattice_sc(c_code):
    """Lattice structure codes on any C (with D = 0, C <= dual(D) holds)."""
    return frames.StructureCodes(c_code.length, c_code, gf2.span(c_code.length, []), "lattice")


def test_enumerate_h_lattice_counts():
    expected = {1: 2027025, 2: 11025, 3: 81, 4: 1}
    for k, want in expected.items():
        sc = frames.structure_codes_lattice(len8(k))
        count, _ = frames.enumerate_h_lattice(sc)
        assert count == want


def test_enumerate_h_lattice_members_case3():
    sc = frames.structure_codes_lattice(len8(3))
    count, _ = frames.enumerate_h_lattice(sc)
    matchings = list_perfect_matchings(sc.r, gf2.weight_words(sc.c_code, 2))
    members = [gf2.span(sc.r, m) for m in matchings]
    assert count == 81 and len(members) == 81
    assert len({m.basis for m in members}) == 81
    for m in members[:10]:
        assert m.dim == 8
        pair_words = gf2.weight_words(m, 2)
        assert len(pair_words) == 8
        for b in m.basis:
            assert sc.c_code.contains(b)


def test_enumerate_h_lattice_index_formula_case1():
    from framestab import autsearch
    sc = frames.structure_codes_lattice(len8(1))
    count, _ = frames.enumerate_h_lattice(sc)
    aut_c = autsearch.aut_binary(sc.c_code).order()
    aut_c0 = autsearch.aut_binary(z4.torsion(len8(1))).order()
    assert count == aut_c // (2**8 * aut_c0) == 2027025


def even_lattice_codes():
    """Six seeded random Z4-codes whose lattices are even."""
    rng = random.Random(123)
    out = []
    while len(out) < 6:
        c = oracles.random_self_orthogonal(rng.randrange(4, 7), rng.randrange(1, 4), rng)
        if z4.all_weights_divisible_by_8(c):
            out.append(c)
    return out


def test_enumerate_h_lattice_index_formula_random():
    # direct matching count equals |Aut(C)| / (2^n |Aut(C0)|) beyond the
    # catalog, on random codes whose lattices are even
    from framestab import autsearch
    for c in even_lattice_codes():
        n = c.length
        sc = frames.structure_codes_lattice(c)
        direct, _ = frames.enumerate_h_lattice(sc)
        aut_c = autsearch.aut_binary(sc.c_code).order()
        c0 = z4.torsion(c)
        aut_c0 = autsearch.aut_binary(c0).order() if c0.dim else factorial(n)
        assert aut_c % ((1 << n) * aut_c0) == 0
        assert direct == aut_c // ((1 << n) * aut_c0)


def test_weight_two_graph_is_union_of_cliques():
    # what the closed-form count rests on: neighbours of a point are
    # neighbours of each other, in every linear code
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(2, 13)
        code = gf2.span(n, [rng.randrange(1 << n) for _ in range(rng.randrange(1, n + 1))])
        edges = set(gf2.weight_words(code, 2))
        for i, j, k in combinations(range(n), 3):
            pairs = [(1 << i) | (1 << j), (1 << j) | (1 << k), (1 << i) | (1 << k)]
            assert sum(e in edges for e in pairs) != 2


def test_matching_count_closed_form():
    # the classes of equal check-matrix columns are the closed neighbourhoods
    # of the weight-2 graph, and the count is the oracle's
    scs = [frames.structure_codes_lattice(len8(k)) for k in (2, 3, 4)]
    scs += [frames.structure_codes_lattice(c) for c in even_lattice_codes()]
    counts = []
    for sc in scs:
        edges = gf2.weight_words(sc.c_code, 2)
        count, _ = frames.enumerate_h_lattice(sc)
        counts.append(count)
        assert count == len(list_perfect_matchings(sc.r, edges))
        cliques = {}
        for i, col in enumerate(gf2.columns(sc.checks)):
            cliques[col] = cliques.get(col, 0) | 1 << i
        for i in range(sc.r):
            closed = 1 << i
            for e in edges:
                if e >> i & 1:
                    closed |= e
            assert [q for q in cliques.values() if q >> i & 1] == [closed]
    assert counts == [11025, 81, 1, 1, 3, 1, 3, 1, 1]


def test_matching_count_closed_form_random():
    # random codes with planted weight-2 words, so that many counts are nonzero
    rng = random.Random(2027)
    nonzero = 0
    for _ in range(240):
        r = rng.randrange(2, 13)
        gens = [(1 << i) | (1 << rng.randrange(r)) for i in rng.sample(range(r), rng.randrange(r))]
        gens += [rng.randrange(1 << r) for _ in range(rng.randrange(3))]
        sc = lattice_sc(gf2.span(r, gens))
        count, _ = frames.enumerate_h_lattice(sc)
        assert count == len(list_perfect_matchings(r, gf2.weight_words(sc.c_code, 2)))
        nonzero += count > 0
    assert nonzero >= 30


def test_matching_count_odd_clique_or_uncovered_point():
    def pair(i, j):
        return (1 << i) | (1 << j)

    cases = [
        (6, [pair(0, 1), pair(1, 2), pair(3, 4), pair(4, 5)], 0),  # cliques 3 + 3
        (8, [pair(0, 1), pair(1, 2), pair(3, 4), pair(4, 5), pair(5, 6), pair(6, 7)], 0),
        (4, [pair(0, 1), 1 << 2], 0),  # points 2 and 3 lie in no weight-2 word
        (4, [pair(0, 1), 0b1101], 0),  # points 2 and 3 lie in weight-3 words only
        (6, [pair(0, 1), pair(2, 3), pair(4, 5)], 1),
        (6, [pair(0, 1), pair(1, 2), pair(2, 3), pair(4, 5)], 3),  # cliques 4 + 2
    ]
    for r, gens, want in cases:
        sc = lattice_sc(gf2.span(r, gens))
        assert frames.enumerate_h_lattice(sc)[0] == want
        assert len(list_perfect_matchings(r, gf2.weight_words(sc.c_code, 2))) == want


def test_enumerate_h_orbifold_e8():
    sc = frames.structure_codes_orbifold(len8(4))
    c0 = z4.torsion(len8(4))
    count, _ = frames.enumerate_h_orbifold(sc, c0)
    members = oracles.orbifold_members(8, c0)
    assert count == len(members) == 15
    d_e8 = gf2.d_map(gf2.even_code(8))
    assert any(m == d_e8 for m in members)
    for m in members:
        assert m.dim == 7
        for b in m.basis:
            assert sc.c_code.contains(b)


def test_enumerate_h_orbifold_members_satisfy_chain_properties():
    sc = frames.structure_codes_orbifold(len8(4))
    c0 = z4.torsion(len8(4))
    count, _ = frames.enumerate_h_orbifold(sc, c0)
    members = oracles.orbifold_members(8, c0)
    assert count == len(members)
    n = 8
    for m in members:
        w4 = gf2.weight_words(m, 4)
        assert gf2.span(m.length, w4) == m
        assert len(w4) == n * (n - 1) // 2
        for a in m.basis:
            for b in m.basis:
                assert (a & b).bit_count() % 2 == 0
        for a in w4:
            assert sum(1 for b in w4 if b != a and (a & b).bit_count() == 2) == 2 * n - 4


def test_enumerate_h_orbifold_w_choices_collapse():
    # all four w choices per chain position give the same subcode
    sc = frames.structure_codes_orbifold(len8(4))
    c0 = z4.torsion(len8(4))
    matchings = oracles.period_matchings(c0)
    assert len(matchings) == frames._period_matchings(c0) == 7
    n = 8
    count, _ = frames.enumerate_h_orbifold(sc, c0)
    assert count == len(oracles.orbifold_members(n, c0))
    for matching in matchings:
        reference = oracles.family_two(n, matching)
        k = len(matching)
        for mask in range(4 ** (k - 1)):
            gens = [gf2.d_word(x) for x in matching]
            ok = True
            for j in range(k - 1):
                choice = (mask >> (2 * j)) & 3
                a = gf2.support(matching[j])[choice & 1] - 1
                b = gf2.support(matching[j + 1])[choice >> 1] - 1
                w = (1 << a) | (1 << b)
                gens.append(gf2.e_word(matching[j] ^ matching[j + 1]) ^ gf2.d_word(w))
            assert gf2.span(16, gens) == reference
        # and any ordering of the matching spans the same pair of subcodes
        shuffled = list(matching)[::-1]
        assert oracles.family_one(n, tuple(shuffled)) == oracles.family_one(n, matching)
        assert oracles.family_two(n, tuple(shuffled)) == oracles.family_two(n, matching)


def period_matching_codes():
    """Codes of min weight at least 4 with their period matching counts,
    plus seeded relabelings and subcodes of each."""
    rng = random.Random(17)
    leech_c0 = z4.torsion(catalog.get("z4-leech-standard").code())
    base = [(gf2.hamming8(), 7), (gf2.reed_muller(2, 4), 15), (gf2.reed_muller(3, 5), 31),
            (leech_c0, 7), (gf2.golay24(), 0)]
    out = []
    for code, want in base:
        n = code.length
        out.append((code, want))
        images = list(range(n))
        rng.shuffle(images)
        out.append((permgrp.apply_code(tuple(images), code), want))
        words = rng.sample(code.basis, rng.randrange(1, code.dim))
        out.append((gf2.span(n, [w ^ rng.choice(code.basis) for w in words]), None))
    return out


def test_period_matchings_equal_backtracking():
    for code, want in period_matching_codes():
        if code.dim == 0:
            continue
        got = oracles.period_matchings(code)
        assert sorted(got) == sorted(compatible_matchings(code))
        assert frames._period_matchings(code) == len(got)
        if want is not None:
            assert len(got) == want


def test_enumerate_h_orbifold_closed_form_counts_oracle_members():
    # 1 + 2 * (period matchings) is the number of distinct spanned members,
    # and every member lies in C once d(E_n) and e(C0) do
    cases = [(frames.structure_codes_orbifold(code), z4.torsion(code)) for code in
             [len8(4)] + [catalog.get(i).code() for i in
                          ("z4-pseudo-golay-1", "z4-pseudo-golay-2", "z4-leech-standard")]]
    for c0, _ in period_matching_codes():
        if c0.dim and gf2.min_weight(c0) >= 4:
            n = c0.length
            c_code = gf2.span(2 * n, gf2.d_map(gf2.even_code(n)).basis + gf2.e_map(c0).basis)
            cases.append((frames.StructureCodes(2 * n, c_code, gf2.span(2 * n, []), "orbifold"), c0))
    assert len(cases) == 4 + 15
    for sc, c0 in cases:
        count, _ = frames.enumerate_h_orbifold(sc, c0)
        members = oracles.orbifold_members(sc.r // 2, c0)
        assert count == len(members) == 1 + 2 * frames._period_matchings(c0)
        for m in members:
            assert all(sc.c_code.contains(b) for b in m.basis)


def test_enumerate_h_orbifold_rejects_member_outside_c():
    # a C that lacks the family's e(y) words: the member check must raise
    # (not assert, which python -O strips)
    sc = frames.structure_codes_orbifold(len8(4))
    tampered = replace(sc, c_code=gf2.d_map(gf2.even_code(8)))
    with pytest.raises(FramestabError, match="does not lie in C"):
        frames.enumerate_h_orbifold(tampered, z4.torsion(len8(4)))


def test_enumerate_h_orbifold_min_weight_guard():
    sc = frames.structure_codes_orbifold(len8(1))
    with pytest.raises(VariantError):
        frames.enumerate_h_orbifold(sc, z4.torsion(len8(1)))


def test_enumerate_h_orbifold_pseudo_golay_is_one():
    pg = catalog.get("z4-pseudo-golay-1").code()
    sc = frames.structure_codes_orbifold(pg)
    count, _ = frames.enumerate_h_orbifold(sc, z4.torsion(pg))
    members = oracles.orbifold_members(24, z4.torsion(pg))
    assert count == len(members) == 1
    assert members[0] == gf2.d_map(gf2.even_code(24))


def test_enumerate_h_orbifold_moonshine():
    lee = catalog.get("z4-leech-standard").code()
    sc = frames.structure_codes_orbifold(lee)
    count, _ = frames.enumerate_h_orbifold(sc, z4.torsion(lee))
    assert count == 15


# -- frame reports ---------------------------------------------------------------


def test_frame_report_case1():
    r = frames.frame_report(len8(1), "lattice", code_id="z4-len8-1")
    assert r.stab_order == 2**15 * factorial(16)
    assert r.pointwise == (1, 14)
    assert r.k_order == factorial(16)
    assert r.index_aut_c_k == 1
    assert r.h_count == 2027025 and r.h_count_by_index == 2027025
    assert r.holomorphic


def test_frame_report_case4_lattice():
    r = frames.frame_report(len8(4), "lattice")
    assert r.stab_order == 2**9 * 2**8 * 1344
    assert r.h_count == 1
    assert r.aut_z4_bar == 1344
    assert r.aut_z4_total == 2 * 1344
    assert r.index_aut_c_k == 1


def test_frame_report_cases_2_and_3():
    # shapes 2^(2+12).(Sym8 wr 2) and 2^(3+9).(Sym4 wr Sym4)
    r2 = frames.frame_report(len8(2), "lattice")
    assert r2.pointwise == (2, 12)
    assert r2.aut_z4_bar == 1152
    assert r2.k_order == (factorial(8) ** 2) * 2
    assert r2.stab_order == 2**14 * (factorial(8) ** 2) * 2
    assert r2.index_aut_c_k == 1
    r3 = frames.frame_report(len8(3), "lattice")
    assert r3.pointwise == (3, 9)
    assert r3.aut_z4_bar == 384
    assert r3.h_count == 81 and r3.h_count_by_index == 81
    assert r3.k_order == (factorial(4) ** 4) * factorial(4)
    assert r3.stab_order == 2**12 * (factorial(4) ** 4) * factorial(4)
    assert r3.index_aut_c_k == 1


def test_frame_report_e8_orbifold():
    r = frames.frame_report(len8(4), "orbifold")
    assert r.pointwise == (5, 0)
    assert r.dim_p == 5
    assert r.h_count == 15
    assert r.stab_order == 2**5 * 322560
    assert r.index_aut_c_k == 1


def test_stabilizer_of_one_h_member_second_route():
    # |Stab_Aut(C)(one member of H)| = 2^e * |Aut(C0)|, so times |H| it is |Aut(C)|
    from framestab import autsearch
    n = 8
    cases = [
        (1, "lattice", 10321920),
        (2, "lattice", 294912),
        (3, "lattice", 98304),
        (4, "lattice", 344064),
        (4, "orbifold", 21504),
    ]
    for k, variant, expected in cases:
        code = len8(k)
        sc = frames.structure_codes(code, variant)
        member = gf2.full_code(n) if variant == "lattice" else gf2.even_code(n)
        struct = autsearch.structure_for_codes([sc.c_code, gf2.d_map(member)])
        stab = autsearch.automorphism_group(struct)
        e = n if variant == "lattice" else gf2.dual(z4.torsion(code)).dim
        r = frames.frame_report(code, variant)
        assert stab.order() == expected == 2**e * r.aut_c0
        assert stab.order() * r.h_count == r.aut_c


def test_frame_report_moonshine():
    lee = catalog.get("z4-leech-standard").code()
    r = frames.frame_report(lee, "orbifold", code_id="z4-leech-standard")
    assert r.pointwise == (7, 20)
    assert r.dim_p == 27
    assert r.h_count == 15 and r.h_count_by_index == 15
    assert r.aut_z4_bar == 2**9 * 1008
    assert r.aut_c0 == 2**9 * 1008
    assert r.k_order == r.aut_c == 495452160
    assert r.stab_order == 2**27 * 2**12 * 120960
    assert r.index_aut_c_k == 1
    payload = r.to_json()
    assert payload["dims"] == {"C": 41, "D": 7, "P": 27}
    assert payload["stab_order"] == str(2**27 * 2**12 * 120960)


def rm14_lift():
    """The Type II Z4-code of length 16 spanned by the 0/1 rows of RM(1,4)
    and twice those of RM(2,4): self-dual, with C1 = RM(1,4) ≠ C0 = RM(2,4)
    and no twin coordinates."""
    rows = [[w >> i & 1 for i in range(16)] for w in gf2.reed_muller(1, 4).basis]
    rows += [[2 * (w >> i & 1) for i in range(16)] for w in gf2.reed_muller(2, 4).basis]
    return z4.z4_span(16, rows)


@pytest.mark.parametrize("code_id,variant", [("rm-1-4-lift", "lattice"),
                                             ("z4-leech-standard", "orbifold")])
def test_frame_report_searches_aut_c0_once(monkeypatch, code_id, variant):
    # the codes are self-dual, so C1 = C0^⊥ and aut_z4's constraint group is
    # Aut(C0) itself, which the report then reads from the memo; they have
    # no twins, so Aut(C0) is a search on all the coordinates
    code = rm14_lift() if code_id == "rm-1-4-lift" else catalog.get(code_id).code()
    assert z4.residue(code) == gf2.dual(z4.torsion(code)) != z4.torsion(code)
    sizes = []
    search = autsearch._Search.search

    def counted(self):
        sizes.append(self.struct.n)
        return search(self)

    monkeypatch.setattr(autsearch._Search, "search", counted)
    autsearch._aut_binary.cache_clear()
    frames.frame_report(code, variant)
    assert sizes.count(code.length) == 1


@pytest.mark.parametrize("code_id, budget", [
    ("z4-len8-1", 8), ("z4-len8-2", 8), ("z4-len8-3", 8),
    ("z4-len8-1", 12), ("z4-len8-2", 12), ("z4-len8-3", 12),
    ("z4-len8-4", 12), ("z4-len8-4", 20), ("z4-leech-standard", 25), ("z4-leech-standard", 35),
])
def test_budget_stop_in_aut_c_skips_the_cross_check(monkeypatch, code_id, budget):
    # these budgets cover the searches of Aut(code) and Aut(C0), not the
    # direct search of Aut(C): the report stands, without its index-formula
    # route to |H|. A finished search is cached whatever its budget, so each
    # budgeted report starts from an empty memo. The orbifold C of z4-len8-4
    # and of the Leech code has no twins. The lattice C of z4-len8-1..3 has
    # twins and its quotient search takes no nodes, so there the budgeted
    # report is whole, and the stop is made with twin detection switched off
    code = catalog.get(code_id).code()
    variant = "orbifold" if code_id in ("z4-len8-4", "z4-leech-standard") else "lattice"
    full = frames.frame_report(code, variant)
    assert full.aut_c is not None and full.h_count_by_index is not None
    if variant == "lattice":
        autsearch._aut_binary.cache_clear()
        assert frames.frame_report(code, variant, budget=budget) == full
        monkeypatch.setattr(autsearch, "_twin_classes", lambda codes: None)
    autsearch._aut_binary.cache_clear()
    got = frames.frame_report(code, variant, budget=budget)
    assert got == replace(full, aut_c=None, h_count_by_index=None)
    autsearch._aut_binary.cache_clear()


def test_frame_report_rejects_small_min_weight_orbifold():
    with pytest.raises(VariantError):
        frames.frame_report(len8(1), "orbifold")


def test_frame_report_pseudo_golay_1():
    pg = catalog.get("z4-pseudo-golay-1").code()
    r = frames.frame_report(pg, "orbifold", code_id="z4-pseudo-golay-1")
    assert r.pointwise == (13, 0)
    assert r.aut_z4_bar == 6072
    assert r.h_count == 1
    assert r.k_order == 2**12 * 6072
    assert r.stab_order == 2**13 * 2**12 * 6072
    assert r.index_aut_c_k == 244823040 // 6072
    assert r.aut_c is None  # length-48 dim-36 aut deliberately not computed
    assert r.h_count_by_index is None


def test_frame_report_pseudo_golay_2():
    pg = catalog.get("z4-pseudo-golay-2").code()
    r = frames.frame_report(pg, "orbifold")
    assert r.aut_z4_bar == 3
    assert r.stab_order == 2**13 * 2**12 * 3
    assert r.index_aut_c_k == 244823040 // 3


# -- invariance under relabeling ------------------------------------------------


LEN8_FRAMES = [(f"z4-len8-{k}", "lattice") for k in (1, 2, 3, 4)] + [("z4-len8-4", "orbifold")]
# the Leech rows take about 0.1 s each, the pseudo-Golay rows are slow
LEN24_FRAMES = [pytest.param(code_id, variant,
                             marks=() if code_id == "z4-leech-standard" else pytest.mark.slow)
                for code_id in ("z4-leech-standard", "z4-pseudo-golay-1", "z4-pseudo-golay-2")
                for variant in ("lattice", "orbifold")]


def assert_report_invariant(code_id, variant, relabelings):
    code = catalog.get(code_id).code()
    want = asdict(frames.frame_report(code, variant))
    rng = random.Random(f"{code_id}/{variant}")
    for _ in range(relabelings):
        relabeled = oracles.monomial_relabeling(code, rng)
        assert asdict(frames.frame_report(relabeled, variant)) == want


@pytest.mark.parametrize("code_id,variant", LEN8_FRAMES)
def test_frame_report_invariant_under_relabeling(code_id, variant):
    assert_report_invariant(code_id, variant, 3)


@pytest.mark.parametrize("code_id,variant", LEN24_FRAMES)
def test_frame_report_invariant_under_relabeling_len24(code_id, variant):
    assert_report_invariant(code_id, variant, 1)


@pytest.mark.parametrize("code_id,image_order", [("z4-pseudo-golay-1", 6072),
                                                  ("z4-pseudo-golay-2", 3)])
def test_aut_z4_of_a_relabeled_pseudo_golay_code(code_id, image_order):
    # the word-graph route on a relabeled code: each generator is a
    # coordinate permutation recovered from a leaf's word permutation
    code = oracles.monomial_relabeling(catalog.get(code_id).code(), random.Random(code_id))
    kernel, image = autsearch.aut_z4(code)
    assert (kernel, image.order()) == (2, image_order)
    system = autsearch._SignSystem(code)
    tor, res = z4.torsion(code), z4.residue(code)
    for g in image.generators:
        assert system.compatible(g)
        assert all(c.contains(permgrp.apply_word(g, b)) for c in (tor, res) for b in c.basis)


@pytest.mark.parametrize("k,variant", [(1, "lattice"), (2, "lattice"), (3, "lattice"),
                                       (4, "lattice"), (4, "orbifold")])
def test_e8_report_duals(monkeypatch, k, variant):
    # with every memo empty, the report takes the dual of its C once
    # (sc.checks, read by |H|, P and the Aut(C) search), C ≤ dual(D) and
    # holomorphy are read without a dual, and C0 and C1 share one
    # constraint search: 5 duals at most
    calls = []
    dual = gf2.dual
    monkeypatch.setattr(gf2, "dual", lambda c: calls.append(c) or dual(c))
    built = []
    structure_codes = frames.structure_codes
    monkeypatch.setattr(frames, "structure_codes",
                        lambda *args: built.append(structure_codes(*args)) or built[-1])
    code = len8(k)
    autsearch._aut_binary.cache_clear()
    frames.frame_report(code, variant)
    assert [c is built[0].c_code for c in calls].count(True) == 1
    assert len(calls) <= 5


def test_structure_checks_match_the_dual():
    # C <= dual(D) is read from the parities of basis words, and holomorphy
    # from dimensions; both agree with dual(D) itself on seeded code pairs
    rng = random.Random(37)
    outcomes = set()
    for _ in range(300):
        r = rng.randrange(2, 11)
        d_code = gf2.span(r, [rng.randrange(1 << r) for _ in range(rng.randrange(r + 1))])
        dual_d = gf2.dual(d_code)
        pick = rng.randrange(3)
        if pick == 0:
            c_code = dual_d
        elif pick == 1:
            c_code = gf2.span(r, [b for b in dual_d.basis if rng.random() < 0.6])
        else:
            c_code = gf2.span(r, [rng.randrange(1 << r) for _ in range(rng.randrange(1, r + 1))])
        if all(dual_d.contains(b) for b in c_code.basis):
            sc = frames.StructureCodes(r, c_code, d_code, "lattice")
            outcomes.add(frames.holomorphic(sc))
            assert frames.holomorphic(sc) == (c_code == dual_d)
        else:
            outcomes.add("raised")
            with pytest.raises(ValueError, match="C <= dual"):
                frames.StructureCodes(r, c_code, d_code, "lattice")
    assert outcomes == {True, False, "raised"}
