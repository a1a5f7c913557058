"""Acceptance suite: one test per exit criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` for the full report; the
long-running searches (the length-24 Z4 codes) sit behind `-m slow`.

Criterion 5 contains one value that is internally inconsistent in its
source (the fourth length-8 code); see the strict-xfail test below and the
decisions ledger for the analysis.
"""

import random
import time
from itertools import permutations
from fractions import Fraction
from math import factorial

import pytest

import oracles
from framestab import autsearch, catalog, frames, gf2, permgrp, z4


def report(criterion, detail, started=None):
    took = "" if started is None else f" [{time.time() - started:.2f}s]"
    print(f"acceptance criterion {criterion}: PASS - {detail}{took}")


def len8(k):
    return catalog.get(f"z4-len8-{k}").code()


# -- criterion 1: structure codes of the four length-8 codes, lattice variant --


def test_criterion_1_structure_codes_exact():
    t = time.time()
    e16 = gf2.even_code(16)
    rep16 = gf2.span(16, [(1 << 16) - 1])
    blocks2 = [0b11 << (blk + off) for blk in (0, 8) for off in range(7)]
    blocks3 = [0b11 << (blk + off) for blk in range(0, 16, 4) for off in range(3)]
    expected = {
        1: (e16, rep16),
        2: (gf2.span(16, blocks2),
            gf2.span(16, ["1" * 8 + "0" * 8, "0" * 8 + "1" * 8])),
        3: (gf2.span(16, blocks3 + [gf2.parse_word("1000100010001000")]),
            gf2.span(16, ["1" * 8 + "0" * 8, "0" * 8 + "1" * 8, "1111000011110000"])),
        4: (gf2.span(16, list(gf2.d_map(gf2.full_code(8)).basis)
                     + list(gf2.e_map(gf2.hamming8()).basis)),
            gf2.d_map(gf2.hamming8())),
    }
    for k, (want_c, want_d) in expected.items():
        sc = frames.structure_codes_lattice(len8(k))
        assert sc.c_code.basis == want_c.basis, f"case {k}: C"
        assert sc.d_code.basis == want_d.basis, f"case {k}: D"
    report(1, "structure codes of all four length-8 cases match exactly", t)


# -- criterion 2: dim P across all catalog frames ------------------------------


def test_criterion_2_dim_p():
    t = time.time()
    got = [frames.compute_p(frames.structure_codes_lattice(len8(k))).dim
           for k in (1, 2, 3, 4)]
    assert got == [15, 14, 12, 9]
    e8_orb = frames.structure_codes_orbifold(len8(4))
    p_orb = frames.compute_p(e8_orb)
    assert p_orb.dim == 5
    assert p_orb == e8_orb.d_code
    pg = frames.structure_codes_orbifold(catalog.get("z4-pseudo-golay-1").code())
    p_pg = frames.compute_p(pg)
    assert p_pg.dim == 13
    assert p_pg == pg.d_code
    moon = frames.structure_codes_orbifold(catalog.get("z4-leech-standard").code())
    assert frames.compute_p(moon).dim == 27
    report(2, "dim P = 15, 14, 12, 9, 5, 13, 27 across the seven frames", t)


# -- criterion 3: pointwise stabilizer exponents -------------------------------


def test_criterion_3_pointwise_exponents():
    t = time.time()
    got = [frames.pointwise_order(frames.structure_codes_lattice(len8(k)))
           for k in (1, 2, 3, 4)]
    assert got == [(1, 14), (2, 12), (3, 9), (4, 5)]
    assert frames.pointwise_order(frames.structure_codes_orbifold(len8(4))) == (5, 0)
    pg = frames.structure_codes_orbifold(catalog.get("z4-pseudo-golay-1").code())
    assert frames.pointwise_order(pg) == (13, 0)
    moon = frames.structure_codes_orbifold(catalog.get("z4-leech-standard").code())
    assert frames.pointwise_order(moon) == (7, 20)
    report(3, "(a,b) = (1,14),(2,12),(3,9),(4,5),(5,0),(13,0),(7,20)", t)


# -- criterion 4: binary automorphism orders -----------------------------------


def test_criterion_4_binary_aut_orders():
    t = time.time()
    assert autsearch.aut_binary(gf2.hamming8()).order() == 1344
    assert autsearch.aut_binary(gf2.reed_muller(2, 4)).order() == 322560
    assert autsearch.aut_binary(gf2.even_code(16)).order() == factorial(16)
    report(4, "|Aut(H8)| = 1344, |Aut(RM(2,4))| = 322560, |Aut(E16)| = 16!", t)


def test_criterion_4_golay_aut_order():
    t = time.time()
    assert autsearch.aut_binary(gf2.golay24()).order() == 244823040
    report(4, "|Aut(G24)| = 244823040 (opt-in long search)", t)


# -- criterion 5: Z4 automorphism orders ----------------------------------------


def test_criterion_5_length8_cases_1_to_3():
    t = time.time()
    expected = {1: 2**7 * factorial(8), 2: 2**6 * 24**2 * 2, 3: 2**4 * (2**4 * 24)}
    for k, want in expected.items():
        kernel, image = autsearch.aut_z4(len8(k))
        assert kernel * image.order() == want, f"code {k}"
    report(5, "|Aut| = 2^7*8!, 2^6*(4!)^2*2, 2^4*(2^4*4!) for codes 1-3", t)


@pytest.mark.xfail(
    strict=True,
    reason="stated value 1344 is a defect inherited from the source: the sign "
    "kernel always contains global negation, so the total order is twice the "
    "image order 1344; see the decisions ledger",
)
def test_criterion_5_case4_as_stated():
    kernel, image = autsearch.aut_z4(len8(4))
    total = kernel * image.order()
    if total != 1344:
        print(
            "acceptance criterion 5 (fourth code, as stated): FAIL - computed "
            f"total {total} = {kernel} * {image.order()}, stated 1344; the "
            "stated value contradicts the image order 1344 required by "
            "criterion 6 (documented defect in the stated value)"
        )
    assert total == 1344


def test_criterion_5_case4_consistent_value():
    t = time.time()
    kernel, image = autsearch.aut_z4(len8(4))
    assert kernel == 2
    assert image.order() == 1344
    assert kernel * image.order() == 2688
    report(5, "fourth code: kernel 2 (global negation), image 1344 = |AGL(3,2)|, "
              "total 2688 (consistent value; stated 1344 is xfail-documented)", t)


def type_ii_residue_count(n, k):
    """N(n, k), the number of doubly-even binary codes of length n and
    dimension k containing the all-ones word that the mass formula weights:
    prod_(i<k-1) (2^(m-i) - 1)(2^(m-i-1) + 1)/(2^(i+1) - 1), m = (n - 2)/2."""
    m = (n - 2) // 2
    out = Fraction(1)
    for i in range(k - 1):
        out *= Fraction((2**(m - i) - 1) * (2**(m - i - 1) + 1), 2**(i + 1) - 1)
    return out


def test_criterion_5_length8_mass_formula():
    # a second route to all four |Aut| totals (the xfail's 2688 among them):
    # the Type II Z4-codes of length 8 whose residue has dimension k have
    # mass sum 2^n n!/|Aut| = N(8, k) 2^(1 + k(k-1)/2), and the catalog holds
    # one code of each class
    t = time.time()
    n = 8
    assert [type_ii_residue_count(n, k) for k in range(1, 5)] == [1, 35, 105, 30]
    mass = dict.fromkeys(range(1, 5), Fraction(0))
    for case in range(1, 5):
        code = len8(case)
        kernel, image = autsearch.aut_z4(code)
        mass[z4.residue(code).dim] += Fraction(2**n * factorial(n), kernel * image.order())
    assert mass == {k: type_ii_residue_count(n, k) * 2**(1 + k * (k - 1) // 2)
                    for k in range(1, 5)}
    assert list(mass.values()) == [2, 140, 1680, 3840]
    report(5, "length-8 mass formula: 2, 140, 1680, 3840 for residue dimension 1-4", t)


@pytest.mark.slow
def test_criterion_5_length24_codes():
    t = time.time()
    k1, img1 = autsearch.aut_z4(catalog.get("z4-pseudo-golay-1").code())
    assert k1 * img1.order() == 12144
    k2, img2 = autsearch.aut_z4(catalog.get("z4-pseudo-golay-2").code())
    assert k2 * img2.order() == 6
    k3, img3 = autsearch.aut_z4(catalog.get("z4-leech-standard").code())
    assert k3 * img3.order() == 2**18 * 1008
    report(5, "|Aut| = 12144, 6, 2^18*1008 for the length-24 codes (opt-in)", t)


# -- criterion 6: frame stabilizer total orders ---------------------------------


def test_criterion_6_stabilizer_orders():
    t = time.time()
    r1 = frames.frame_report(len8(1), "lattice")
    assert r1.stab_order == 2**15 * factorial(16)
    r4 = frames.frame_report(len8(4), "lattice")
    assert r4.stab_order == 2**9 * 2**8 * 1344
    rp = frames.frame_report(catalog.get("z4-pseudo-golay-1").code(), "orbifold")
    assert rp.stab_order == 2**13 * 2**12 * 6072
    rm = frames.frame_report(catalog.get("z4-leech-standard").code(), "orbifold")
    assert rm.stab_order == 2**27 * 2**12 * 120960
    report(6, "stab orders 2^15*16!, 2^9*2^8*1344, 2^13*2^12*6072, "
              "2^27*2^12*120960 (exact big integers)", t)


# -- criterion 7: |H| counts by both routes -------------------------------------


def test_criterion_7_h_counts():
    t = time.time()
    sc4 = frames.structure_codes_lattice(len8(4))
    assert frames.enumerate_h_lattice(sc4)[0] == 1

    sc1 = frames.structure_codes_lattice(len8(1))
    direct = frames.enumerate_h_lattice(sc1)[0]
    aut_c = autsearch.aut_binary(sc1.c_code).order()
    aut_c0 = autsearch.aut_binary(z4.torsion(len8(1))).order()
    by_index = aut_c // (2**8 * aut_c0)
    assert direct == by_index == 2027025

    sc_orb = frames.structure_codes_orbifold(len8(4))
    c0 = z4.torsion(len8(4))
    direct_orb = frames.enumerate_h_orbifold(sc_orb, c0)[0]
    aut_c_orb = autsearch.aut_binary(sc_orb.c_code).order()
    by_index_orb = aut_c_orb // (2**4 * autsearch.aut_binary(c0).order())
    assert direct_orb == by_index_orb == 15

    pg = catalog.get("z4-pseudo-golay-1").code()
    sc_pg = frames.structure_codes_orbifold(pg)
    assert gf2.min_weight(z4.torsion(pg)) == 8
    assert frames.enumerate_h_orbifold(sc_pg, z4.torsion(pg))[0] == 1
    report(7, "|H| = 1 (case 4), 2027025 (case 1, both routes), "
              "15 (E8 orbifold, both routes), 1 (pseudo-Golay)", t)


# -- criterion 8: residue codes equivalent to the Golay code --------------------


def test_criterion_8_phi2_equivalent_to_golay():
    t = time.time()
    g24 = gf2.golay24()
    for eid in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        residue = z4.residue(catalog.get(eid).code())
        witness = autsearch.code_isomorphism(residue, g24)
        assert witness is not None
        assert permgrp.apply_code(witness, residue) == g24
    report(8, "phi_2 of both pseudo-Golay codes mapped onto the Golay code "
              "by verified witness permutations", t)


# -- criterion 9: property suites ------------------------------------------------


def test_criterion_9_doubled_even_code_properties():
    t = time.time()
    from itertools import combinations
    for n in (6, 8, 10, 12):
        w = gf2.d_map(gf2.even_code(n))
        w4 = gf2.weight_words(w, 4)
        assert gf2.span(2 * n, w4) == w
        for a in w.basis:
            for b in w.basis:
                assert (a & b).bit_count() % 2 == 0
        for a in w4[:20]:
            assert sum(1 for b in w4 if b != a and (a & b).bit_count() == 2) == 2 * n - 4
        chain = [gf2.d_word(0b11 << i) for i in range(n - 1)]
        for k in range(2, min(len(chain), 5) + 1):
            head = chain[:k]
            extensions = sum(
                1 for cand in w4
                if all((cand & head[i]).bit_count() == (2 if i == k - 1 else 0)
                       for i in range(k))
            )
            assert extensions == n - k - 1
        dual = gf2.dual(w)
        if n > 8:
            assert set(gf2.weight_words(dual, 4)) == set(w4)
        dual2 = gf2.weight_words(dual, 2)
        sums = {a | b for a, b in combinations(dual2, 2) if a & b == 0}
        assert set(w4) == sums
    report(9, "doubled even-code lemma suite holds for n = 6, 8, 10, 12", t)


def test_criterion_9_weight4_decomposition_for_hamming_torsion():
    t = time.time()
    h8 = gf2.hamming8()
    c = gf2.span(16, list(gf2.d_map(gf2.even_code(8)).basis)
                 + list(gf2.e_map(h8).basis))
    got = set(gf2.weight_words(c, 4))
    expected = {gf2.d_word(x) for x in gf2.weight_words(gf2.even_code(8), 2)}
    for y in gf2.weight_words(h8, 4):
        subsets = [0]
        for i in gf2.support(y):
            subsets += [s | (1 << (i - 1)) for s in subsets]
        expected.update(gf2.e_word(y) ^ gf2.d_word(z) for z in subsets
                        if z.bit_count() % 2 == 0)
    assert got == expected
    report(9, "weight-4 decomposition of Span{d(E_8), e(H8)} matches the "
              "two-family description", t)


def test_criterion_9_construction_a_equivalences():
    t = time.time()
    rng = random.Random(2024)
    self_orth = 0
    for _ in range(80):
        n = rng.randrange(3, 13)
        gens = [tuple(rng.randrange(4) for _ in range(n))
                for _ in range(rng.randrange(1, 5))]
        c = z4.z4_span(n, gens)
        lat = oracles.construction_a(c)
        assert oracles.is_integral(lat) == z4.is_self_orthogonal(c)
    for _ in range(60):
        c = oracles.random_self_orthogonal(rng.randrange(4, 13), rng.randrange(1, 5), rng)
        self_orth += 1
        lat = oracles.construction_a(c)
        assert oracles.is_even(lat) == z4.all_weights_divisible_by_8(c)
        assert (oracles.is_even(lat) and oracles.is_unimodular(lat)) == z4.is_type_ii(c)
    assert self_orth >= 50
    report(9, f"Construction-A equivalences on {self_orth} random "
              "self-orthogonal codes plus 80 arbitrary codes", t)


def test_criterion_9_aut_matches_brute_force():
    t = time.time()
    rng = random.Random(77)
    corpus = [
        gf2.even_code(4),
        gf2.hamming8(),
        gf2.span(6, [(1 << 6) - 1]),
        gf2.span(8, ["11001100", "00110011", "10101010"]),
        gf2.span(7, ["1110000", "0011100", "1000011"]),
    ]
    corpus += [gf2.span(6, [rng.randrange(1, 64) for _ in range(3)]) for _ in range(3)]
    for code in corpus:
        group = autsearch.aut_binary(code)
        brute = sum(
            1 for images in permutations(range(code.length))
            if permgrp.apply_code(images, code) == code
        )
        assert group.order() == brute
    report(9, f"aut search equals brute force over all n! permutations for "
              f"{len(corpus)} codes of length <= 8", t)


def test_criterion_9_leech_membership():
    t = time.time()
    entry = catalog.get("z4-leech-standard")
    rows = [tuple(int(d) for d in "".join(line.split()))
            for line in entry.matrix.strip().splitlines()]
    assert len(rows) == 18
    for row in rows:
        assert oracles.leech_member(oracles.leech_scaled_generator(row))
    frame_vectors = oracles.leech_frame_vectors()
    assert len(frame_vectors) == 24
    for v in frame_vectors:
        assert oracles.leech_member(v)
    assert not oracles.leech_member([2] + [0] * 23)
    report(9, "Leech membership: 18 scaled generators and 24 frame vectors "
              "accepted, (2,0,...,0) rejected", t)


# -- criterion 10: exclusions ----------------------------------------------------


def test_criterion_10_exclusions_documented():
    # |Aut(C)| = 2^24 * |M24| for the length-48 lattice-variant structure code
    # is not computed by direct search, and no abstract isomorphism types are
    # asserted anywhere: the pseudo-Golay lattice report would need that
    # group, so the report for it is what the index formula covers instead.
    pg = catalog.get("z4-pseudo-golay-1").code()
    sc = frames.structure_codes_lattice(pg)
    assert frames._aut_c_feasible(sc.c_code) is False
    r = frames.frame_report(pg, "orbifold")
    assert r.aut_c is None
    report(10, "length-48 direct Aut(C) search and abstract isomorphism "
               "types are excluded; order-level checks stand in")
