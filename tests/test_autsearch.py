import random
from itertools import permutations
from math import factorial

import pytest

from framestab import autsearch as ats
from framestab import catalog, gf2, permgrp, z4
from framestab.errors import BudgetExceeded


def brute_aut(code):
    """Oracle: scan all n! coordinate permutations."""
    out = []
    for images in permutations(range(code.length)):
        if permgrp.apply_code(images, code) == code:
            out.append(images)
    return out


def random_code(rng, n, k):
    return gf2.span(n, [rng.randrange(1, 1 << n) for _ in range(k)])


SMALL_CORPUS = [
    gf2.even_code(4),
    gf2.hamming8(),
    gf2.span(6, ["110000", "001100", "000011"]),
    gf2.span(7, ["1110000", "0011100", "1000011"]),
    gf2.repetition_code(5),
    gf2.span(8, ["11001100", "00110011", "10101010"]),
]


def test_aut_matches_brute_force_small():
    rng = random.Random(42)
    corpus = list(SMALL_CORPUS)
    for _ in range(4):
        corpus.append(random_code(rng, rng.randrange(4, 8), rng.randrange(1, 4)))
    for code in corpus:
        group = ats.aut_binary(code)
        brute = brute_aut(code)
        assert group.order() == len(brute)
        for p in brute[:20]:
            assert group.contains(p)


def test_aut_even_full_and_repetition():
    assert ats.aut_binary(gf2.even_code(16)).order() == factorial(16)
    assert ats.aut_binary(gf2.full_code(9)).order() == factorial(9)
    assert ats.aut_binary(gf2.repetition_code(10)).order() == factorial(10)


def test_aut_hamming_and_reed_muller():
    assert ats.aut_binary(gf2.hamming8()).order() == 1344
    assert ats.aut_binary(gf2.reed_muller(2, 4)).order() == 322560


def test_aut_order_matches_element_enumeration():
    group = ats.aut_binary(gf2.hamming8())
    elements = set(group.elements())
    assert len(elements) == group.order() == 1344


def test_aut_equals_aut_of_dual():
    rng = random.Random(6)
    for _ in range(10):
        c = random_code(rng, rng.randrange(5, 10), 3)
        g1 = ats.aut_binary(c)
        g2 = ats.aut_binary(gf2.dual(c))
        assert g1.order() == g2.order()
        assert all(g2.contains(s) for s in g1.strong_generators)


def test_generators_fix_the_code():
    for code in (gf2.hamming8(), gf2.reed_muller(1, 4), gf2.even_code(12)):
        group = ats.aut_binary(code)
        for s in group.strong_generators:
            assert permgrp.apply_code(s, code) == code


def test_moonshine_d_aut_order():
    d = catalog.get("bin-moonshine-d").code()
    assert ats.aut_binary(d).order() == 2**12 * 6 * 20160


def test_budget_exceeded_reports_partial():
    with pytest.raises(BudgetExceeded) as err:
        ats.aut_binary(gf2.golay24(), budget=20)
    assert err.value.partial is not None
    assert err.value.lower_bound_only


# -- code equivalence ---------------------------------------------------------


def test_is_equivalent_identity():
    h8 = gf2.hamming8()
    g = gf2.is_equivalent(h8, h8)
    assert g == permgrp.identity(8)


def test_is_equivalent_finds_witness():
    rng = random.Random(11)
    c = gf2.reed_muller(1, 3)
    perm = tuple(rng.sample(range(8), 8))
    moved = permgrp.apply_code(perm, c)
    g = gf2.is_equivalent(c, moved)
    assert g is not None
    assert permgrp.apply_code(g, c) == moved
    rng = random.Random(3)
    for code in (gf2.hamming8(), gf2.span(10, [rng.randrange(1 << 10) for _ in range(4)])):
        for _ in range(5):
            perm = tuple(rng.sample(range(code.length), code.length))
            moved = permgrp.apply_code(perm, code)
            g = gf2.is_equivalent(code, moved)
            assert g is not None
            assert permgrp.apply_code(g, code) == moved


def test_is_equivalent_rejects_different_invariants():
    # both [8,4], but the weight enumerators differ (pairs code has weight-2
    # words, the Hamming code does not)
    a = gf2.span(8, ["11000000", "00110000", "00001100", "00000011"])
    b = gf2.hamming8()
    assert a.dim == b.dim
    assert gf2.is_equivalent(a, b) is None


def test_is_equivalent_rejects_equal_weight_enumerators():
    # e8+e8 and d16+ are both doubly-even self-dual [16,8] codes with the
    # same weight enumerator, but not equivalent; only the tree search can
    # tell them apart
    e8e8 = gf2.span(16, list(gf2.hamming8().basis)
                    + [b << 8 for b in gf2.hamming8().basis])
    d16 = gf2.span(16, [0b1111 << 2 * i for i in range(7)] + [0xAAAA])
    assert gf2.weight_distribution(e8e8) == gf2.weight_distribution(d16)
    rng = random.Random(4)
    perm = tuple(rng.sample(range(16), 16))
    assert gf2.is_equivalent(e8e8, permgrp.apply_code(perm, d16)) is None


def test_phi2_pseudo_golay_equivalent_to_golay():
    g24 = gf2.golay24()
    for eid in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        residue = z4.residue(catalog.get(eid).code())
        witness = gf2.is_equivalent(residue, g24)
        assert witness is not None
        assert permgrp.apply_code(witness, residue) == g24


# -- subcode stabilizers -------------------------------------------------------


def test_stabilizer_of_whole_code_is_whole_group():
    c = gf2.hamming8()
    g = ats.aut_binary(c)
    assert ats.subcode_stabilizer(c, c).order() == g.order()


def test_stabilizer_of_doubled_full_code():
    c = gf2.span(16, list(gf2.d_map(gf2.full_code(8)).basis)
                 + list(gf2.e_map(gf2.hamming8()).basis))
    g = ats.aut_binary(c)
    stab = ats.subcode_stabilizer(c, gf2.d_map(gf2.full_code(8)))
    assert stab.order() == 2**8 * 1344
    assert g.order() == stab.order()  # the family H has one member here


def test_stabilizer_of_doubled_even_in_reed_muller():
    rm = gf2.reed_muller(2, 4)
    g = ats.aut_binary(rm)
    d_e8 = gf2.d_map(gf2.even_code(8))
    for b in d_e8.basis:
        assert rm.contains(b)
    stab = ats.subcode_stabilizer(rm, d_e8)
    assert stab.order() == 2**4 * 1344
    assert g.order() // stab.order() == 15


def test_stabilizer_matches_brute_force():
    rng = random.Random(9)
    c = gf2.even_code(6)
    sub = gf2.span(6, ["110000", "001100", "000011"])
    stab = ats.subcode_stabilizer(c, sub)
    brute = [p for p in brute_aut(c) if permgrp.apply_code(p, sub) == sub]
    assert stab.order() == len(brute)


# -- Z4 automorphisms ----------------------------------------------------------


def test_aut_z4_length8():
    expected = {
        1: (2**7, factorial(8)),
        2: (2**6, 1152),
        3: (2**4, 384),
        4: (2, 1344),
    }
    for k, (kernel_exp, image_exp) in expected.items():
        code = catalog.get(f"z4-len8-{k}").code()
        kernel, image = ats.aut_z4(code)
        assert kernel == kernel_exp
        assert image.order() == image_exp


def test_aut_z4_image_in_binary_auts():
    for k in (1, 2, 3, 4):
        code = catalog.get(f"z4-len8-{k}").code()
        _, image = ats.aut_z4(code)
        aut_c0 = ats.aut_binary(z4.torsion(code))
        aut_c1 = ats.aut_binary(z4.residue(code))
        for s in image.strong_generators:
            assert aut_c0.contains(s)
            assert aut_c1.contains(s)


def test_aut_z4_generators_preserve_code():
    code = catalog.get("z4-len8-3").code()
    kernel, image = ats.aut_z4(code)
    system = ats._SignSystem(code)
    for s in image.strong_generators:
        assert system.compatible(s)


def test_aut_z4_kernel_times_image_small_brute(monkeypatch):
    # brute force over all signed permutations; the codes with a stated
    # total take the subgroup-search fallback of aut_z4
    fallback_runs = []
    search = permgrp.subgroup_search

    def counted_search(*args, **kwargs):
        fallback_runs.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(permgrp, "subgroup_search", counted_search)
    cases = [
        (z4.z4_span(3, [(1, 1, 2), (0, 2, 2)]), None),
        (z4.z4_span(4, [(3, 2, 3, 0)]), 16),
        (z4.z4_span(5, [(2, 0, 1, 1, 1)]), 48),
        (z4.z4_span(5, [(0, 2, 2, 2, 0), (3, 2, 0, 0, 2), (0, 0, 0, 3, 0)]), 64),
    ]
    for code, expected in cases:
        n = code.length
        total = 0
        for images in permutations(range(n)):
            for smask in range(1 << n):
                signs = tuple(-1 if smask >> i & 1 else 1 for i in range(n))
                sp = permgrp.SignedPerm(images, signs)
                if z4.z4_span(n, [sp.apply(r) for r in code.basis]) == code:
                    total += 1
        fallback_runs.clear()
        kernel, image = ats.aut_z4(code)
        assert kernel * image.order() == total
        if expected is not None:
            assert total == expected
            assert fallback_runs


def test_aut_z4_leech_standard():
    code = catalog.get("z4-leech-standard").code()
    kernel, image = ats.aut_z4(code)
    assert kernel == 2**9
    assert image.order() == 2**9 * 1008
    assert kernel * image.order() == 2**18 * 1008


def test_project_exactness_on_aut_z4():
    # kernel order * image order = full order, via an explicit signed set
    code = catalog.get("z4-len8-1").code()
    kernel, image = ats.aut_z4(code)
    signed = [permgrp.SignedPerm(g, tuple([1] * 8)) for g in image.generators]
    assert permgrp.project(signed).order() == image.order()
    assert kernel * image.order() == 2**7 * factorial(8)


@pytest.mark.slow
def test_aut_golay_is_m24_order():
    assert ats.aut_binary(gf2.golay24()).order() == 244823040


@pytest.mark.slow
def test_aut_z4_pseudo_golay():
    k1, img1 = ats.aut_z4(catalog.get("z4-pseudo-golay-1").code())
    assert (k1, img1.order()) == (2, 6072)
    k2, img2 = ats.aut_z4(catalog.get("z4-pseudo-golay-2").code())
    assert (k2, img2.order()) == (2, 3)
