import random

import pytest

import oracles
from framestab import catalog, gf2, z4


def test_frame_lattice_gram():
    lat = oracles.four_frame_lattice(4)
    assert lat.gram4 == tuple(
        tuple(16 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert oracles.four_frame_check(lat)


def test_e8_from_each_length8_code():
    for k in (1, 2, 3, 4):
        lat = oracles.construction_a(catalog.get(f"z4-len8-{k}").code())
        assert oracles.is_integral(lat)
        assert oracles.is_even(lat)
        assert oracles.is_unimodular(lat)
        assert oracles.four_frame_check(lat)


def test_determinant_index_identity():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(2, 9)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        c = z4.z4_span(n, gens)
        lat = oracles.construction_a(c)
        assert lat.det_doubled() * c.size() == 4**n


def test_monotone_inclusion():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randrange(2, 8)
        small = z4.z4_span(n, [tuple(rng.randrange(4) for _ in range(n))])
        big = z4.z4_span(n, list(small.basis) + [tuple(rng.randrange(4) for _ in range(n))])
        lat_small = oracles.construction_a(small)
        lat_big = oracles.construction_a(big)
        for row in lat_small.doubled:
            assert lat_big.contains_doubled(list(row))


def test_integral_iff_self_orthogonal():
    rng = random.Random(4)
    checked = 0
    for _ in range(60):
        n = rng.randrange(2, 10)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        c = z4.z4_span(n, gens)
        assert oracles.is_integral(oracles.construction_a(c)) == z4.is_self_orthogonal(c)
        checked += 1
    assert checked >= 50


def test_even_iff_weights_divisible_by_8():
    rng = random.Random(6)
    outcomes = set()
    for _ in range(60):
        c = oracles.random_self_orthogonal(rng.randrange(4, 13), rng.randrange(1, 5), rng)
        ev = oracles.is_even(oracles.construction_a(c))
        w8 = z4.all_weights_divisible_by_8(c)
        assert ev == w8
        outcomes.add(ev)
    assert outcomes == {True, False}


def test_unimodular_iff_type_ii():
    rng = random.Random(10)
    for k in (1, 2, 3, 4):
        c = catalog.get(f"z4-len8-{k}").code()
        assert oracles.is_unimodular(oracles.construction_a(c))
    for _ in range(30):
        c = oracles.random_self_orthogonal(rng.randrange(4, 11), rng.randrange(1, 5), rng)
        lat = oracles.construction_a(c)
        assert (oracles.is_even(lat) and oracles.is_unimodular(lat)) == z4.is_type_ii(c)


def test_four_frame_check_failure():
    # rowspan of 3I scaled by 1/2 does not contain the frame vectors 2e_i
    lat = oracles.ALattice(2, ((3, 0), (0, 3)))
    assert not oracles.four_frame_check(lat)


def test_verify_quotient_catalog():
    for eid in ("z4-len8-1", "z4-len8-2", "z4-len8-3", "z4-len8-4"):
        assert oracles.verify_quotient(catalog.get(eid).code())
    assert oracles.verify_quotient(z4.z4_span(4, []))


def test_verify_quotient_random():
    rng = random.Random(12)
    for _ in range(20):
        c = oracles.random_self_orthogonal(rng.randrange(3, 9), rng.randrange(1, 4), rng)
        assert oracles.verify_quotient(c)


# -- Leech membership ---------------------------------------------------------


def test_leech_rejects_short_support():
    w = [0] * 24
    w[0] = 2
    assert not oracles.leech_member(w)


def test_leech_frame_vectors():
    for v in oracles.leech_frame_vectors():
        assert oracles.leech_member(v)


def test_leech_doubled_golay_word():
    g = oracles.leech_golay_copy()
    for oct8 in gf2.weight_words(g, 8)[:10]:
        vec = [2 * ((oct8 >> i) & 1) for i in range(24)]
        assert oracles.leech_member(vec)
    # a doubled non-codeword fails the congruence
    assert not oracles.leech_member([2] * 8 + [0] * 16) or g.contains(0xFF)


def test_leech_golay_copy_is_golay():
    g = oracles.leech_golay_copy()
    assert (g.length, g.dim) == (24, 12)
    assert g == gf2.dual(g)
    assert gf2.min_weight(g) == 8
    assert all(w.bit_count() % 4 == 0 for w in g.codewords())


def test_leech_scaled_generators():
    entry = catalog.get("z4-leech-standard")
    code = entry.code()
    rows = [tuple(int(d) for d in "".join(line.split()))
            for line in entry.matrix.strip().splitlines()]
    assert len(rows) == 18
    for row in rows:
        assert oracles.leech_member(oracles.leech_scaled_generator(row))
    # and the Howell form rows of the same code
    for row in code.basis:
        assert oracles.leech_member(oracles.leech_scaled_generator(row))


def test_leech_closed_under_negation_and_addition():
    rng = random.Random(14)
    entry = catalog.get("z4-leech-standard")
    rows = [tuple(int(d) for d in "".join(line.split()))
            for line in entry.matrix.strip().splitlines()]
    members = [oracles.leech_scaled_generator(r) for r in rows]
    members += oracles.leech_frame_vectors()
    for _ in range(40):
        a = rng.choice(members)
        b = rng.choice(members)
        assert oracles.leech_member(tuple(-x for x in a))
        assert oracles.leech_member(tuple(x + y for x, y in zip(a, b)))
