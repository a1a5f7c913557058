import random
from math import factorial

import pytest

import oracles
from framestab import permgrp as pg


def agl32_generators():
    """AGL(3,2) acting on the 8 points of F_2^3: translations and GL maps."""
    def translation(t):
        return tuple(x ^ t for x in range(8))

    def linmap(rows):
        def image(x):
            out = 0
            for i in range(3):
                if x >> i & 1:
                    out ^= rows[i]
            return out

        return tuple(image(x) for x in range(8))

    return [translation(1), translation(2), translation(4),
            linmap([2, 1, 4]), linmap([1, 4, 2]), linmap([3, 1, 4])]


def sym(n):
    """Sym(n), generated by a transposition and an n-cycle."""
    return pg.PermGroup(n, [oracles.perm_from_cycles(n, [[1, 2]]),
                            oracles.perm_from_cycles(n, [list(range(1, n + 1))])])


def test_compose_inverse_conventions():
    p = oracles.perm_from_cycles(5, [[1, 2, 3]])
    q = oracles.perm_from_cycles(5, [[3, 4]])
    pq = pg.compose(p, q)
    for x in range(5):
        assert pq[x] == q[p[x]]
    assert pg.compose(p, pg.inverse(p)) == pg.identity(5)
    assert pg.cycle_string(p) == "(1 2 3)"


def test_apply_word():
    p = oracles.perm_from_cycles(4, [[1, 4]])
    w = 0b0011  # coordinates 1, 2
    assert pg.apply_word(p, w) == 0b1010  # coordinates 2, 4


def test_single_transposition():
    g = pg.PermGroup(4, [oracles.perm_from_cycles(4, [[1, 2]])])
    assert g.order() == 2


def test_agl32_order():
    assert pg.PermGroup(8, agl32_generators()).order() == 1344


def test_order_invariant_under_generator_shuffle():
    rng = random.Random(0)
    gens = agl32_generators()
    for _ in range(5):
        rng.shuffle(gens)
        assert pg.PermGroup(8, gens).order() == 1344


def test_contains_and_membership():
    g = pg.PermGroup(8, agl32_generators())
    assert pg.identity(8) in g
    assert oracles.perm_from_cycles(8, [[1, 2]]) not in g  # odd cycle type not affine
    for s in g.strong_generators:
        assert g.contains(s)


def test_elements_enumeration_matches_order():
    # the closure of the generators needs no stabilizer chain, so it sees a
    # chain that misses part of the group
    rng = random.Random(7)
    for _ in range(10):
        gens = [tuple(rng.sample(range(6), 6)) for _ in range(2)]
        g = pg.PermGroup(6, gens)
        els = oracles.closure(6, g.generators)
        assert len(els) == g.order()
        assert set(oracles.elements(g)) == els


def test_signed_perm_action():
    sp = pg.SignedPerm(oracles.perm_from_cycles(3, [[1, 2]]), (1, -1, 1))
    assert sp.apply((1, 2, 3)) == (2, 1, 3)  # -2 = 2 mod 4; 1 moves to slot 2


def test_forced_base_prefix():
    gens = agl32_generators()
    g = pg.PermGroup(8, gens, base=(3, 5))
    assert g.base[:2] == (3, 5)
    assert g.order() == 1344


def test_subgroup_search_point_stabilizer():
    g = sym(6)
    found = pg.subgroup_search(g, lambda p: p[0] == 0)
    assert found.order() == factorial(5)


def test_subgroup_search_setwise():
    g = sym(6)
    target = {0, 1, 2}
    found = pg.subgroup_search(g, lambda p: {p[x] for x in target} == target)
    assert found.order() == factorial(3) * factorial(3)


def test_subgroup_search_budget():
    g = sym(10)
    with pytest.raises(pg.BudgetExceeded) as err:
        pg.subgroup_search(g, lambda p: False, budget=50)
    assert err.value.partial == []


def chain_corpus():
    """Seeded generator sets of degree <= 9 with base hints, from groups that
    random full permutations (nearly always Sym(n) or Alt(n)) miss: sparse,
    intransitive and imprimitive ones."""
    def perm(n, *cycles):
        return oracles.perm_from_cycles(n, [list(c) for c in cycles])

    cases = [
        (8, agl32_generators(), (3, 5)),
        # Sym(3) x Sym(3) x Sym(3), intransitive
        (9, [perm(9, (1, 2)), perm(9, (1, 2, 3)), perm(9, (4, 5)), perm(9, (4, 5, 6)),
             perm(9, (7, 8)), perm(9, (7, 8, 9))], (8,)),
        # Sym(4) x C5, intransitive
        (9, [perm(9, (1, 2)), perm(9, (1, 2, 3, 4)), perm(9, (5, 6, 7, 8, 9))], (6, 0)),
        # Sym(3) wr Sym(3), imprimitive on the blocks {1,2,3}, {4,5,6}, {7,8,9}
        (9, [perm(9, (1, 2)), perm(9, (1, 2, 3)), perm(9, (1, 4, 7), (2, 5, 8), (3, 6, 9)),
             perm(9, (1, 4), (2, 5), (3, 6))], (4,)),
        # the dihedral group of the octagon, imprimitive on antipodal pairs
        (8, [perm(8, (1, 2, 3, 4, 5, 6, 7, 8)), perm(8, (2, 8), (3, 7), (4, 6))], (2,)),
        # a redundant generator and a hint point that the group fixes
        (6, [perm(6, (1, 2, 3)), perm(6, (1, 3, 2)), perm(6, (4, 5))], (5, 3)),
    ]
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randrange(4, 10)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = list(range(n))
            for _ in range(rng.randrange(1, 3)):
                a, b = rng.sample(range(n), 2)
                p[a], p[b] = p[b], p[a]
            gens.append(tuple(p))
        cases.append((n, gens, tuple(rng.sample(range(n), rng.randrange(1, 3)))))
    return cases


def test_schreier_sims_chain_on_sparse_and_imprimitive_groups():
    rng = random.Random(35)
    for n, gens, hint in chain_corpus():
        g = pg.PermGroup(n, gens, base=hint)
        els = oracles.closure(n, gens)
        assert g.order() == len(els)
        assert set(oracles.elements(g)) == els
        assert g.base[:len(hint)] == hint
        levels = [g.level_generators(l) for l in range(len(g.base))]
        for l, level in enumerate(levels):
            assert all(s[b] == b for s in level for b in g.base[:l])
            assert g.basic_orbit(l) == pg.orbit(g.base[l], level)
            for x, u in g.transversal(l).items():
                assert u[g.base[l]] == x and all(u[b] == b for b in g.base[:l])
        known = pg.PermGroup.from_bsgs(n, g.base, levels)
        assert known.order() == g.order()
        assert [known.basic_orbit(l) for l in range(len(levels))] == \
            [g.basic_orbit(l) for l in range(len(levels))]
        for i in range(20):
            if i % 2:
                p = tuple(rng.sample(range(n), n))
            else:
                p = pg.identity(n)
                for _ in range(rng.randrange(1, 6)):
                    p = pg.compose(p, rng.choice(gens))
            assert g.contains(p) == (p in els) == known.contains(p)
