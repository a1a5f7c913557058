import random
from math import factorial

import pytest

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


def test_compose_inverse_conventions():
    p = pg.perm_from_cycles(5, [[1, 2, 3]])
    q = pg.perm_from_cycles(5, [[3, 4]])
    pq = pg.compose(p, q)
    for x in range(5):
        assert pq[x] == q[p[x]]
    assert pg.compose(p, pg.inverse(p)) == pg.identity(5)
    assert pg.cycle_string(p) == "(1 2 3)"


def test_apply_word():
    p = pg.perm_from_cycles(4, [[1, 4]])
    w = 0b0011  # coordinates 1, 2
    assert pg.apply_word(p, w) == 0b1010  # coordinates 2, 4


def test_symmetric_group_order():
    assert pg.symmetric_group(16).order() == factorial(16)
    assert pg.symmetric_group(2).order() == 2


def test_single_transposition():
    g = pg.PermGroup(4, [pg.perm_from_cycles(4, [[1, 2]])])
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
    assert pg.perm_from_cycles(8, [[1, 2]]) not in g  # odd cycle type not affine
    for s in g.strong_generators:
        assert g.contains(s)


def test_elements_enumeration_matches_order():
    rng = random.Random(7)
    for _ in range(10):
        gens = [tuple(rng.sample(range(6), 6)) for _ in range(2)]
        g = pg.PermGroup(6, gens)
        els = set(g.elements())
        assert len(els) == g.order()
        assert all(pg.compose(a, b) in els for a in list(els)[:5] for b in list(els)[:5])


def test_wreath_orders():
    assert pg.wreath_2([(1, 2), (3, 4), (5, 6)], pg.trivial_group(3)).order() == 8
    w = pg.wreath_2([(2 * i + 1, 2 * i + 2) for i in range(8)], pg.symmetric_group(8))
    assert w.order() == 2**8 * factorial(8)
    top = pg.PermGroup(8, agl32_generators())
    w = pg.wreath_2([(2 * i + 1, 2 * i + 2) for i in range(8)], top)
    assert w.order() == 2**8 * 1344


def test_wreath_validation():
    with pytest.raises(ValueError):
        pg.wreath_2([(1, 2), (2, 3)], pg.trivial_group(2))
    with pytest.raises(ValueError):
        pg.wreath_2([(1, 2), (4, 5)], pg.trivial_group(2))


def test_project():
    signed = [
        pg.SignedPerm(pg.perm_from_cycles(4, [[1, 2]]), (1, 1, -1, 1)),
        pg.SignedPerm(pg.identity(4), (-1, -1, 1, 1)),
    ]
    img = pg.project(signed)
    assert img.order() == 2
    only_signs = [pg.SignedPerm(pg.identity(4), (-1, 1, -1, 1))]
    assert pg.project(only_signs).order() == 1


def test_signed_perm_action():
    sp = pg.SignedPerm(pg.perm_from_cycles(3, [[1, 2]]), (1, -1, 1))
    assert sp.apply((1, 2, 3)) == (2, 1, 3)  # -2 = 2 mod 4; 1 moves to slot 2


def test_forced_base_prefix():
    gens = agl32_generators()
    g = pg.PermGroup(8, gens, base=(3, 5))
    assert g.base[:2] == (3, 5)
    assert g.order() == 1344


def test_subgroup_search_point_stabilizer():
    g = pg.symmetric_group(6)
    found = pg.subgroup_search(g, lambda p: p[0] == 0)
    assert found.order() == factorial(5)


def test_subgroup_search_setwise():
    g = pg.symmetric_group(6)
    target = {0, 1, 2}
    found = pg.subgroup_search(g, lambda p: {p[x] for x in target} == target)
    assert found.order() == factorial(3) * factorial(3)


def test_subgroup_search_budget():
    g = pg.symmetric_group(10)
    with pytest.raises(pg.BudgetExceeded) as err:
        pg.subgroup_search(g, lambda p: False, budget=50)
    assert err.value.partial is not None
