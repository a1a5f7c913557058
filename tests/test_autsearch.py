import random
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import oracles
from framestab import autsearch as ats
from framestab import catalog, errors, frames, gf2, permgrp, z4
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
    gf2.span(5, [(1 << 5) - 1]),
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
    assert ats.aut_binary(gf2.span(10, [(1 << 10) - 1])).order() == factorial(10)


def test_aut_hamming_and_reed_muller():
    assert ats.aut_binary(gf2.hamming8()).order() == 1344
    assert ats.aut_binary(gf2.reed_muller(1, 4)).order() == 322560
    assert ats.aut_binary(gf2.reed_muller(2, 4)).order() == 322560


def test_aut_order_matches_element_enumeration():
    # the closure of the generators, not the group's own transversals
    group = ats.aut_binary(gf2.hamming8())
    elements = oracles.closure(8, group.generators)
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


def test_code_and_its_dual_share_one_memo_entry():
    # the memo keys on the small side, which a code and its dual share
    # unless both have dimension n/2
    ats._aut_binary.cache_clear()
    rng = random.Random(23)
    codes = [gf2.reed_muller(1, 4), gf2.even_code(9), gf2.hamming8()]
    codes += [random_code(rng, n, k) for n, k in ((6, 2), (7, 5), (9, 4), (10, 7))]
    for c in codes:
        assert ats.aut_binary(c) is ats.aut_binary(gf2.dual(c))
        # a code repeated, or given with its dual, keeps the same group
        assert ats.aut_binary(c, gf2.dual(c), c) is ats.aut_binary(c)


def test_moonshine_d_aut_order():
    d = catalog.get("bin-moonshine-d").code()
    assert ats.aut_binary(d).order() == 2**12 * 6 * 20160


def assert_matches_schreier_sims(group, rng):
    """The search's group against a Schreier-Sims rebuild from its
    generators on the same base: orders, basic orbits and membership."""
    n = group.degree
    ref = permgrp.PermGroup(n, group.generators, base=group.base)
    assert ref.order() == group.order()
    assert ref.base == group.base
    for level in range(len(group.base)):
        assert set(ref.basic_orbit(level)) == set(group.basic_orbit(level))
    probes = [tuple(rng.sample(range(n), n)) for _ in range(10)]
    for _ in range(10 if group.generators else 0):
        p = permgrp.identity(n)
        for _ in range(rng.randrange(1, 6)):
            p = permgrp.compose(p, rng.choice(group.generators))
        assert group.contains(p)
        probes.append(p)
    for p in probes:
        assert group.contains(p) == ref.contains(p)


def test_search_bsgs_matches_schreier_sims():
    rng = random.Random(21)
    groups = [ats.aut_binary(c) for c in (gf2.golay24(), gf2.reed_muller(2, 4), gf2.hamming8())]
    for _ in range(30):
        n = rng.randrange(6, 17)
        groups.append(ats.aut_binary(random_code(rng, n, rng.randrange(1, n))))
    for k in (1, 2, 3, 4):
        groups.append(ats.aut_z4(catalog.get(f"z4-len8-{k}").code())[1])
    groups.append(ats.aut_z4(catalog.get("z4-leech-standard").code())[1])
    # the pseudo-Golay images come from the pair-colour graph search; the
    # group their search starts from, Aut(C0) ∩ Aut(C1), is from the BSGS
    for code_id in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        code = catalog.get(code_id).code()
        groups.append(ats.automorphism_group(
            ats.structure_for_codes([z4.torsion(code), z4.residue(code)])))
    for group in groups:
        assert_matches_schreier_sims(group, rng)


def test_golay_search_tree_is_small():
    # individualizing in the first largest cell, the M24 search takes 30
    # nodes; a search past its budget raises
    assert ats.aut_binary(gf2.golay24(), budget=40).order() == 244823040


def weakly_refined_code():
    """A [14,9] code whose dual's two lightest classes hold 1 and 2 words."""
    return gf2.span(14, [1, 10242, 9220, 1032, 1040, 10784, 3648, 1152, 9472])


def test_weakly_refined_code_search_tree_is_small():
    # the two lightest classes of the [14,5] dual hold 1 and 2 words, so
    # refinement needs the heavier classes to split the points; it takes 10
    code = weakly_refined_code()
    assert code.dim == 9
    assert ats.aut_binary(code, budget=100).order() == 48


def lattice_c(code_id):
    return frames.structure_codes(catalog.get(code_id).code(), "lattice").c_code


@pytest.mark.parametrize("code_id,nodes,order", [
    ("z4-len8-1", 16, factorial(16)),
    ("z4-len8-4", 25, 344064),
    ("z4-leech-standard", 60, 8658654068736),
])
def test_lattice_c_search_accepts_maps_at_matched_nodes(code_id, nodes, order):
    # a sibling whose refinement matches the first path's is tested with the
    # map between the two nodes before anything below it is searched: Aut(C)
    # = Sym(16) of z4-len8-1 takes 15 nodes (120 with leaf tests alone),
    # z4-len8-4 takes 20 (73) and Leech 49 (515)
    struct = ats.structure_for_codes([lattice_c(code_id)])
    assert ats.automorphism_group(struct, budget=nodes).order() == order


def test_failed_guess_falls_back_to_descent(monkeypatch):
    # on the lattice C of z4-len8-4 some maps between matched inner nodes are
    # no automorphisms; the search then finds one further down the same
    # subtree, and the group is still whole
    struct = ats.structure_for_codes([lattice_c("z4-len8-4")])
    depths, log = [], []  # log: (depth, verdict) of every candidate verified
    find_leaf, verify = ats._Search.find_leaf, struct.verify

    def tracked(self, points, active, words, depth, accept):
        depths.append(depth)
        try:
            return find_leaf(self, points, active, words, depth, accept)
        finally:
            depths.pop()

    def logged(p):
        ok = verify(p)
        log.append((depths[-1], ok))
        return ok

    monkeypatch.setattr(ats._Search, "find_leaf", tracked)
    monkeypatch.setattr(struct, "verify", logged)
    search = ats._Search(struct, None)
    base, level_gens = search.search()
    leaf = len(search.labs) - 1
    rescued = [k for k, (depth, ok) in enumerate(log[:-1])
               if depth < leaf and not ok and log[k + 1][0] > depth]
    assert rescued
    assert any(ok for depth, ok in log if depth == leaf)
    assert permgrp.PermGroup.from_bsgs(struct.n, base, level_gens).order() == 344064


def test_verify_prechecks_rows_then_whole_colour_matrix():
    # the first PRECHECK_ROWS moved points swap in pairs and keep their rows;
    # the 3-cycle after them moves the one edge of colour 2 off itself
    k = ats.PRECHECK_ROWS
    n = 2 * k + 3
    colors = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(colors, 0)
    a, b, c = 2 * k, 2 * k + 1, 2 * k + 2
    colors[a, b] = colors[b, a] = 2
    swaps = [i ^ 1 for i in range(2 * k)]
    struct = ats.Structure(n, (), [], pair_colors=colors)
    bad = np.array(swaps + [b, c, a])
    rows = np.flatnonzero(bad != np.arange(n))[:k]
    assert np.array_equal(colors[np.ix_(bad[rows], bad)], colors[rows])
    assert not np.array_equal(colors[np.ix_(bad, bad)], colors)
    assert not struct.verify(tuple(bad.tolist()))
    assert struct.verify(tuple(swaps + [a, b, c]))
    assert struct.verify(tuple(swaps + [b, a, c]))


def test_budget_exceeded_reports_partial():
    # a finished search is cached whatever its budget, so start from none
    ats._aut_binary.cache_clear()
    with pytest.raises(BudgetExceeded) as err:
        ats.aut_binary(gf2.golay24(), budget=20)
    assert err.value.partial and all(len(g) == 24 for g in err.value.partial)


def test_both_searches_report_progress_every_interval(monkeypatch):
    # the partition search and permgrp.subgroup_search count nodes on one
    # counter class, with one interval
    monkeypatch.setattr(errors, "PROGRESS_INTERVAL", 3)
    seen = []
    search = ats._Search(ats.structure_for_codes([gf2.hamming8()]), None, seen.append)
    search.search()
    assert search.nodes.count >= 6
    assert seen == list(range(3, search.nodes.count + 1, 3))

    seen.clear()
    sym10 = permgrp.PermGroup(10, [oracles.perm_from_cycles(10, [[1, 2]]),
                                   oracles.perm_from_cycles(10, [list(range(1, 11))])])
    with pytest.raises(BudgetExceeded):
        permgrp.subgroup_search(sym10, lambda p: False, budget=50, progress=seen.append)
    assert seen == list(range(3, 52, 3))  # nodes 1..51, the last over budget


# -- refinement -----------------------------------------------------------------


def refine_oracle(struct, cells):
    """The full-signature refinement the splitter queue replaced: every pass
    gives each point its counts of words of each profile against every cell,
    per system, and its colour counts toward every cell."""
    cells = [list(c) for c in cells]
    while True:
        if all(len(c) == 1 for c in cells):
            return cells
        masks = [sum(1 << i for i in cell) for cell in cells]
        sig = {i: [] for cell in cells for i in cell}
        for words in struct.systems:
            profiles: dict = {}
            incidence: dict = {}
            for w in words:
                prof = tuple(
                    (w & m).bit_count() if w & m else 0 for m in masks
                )
                pid = profiles.setdefault(prof, len(profiles))
                incidence[w] = pid
            order = {pid: rank for rank, (prof, pid) in enumerate(sorted(
                (prof, pid) for prof, pid in profiles.items()))}
            counts = {i: {} for cell in cells for i in cell}
            for w, pid in incidence.items():
                r = order[pid]
                ww = w
                while ww:
                    low = ww & -ww
                    i = low.bit_length() - 1
                    if i in counts:
                        d = counts[i]
                        d[r] = d.get(r, 0) + 1
                    ww ^= low
            for i in sig:
                sig[i].append(tuple(sorted(counts[i].items())))
        if struct.pair_colors is not None:
            pc = struct.pair_colors
            n = struct.n
            ncolors = int(pc.max()) + 1
            cellidx = np.empty(n, dtype=np.int64)
            for k, cell in enumerate(cells):
                cellidx[cell] = k
            key = pc.astype(np.int64) * len(cells) + cellidx[None, :]
            width = ncolors * len(cells)
            for i in sig:
                hist = np.bincount(key[i], minlength=width)
                sig[i].append(hist.tobytes())
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict = {}
            for i in cell:
                groups.setdefault(tuple(sig[i]), []).append(i)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            for key in sorted(groups):
                new_cells.append(sorted(groups[key]))
        cells = new_cells
        if not changed:
            return cells


def assert_equitable(struct, cells):
    """Within each cell, every point has the same colour counts toward every
    cell, and the same number of words of each profile against the cells."""
    cell_of = {x: k for k, cell in enumerate(cells) for x in cell}
    for cell in cells:
        seen = set()
        for x in cell:
            sig = []
            for words in struct.systems:
                sig.append(sorted(
                    tuple(sum(1 for y in c if w >> y & 1) for c in cells)
                    for w in words if w >> x & 1
                ))
            if struct.pair_colors is not None:
                sig.append(sorted(
                    (cell_of[y], int(struct.pair_colors[x, y])) for y in range(struct.n)
                ))
            seen.add(repr(sig))
        assert len(seen) == 1


def cells_of(points):
    """A partition's cells as lists, in order."""
    return [points.members(s).tolist() for s in points.starts.tolist()]


def relabeled(struct, g):
    """struct with point i renamed g[i]."""
    n = struct.n
    pair_colors = None
    if struct.pair_colors is not None:
        pair_colors = np.empty_like(struct.pair_colors)
        pair_colors[np.ix_(g, g)] = struct.pair_colors
    return ats.Structure(
        n, (), [[permgrp.apply_word(g, w) for w in words] for words in struct.systems],
        pair_colors=pair_colors,
    )


def pseudo_golay_2_pair_structure():
    """The 759-word pair-colour graph aut_z4 searches for pseudo-golay-2."""
    system = ats._SignSystem(catalog.get("z4-pseudo-golay-2").code())
    graph = ats._WordGraph(system, ats.weight_class_systems(system.res)[0])
    return ats.Structure(graph.pencils.shape[1], (), [], pair_colors=graph.pair_colors)


def refinement_corpus():
    rng = random.Random(17)
    out = [ats.structure_for_codes([random_code(rng, n, rng.randrange(1, 5))])
           for n in rng.choices(range(6, 21), k=12)]
    out.append(ats.structure_for_codes([gf2.golay24()]))
    out.append(ats.structure_for_codes([gf2.reed_muller(2, 4)]))
    # two systems at once
    rm = gf2.reed_muller(2, 4)
    out.append(ats.structure_for_codes([rm, gf2.d_map(gf2.even_code(8))]))
    # random pair colours: with 40 colours the count vectors toward a cell
    # do not fit one int64 key
    for ncolors in (3, 40):
        n = 30
        colors = [[rng.randrange(ncolors) for _ in range(n)] for _ in range(n)]
        out.append(ats.Structure(n, (), [], pair_colors=np.array(colors)))
    out.append(pseudo_golay_2_pair_structure())
    return out


def test_refine_matches_full_signature_oracle():
    # at the root, then below up to three individualizations, with the word
    # cells carried down from the level above and only the new singleton
    # queued, as the search does
    rng = random.Random(5)
    for struct in refinement_corpus():
        points = ats._initial_partition(struct)
        active = words = None
        for _ in range(4):
            want = refine_oracle(struct, cells_of(points))
            # without the word cells, the refinement reaches the same cells
            fresh, _ = ats._refine(struct, points.copy(), active)
            assert {frozenset(c) for c in cells_of(fresh)} == {frozenset(c) for c in want}
            got, words = ats._refine(struct, points, active, words)
            cells = cells_of(got)
            assert {frozenset(c) for c in cells} == {frozenset(c) for c in want}
            assert sorted(x for c in cells for x in c) == list(range(struct.n))
            assert_equitable(struct, cells)
            s = ats._target_cell(got)
            if s is None:
                break
            points = got.individualize(s, rng.choice(got.members(s).tolist()))
            active = s


def test_individualize_keeps_cell_order():
    # the point moves to the front of its cell and every other point keeps
    # its place in order, as the search tree, its bases and its generator
    # lists depend on that order; the partition individualized is unchanged
    points = ats._Partition(np.array([4, 0, 5, 2, 1, 3]), np.array([0, 1, 5]))
    moved = points.individualize(1, 2)
    assert cells_of(moved) == [[4], [2], [0, 5, 1], [3]]
    assert moved.length[moved.starts].tolist() == [1, 1, 3, 1]
    assert cells_of(points) == [[4], [0, 5, 2, 1], [3]]
    assert ats._target_cell(moved) == 2 and ats._target_cell(points) == 1


def test_pair_keys_order_as_colour_counts():
    # equal keys for equal count vectors only, ordered from the last colour;
    # with 40 colours and 25 members the vectors do not fit one int64
    rng = random.Random(3)
    n = 25
    for ncolors in (2, 7, 40):
        colors = np.array([[rng.randrange(ncolors) for _ in range(n)] for _ in range(n)])
        struct = ats.Structure(n, (), [], pair_colors=colors)
        for size in (1, 2, 5, n):
            members = np.array(sorted(rng.sample(range(n), size)))
            keys = ats._pair_keys(struct, members).tolist()
            counts = [[int((colors[v, members] == c).sum()) for c in range(ncolors)][::-1]
                      for v in range(n)]
            for a in range(n):
                for b in range(n):
                    assert (keys[a] < keys[b]) == (counts[a] < counts[b])
                    assert (keys[a] == keys[b]) == (counts[a] == counts[b])


def test_colour_power_keys_order_as_count_vectors():
    # on every pair-coloured structure of the corpus, the keys sort the
    # vertices as their colour count vectors do, read from the last colour
    # down, and change where those vectors change; the whole point set of
    # the 759-word graph sums its members' rows over several blocks
    rng = random.Random(21)
    structs = [s for s in refinement_corpus() if s.pair_colors is not None]
    assert sorted((s.n, s.ncolors) for s in structs) == [(30, 3), (30, 40), (759, 5)]
    for struct in structs:
        n, ncolors = struct.n, struct.ncolors
        assert (struct.colour_powers is None) == (ncolors == 40)
        for size in sorted({1, 2, 9, 30, 64, n // 2, n}):
            if size > n:
                continue
            members = np.array(sorted(rng.sample(range(n), size)))
            keys = ats._pair_keys(struct, members)
            counts = np.stack([np.bincount(struct.pair_colors[v, members], minlength=ncolors)
                               for v in range(n)])
            order = np.lexsort(counts.T)
            assert np.array_equal(np.argsort(keys, kind="stable"), order)
            key_steps = np.flatnonzero(np.diff(keys[order]))
            count_steps = np.flatnonzero(np.diff(counts[order], axis=0).any(axis=1))
            assert np.array_equal(key_steps, count_steps)


@pytest.mark.parametrize("radix", [True, False])
def test_row_keys_order_as_rows(monkeypatch, radix):
    # equal keys for equal rows only, ordered as the rows from the first
    # column on: read in radix max + 1 where that fits int64 (63 columns of
    # 0/1 reach 2^63 - 1 exactly, 64 do not), ranked otherwise
    if not radix:
        monkeypatch.setattr(ats, "_radix_keys", lambda rows: None)
    rng = random.Random(9)
    ranked = []
    for width, top in ((1, 2), (3, 5), (6, 700), (7, 760), (39, 3), (40, 3), (63, 2), (64, 2),
                       (300, 2)):
        rows = np.array([[rng.randrange(top) for _ in range(width)] for _ in range(30)])
        rows[3] = rows[11]
        rows[5] = top - 1
        ranked.append(ats._radix_keys(rows) is None)
        keys = ats._row_keys(rows).tolist()
        lists = rows.tolist()
        for a in range(30):
            for b in range(30):
                assert (keys[a] < keys[b]) == (lists[a] < lists[b])
                assert (keys[a] == keys[b]) == (lists[a] == lists[b])
    if radix:
        assert ranked == [False, False, False, True, False, True, False, True, True]
    else:
        assert all(ranked)


def random_partition(rng, size):
    """An ordered partition of range(size) into random cells."""
    lab = np.array(rng.sample(range(size), size))
    cuts = sorted(rng.sample(range(1, size), rng.randrange(0, min(size, 6)))) if size > 1 else []
    return ats._Partition(lab, np.array([0, *cuts]))


@pytest.mark.parametrize("radix", [True, False])
def test_word_cell_keys_order_as_counts(monkeypatch, radix):
    # inside each point cell, the keys order the points as their counts of
    # words through them in each word cell, the first word cell most
    # significant, and are equal exactly where those counts are; None where
    # the counts are constant on every point cell
    if not radix:
        monkeypatch.setattr(ats, "_radix_keys", lambda rows: None)
    rng = random.Random(31)
    seen_none = False
    for struct in refinement_corpus():
        if not struct.systems:
            continue
        words_all = [w for system in struct.systems for w in system]
        for _ in range(6):
            points = random_partition(rng, struct.n)
            words = random_partition(rng, len(words_all))
            counts = [[sum(1 for a in words.members(c).tolist() if words_all[a] >> x & 1)
                       for c in words.starts.tolist()] for x in range(struct.n)]
            keys = ats._word_cell_keys(struct, points, words)
            cells = cells_of(points)
            if keys is None:
                seen_none = True
                assert all(len({tuple(counts[x]) for x in cell}) == 1 for cell in cells)
                continue
            keys = keys.tolist()
            for cell in cells:
                for a in cell:
                    for b in cell:
                        assert (keys[a] < keys[b]) == (counts[a] < counts[b])
                        assert (keys[a] == keys[b]) == (counts[a] == counts[b])
        # the root, one word cell per system: no split exactly where each
        # system passes through every point equally often
        root = ats._Partition(np.arange(len(words_all)), struct.incidence[1])
        uniform = all(len({sum(w >> x & 1 for w in system) for x in range(struct.n)}) == 1
                      for system in struct.systems)
        assert (ats._word_cell_keys(struct, ats._initial_partition(struct), root) is None
                ) == uniform
    assert seen_none


def test_refine_same_cells_with_ranked_word_keys(monkeypatch):
    # the rank route of the word-cell batch step refines to the same cells,
    # in the same order, with the same word cells and traces, as the radix
    # route, along the walk of the commutation tests
    def walk():
        out = []
        rng = random.Random(8)
        for struct in refinement_corpus():
            if not struct.systems:
                continue
            points = ats._initial_partition(struct)
            active = words = None
            for _ in range(4):
                trace = ats._Trace()
                got, words = ats._refine(struct, points, active, words, trace)
                out.append((cells_of(got), words.starts.tolist(), trace.items))
                s = ats._target_cell(got)
                if s is None:
                    break
                points = got.individualize(s, rng.choice(got.members(s).tolist()))
                active = s
        return out

    routes = []
    radix_keys = ats._radix_keys

    def counted(rows):
        keys = radix_keys(rows)
        routes.append(keys is None)
        return keys

    monkeypatch.setattr(ats, "_radix_keys", counted)
    want = walk()
    assert any(routes) and not all(routes)
    monkeypatch.setattr(ats, "_radix_keys", lambda rows: None)
    assert walk() == want


def test_refine_commutes_with_relabeling():
    rng = random.Random(8)
    for struct in refinement_corpus():
        g = list(range(struct.n))
        rng.shuffle(g)
        moved = relabeled(struct, g)
        points = ats._initial_partition(struct)
        moved_points = ats._initial_partition(moved)
        active = words = moved_words = None
        for _ in range(4):
            got, words = ats._refine(struct, points, active, words)
            moved_got, moved_words = ats._refine(moved, moved_points, active, moved_words)
            assert ([{g[x] for x in c} for c in cells_of(got)]
                    == [set(c) for c in cells_of(moved_got)])
            s = ats._target_cell(got)
            if s is None:
                break
            point = rng.choice(got.members(s).tolist())
            points = got.individualize(s, point)
            moved_points = moved_got.individualize(s, g[point])
            active = s


# -- refinement traces ----------------------------------------------------------


def search_results(structs, codes):
    """Generator lists of automorphism_group on structs and of the aut_z4
    images of codes, with the aut_binary memo empty."""
    ats._aut_binary.cache_clear()
    return ([ats.automorphism_group(s).generators for s in structs],
            [ats.aut_z4(code)[1].generators for code in codes])


def assert_traces_keep_generators(monkeypatch, structs, code_ids):
    codes = [catalog.get(code_id).code() for code_id in code_ids]
    traced = search_results(structs, codes)
    for struct, gens in zip(structs, traced[0]):
        for g in gens:
            assert struct.verify(g)
    # trace comparison and the sibling filter off: only the refined shapes
    # are recorded and compared, as the search did before it had traces
    monkeypatch.setattr(ats._Trace, "step", lambda self, item: True)
    monkeypatch.setattr(ats, "_sibling_filter", keep_every_sibling)
    assert search_results(structs, codes) == traced


def test_trace_pruning_keeps_generators(monkeypatch):
    # the nodes the traces prune hold no candidate that passes the leaf
    # test, so the first accepted candidate below every sibling, and each
    # generator, is unchanged
    structs = [s for s in refinement_corpus() if s.n < 100]
    assert_traces_keep_generators(
        monkeypatch, structs, [f"z4-len8-{k}" for k in (1, 2, 3, 4)] + ["z4-leech-standard"])


@pytest.mark.slow
def test_trace_pruning_keeps_generators_pseudo_golay(monkeypatch):
    assert_traces_keep_generators(monkeypatch, [pseudo_golay_2_pair_structure()],
                                  ["z4-pseudo-golay-1", "z4-pseudo-golay-2"])


def test_trace_pruning_runs_one_leaf_test_on_pseudo_golay_2(monkeypatch):
    # 757 sibling branches of the 759-word graph reach a leaf under shape
    # pruning alone; their traces leave the first path's after a few splitters
    system = ats._SignSystem(catalog.get("z4-pseudo-golay-2").code())
    graph = ats._WordGraph(system, ats.weight_class_systems(system.res)[0])
    leaves = []
    coordinate_perm = ats._WordGraph.coordinate_perm

    def counted(self, gamma):
        leaves.append(gamma)
        return coordinate_perm(self, gamma)

    monkeypatch.setattr(ats._WordGraph, "coordinate_perm", counted)
    assert graph.search(None, None).order() == 3
    assert len(leaves) == 1


def test_refine_trace_stops_at_first_difference():
    # the weakly refined code's root refinement alternates point splitters
    # and word-cell batch steps, and its entries change along the way (the
    # Golay root is one splitter and one batch step that split nothing)
    struct = ats.structure_for_codes([weakly_refined_code()])
    points = ats._initial_partition(struct)
    recorded = ats._Trace()
    want = ats._refine(struct, points.copy(), trace=recorded)
    steps = recorded.items
    assert len(steps) > 2 and steps[-1] == want[0].starts.tobytes()
    assert len({repr(step) for step in steps}) > 2
    again = ats._Trace(steps)
    assert ats._refine(struct, points.copy(), trace=again) is not None
    assert again.items == steps
    changed = ats._Trace([steps[0], (-1, -1), *steps[2:]])
    assert ats._refine(struct, points.copy(), trace=changed) is None
    assert changed.items == steps[:2]
    # a trace that ends earlier or later does not match either
    for expected in (steps[:-1], steps + [steps[-1]]):
        assert ats._refine(struct, points.copy(), trace=ats._Trace(expected)) is None


def test_refine_traces_commute_with_relabeling():
    # what the correctness of trace pruning rests on: a relabeled node
    # reproduces the trace of its preimage step by step
    rng = random.Random(12)
    for struct in refinement_corpus():
        g = list(range(struct.n))
        rng.shuffle(g)
        moved = relabeled(struct, g)
        points, moved_points = ats._initial_partition(struct), ats._initial_partition(moved)
        active = words = moved_words = None
        for _ in range(4):
            trace = ats._Trace()
            got, words = ats._refine(struct, points, active, words, trace)
            moved_trace = ats._Trace(trace.items)
            moved_got, moved_words = ats._refine(moved, moved_points, active, moved_words,
                                                 moved_trace)
            assert moved_trace.items == trace.items
            s = ats._target_cell(got)
            if s is None:
                break
            point = rng.choice(got.members(s).tolist())
            points = got.individualize(s, point)
            moved_points = moved_got.individualize(s, g[point])
            active = s


# -- lockstep sibling filter ----------------------------------------------------


def keep_every_sibling(struct, points, s, beta, siblings):
    """_sibling_filter switched off."""
    return siblings


def circulant_pair(rng, p, ncolors, first=None):
    """Two circulant colourings of Z_p side by side, with the same colour
    counts; colour ncolors joins the two. A point of one has an image in the
    other only where the colourings are isomorphic. first lists the colours
    of distances 1, ..., (p - 1) / 2 in the first (random if None); the
    second shuffles them."""
    if first is None:
        first = [rng.randrange(1, ncolors) for _ in range((p - 1) // 2)]
    second = first[:]
    rng.shuffle(second)
    colors = np.full((2 * p, 2 * p), ncolors)
    for half, distances in enumerate((first, second)):
        row = [0, *distances, *distances[::-1]]
        block = [[row[(b - a) % p] for b in range(p)] for a in range(p)]
        colors[half * p:(half + 1) * p, half * p:(half + 1) * p] = block
    return ats.Structure(2 * p, (), [], pair_colors=colors)


def filter_corpus():
    """The structures _sibling_filter serves: pair colours that fit the
    colour powers and no word systems."""
    rng = random.Random(2)
    structs = refinement_corpus()
    structs += [circulant_pair(rng, p, c) for p, c in [(11, 3), (17, 4), (19, 3), (23, 5)]]
    # ten colours, and a splitter of 16 points after the first: radix 17,
    # so the filter's keys reach 17 ** 9 > 2 ** 31 and take 64 bits
    structs.append(circulant_pair(rng, 31, 9, [1] * 8 + list(range(2, 9))))
    return [s for s in structs
            if not s.systems and s.pair_colors is not None and s.colour_powers is not None]


def test_sibling_filter_drops_only_siblings_without_automorphism(monkeypatch):
    # at every level of every first path, each sibling the filter drops
    # holds no automorphism: find_leaf finds none below it. The corpus
    # reaches both key widths of the filter (its structures' own colour
    # powers are built before the widths are recorded)
    corpus = filter_corpus()
    widths = set()
    colour_powers = ats._colour_powers

    def recorded(colours, ncolors, radix, dtype):
        widths.add(np.dtype(dtype).itemsize)
        return colour_powers(colours, ncolors, radix, dtype)

    monkeypatch.setattr(ats, "_colour_powers", recorded)
    dropped = 0
    for struct in corpus:
        search = ats._Search(struct, None)
        path = search.first_path(ats._initial_partition(struct))
        for depth, (points, words, s, beta) in enumerate(path):
            siblings = points.members(s)[1:].tolist()
            kept = ats._sibling_filter(struct, points, s, beta, siblings)
            assert kept == [v for v in siblings if v in set(kept)]
            if struct.n == 759:
                # the image has order 3: beta's orbit
                assert len(kept) == 2
            for v in set(siblings) - set(kept):
                assert search.find_leaf(points.individualize(s, v), s, words, depth + 1,
                                        struct.verify) is None
                dropped += 1
    assert dropped > 756
    assert widths == {4, 8}


def test_sibling_filter_commutes_with_relabeling():
    rng = random.Random(14)
    for struct in filter_corpus():
        g = list(range(struct.n))
        rng.shuffle(g)
        moved = relabeled(struct, g)
        points, _ = ats._refine(struct, ats._initial_partition(struct))
        moved_points, _ = ats._refine(moved, ats._initial_partition(moved))
        s = ats._target_cell(points)
        if s is None:
            continue
        members = points.members(s).tolist()
        beta = rng.choice(members)
        siblings = [v for v in members if v != beta]
        kept = ats._sibling_filter(struct, points, s, beta, siblings)
        moved_kept = ats._sibling_filter(moved, moved_points, s, g[beta], [g[v] for v in siblings])
        assert moved_kept == [g[v] for v in kept]


def aut_z4_runs(monkeypatch, code_ids):
    """Per code, the aut_z4 kernel order and image generators and the nodes
    of each search it ran, with the aut_binary memo empty."""
    nodes = []
    search = ats._Search.search

    def counted(self):
        try:
            return search(self)
        finally:
            nodes.append(self.nodes.count)

    monkeypatch.setattr(ats._Search, "search", counted)
    runs = []
    for code_id in code_ids:
        ats._aut_binary.cache_clear()
        nodes.clear()
        kernel, image = ats.aut_z4(catalog.get(code_id).code())
        runs.append((kernel, image.generators, list(nodes)))
    return runs


def test_sibling_filter_keeps_generators_and_nodes(monkeypatch):
    # a dropped sibling counts one node, as a trace pruned at its first
    # splitter does, and holds no generator
    code_ids = ["z4-pseudo-golay-1", "z4-pseudo-golay-2", "z4-leech-standard"]
    filtered = aut_z4_runs(monkeypatch, code_ids)
    assert [nodes for _, _, nodes in filtered] == [[30, 4], [30, 757], [25]]
    monkeypatch.setattr(ats, "_sibling_filter", keep_every_sibling)
    assert aut_z4_runs(monkeypatch, code_ids) == filtered


def test_sibling_filter_keeps_budget_stops(monkeypatch):
    # the search of Aut(C0) takes 30 nodes and the word graph 757, whose
    # generator lies under a sibling past node 400
    code = catalog.get("z4-pseudo-golay-2").code()

    def outcomes():
        out = []
        for budget in (30, 400, 756, 780):
            ats._aut_binary.cache_clear()
            try:
                kernel, image = ats.aut_z4(code, budget=budget)
            except BudgetExceeded as err:
                out.append((str(err), err.kernel_order, oracles.partial_group(err, 24).order()))
            else:
                out.append((kernel, image.order()))
        return out

    filtered = outcomes()
    assert [o[-1] for o in filtered] == [1, 1, 3, 3]
    monkeypatch.setattr(ats, "_sibling_filter", keep_every_sibling)
    assert outcomes() == filtered


def test_sibling_filter_runs_once_on_pseudo_golay_2(monkeypatch):
    # pseudo-golay-1's word graph is transitive, so no root sibling fails;
    # on pseudo-golay-2 the first one fails and the other 757 are filtered
    calls = []
    sibling_filter = ats._sibling_filter

    def counted(struct, points, s, beta, siblings):
        calls.append(len(siblings))
        return sibling_filter(struct, points, s, beta, siblings)

    monkeypatch.setattr(ats, "_sibling_filter", counted)
    ats._aut_binary.cache_clear()
    assert ats.aut_z4(catalog.get("z4-pseudo-golay-1").code())[1].order() == 6072
    assert calls == []
    assert ats.aut_z4(catalog.get("z4-pseudo-golay-2").code())[1].order() == 3
    assert calls == [757]


def test_word_systems_are_verified_without_codes():
    # a structure of the 759 octads alone, with no code to check: every
    # generator keeps the octads, and they generate M24
    octads = gf2.weight_classes(gf2.golay24(), [8])[0]
    group = ats.automorphism_group(ats.Structure(24, (), [octads]))
    for g in group.generators:
        assert {permgrp.apply_word(g, w) for w in octads} == set(octads)
    assert group.order() == 244823040


@pytest.mark.parametrize("traces", [True, False])
def test_leaves_are_verified_against_pair_colours(monkeypatch, traces):
    # two colourings of the circulant graph on Z_11 with equal colour counts
    # that no affine map of Z_11 carries onto each other. Shapes do not tell
    # their points apart, and a leaf that swaps them is no automorphism.
    # Each has the 22 affine automorphisms x -> ±x + t.
    if not traces:
        monkeypatch.setattr(ats._Trace, "step", lambda self, item: True)
    p = 11
    first = [0, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2]
    second = [0, 1, 2, 1, 1, 2, 2, 1, 1, 2, 1]
    colors = np.full((2 * p, 2 * p), 3)
    colors[:p, :p] = [[first[(b - a) % p] for b in range(p)] for a in range(p)]
    colors[p:, p:] = [[second[(b - a) % p] for b in range(p)] for a in range(p)]
    group = ats.automorphism_group(ats.Structure(2 * p, (), [], pair_colors=colors))
    for g in group.generators:
        q = np.array(g)
        assert np.array_equal(colors[np.ix_(q, q)], colors)
    assert group.order() == 22 * 22


def tuple_loop_colours(words, mtab):
    """The tuple colours of _WordGraph, one pair at a time, interned by rank."""
    colors = [[(-1, 0, 0)] * len(words) for _ in words]
    for a, c in enumerate(words):
        for b, h in enumerate(words):
            if a == b:
                continue
            inter = (c & h).bit_count()
            if inter:
                colors[a][b] = (inter, 2, 2)
            else:
                colors[a][b] = (0, (h & mtab[c]).bit_count() & 1,
                                (c & mtab[h]).bit_count() & 1)
    rank = {c: k for k, c in enumerate(sorted({c for row in colors for c in row}))}
    return np.array([[rank[c] for c in row] for row in colors])


def tuple_lifts(code):
    """(residue, lift) pairs as digit tuples: the Howell rows reduced against
    each other one Z4 addition at a time, sorted by lowest residue bit."""
    lifts = []
    for row in code.basis:
        b = sum((d & 1) << i for i, d in enumerate(row))
        for pb, prow in lifts:
            if b >> ((pb & -pb).bit_length() - 1) & 1:
                b ^= pb
                row = oracles.add_words(row, prow)
        if b:
            lifts.append((b, row))
    return sorted(lifts, key=lambda t: t[0] & -t[0])


def lifted_even_part(lifts, n, c):
    """m with c~ = c + 2m for the per-word tuple lift c~ of c."""
    out = (0,) * n
    for pb, prow in lifts:
        if c >> ((pb & -pb).bit_length() - 1) & 1:
            c ^= pb
            out = oracles.add_words(out, prow)
    assert c == 0
    return sum((d >> 1) << i for i, d in enumerate(out))


def test_word_graph_pair_colours_match_tuple_loop():
    # the m-words come from the per-word lift, not from the bitwise one
    for code_id in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        code = catalog.get(code_id).code()
        system = ats._SignSystem(code)
        words = ats.weight_class_systems(system.res)[0]
        lifts = tuple_lifts(code)
        mtab = {c: lifted_even_part(lifts, code.length, c) for c in words}
        got = ats._WordGraph(system, words).pair_colors
        assert np.array_equal(got, tuple_loop_colours(words, mtab))


def bit_rows(words, n):
    """Words (bit masks over n points) as words x points 0/1 uint8 rows."""
    return np.array([[w >> i & 1 for i in range(n)] for w in words], dtype=np.uint8).reshape(-1, n)


def test_word_pair_colours_wide_words():
    # n = 70: sparse words, two in five of whose pairs are disjoint, so the
    # iota bits colour those. Dense words of length 70 meet in more than 26
    # points, past where 9 |c ∩ h| + 17 would fit uint8; those of length 300
    # meet in more than 251, past where the colour codes 4 + |c ∩ h| do, so
    # their colours take uint16
    rng = random.Random(70)

    def sparse(n):
        return rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)

    def dense(n):
        return rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n)

    for n, word, meet, width in [(70, sparse, 0, 1), (70, dense, 26, 1), (300, dense, 251, 2)]:
        words = sorted({word(n) for _ in range(40)} - {0})
        mtab = {c: rng.getrandbits(n) for c in words}
        got = ats._word_pair_colours(bit_rows(words, n), bit_rows([mtab[c] for c in words], n))
        want = tuple_loop_colours(words, mtab)
        assert np.array_equal(got, want)
        assert got.dtype.itemsize == width
        assert len({int(x) for x in want.ravel()}) > 5
        assert max((c & h).bit_count() for c in words for h in words if c != h) > meet


def test_even_parts_match_per_word_lift():
    # the lift of all words at once adds the same lifts as the per-word
    # tuple lift, so the even parts agree bit for bit, at lengths below, at
    # and above 64, and every (c, m) is a codeword
    rng = random.Random(4)
    cases = [catalog.get("z4-pseudo-golay-2").code()]
    cases += [z4.z4_span(n, [tuple(rng.randrange(4) for _ in range(n)) for _ in range(6)])
              for n in (7, 64, 70, 130)]
    for code in cases:
        n = code.length
        lifts = tuple_lifts(code)
        rows = [pb for pb, _ in lifts]
        words = [0, *rows]
        for _ in range(30):
            w = 0
            for pb in rows:
                if rng.random() < 0.5:
                    w ^= pb
            words.append(w)
        got = ats._even_parts(ats._SignSystem(code), bit_rows(words, n))
        want = bit_rows([lifted_even_part(lifts, n, c) for c in words], n)
        assert np.array_equal(got, want)
        for c, m in zip(bit_rows(words, n), got):
            assert oracles.contains(code, tuple(int(x) for x in c + 2 * m))


def test_word_rows_layout_is_a_speed_choice_only():
    # the graph feeds F-ordered rows (the pencils' transpose); C-ordered
    # copies of the same rows give the same even parts and colours
    system = ats._SignSystem(catalog.get("z4-pseudo-golay-2").code())
    graph = ats._WordGraph(system, ats.weight_class_systems(system.res)[0])
    f_rows = graph.pencils.T
    c_rows = np.ascontiguousarray(f_rows)
    assert f_rows.flags.f_contiguous and not f_rows.flags.c_contiguous
    f_evens, c_evens = ats._even_parts(system, f_rows), ats._even_parts(system, c_rows)
    assert np.array_equal(f_evens, c_evens)
    for evens in (f_evens, c_evens, np.asfortranarray(c_evens)):
        got = ats._word_pair_colours(c_rows, evens)
        assert got.dtype == graph.pair_colors.dtype
        assert np.array_equal(got, graph.pair_colors)


def test_aut_z4_builds_no_group_on_the_words(monkeypatch):
    # the search on the 759-word graph only collects accepted leaves; every
    # group built is on the 24 coordinates
    built = []
    from_bsgs, build = ats.PermGroup.from_bsgs.__func__, ats.PermGroup._build

    def recorded_from_bsgs(cls, degree, base, level_gens):
        built.append(("from_bsgs", degree))
        return from_bsgs(cls, degree, base, level_gens)

    def recorded_build(self, base_hint):
        built.append(("_build", self.degree))
        return build(self, base_hint)

    monkeypatch.setattr(ats.PermGroup, "from_bsgs", classmethod(recorded_from_bsgs))
    monkeypatch.setattr(ats.PermGroup, "_build", recorded_build)
    ats._aut_binary.cache_clear()
    kernel, image = ats.aut_z4(catalog.get("z4-pseudo-golay-1").code())
    assert (kernel, image.order()) == (2, 6072)
    assert built and {degree for _, degree in built} == {24}
    # a budget stop inside the word search builds no group at all: only the
    # constraint group, whose search takes 30 nodes, is built (the word graph
    # of pseudo-golay-2 takes 787), and the stop carries the generators
    # found, none below 756 nodes
    built.clear()
    with pytest.raises(BudgetExceeded) as err:
        ats.aut_z4(catalog.get("z4-pseudo-golay-2").code(), budget=200)
    assert err.value.partial == []
    assert built == [("from_bsgs", 24)]


def z4_constraint_corpus():
    """Every catalog Z4-code, the two short codes whose images come from the
    subgroup search, and seeded self-orthogonal and unrestricted codes."""
    codes = [catalog.get(i).code() for i in catalog.list_ids() if i.startswith("z4-")]
    codes += [z4.z4_span(5, [(2, 0, 1, 1, 1)]), z4.from_text(NINE_COLUMNS)]
    rng = random.Random(29)
    for _ in range(12):
        codes.append(oracles.random_self_orthogonal(rng.randrange(4, 11), rng.randrange(1, 5), rng))
    for _ in range(12):
        n = rng.randrange(3, 9)
        codes.append(z4.z4_span(n, [tuple(rng.choice((0, 1, 2, 2, 3)) for _ in range(n))
                                    for _ in range(rng.randrange(1, 4))]))
    return codes


def test_one_constraint_call_matches_direct_search():
    # aut_binary(C0, C1) is the group that a search on both codes at once
    # finds; where the codes have twins its generators come from the twin
    # quotient, so the groups are compared, not their generator lists
    ats._aut_binary.cache_clear()
    for code in z4_constraint_corpus():
        tor, res = z4.torsion(code), z4.residue(code)
        direct = ats.automorphism_group(ats.structure_for_codes([tor, res]))
        group = ats.aut_binary(tor, res)
        assert group.order() == direct.order(), code
        assert all(group.contains(g) for g in direct.generators), code
        assert all(direct.contains(g) for g in group.generators), code
        if z4.is_self_dual(code):
            # C1 = C0^⊥ has C0's small side: a frame report's Aut(C0) is a memo hit
            assert ats.aut_binary(tor) is group


def word_list_corpus():
    """(n, words): the Golay octads, the lightest C1 class of every catalog
    Z4-code, and seeded word lists, some of which do not separate the
    coordinates."""
    lists = [(24, gf2.weight_words(gf2.golay24(), 8))]
    for code_id in catalog.list_ids():
        if code_id.startswith("z4-"):
            res = z4.residue(catalog.get(code_id).code())
            classes = ats.weight_class_systems(res)
            # z4-len8-1's residue holds only 0 and the all-ones word
            lists.append((res.length, classes[0] if classes else []))
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(3, 12)
        words = {rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 3 * n))}
        lists.append((n, sorted(words)))
    return lists


def test_identity_coordinate_perm_is_the_pencil_rule():
    # the word graph runs exactly where the words through each coordinate
    # meet in it alone, and that check builds no colour matrix
    outcomes = []
    for n, words in word_list_corpus():
        graph = ats._WordGraph(ats._SignSystem(z4.z4_span(n, [])), words)
        separates = graph.coordinate_perm(range(len(words))) is not None
        assert separates == oracles.pencils_separate(n, words), (n, words)
        assert "pair_colors" not in vars(graph)
        outcomes.append(separates)
    assert outcomes[0] and any(outcomes[1:]) and not all(outcomes)


def test_empty_word_graph_has_no_colours():
    # z4-len8-1's residue holds no lightest class: its word graph has a
    # 0 x 0 colour matrix, and separates no coordinate
    assert [(n, words) for n, words in word_list_corpus() if not words] == [(8, [])]
    graph = ats._WordGraph(ats._SignSystem(catalog.get("z4-len8-1").code()), [])
    assert graph.pair_colors.shape == (0, 0)
    assert not graph.separates


def random_element(group, rng):
    """A uniform element of the group: one transversal element per level."""
    p = permgrp.identity(group.degree)
    for level in range(len(group.base)):
        p = permgrp.compose(rng.choice(list(group.transversal(level).values())), p)
    return p


def test_coordinate_perm_recovers_exactly_the_inducing_permutation():
    # completeness: the word permutation of a coordinate permutation that
    # keeps the list gives it back (20 seeded elements of the automorphism
    # group of the words' span, those that keep the list); soundness: a
    # returned permutation induces the word permutation, checked word by
    # word. Half the word permutations are uniform, half an induced one with
    # two images swapped
    rng = random.Random(37)
    lists = moved = returned = 0
    for n, words in word_list_corpus():
        graph = ats._WordGraph(ats._SignSystem(z4.z4_span(n, [])), words)
        if not graph.separates:
            continue
        lists += 1
        group = ats.aut_binary(gf2.span(n, words))
        induced = [tuple(range(len(words)))]
        for _ in range(20):
            pi = random_element(group, rng)
            gamma = oracles.word_perm(pi, words)
            if None not in gamma:
                assert graph.coordinate_perm(gamma) == pi, (n, words, pi)
                induced.append(gamma)
                moved += not permgrp.is_identity(pi)
        for k in range(20):
            if k % 2:
                gamma = list(rng.choice(induced))
                a, b = rng.sample(range(len(words)), 2)
                gamma[a], gamma[b] = gamma[b], gamma[a]
            else:
                gamma = rng.sample(range(len(words)), len(words))
            q = graph.coordinate_perm(tuple(gamma))
            if q is not None:
                returned += 1
                assert oracles.word_perm(q, words) == tuple(gamma), (n, words, gamma)
    assert lists > 10 and moved > 50 and returned > 0


def test_distinct_pencils_that_do_not_separate_take_subgroup_search(monkeypatch):
    # distinct pencils would be enough to recover coordinates, but on these
    # 24 seeded codes (length 9, 14 lightest C1 words, some pencil inside
    # another) four word-graph searches took over 10 s, against milliseconds
    # in subgroup_search: the meet rule is the route's performance gate
    rng = random.Random(5)
    codes = []
    for _ in range(400):
        n = rng.randrange(4, 11)
        codes.append(oracles.random_self_orthogonal(n, rng.randrange(1, n), rng))
    gated = {}
    for index, code in enumerate(codes):
        n, tor, res = code.length, z4.torsion(code), z4.residue(code)
        if any((a & b).bit_count() & 1 for a in res.basis for b in tor.basis):
            continue
        classes = ats.weight_class_systems(res)
        words = classes[0] if classes else []
        pencils = {frozenset(a for a, w in enumerate(words) if w >> i & 1) for i in range(n)}
        if n <= len(words) <= 1200 and len(pencils) == n and not oracles.pencils_separate(n, words):
            gated[index] = words
    assert len(gated) == 24 and {25, 246, 283, 361} <= gated.keys()
    searched = []
    subgroup_search = permgrp.subgroup_search
    monkeypatch.setattr(permgrp, "subgroup_search",
                        lambda *args, **kw: searched.append(args) or subgroup_search(*args, **kw))
    monkeypatch.setattr(ats._WordGraph, "search", None)
    for index, words in gated.items():
        code = codes[index]
        assert (code.length, len(words)) == (9, 14)
        assert not ats._WordGraph(ats._SignSystem(code), words).separates
        searched.clear()
        ats.aut_z4(code)
        assert len(searched) == 1, index


# -- code equivalence ---------------------------------------------------------


def test_is_equivalent_identity():
    h8 = gf2.hamming8()
    g = ats.code_isomorphism(h8, h8)
    assert g == permgrp.identity(8)


def test_is_equivalent_finds_witness():
    rng = random.Random(11)
    c = gf2.reed_muller(1, 3)
    perm = tuple(rng.sample(range(8), 8))
    moved = permgrp.apply_code(perm, c)
    g = ats.code_isomorphism(c, moved)
    assert g is not None
    assert permgrp.apply_code(g, c) == moved
    # the witness may be the map between two matched inner nodes, the root
    # included
    rng = random.Random(3)
    codes = [gf2.hamming8(), gf2.span(10, [rng.randrange(1 << 10) for _ in range(4)]),
             gf2.golay24(), gf2.reed_muller(2, 4), lattice_c("z4-len8-1"), lattice_c("z4-len8-4")]
    for code_id in ("z4-len8-3", "z4-leech-standard"):
        code = catalog.get(code_id).code()
        codes += [z4.torsion(code), z4.residue(code)]
    codes += [random_code(rng, n, rng.randrange(1, n)) for n in rng.choices(range(6, 17), k=12)]
    for code in codes:
        for _ in range(5):
            perm = tuple(rng.sample(range(code.length), code.length))
            moved = permgrp.apply_code(perm, code)
            g = ats.code_isomorphism(code, moved)
            assert g is not None
            assert permgrp.apply_code(g, code) == moved


def test_is_equivalent_rejects_different_invariants():
    # both [8,4], but the weight enumerators differ (pairs code has weight-2
    # words, the Hamming code does not)
    a = gf2.span(8, ["11000000", "00110000", "00001100", "00000011"])
    b = gf2.hamming8()
    assert a.dim == b.dim
    assert ats.code_isomorphism(a, b) is None


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
    assert ats.code_isomorphism(e8e8, permgrp.apply_code(perm, d16)) is None
    # each is still found equivalent to its own relabeling
    for code in (e8e8, d16):
        moved = permgrp.apply_code(perm, code)
        g = ats.code_isomorphism(code, moved)
        assert g is not None and permgrp.apply_code(g, code) == moved


def test_phi2_pseudo_golay_equivalent_to_golay():
    g24 = gf2.golay24()
    for eid in ("z4-pseudo-golay-1", "z4-pseudo-golay-2"):
        residue = z4.residue(catalog.get(eid).code())
        witness = ats.code_isomorphism(residue, g24)
        assert witness is not None
        assert permgrp.apply_code(witness, residue) == g24


# -- twin quotient -------------------------------------------------------------


def test_memo_keys_on_the_codes_only():
    # a finished search serves every later budget and progress callback
    ats._aut_binary.cache_clear()
    group = ats.aut_binary(gf2.hamming8())
    assert ats.aut_binary(gf2.hamming8(), budget=10**6) is group
    for _ in range(2):
        assert ats.aut_binary(gf2.hamming8(), progress=lambda nodes: None) is group
    info = ats._aut_binary.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def assert_same_group(group, direct):
    """Equal orders, each group holds the other's generators, and a
    Schreier-Sims rebuild from the strong generators has the same order."""
    assert group.order() == direct.order()
    assert all(group.contains(g) for g in direct.generators)
    assert all(direct.contains(g) for g in group.generators)
    assert permgrp.PermGroup(group.degree, group.strong_generators).order() == group.order()


def relabeled_codes(codes, rng):
    n = codes[0].length
    perm = tuple(rng.sample(range(n), n))
    return [permgrp.apply_code(perm, c) for c in codes]


def catalog_code_sets():
    """Every binary catalog code; per Z4 catalog code C0, (C0, C1) and the
    structure codes C and D of both variants, where their direct search
    takes well under a second (frames._aut_c_feasible)."""
    sets = []
    for code_id in catalog.list_ids():
        entry = catalog.get(code_id)
        code = entry.code()
        if entry.kind == "binary":
            sets.append([code])
            continue
        sets += [[z4.torsion(code)], [z4.torsion(code), z4.residue(code)]]
        for variant in ("lattice", "orbifold"):
            try:
                sc = frames.structure_codes(code, variant)
            except frames.VariantError:
                continue
            sets += [[c] for c in (sc.checks, sc.d_code) if frames._aut_c_feasible(c)]
    return sets


def test_twin_route_matches_direct_search_on_the_catalog():
    rng = random.Random(41)
    twin_sets = 0
    for codes in catalog_code_sets():
        sides = tuple(dict.fromkeys(map(ats._small_side, codes)))
        if ats._twin_classes(sides) is None:
            continue
        twin_sets += 1
        for trial in (codes, relabeled_codes(codes, rng)):
            ats._aut_binary.cache_clear()
            assert_same_group(ats.aut_binary(*trial),
                              ats.automorphism_group(ats.structure_for_codes(trial)))
    assert twin_sets >= 20


def planted_twins(rng, m):
    """A seeded code on m quotient points whose point i is blown up into a
    class of 1-4 points: of equal generator columns (the bit copied) or of
    equal check columns (the bit on the first point, and every even word of
    the class added); then 0-2 zero columns, all relabeled."""
    sizes = [rng.choice((1, 1, 2, 3, 4)) for _ in range(m)]
    kinds = [rng.randrange(2) for _ in range(m)]
    starts = [sum(sizes[:i]) for i in range(m)]
    n = sum(sizes) + rng.randrange(3)
    rows = []
    for _ in range(rng.randrange(m + 1)):
        x = rng.randrange(1 << m)
        word = 0
        for i in range(m):
            if x >> i & 1:
                word |= ((1 << sizes[i]) - 1 if kinds[i] == 0 else 1) << starts[i]
        rows.append(word)
    for i in range(m):
        if kinds[i]:
            rows += [1 << starts[i] | 1 << (starts[i] + j) for j in range(1, sizes[i])]
    return relabeled_codes([gf2.span(n, rows)], rng)[0]


def planted_code_sets(rng, count):
    """count seeded sets of planted_twins codes, some with a second code."""
    for _ in range(count):
        code = planted_twins(rng, rng.randrange(1, 7))
        codes = [code]
        if rng.random() < 0.4:
            # a second code, neither the first nor its dual
            n = code.length
            codes.append(gf2.span(n, [b for b in code.basis if rng.random() < 0.5]
                                  + [rng.randrange(1 << n) for _ in range(rng.randrange(2))]))
        yield codes


def test_twin_route_matches_direct_search_on_planted_twins(monkeypatch):
    seen = set()
    # per open _twin_quotient call, whether its classes have more than one
    # key, so that its quotient search takes indicator codes
    many_keys = []
    twin_quotient = ats._twin_quotient

    def traced(codes, classes, kinds, *limits):
        if many_keys and many_keys[-1]:
            seen.add("nested quotient with indicator codes")
        many_keys.append(len({(len(c), *k) for c, k in zip(classes, kinds)}) > 1)
        try:
            return twin_quotient(codes, classes, kinds, *limits)
        finally:
            many_keys.pop()

    monkeypatch.setattr(ats, "_twin_quotient", traced)
    fixed = [
        # the Golay code with coordinate 1 doubled: two class keys
        [gf2.span(25, [b | (b & 1) << 24 for b in gf2.golay24().basis])],
        # classes of sizes 3, 2 and 1: three keys
        [gf2.span(6, ["111000", "000110"])],
        # classes {0, 1}, {2, 3}, {4}, {5}: the quotient span{1100, 1010}
        # holds every even word on its first three points, and with the
        # indicator codes 1100 and 0011 the first two are twins
        [gf2.span(6, ["111100", "110010"])],
    ]
    for codes in [*fixed, *planted_code_sets(random.Random(43), 150)]:
        sides = tuple(dict.fromkeys(map(ats._small_side, codes)))
        twins = ats._twin_classes(sides)
        if twins is not None:
            classes, kinds = twins
            seen.update(("kind", k) for kind in kinds for k in kind)
            seen.add(("keys", len({(len(c), k) for c, k in zip(classes, kinds)}) > 1))
            seen.add(("codes", len(sides)))
            seen.add(("zero column", any(not any(b >> i & 1 for b in codes[0].basis)
                                         for i in range(codes[0].length))))
        ats._aut_binary.cache_clear()
        assert_same_group(ats.aut_binary(*codes),
                          ats.automorphism_group(ats.structure_for_codes(codes)))
    assert seen >= {("kind", 0), ("kind", 1), ("keys", True), ("keys", False),
                    ("codes", 2), ("zero column", True), "nested quotient with indicator codes"}


def test_twin_classes_of_mixed_sizes_and_a_zero_column():
    # span{111000, 000110}: Sym(3) x Sym(2), with the zero column fixed
    code = gf2.span(6, ["111000", "000110"])
    assert ats._twin_classes((code,)) == ([[0, 1, 2], [3, 4], [5]], [(0,), (0,), (0,)])
    assert ats.aut_binary(code).order() == 12
    # the dual has the same classes; the class of 3 has equal check columns
    # there (kind 1), and the pair, whose word lies in both codes, stays 0
    assert ats._twin_classes((gf2.dual(code),)) == ([[0, 1, 2], [3, 4], [5]],
                                                    [(1,), (0,), (0,)])


@pytest.mark.parametrize("code", [gf2.d_map(gf2.golay24()),
                                  gf2.span(25, [b | (b & 1) << 24 for b in gf2.golay24().basis])],
                         ids=["d-golay-one-colour", "golay-point-doubled-two-colours"])
def test_budget_stop_in_the_quotient_search(code):
    # the quotient is the Golay code, searched alone (one class key) or with
    # the indicator codes of the two keys; the stop's partial group holds
    # every class transposition and lies in the full group
    ats._aut_binary.cache_clear()
    classes, _ = ats._twin_classes((ats._small_side(code),))
    with pytest.raises(BudgetExceeded) as err:
        ats.aut_binary(code, budget=10)
    partial = oracles.partial_group(err.value, code.length)
    full = ats.aut_binary(code)
    swaps = [ats._transposition(code.length, c[k], c[k + 1])
             for c in classes for k in range(len(c) - 1)]
    assert swaps and all(partial.contains(s) for s in swaps)
    assert all(full.contains(g) for g in partial.generators)
    assert full.order() % partial.order() == 0 and partial.order() < full.order()


# -- subcode stabilizers -------------------------------------------------------


def test_stabilizer_of_whole_code_is_whole_group():
    c = gf2.hamming8()
    g = ats.aut_binary(c)
    assert ats.automorphism_group(ats.structure_for_codes([c, c])).order() == g.order()


def test_stabilizer_of_doubled_full_code():
    c = gf2.span(16, list(gf2.d_map(gf2.full_code(8)).basis)
                 + list(gf2.e_map(gf2.hamming8()).basis))
    g = ats.aut_binary(c)
    stab = ats.automorphism_group(ats.structure_for_codes([c, gf2.d_map(gf2.full_code(8))]))
    assert stab.order() == 2**8 * 1344
    assert g.order() == stab.order()  # the family H has one member here


def test_stabilizer_of_doubled_even_in_reed_muller():
    rm = gf2.reed_muller(2, 4)
    g = ats.aut_binary(rm)
    d_e8 = gf2.d_map(gf2.even_code(8))
    for b in d_e8.basis:
        assert rm.contains(b)
    stab = ats.automorphism_group(ats.structure_for_codes([rm, d_e8]))
    assert stab.order() == 2**4 * 1344
    assert g.order() // stab.order() == 15


def test_stabilizer_matches_brute_force():
    rng = random.Random(9)
    c = gf2.even_code(6)
    sub = gf2.span(6, ["110000", "001100", "000011"])
    stab = ats.automorphism_group(ats.structure_for_codes([c, sub]))
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


def brute_sign_count(code, perm):
    """Oracle: the sign vectors s with (perm, s)(code) == code."""
    n = code.length
    total = 0
    for smask in range(1 << n):
        signs = tuple(-1 if smask >> i & 1 else 1 for i in range(n))
        sp = permgrp.SignedPerm(perm, signs)
        if z4.z4_span(n, [sp.apply(r) for r in code.basis]) == code:
            total += 1
    return total


def test_sign_system_matches_brute_force():
    # random short codes, many not self-orthogonal, and Howell forms whose
    # 2-pivot row has odd entries; the permutations are sampled ones and the
    # strong generators of Aut(C0) ∩ Aut(C1), so both outcomes occur. The
    # last fixed code has such a generator, (1, 0, 2, 3, 4), whose pairings
    # with the dual are all even but whose right-hand sides are inconsistent.
    rng = random.Random(19)
    codes = [z4.z4_span(2, [(2, 1)]), z4.z4_span(3, [(2, 1, 3)]),
             z4.z4_span(4, [(2, 1, 0, 3), (0, 2, 1, 1)]), z4.z4_span(5, [(2, 0, 1, 1, 1)]),
             z4.z4_span(5, [(1, 0, 2, 1, 3), (0, 1, 0, 3, 3)])]
    for _ in range(120):
        n = rng.randrange(2, 6)
        gens = [tuple(rng.choice((0, 0, 1, 2, 2, 3)) for _ in range(n))
                for _ in range(rng.randrange(1, 4))]
        codes.append(z4.z4_span(n, gens))
    outcomes = []
    for code in codes:
        n = code.length
        system = ats._SignSystem(code)
        assert system.kernel_order() == brute_sign_count(code, tuple(range(n)))
        constraint = ats.automorphism_group(ats.structure_for_codes([system.tor, system.res]))
        perms = list(constraint.strong_generators)
        perms += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        for perm in perms:
            brute = brute_sign_count(code, perm) > 0
            assert system.compatible(perm) == brute, (code, perm)
            rows = system.rows_for(perm)
            if rows is not None:
                # the early-exit reduction against the span of every row
                assert gf2.consistent(n, rows) == (not gf2.span(n + 1, rows).contains(1 << n))
            outcomes.append(brute)
    assert any(outcomes) and not all(outcomes)
    assert not all(z4.is_self_orthogonal(c) for c in codes)
    assert any(row[col] == 2 and any(d & 1 for d in row)
               for c in codes for (col, _), row in zip(c.pivots, c.basis))


def test_sign_system_matches_the_pairing_route():
    # the rows reduced against the residue lifts and the rows read from the
    # pairings with the Z4 dual (oracles.pairing_sign_rows) describe one set
    # of sign vectors: the same answer, and where signs exist the same span.
    # Seeded codes of length 6-12 and one relabeling of each length-24
    # catalog code, on the strong generators of Aut(C0) ∩ Aut(C1) and
    # seeded permutations
    rng = random.Random(47)
    codes = [oracles.monomial_relabeling(catalog.get(code_id).code(), rng)
             for code_id in ("z4-leech-standard", "z4-pseudo-golay-1", "z4-pseudo-golay-2")]
    for _ in range(60):
        n = rng.randrange(6, 13)
        gens = [tuple(rng.choice((0, 0, 1, 2, 2, 3)) for _ in range(n))
                for _ in range(rng.randrange(1, n))]
        codes += [z4.z4_span(n, gens), oracles.random_self_orthogonal(n, rng.randrange(1, n), rng)]
    outcomes = set()
    for code in codes:
        n = code.length
        system = ats._SignSystem(code)
        kernel_rows = oracles.pairing_sign_rows(code, None)
        assert system.kernel_order() == 1 << (n - gf2.span(n + 1, kernel_rows).dim)
        constraint = ats.aut_binary(system.tor, system.res)
        perms = list(constraint.strong_generators)
        perms += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        for perm in perms:
            want = oracles.pairing_sign_rows(code, perm)
            got = system.rows_for(perm)
            compatible = want is not None and gf2.consistent(n, want)
            assert system.compatible(perm) == compatible, (str(code), perm)
            if compatible:
                assert gf2.span(n + 1, got) == gf2.span(n + 1, want), (str(code), perm)
            outcomes.add(compatible)
    assert outcomes == {False, True}


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


def test_aut_z4_budget_partial_lies_in_the_image():
    # at these budgets the search over Aut(C0) ∩ Aut(C1) runs out; what it
    # found so far need not admit compatible signs, and the image has order 3
    code = catalog.get("z4-pseudo-golay-2").code()
    system = ats._SignSystem(code)
    for budget in (30, 60, 120):
        with pytest.raises(BudgetExceeded) as err:
            ats.aut_z4(code, budget=budget)
        assert err.value.kernel_order == 2
        partial = oracles.partial_group(err.value, 24)
        assert all(system.compatible(g) for g in partial.generators)
        assert 3 % partial.order() == 0


def test_project_exactness_on_aut_z4():
    # kernel order * image order = full order, via an explicit signed set
    code = catalog.get("z4-len8-1").code()
    kernel, image = ats.aut_z4(code)
    signed = [permgrp.SignedPerm(g, tuple([1] * 8)) for g in image.generators]
    assert permgrp.PermGroup(8, [s.perm for s in signed]).order() == image.order()
    assert kernel * image.order() == 2**7 * factorial(8)


def test_aut_golay_is_m24_order():
    assert ats.aut_binary(gf2.golay24()).order() == 244823040


def test_aut_z4_pseudo_golay():
    k1, img1 = ats.aut_z4(catalog.get("z4-pseudo-golay-1").code())
    assert (k1, img1.order()) == (2, 6072)
    k2, img2 = ats.aut_z4(catalog.get("z4-pseudo-golay-2").code())
    assert (k2, img2.order()) == (2, 3)


# C0 = C1 of dimension 5 > 9/2, so C1 does not lie in C0^⊥: the word graph's
# pairing bits are not invariant there (and weight_class_systems(C1) holds
# words of the dual of C1), so the image comes from the sign-tested subgroup
# search
NINE_COLUMNS = "100001030\n010003303\n001003111\n000103223\n000011332\n"


def test_aut_z4_residue_above_half_length_brute(monkeypatch):
    code = z4.from_text(NINE_COLUMNS)
    n = code.length
    res, tor = z4.residue(code), z4.torsion(code)
    assert res.dim > n - res.dim
    assert not all(gf2.dual(tor).contains(b) for b in res.basis)
    constraint = ats.automorphism_group(ats.structure_for_codes([tor, res]))
    assert constraint.order() == 72
    kernel = image = 0
    for p in oracles.elements(constraint):
        signed = 0
        for smask in range(1 << n):
            signs = tuple(-1 if smask >> i & 1 else 1 for i in range(n))
            sp = permgrp.SignedPerm(p, signs)
            signed += all(oracles.contains(code, sp.apply(r)) for r in code.basis)
        image += signed > 0
        if permgrp.is_identity(p):
            kernel = signed
    assert (kernel, image) == (2, 2)
    searches = []
    subgroup_search = permgrp.subgroup_search
    monkeypatch.setattr(ats, "_WordGraph", None)
    monkeypatch.setattr(
        permgrp, "subgroup_search", lambda *a, **k: searches.append(1) or subgroup_search(*a, **k)
    )
    got_kernel, got_image = ats.aut_z4(code)
    assert (got_kernel, got_image.order()) == (kernel, image)
    assert searches == [1]


# Budget stops on the three engines: the partition search (Golay, RM(2,4)),
# the twin quotient (d(Golay)) and aut_z4, through its constraint search
# (Leech, the octacode z4-len8-4) or the subgroup_search fallback
# (span{(2, 0, 1, 1, 1)}, the 9-column code). Per budget, the order of the
# group the partial generators generate; for a Z4-code, the sign kernel and
# the budget and image order of a search that finishes.
BUDGET_STOPS = {
    "golay": (gf2.golay24, None, {3: 12, 5: 48, 10: 960, 20: 443520}, None),
    "rm-2-4": (lambda: catalog.get("bin-rm-2-4").code(), None,
               {3: 8, 5: 16, 10: 96, 20: 20160}, None),
    "d-golay": (lambda: gf2.d_map(gf2.golay24()), None,
                {3: 201326592, 5: 805306368, 10: 16106127360, 20: 7441030840320}, None),
    "two-one": (lambda: z4.z4_span(5, [(2, 0, 1, 1, 1)]), 8,
                {1: 2, 3: 6, 5: 6, 10: 6, 12: 6}, (20, 6)),
    "nine-columns": (lambda: z4.from_text(NINE_COLUMNS), 2,
                     {5: 1, 10: 1, 20: 1, 30: 1, 60: 1}, (120, 2)),
    "z4-leech-standard": (lambda: catalog.get("z4-leech-standard").code(), 512,
                          {1: 2, 3: 4, 5: 24, 10: 168, 12: 1344, 20: 21504}, None),
    "z4-len8-4": (lambda: catalog.get("z4-len8-4").code(), 2,
                  {1: 2, 3: 4, 5: 24, 10: 168}, None),
}


@pytest.mark.parametrize("case", list(BUDGET_STOPS))
def test_budget_stop_partial_orders(case):
    make, kernel, stops, complete = BUDGET_STOPS[case]
    code = make()
    for budget, order in stops.items():
        ats._aut_binary.cache_clear()
        with pytest.raises(BudgetExceeded) as err:
            if kernel is None:
                ats.aut_binary(code, budget=budget)
            else:
                ats.aut_z4(code, budget=budget)
        assert str(err.value) == f"search exceeded {budget} nodes"
        assert err.value.kernel_order == kernel
        assert oracles.partial_group(err.value, code.length).order() == order
    if complete is not None:
        budget, order = complete
        ats._aut_binary.cache_clear()
        got_kernel, image = ats.aut_z4(code, budget=budget)
        assert (got_kernel, image.order()) == (kernel, order)
