"""Automorphism groups and equivalence of codes by partition backtracking.

The search operates on an invariant structure over the n coordinates: a
list of word systems (sets of codeword supports grouped by weight class,
possibly from several codes at once; each code gives its classes in
increasing weight while their words fit MAX_CLASS_WORDS) and an optional
matrix of pairwise colors. Refinement computes the coarsest equitable
partition finer than a given one with a queue of splitter point cells
(McKay 1981; McKay & Piperno 2014). The words of the systems form a second
partition: a queued point cell splits word cells by how many of its points
each word holds (and point cells by their pairwise color counts toward it).
A point cell that splits queues all its parts if it was queued, and
otherwise all but its first largest part. Word cells are not queued: once
the point queue is empty and the word cells have split since, one batch
step counts, with one bincount over the incidence pairs, the words of every
word cell through every point, and splits the point cells by that row of
counts. The coarsest equitable partition does not depend on the order of
the splitters, so batching them changes no refined cell set. Below a
refined node only the individualized point is queued, and the node's point
and word partitions are carried down the tree as label arrays. Cells are
named by their start offsets into one label array, splitters are taken
singletons first and then by start, word cells are counted in order, and
parts follow in increasing count, so the refinement and its cell order
commute with relabeling.

The tree individualizes one point of the first largest non-singleton cell
and descends first-path first. Sibling branches are searched bottom-up for
a single automorphism each, skipping siblings already reachable by the
group found so far; that is enough to generate the full automorphism group.
The points individualized along the first path form a base, and the
generators found at depth d or deeper generate the stabilizer of its first
d points, so the found generators are a strong generating set for it and
the group is built from them without Schreier-Sims (PermGroup.from_bsgs).
That level loop is permgrp.bottom_up, shared with subgroup_search, and
every node ticks an errors.NodeCounter. A budget stop carries the
generators found so far; no group is built from them here.

Every refinement on the first path records a trace: the point and word cell
boundaries (start offsets) after each splitter and each batch step, then
the refined shape. Any other node refines against the first path's trace
at its depth and is pruned at the first entry that differs (McKay &
Piperno 2014): since refinement commutes with relabeling, a node that an
automorphism maps the first path onto repeats the trace entry for entry.
Candidates are always verified against the actual codes and the pair
colours, or against a leaf predicate that implies them, so the invariants
only ever prune.

A candidate need not wait for a leaf. A node whose refinement matches the
trace has the first path's cells at its level, and singletons never move,
so the map sending the first path's refined label array at that level onto
the node's, position by position, fixes the base points above it and sends
the individualized point to the node's own. If it verifies, it is exactly
the automorphism a descent would look for; if not, the node's children are
searched as before, and at a leaf it is the only candidate. On a code whose
group is the whole Sym(n) the first sibling's map verifies at every level,
so the search visits one node per base point. A failed map must stay cheap:
a leaf test is the whole check (the word graph's is one pencil lookup per
point), and otherwise verify compares the pair-colour rows of the first few
moved points before the whole matrix. Equivalence of two codes uses the
same descent on the second code's tree, pruned by the first code's traces,
looking for one node whose map from the first code's node at its level
carries one code onto the other.

Siblings whose traces leave the first path's after a few splitters still
cost one refinement each. On a structure with pair colours alone (no word
systems, keys within int64), once a sibling at a level holds no
automorphism, the level's remaining unreached siblings first run together
through the first FILTER_SPLITTERS splitters of the first path's own
refinement at that level, one numpy row per sibling (_sibling_filter). A
row holds the cell start of every point, and is dropped once its values
cell_start * top + key, sorted, differ from the first path's. Keys read the
colour counts in radix the largest replayed splitter's size + 1, from a
power table built once per call, so top is that radix to the number of
colours above 0, and keys are int32 wherever top allows. Rows come in
blocks of BLOCK_BYTES; the point rides in the low bits of its value, so one
sort per row and splitter both tests the row and orders its points into
the new cells. An automorphism carrying the first path's node onto
a sibling's carries every splitter cell and every key with it, so a
dropped sibling holds none; it counts one node, as a sibling pruned by its
trace does, and a kept one is searched as before. Waiting for a failure
keeps the filter off levels where every sibling holds an automorphism,
which it would pass row for row.

Points whose transposition keeps every code are twins, and aut_binary
searches only what the twins leave. For one code, i and j are twins when
e_i + e_j lies in the code (two RREF rows that agree off their pivots, or a
row of weight 2) or in its dual (equal columns of the basis), so no dual is
taken to find them. Twins form classes, and the group is (Π Sym(class)) ⋊ A:
A permutes the classes, and its lifts send the k-th point of a class to the
k-th point of its image. A is the automorphism group of the quotient codes
on one point per class, each class giving a representative's bit or its
parity, and, where the classes differ in size or kinds, of one
1-dimensional code per (size, kinds) key, spanned by the indicator word of
its quotient points: a colouring that every automorphism keeps is a set of
subsets that every automorphism keeps (McKay & Piperno 2014), so the search
sees codes and nothing else. The group is built from A's base and strong
generators, lifted, and the adjacent transpositions of each class, again
without Schreier-Sims. A code without twins is searched directly.

Z4-code automorphisms ride on the same engine. Their image in Sym_n lies
in the constraint group Aut(C0) ∩ Aut(C1), one aut_binary call, and a
permutation lies in it exactly when a linear sign-consistency system over
GF(2), read from the pairings of the permuted code with its Z4 dual (the
right-hand side in bit n), is solvable under gf2.consistent. Where some
constraint generator fails that test and C1 ⊆ C0^⊥, the search runs on the
word graph of the lightest weight class of C1, if those words separate the
coordinates (_WordGraph.separates); otherwise subgroup_search walks the
constraint group with a sign test at each leaf.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import gf2, permgrp, z4
from .errors import BudgetExceeded, NodeCounter
from .gf2 import BinaryCode
from .permgrp import PermGroup, Perm

# Words of the weight classes taken into a structure: classes are taken in
# increasing weight while their words fit this budget.
MAX_CLASS_WORDS = 1600
# Pair-colour rows of moved points that Structure.verify compares before the
# whole matrix, on structures without a leaf test.
PRECHECK_ROWS = 8
# Splitters of the first path's refinement that _sibling_filter runs a
# level's remaining siblings through.
FILTER_SPLITTERS = 4
# Bytes of one block of rows: the siblings x points rows of _sibling_filter,
# the members' rows that _pair_keys sums, the rows that _take_rows looks up
# and the word rows of _word_pair_colours. Below glibc's default mmap
# threshold of 128 KiB: where that threshold is fixed (setting any
# MALLOC_*_THRESHOLD_ turns its adjustment off), every larger temporary is
# mapped and faulted in afresh.
BLOCK_BYTES = 120_000

# -- invariant structure -----------------------------------------------------


@dataclass
class Structure:
    """What the search must preserve: codes, word systems and pair colours."""

    n: int
    codes: tuple[BinaryCode, ...]
    systems: list[list[int]]  # non-empty lists of word supports
    pair_colors: object = None  # n x n int matrix (numpy) of interned colors
    # callable(Perm) -> bool, or None; True only where codes and colours are kept
    leaf_test: object = None

    def verify(self, p: Perm) -> bool:
        # a leaf test accepts only maps that keep the codes and the colours
        # (the word graph's recovers a Z4 automorphism, whose colours are
        # invariant since C1 ⊆ C0^⊥), so its answer is the whole test
        if self.leaf_test is not None:
            return self.leaf_test(p)
        for c in self.codes:
            for b in c.basis:
                if not c.contains(permgrp.apply_word(p, b)):
                    return False
        # systems drawn from codes are kept with them; others are checked
        if not self.codes:
            for system in self.systems:
                words = set(system)
                if any(permgrp.apply_word(p, w) not in words for w in system):
                    return False
        if self.pair_colors is not None:
            colors = self.pair_colors
            q = np.array(p)
            # the rows of a few moved points first, so that a failed guess
            # of the search costs a few rows, not the whole matrix
            rows = np.flatnonzero(q != np.arange(len(q)))[:PRECHECK_ROWS]
            if not np.array_equal(colors[np.ix_(q[rows], q)], colors[rows]):
                return False
            return np.array_equal(colors[np.ix_(q, q)], colors)
        return True

    @cached_property
    def incidence(self):
        """The words of all systems as a words x points 0/1 matrix, and the
        row where each system starts."""
        words = [w for system in self.systems for w in system]
        sizes = [len(system) for system in self.systems]
        return _bit_matrix(words, self.n).astype(np.int64), np.cumsum([0, *sizes[:-1]])

    @cached_property
    def incidence_pairs(self):
        """The (word, point) pairs of incidence, as a word array and a point
        array."""
        return np.nonzero(self.incidence[0])

    @cached_property
    def ncolors(self):
        return int(self.pair_colors.max()) + 1

    @cached_property
    def colour_powers(self):
        """P[j, i] = (n + 1) ** (colour(i, j) - 1), 0 for colour 0: row j
        holds what member j adds to each vertex's pair key. None when the
        largest key, (n + 1) ** (ncolors - 1) - 1, does not fit in int64."""
        radix = self.n + 1
        if radix ** (self.ncolors - 1) >= 1 << 63:
            return None
        return _colour_powers(self.pair_colors, self.ncolors, radix, np.int64)


def _colour_powers(colours, ncolors, radix, dtype):
    """P[j, i] = radix ** (colours[i, j] - 1), 0 for colour 0, in dtype and
    C order (_take_rows)."""
    table = np.zeros(ncolors, dtype=dtype)
    table[1:] = radix ** np.arange(ncolors - 1, dtype=dtype)
    return _take_rows(table, colours.T, np.empty(colours.shape, dtype=dtype))


def _take_rows(table, index, out):
    """out = table[index], a block of rows at a time, so that np.take's intp
    copy of each block of index stays within BLOCK_BYTES. Every entry must
    index table: clip mode then never acts, and unlike raise it writes to
    out unbuffered."""
    rows = max(1, BLOCK_BYTES // (8 * index.shape[1]))
    for lo in range(0, len(out), rows):
        np.take(table, index[lo:lo + rows], out=out[lo:lo + rows], mode="clip")
    return out


def _bit_matrix(words, n):
    """Words (bit masks over n points) as a words x points 0/1 uint8 matrix."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in words), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(words), width), axis=1, bitorder="little")
    return bits[:, :n]


def _small_side(code: BinaryCode) -> BinaryCode:
    """The code or its dual, whichever has the smaller dimension.

    Automorphism groups agree (duality commutes with coordinate
    permutations), and the small side is the one whose weight classes are
    enumerable.
    """
    if code.dim > code.length - code.dim:
        return gf2.dual(code)
    return code


def weight_class_systems(code: BinaryCode):
    """The small weight classes of a code, one system per class.

    Classes are taken in increasing weight, skipping 0 and the full-support
    word, while their words fit MAX_CLASS_WORDS; the first class is always
    taken. Every class taken helps refinement split points, and a code
    whose lightest class is weakly structured would otherwise walk a huge
    tree. Selection depends only on the weight distribution, so equivalent
    codes select corresponding classes.
    """
    return _class_systems(_small_side(code))


def _class_systems(side: BinaryCode):
    """weight_class_systems of a code taken as it is, not its small side."""
    if side.dim == 0:
        return []
    dist = gf2.weight_distribution(side)
    weights = []
    total = 0
    for m in sorted(dist):
        if m == 0 or m == side.length:
            continue
        count = dist[m]
        if weights and total + count > MAX_CLASS_WORDS:
            break
        weights.append(m)
        total += count
        if total >= MAX_CLASS_WORDS:
            break
    return gf2.weight_classes(side, weights)


def structure_for_codes(codes) -> Structure:
    return _structure(tuple(_small_side(c) for c in codes))


def _structure(sides) -> Structure:
    """The structure of codes taken as they are: their own weight classes."""
    n = sides[0].length
    for c in sides:
        if c.length != n:
            raise ValueError("codes must share a length")
    systems = []
    seen = set()
    for side in sides:
        for words in _class_systems(side):
            key = frozenset(words)
            if key not in seen:
                seen.add(key)
                systems.append(words)
    return Structure(n, sides, systems)


# -- refinement ---------------------------------------------------------------


def _initial_partition(struct: Structure):
    """One cell holding every point."""
    return _Partition(np.arange(struct.n), np.zeros(1, dtype=np.int64))


class _Partition:
    """An ordered partition of range(size): one label array cut into cells.

    A cell is named by its start offset into the label array, which depends
    only on the sizes of the cells before it, so names and queue order are
    canonical. starts lists them in order and length[start] is a cell's
    size. The cells waiting to act as splitters are queued: singletons on a
    stack, taken first, the others on a heap by start. Only point cells are
    queued; word cells split with queue=False. A caller that already holds
    the cell sizes passes them as length.
    """

    def __init__(self, lab, starts, length=None):
        self.lab = lab
        if length is None:
            self.length = np.zeros(len(lab), dtype=np.int64)
            self._count(starts)
        else:
            self.starts, self.length = starts, length
        self.singles: list[int] = []
        self.others: list[int] = []
        self.queued: set[int] = set()

    def _count(self, starts):
        self.starts = starts
        self.length[starts[:-1]] = starts[1:] - starts[:-1]
        self.length[starts[-1]] = len(self.lab) - starts[-1]

    def discrete(self):
        return len(self.starts) == len(self.lab)

    def copy(self):
        """The same cells, none queued."""
        return _Partition(self.lab.copy(), self.starts, self.length.copy())

    def members(self, s):
        """The cell at s, in order (a view)."""
        return self.lab[s:s + self.length[s]]

    def individualize(self, s, point):
        """A copy with point split off the front of the cell at s, none
        queued; the rest of that cell and every other cell keep their order."""
        lab, length = self.lab.copy(), self.length.copy()
        cell = self.members(s)
        lab[s + 1:s + len(cell)] = cell[cell != point]
        lab[s] = point
        length[s], length[s + 1] = 1, len(cell) - 1
        starts = self.starts.tolist()
        starts.insert(bisect_right(starts, s), s + 1)
        return _Partition(lab, np.array(starts), length)

    def push(self, s, m):
        """Queue the cell at s, of size m, not queued yet."""
        self.queued.add(s)
        if m == 1:
            self.singles.append(s)
        else:
            heapq.heappush(self.others, s)

    def push_all(self, starts):
        for s, m in zip(starts.tolist(), self.length[starts].tolist()):
            self.push(s, m)

    def pop(self):
        """Members of the next splitter, None if the queue is empty."""
        if self.singles:
            s = self.singles.pop()
        elif self.others:
            s = heapq.heappop(self.others)
        else:
            return None
        self.queued.discard(s)
        return self.lab[s:s + self.length[s]].copy()

    def split(self, key, queue=True) -> bool:
        """Split every cell on which key (indexed by element) is not constant;
        whether any cell split.

        The parts follow in increasing key; elements keep their order inside
        each. With queue, all parts are queued if the cell was queued;
        otherwise all but the first largest (Hopcroft): counts toward it are
        the counts toward the whole cell, already uniform, minus those toward
        the other parts.
        """
        lab, starts, size = self.lab, self.starts, len(self.lab)
        kl = key[lab]
        varies = np.minimum.reduceat(kl, starts) != np.maximum.reduceat(kl, starts)
        if not np.count_nonzero(varies):
            return False
        first = np.zeros(size, dtype=bool)
        first[starts] = True
        cell = first.cumsum() - 1
        pos = varies[cell].nonzero()[0]
        order = pos[np.lexsort((kl[pos], cell[pos]))]
        lab[pos] = lab[order]
        kl[pos] = kl[order]
        first[1:] |= kl[1:] != kl[:-1]
        self._count(first.nonzero()[0])
        if not queue:
            return True
        starts = self.starts
        owner = cell[starts]
        inside = varies[owner]
        parts = zip(owner[inside].tolist(), starts[inside].tolist(),
                    self.length[starts[inside]].tolist())
        for _, group in groupby(parts, key=itemgetter(0)):
            group = [part[1:] for part in group]
            head = group[0][0]
            skip = head if head in self.queued else max(group, key=itemgetter(1))[0]
            for s, m in group:
                if s != skip:
                    self.push(s, m)
        return True


def _pair_keys(struct: Structure, members):
    """Per vertex, a canonical int key of its colour counts toward members.

    The key reads the count vector in the fixed radix n + 1, one digit per
    colour above 0, the last colour most significant: the sum of the
    members' rows of the precomputed Structure.colour_powers. Keys thus
    order as the count vectors do read from the last colour down (the
    count of colour 0 is fixed by the others, as each sums to |members|).
    The rows are gathered and summed a block at a time. When that radix
    overflows int64 the reversed count vectors are keyed by _row_keys
    instead.
    """
    powers = struct.colour_powers
    if powers is not None:
        return _power_sums(powers, members)
    if len(members) == 1:
        return struct.pair_colors[:, members[0]]
    n, ncolors = struct.n, struct.ncolors
    block = struct.pair_colors[:, members].astype(np.int64, copy=False)
    block += np.arange(0, n * ncolors, ncolors)[:, None]
    counts = np.bincount(block.ravel(), minlength=n * ncolors).reshape(n, ncolors)
    return _row_keys(counts[:, ::-1])


def _power_sums(powers, members):
    """The sum of the rows of powers at members, gathered a block of rows at
    a time."""
    rows = max(1, BLOCK_BYTES // powers[0].nbytes)
    keys = np.add.reduce(powers[members[:rows]], axis=0)
    for lo in range(rows, len(members), rows):
        keys += np.add.reduce(powers[members[lo:lo + rows]], axis=0)
    return keys


def _word_cell_keys(struct: Structure, points: _Partition, words: _Partition):
    """Per point, a canonical int key of how many words of each word cell
    pass through it; None if those counts are constant on every point cell.

    One bincount over the incidence pairs gives the points x word cells
    matrix of counts. Only the columns that vary inside some point cell can
    split one, and the keys order the points as those columns do read from
    the first word cell (_row_keys).
    """
    pair_words, pair_points = struct.incidence_pairs
    ncells = len(words.starts)
    cell = np.empty(len(words.lab), dtype=np.int64)
    cell[words.lab] = np.repeat(np.arange(ncells), words.length[words.starts])
    counts = np.bincount(pair_points * ncells + cell[pair_words],
                         minlength=struct.n * ncells).reshape(struct.n, ncells)
    rows = counts[points.lab]
    heads = np.repeat(points.starts, points.length[points.starts])
    varies = (rows != rows[heads]).any(axis=0)
    if not varies.any():
        return None
    return _row_keys(counts[:, varies])


def _row_keys(rows):
    """Per row of a non-negative int matrix, an int64 key: equal exactly for
    equal rows, and ordered as the rows are, first column most significant.

    The rows read in radix max + 1 when that fits int64 (_radix_keys), and
    are ranked otherwise: as big-endian bytes, each row is one opaque item
    whose bytewise order is that order, and ranking those items is far
    cheaper than np.unique(rows, axis=0).
    """
    keys = _radix_keys(rows)
    if keys is None:
        big = np.ascontiguousarray(rows, dtype=">u8")
        items = big.view(np.dtype((np.void, big.itemsize * big.shape[1]))).reshape(-1)
        keys = np.unique(items, return_inverse=True)[1].reshape(-1)
    return keys


def _radix_keys(rows):
    """The rows read as numbers in radix max + 1, or None if the largest
    does not fit int64."""
    radix = int(rows.max()) + 1
    width = rows.shape[1]
    if radix ** width > 1 << 63:
        return None
    return rows @ radix ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _refine(struct: Structure, points: _Partition, active=None, words=None, trace=None):
    """The coarsest equitable partition finer than points, and its word cells.

    Splitter-queue refinement (McKay 1981) on the points, with the words of
    all systems as a second partition: each queued point cell S splits point
    cells by pair-colour counts toward S and word cells by |w ∩ S|. Word
    cells are not queued. Once the point queue is empty and the word cells
    have split since the last such step, one batch step splits the point
    cells by how many words of every word cell pass through each point
    (_word_cell_keys); the coarsest equitable partition does not depend on
    the order of the splitters. points, with nothing queued, is refined in
    place. words is the word partition _refine returned with the partition
    that points individualizes, or None to start from one cell per system
    and a batch step. active is the start of the one point cell to queue
    (None: all). A caller that individualized a point of a refined partition
    passes its words and the new singleton's start alone: everything else
    was already equitable. Without words every point cell is queued.

    trace, a _Trace or None, receives the point and word cell boundaries
    after each splitter and each batch step, and then the refined point cell
    boundaries. If it holds a trace to match, the refinement stops at the
    first difference and returns None.
    """
    if points.discrete() or not struct.systems and struct.pair_colors is None:
        if trace is not None and not trace.end(points.starts.tobytes()):
            return None
        return points, words
    # whether the word cells split since the last batch step
    fresh = False
    if struct.systems:
        incidence, system_starts = struct.incidence
        if words is None:
            words = _Partition(np.arange(len(incidence)), system_starts)
            fresh = True
            active = None
        else:
            words = words.copy()
    if active is None:
        points.push_all(points.starts)
    else:
        points.push(active, points.length[active])
    while not points.discrete():
        splitter = points.pop()
        if splitter is not None:
            if struct.pair_colors is not None:
                points.split(_pair_keys(struct, splitter))
            if words is not None:
                fresh |= words.split(np.add.reduce(incidence[:, splitter], axis=1), queue=False)
        elif fresh:
            fresh = False
            keys = _word_cell_keys(struct, points, words)
            if keys is not None:
                points.split(keys)
        else:
            break
        if trace is not None and not trace.step(
                (points.starts.tobytes(), b"" if words is None else words.starts.tobytes())):
            return None
    if trace is not None and not trace.end(points.starts.tobytes()):
        return None
    return points, words


class _Trace:
    """A relabeling-invariant record of one refinement (McKay & Piperno 2014).

    One entry per splitter and per word-cell batch step: the start offsets
    of the point cells and of the word cells after it (as bytes), which name
    the cells canonically; then those of the refined point cells alone.
    The first path records one trace per tree level (expected None). Any
    other node refines against the first path's trace at its depth; an
    automorphism carries the first-path node onto the node only if every
    entry agrees, so refinement stops at the first difference.
    Boundaries tell apart splits that leave the same number of cells, which
    counts alone do not.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.items: list = []

    def step(self, item) -> bool:
        """Record item; False if it differs from the expected entry."""
        k = len(self.items)
        self.items.append(item)
        return self.expected is None or k < len(self.expected) and self.expected[k] == item

    def end(self, starts) -> bool:
        """Record the refined cell boundaries, the last entry of every trace."""
        return self.step(starts) and (self.expected is None
                                      or len(self.items) == len(self.expected))


def _target_cell(points: _Partition):
    """Start of the first largest non-singleton cell, None if discrete.

    Individualizing in a large cell splits more of the partition at once,
    so the tree is shallower and the first path's base shorter. On weakly
    refined codes this relies on weight_class_systems taking every class in
    budget, so that the cells it picks from are split as far as the code
    allows.
    """
    starts = points.starts
    sizes = points.length[starts]
    k = sizes.argmax()
    return None if sizes[k] == 1 else int(starts[k])


# -- automorphism group search -------------------------------------------------


class _Search:
    def __init__(self, struct: Structure, budget: int | None = None, progress=None):
        self.struct = struct
        self.nodes = NodeCounter(budget, progress)

    def first_path(self, points):
        """Descend, always individualizing the first point of the target cell.

        Records what find_leaf matches against, per tree level (root first):
        the refinement trace and the refined label array, the map from
        position to point. The last label array is the first leaf's.
        """
        path = []
        trace = _Trace()
        points, words = _refine(self.struct, points, trace=trace)
        self.traces, self.labs = [trace.items], [points.lab]
        while (s := _target_cell(points)) is not None:
            point = int(points.lab[s])
            path.append((points, words, s, point))
            trace = _Trace()
            points, words = _refine(self.struct, points.individualize(s, point), s, words, trace)
            self.traces.append(trace.items)
            self.labs.append(points.lab)
        return path

    def search(self) -> tuple[tuple[int, ...], list[list[Perm]]]:
        """The first path's base and, per base point, the generators found at
        its level or deeper (permgrp.bottom_up): together a strong generating
        set. The siblings of the first path's point at each level are the
        candidates."""
        struct = self.struct
        path = self.first_path(_initial_partition(struct))
        base = tuple(p for _, _, _, p in path)
        siblings = [points.members(s)[1:].tolist() for points, _, s, _ in path]
        lockstep = (not struct.systems and struct.pair_colors is not None
                    and struct.colour_powers is not None)
        kept = {}  # per level, the siblings the filter keeps once one has failed

        def find(depth, v, reached):
            points, words, s, beta = path[depth]
            if depth in kept and v not in kept[depth]:
                # its refinement leaves beta's, as a pruned trace would
                self.nodes.tick()
                return None
            # one verified automorphism whose leaf sits under v, or None
            g = self.find_leaf(points.individualize(s, v), s, words, depth + 1, struct.verify)
            if g is None and lockstep and depth not in kept:
                rest = siblings[depth][siblings[depth].index(v) + 1:]
                kept[depth] = set(_sibling_filter(struct, points, s, beta,
                                                  [u for u in rest if u not in reached]))
            return g

        return base, permgrp.bottom_up(base, siblings, find)

    def find_leaf(self, points, active, words, depth, accept):
        """The first node below points whose map from the first path's node
        at its level passes accept, tried before the node's children.

        points is an unrefined partition at tree level depth, to be refined
        from the cell at active and the word cells words (see _refine); a
        node whose refinement trace leaves traces[depth] cannot lie on the
        image of the first path and is pruned where it leaves. A node that
        keeps the trace has the first path's cells at every level above it,
        so the candidate that sends labs[depth][k] to its k-th point sends
        the first path's singletons to the node's own; if accept rejects it,
        the children are searched. At a leaf it is the only candidate.
        """
        self.nodes.tick()
        refined = _refine(self.struct, points, active, words, _Trace(self.traces[depth]))
        if refined is None:
            return None
        points, words = refined
        cand = np.empty_like(points.lab)
        cand[self.labs[depth]] = points.lab
        cand = tuple(cand.tolist())
        if accept(cand):
            return cand
        s = _target_cell(points)
        if s is None:
            return None
        for w in points.members(s).tolist():
            got = self.find_leaf(points.individualize(s, w), s, words, depth + 1, accept)
            if got is not None:
                return got
        return None


def _cell_starts(points: _Partition):
    """The start of the cell at each position of the label array, and of
    each point's cell."""
    at = np.repeat(points.starts, points.length[points.starts])
    of = np.empty_like(at)
    of[points.lab] = at
    return at, of


def _sibling_filter(struct: Structure, points: _Partition, s, beta, siblings):
    """The siblings v, in order, whose refinement from points individualized
    at v in the cell at s agrees with beta's through its first
    FILTER_SPLITTERS splitters; the others hold no automorphism.

    For pair-colour structures without word systems whose colour powers fit
    int64. beta's refinement is replayed once, recording per splitter its
    start, its members and the cell starts by position and by point before
    it. A colour count toward a splitter is below radix, the largest
    replayed splitter's size + 1, so keys read in that radix, from powers
    built once per call, lie below top = radix ** (ncolors - 1): int32 where
    top allows, int64 otherwise. The siblings then run through the same
    splitters together, in blocks of BLOCK_BYTES, one row each of the
    points in cell order; every row in step has beta's cells at each
    position. Per row, cell_start * top + key at each position, with the
    point in the low bits, is one int64 sort: a row keeps in step while the
    sorted values are beta's, and the low bits of a row that keeps are its
    points in the new cell order (not read after the last splitter).
    """
    digits = struct.ncolors - 1
    shift = struct.n.bit_length()
    first = points.individualize(s, beta)
    first.push(s, 1)
    replayed = []
    radix = 1
    while len(replayed) < FILTER_SPLITTERS and not first.discrete():
        members = first.pop()
        if members is None:
            break
        wider = max(radix, len(members) + 1)
        if struct.n * wider ** digits << shift > 1 << 63:
            break
        radix = wider
        at, of = _cell_starts(first)
        replayed.append((int(of[members[0]]), members, at, of))
        first.split(_pair_keys(struct, members))
    if not replayed:
        return siblings
    top = radix ** digits
    powers = _colour_powers(struct.pair_colors, struct.ncolors, radix,
                            np.int32 if top <= 1 << 31 else np.int64)
    steps = [(start, len(members), at * top, np.sort(of * top + _power_sums(powers, members)))
             for start, members, at, of in replayed]
    position = np.argsort(points.lab)
    # the widest rows are int64 (labels and sort values)
    rows = max(1, BLOCK_BYTES // points.lab.nbytes)
    flat, mask = np.arange(rows)[:, None] * struct.n, (1 << shift) - 1
    kept = []
    for lo in range(0, len(siblings), rows):
        block = np.array(siblings[lo:lo + rows])
        # points.lab with each sibling swapped to the front of the cell at s
        lab = np.tile(points.lab, (len(block), 1))
        lab[np.arange(len(block)), position[block]] = lab[:, s]
        lab[:, s] = block
        for k, (start, size, base, values) in enumerate(steps):
            keys = powers[lab[:, start]]
            for j in range(start + 1, start + size):
                keys += powers[lab[:, j]]
            packed = base + np.take(keys, lab + flat[:len(lab)])
            packed <<= shift
            packed |= lab
            packed.sort(axis=1)
            ok = (packed >> shift == values).all(axis=1)
            block = block[ok]
            if not len(block) or k == len(steps) - 1:
                break
            lab = packed[ok] & mask
        kept += block.tolist()
    return kept


def automorphism_group(struct: Structure, *, budget: int | None = None, progress=None) -> PermGroup:
    return PermGroup.from_bsgs(struct.n, *_Search(struct, budget, progress).search())


def aut_binary(*codes: BinaryCode, budget: int | None = None, progress=None) -> PermGroup:
    """The permutations in Sym_n that keep every code given.

    Points whose transposition keeps every code are twins (_twin_classes).
    Without twins the codes are searched directly (automorphism_group).
    With them the group is (Π Sym(class)) ⋊ A, and only A, the class
    permutations whose order-preserving lifts keep every code, is searched,
    as the automorphism group of the quotient codes on one point per class
    (_twin_quotient); the Sym factors are taken in closed form. A budget
    stop there raises BudgetExceeded whose partial holds the class
    transpositions and the lifts of the generators found so far.

    Memoized on the codes' distinct small sides (_small_side) alone, which
    fix the group: a code and its dual share one entry, and so do aut_z4's
    constraint group Aut(C0) ∩ Aut(C1) and a frame report's Aut(C0)
    wherever C1 is C0 or its dual (every self-dual code). The quotient
    searches go through the same memo. A search that finishes is cached
    whatever its budget and progress callback; one that stops caches
    nothing. Callers must not mutate the group.
    """
    sides = tuple(dict.fromkeys(map(_small_side, codes)))
    return _aut_binary(_Request(sides, budget, progress))


@dataclass(frozen=True)
class _Request:
    """Distinct codes of one length, taken as they are, with the search
    limits that ride along; compared and hashed on the codes only."""

    codes: tuple[BinaryCode, ...]
    budget: int | None = field(compare=False)
    progress: object = field(compare=False)


@lru_cache(maxsize=8)
def _aut_binary(request: _Request) -> PermGroup:
    """The permutations that keep every code of the request: through the
    twin quotient where there are twins, by the direct search otherwise."""
    codes, budget, progress = request.codes, request.budget, request.progress
    twins = _twin_classes(codes)
    if twins is None:
        return automorphism_group(_structure(codes), budget=budget, progress=progress)
    return _twin_quotient(codes, *twins, budget, progress)


# -- twin quotient ----------------------------------------------------------------


def _equal_columns(code: BinaryCode) -> list[int]:
    """The classes of points with equal columns in the code's basis, as bit
    masks."""
    columns = gf2.columns(code)
    if len(set(columns)) == len(columns):
        return []
    masks: dict[int, int] = {}
    for i, column in enumerate(columns):
        masks[column] = masks.get(column, 0) | 1 << i
    return [mask for mask in masks.values() if mask & (mask - 1)]


def _weight_two_classes(code: BinaryCode) -> list[int]:
    """The classes of points i, j with e_i + e_j in the code, as bit masks,
    read from the RREF basis.

    Such a word has pivot bits in {i, j} only, so it is one basis row of
    weight 2, whose second point is not a pivot, or the sum of two rows that
    agree off their pivots. So the pivots of rows with one tail (the row
    without its pivot) form a class, joined by the tail's point when the
    tail has weight 1.
    """
    by_tail: dict[int, int] = {}
    for row in code.basis:
        pivot = row & -row
        by_tail[row ^ pivot] = by_tail.get(row ^ pivot, 0) | pivot
    classes = []
    for tail, pivots in by_tail.items():
        if tail.bit_count() == 1:
            pivots |= tail
        if pivots & (pivots - 1):
            classes.append(pivots)
    return classes


def _twin_classes(codes):
    """The twin classes of the codes (None if every class is one point), as
    point lists in order of their lowest point, and per class its kind in
    each code: 0 where the class has equal generator columns (every word is
    constant on it), 1 where it has equal check columns (the code holds
    every even word on it).

    Points i and j are twins when (i j) keeps every code, so for each code
    e_i + e_j lies in it or in its dual. The transpositions in a group join
    into cliques, so the classes are those of one code, intersected over the
    codes. For a code, the dual's weight-2 words are the equal columns of its
    basis (_equal_columns), and its own come from the RREF basis
    (_weight_two_classes); no dual is taken. A class of 3 or more points
    has one kind only (e_i + e_j in the code and e_j + e_k in its dual would
    pair to 1); a pair of both kinds, and a lone point, count as kind 0.
    """
    n = codes[0].length
    parts = None
    checked = []  # per code, the points of its kind-1 classes
    for code in codes:
        gen = _equal_columns(code)
        check = [c for c in _weight_two_classes(code) if c not in gen]
        checked.append(sum(check))
        parts = gen + check if parts is None else _meets(parts, gen + check)
    if not parts:
        return None
    lone = (1 << n) - 1
    for p in parts:
        lone ^= p
    classes = sorted([[i - 1 for i in gf2.support(p)] for p in parts]
                     + [[i - 1] for i in gf2.support(lone)])
    kinds = []
    for points in classes:
        low = 1 << points[0] if len(points) > 1 else 0
        kinds.append(tuple(int(bool(low & mask)) for mask in checked))
    return classes, kinds


def _meets(parts, others):
    """The intersections of two lists of disjoint masks that hold 2 or more
    points."""
    out = []
    for p in parts:
        for q in others:
            both = p & q
            if both & (both - 1):
                out.append(both)
    return out


def _transposition(n: int, i: int, j: int) -> Perm:
    p = list(range(n))
    p[i], p[j] = j, i
    return tuple(p)


def _twin_quotient(codes, classes, kinds, budget, progress) -> PermGroup:
    """Aut of the codes as (Π Sym(class)) ⋊ A, from a search of A alone.

    A class of kind 0 contributes its first point's bit to a quotient word,
    and one of kind 1 its parity. Every code is the set of words constant on
    its kind-0 classes whose quotient lies in its quotient code, so the
    order-preserving lift of a class permutation keeps the code exactly when
    the permutation keeps the quotient code and each class's key, its size
    and its kinds. A is the group of those permutations: where the classes
    have more than one key, the automorphism group of the quotient codes and
    of one 1-dimensional code per key, spanned by the indicator word of the
    quotient points with that key. It is searched through _aut_binary's memo
    on those codes as they are, taking no dual, so a quotient with twins of
    its own is quotiented again. With one key and quotient codes that are
    their own small sides, the memo entry is aut_binary's of the quotients.

    The base is the first points of the classes of A's base, with the
    lifted generators of A's levels, then each class's points but its last,
    whose stabilizers the adjacent transpositions of the classes generate.
    """
    n, m = codes[0].length, len(classes)
    masks = [sum(1 << i for i in points) for points in classes]
    quotients = []
    for k, code in enumerate(codes):
        rows = []
        for word in code.basis:
            q = 0
            for t, (mask, points) in enumerate(zip(masks, classes)):
                bit = (word & mask).bit_count() if kinds[t][k] else word >> points[0]
                q |= (bit & 1) << t
            rows.append(q)
        quotients.append(gf2.span(m, rows))
    keys = [(len(points), *kind) for points, kind in zip(classes, kinds)]
    if len(set(keys)) > 1:
        quotients += [gf2.span(m, [sum(1 << t for t, k in enumerate(keys) if k == key)])
                      for key in sorted(set(keys))]
    quotients = tuple(dict.fromkeys(quotients))

    def lift(g: Perm) -> Perm:
        image = [0] * n
        for points, t in zip(classes, g):
            for i, j in zip(points, classes[t]):
                image[i] = j
        return tuple(image)

    swaps = [(points[k], _transposition(n, points[k], points[k + 1]))
             for points in classes for k in range(len(points) - 1)]
    try:
        quotient = _aut_binary(_Request(quotients, budget, progress))
    except BudgetExceeded as err:
        err.partial = [s for _, s in swaps] + [lift(g) for g in err.partial]
        raise
    lifted = {g: lift(g) for g in quotient.strong_generators}
    base = [classes[b][0] for b in quotient.base]
    levels = [[lifted[g] for g in quotient.level_generators(l)] for l in range(len(base))]
    in_base = set(base)
    base += [i for points in classes for i in points[:-1] if i not in in_base]
    position = {i: l for l, i in enumerate(base)}
    level_gens = [(levels[l] if l < len(levels) else [])
                  + [s for low, s in swaps if position[low] >= l]
                  for l in range(len(base))]
    return PermGroup.from_bsgs(n, base, level_gens)


# -- code equivalence -----------------------------------------------------------


def code_isomorphism(a: BinaryCode, b: BinaryCode):
    """A permutation g with g(a) = b, or None.

    Cheap invariants (length, dimension, weight data of the selected
    classes) are compared first. Refinement commutes with relabeling, so if
    g(a) = b the search tree of b is the image under g of the tree of a, and
    some node of b's tree matching a's first path carries a onto b, at the
    latest at a leaf; find_leaf looks for it, pruned by the refinement
    traces along a's first path and tested with the map from a's node at
    each level.
    """
    if a.length != b.length or a.dim != b.dim:
        return None
    if a == b:
        return permgrp.identity(a.length)
    struct_a, struct_b = structure_for_codes([a]), structure_for_codes([b])
    if ([(len(s), gf2.weight(s[0])) for s in struct_a.systems]
            != [(len(s), gf2.weight(s[0])) for s in struct_b.systems]):
        return None
    target = _Search(struct_a)
    target.first_path(_initial_partition(struct_a))
    search = _Search(struct_b)
    search.traces, search.labs = target.traces, target.labs
    small_a, small_b = struct_a.codes[0], struct_b.codes[0]
    return search.find_leaf(
        _initial_partition(struct_b), None, None, 0,
        lambda g: permgrp.apply_code(g, small_a) == small_b,
    )


# -- Z4 automorphisms --------------------------------------------------------------


class _SignSystem:
    """Linear conditions over GF(2) for a sign vector compatible with a
    coordinate permutation of a Z4-code.

    Flipping the signs s turns a word w = lo + 2hi into w + 2(s & lo). A
    Z4-code is the annihilator of its Z4 dual, so that word lies in the code
    exactly when, for every basis row y = ylo + 2yhi of the dual, the pairing
    <w, y> = |lo & ylo| + 2(|lo & yhi| + |hi & ylo|) is even and
    s . (lo & ylo) = <w, y>/2 mod 2. A row of the system is the mask
    lo & ylo with its right-hand side in bit n. gf2.consistent decides a
    permutation's system, and stops at the first row that reduces to the
    lone right-hand side; gf2.span gives the dimension of the kernel's.
    """

    def __init__(self, code: z4.Z4Code):
        self.n = code.length
        self.res = z4.residue(code)
        self.tor = z4.torsion(code)
        self.lifts = z4.residue_lifts(code)
        self.basis = [z4.pack(row) for row in code.basis]
        self.dual = [z4.pack(y) for y in z4.z4_dual(code).basis]

    def rows_for(self, perm: Perm | None):
        """The rows of sign compatibility with perm, or None if no sign
        vector is compatible. A set: on the Leech code only 20-34 of the
        81 rows are distinct."""
        rows = set()
        for lo, hi in self.basis:
            if perm is not None:
                lo, hi = permgrp.apply_word(perm, lo), permgrp.apply_word(perm, hi)
            for ylo, yhi in self.dual:
                mask = lo & ylo
                pairing = mask.bit_count() + 2 * ((lo & yhi).bit_count() + (hi & ylo).bit_count())
                if pairing & 1:
                    return None
                if mask:
                    rows.add(mask | (pairing & 2) << (self.n - 1))
                elif pairing & 2:
                    return None
        return rows

    def compatible(self, perm: Perm | None) -> bool:
        rows = self.rows_for(perm)
        return rows is not None and gf2.consistent(self.n, rows)

    def kernel_order(self) -> int:
        return 1 << (self.n - gf2.span(self.n + 1, self.rows_for(None)).dim)


def _even_parts(system: _SignSystem, words: np.ndarray) -> np.ndarray:
    """For each residue word c (a 0/1 row), the even part m of its lift
    c~ = c + 2m, as 0/1 rows. Well-defined modulo the torsion code.

    The lift is a sum of residue lifts, computed for all words at once: the
    lift so far is kept as its two bit planes, and each residue lift is
    added (z4.packed_add) to the words whose remainder holds the lowest bit
    of its residue. m is the high plane.
    """
    low, high = np.zeros_like(words), np.zeros_like(words)
    for lift in system.lifts:
        pivot = (lift[0] & -lift[0]).bit_length() - 1
        on = (words[:, pivot] ^ low[:, pivot])[:, None]
        low, high = z4.packed_add((low, high), _bit_matrix(lift, system.n)[:, None] & on)
    if not np.array_equal(low, words):
        raise ValueError("a word is not in the residue code")
    return high


def _word_pair_colours(words: np.ndarray, evens: np.ndarray) -> np.ndarray:
    """The interned pair colours of _WordGraph from the words and their even
    parts, both as words x points 0/1 rows.

    Per block of word rows, two matmuls of float32 rows give the
    intersection sizes and the iota bits (exact: every sum is an integer
    below 2^24). The colour tuples are coded as small ints in their sorted
    order, 0 on the diagonal, 1 + 2y + z for (0, y, z) and 4 + x for
    (x, 2, 2), and ranked through a lookup table of the codes in use, all in
    the narrowest unsigned dtype that holds 4 + the number of points.
    """
    size, n = words.shape
    dtype = np.min_scalar_type(4 + n)
    # F order: 5.8 ms on the 759 octads, against 8.0 ms in C order (2-CPU Xeon host)
    words, evens = (np.asfortranarray(a, dtype=np.float32) for a in (words, evens))
    both = np.concatenate([words, evens]).T
    key = np.empty((size, size), dtype=dtype)
    used = np.zeros(5 + n, dtype=bool)
    rows = max(1, BLOCK_BYTES // both[0].nbytes)
    for lo in range(0, size, rows):
        # |c ∩ h| and iota(h, c) = <c, m_h> for the block's words c, and iota(c, h)
        inter, iota_hc = np.hsplit((words[lo:lo + rows] @ both).astype(dtype), 2)
        iota_ch = (evens[lo:lo + rows] @ words.T).astype(dtype)
        block = key[lo:lo + rows]
        block[...] = np.where(inter > 0, inter + 4, 1 + 2 * (iota_ch & 1) + (iota_hc & 1))
        # the diagonal's code 4 + |c| is no colour of a pair
        np.fill_diagonal(block[:, lo:], 0)
        # an intp index is faster than a narrow one, and its copy fits BLOCK_BYTES
        used[block.astype(np.intp)] = True
    return _take_rows((np.cumsum(used) - 1).astype(dtype), key, key)


class _WordGraph:
    """The sign-invariant pairing graph on a weight class of residue words.

    For disjoint residue words c, h the bit iota(c, h) = <h, m_c> is
    invariant under every coordinate sign change (the shift s & c of m_c is
    disjoint from h) and well-defined modulo the torsion code (h lies in its
    dual, which must contain C1). Word pairs are colored by intersection
    size plus the two iota bits where defined: (-1, 0, 0) on the diagonal,
    (|c ∩ h|, 2, 2) for meeting words and (0, iota(c, h), iota(h, c)) for
    disjoint ones, ranked in sorted order. The words are kept once, as the
    pencils (the words through each point, 0/1 rows); from their transpose,
    one lift of all words gives the m_c (_even_parts) and block matmuls the
    colours (_word_pair_colours). The automorphism image of the Z4-code acts
    on this colored graph. At a leaf of the search, which builds no group on
    the words, the coordinate permutation is read off the pencils by one
    lookup per point.
    """

    def __init__(self, system: _SignSystem, words: list[int]):
        self.system = system
        # pencils: row i marks the words through coordinate i
        self.pencils = np.ascontiguousarray(_bit_matrix(words, system.n).T)
        self.coordinate = {row.tobytes(): i for i, row in enumerate(self.pencils)}

    @cached_property
    def pair_colors(self):
        return _word_pair_colours(self.pencils.T, _even_parts(self.system, self.pencils.T))

    @cached_property
    def separates(self) -> bool:
        """Whether the words through each coordinate meet in it alone: every
        coordinate lies in some word and no other pencil contains its own.
        Recovery needs only distinct pencils; the stronger rule keeps aut_z4
        off word graphs that are slow to search."""
        common = self.pencils.astype(np.int64) @ self.pencils.T
        own = common.diagonal()
        return bool(own.all() and np.count_nonzero(common == own[:, None]) == len(own))

    def coordinate_perm(self, gamma) -> Perm | None:
        """The point permutation inducing the word permutation gamma, if the
        words separate the coordinates and there is one: point i goes to the
        point whose pencil is i's with columns permuted by gamma. Pencils are
        distinct, and equal pencils prove that it carries each word a onto
        word gamma[a]."""
        if not self.separates:
            return None
        rows = np.empty_like(self.pencils)
        rows[:, gamma] = self.pencils
        q = tuple(self.coordinate.get(row.tobytes()) for row in rows)
        return None if None in q else q

    def search(self, budget, progress):
        found: dict = {}

        def leaf(gamma):
            q = self.coordinate_perm(gamma)
            if q is None:
                return False
            if not self.system.compatible(q):
                return False
            found[gamma] = q
            return True

        struct = Structure(self.pencils.shape[1], (), [], pair_colors=self.pair_colors,
                           leaf_test=leaf)
        try:
            # only the accepted leaves matter, not the group on the words
            _Search(struct, budget, progress).search()
        except BudgetExceeded as err:
            err.partial = [found[gamma] for gamma in err.partial]
            raise
        return PermGroup(self.system.n, list(found.values()))


def aut_z4(code: z4.Z4Code, *, budget: int | None = None, progress=None) -> tuple[int, PermGroup]:
    """Automorphism group of a Z4-code as (kernel order, permutation image).

    The kernel is the group of pure sign changes preserving the code; the
    image is its projection to Sym_n, so the total order is their product.

    Candidate permutations live inside Aut(C0) and Aut(C1); when every
    generator of that constraint group already admits compatible signs, the
    image is the whole constraint group and no further search runs.
    Otherwise the search moves to the smallest weight class of the residue
    code and works on the sign-invariant pairing graph of those words,
    recovering coordinate permutations at the leaves; statistics of
    codewords cannot separate coordinates here (for extremal codes they are
    forced by design properties of the minimum vectors), but the pairing
    graph sees the lift data itself. Degenerate classes, and codes with C1
    outside C0^⊥ (where the pairing bits are not invariant), fall back to
    subgroup backtracking in the constraint group with sign tests at the
    leaves. A search that runs out of budget raises BudgetExceeded with the
    image generators found so far as its partial and the full kernel
    order.
    """
    system = _SignSystem(code)
    kernel = system.kernel_order()
    try:
        return kernel, _aut_z4_image(system, budget, progress)
    except BudgetExceeded as err:
        err.kernel_order = kernel
        raise


def _aut_z4_image(system: _SignSystem, budget, progress) -> PermGroup:
    n = system.n
    try:
        constraint = aut_binary(system.tor, system.res, budget=budget, progress=progress)
    except BudgetExceeded as err:
        # the partial generators preserve C0 and C1; only the sign-compatible
        # ones are known to lie in the image
        err.partial = [g for g in err.partial if system.compatible(g)]
        raise
    if all(system.compatible(g) for g in constraint.strong_generators):
        return constraint
    # the word graph's colours are invariant only for C1 ⊆ C0^⊥, read from
    # the parities of the basis words; then dim C1 <= n/2, so the lightest
    # class is one of C1 itself
    if not any((a & b).bit_count() & 1 for a in system.res.basis for b in system.tor.basis):
        classes = weight_class_systems(system.res)
        words = classes[0] if classes else []
        if n <= len(words) <= 1200:
            graph = _WordGraph(system, words)
            if graph.separates:
                return graph.search(budget, progress)
    return permgrp.subgroup_search(
        constraint, system.compatible, budget=budget, progress=progress
    )
