"""Exact permutation groups: base and strong generating set, big-int orders.

Permutations are tuples of images on 0-indexed points; composition is left
to right, compose(p, q)[x] = q[p[x]]. All I/O (cycle strings, JSON image
lists) is 1-indexed to match the coordinate convention elsewhere.

A PermGroup is one stabilizer chain: a base, the strong generators of each
level, the basic orbits as point sets, and transversals built on first use.
Orders are exact products of the basic orbit lengths. The constructor fills
the chain by sift-and-insert Schreier-Sims (Sims 1970; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, section 4.4), deterministic
and sifting every Schreier generator, so strong generation is verified
rather than sampled. PermGroup.from_bsgs takes a chain that the caller has
already proved and only computes its basic orbits: bottom_up, the level
loop of the partition search and of subgroup_search, proves one as it goes.
A budget stop in either carries the generators found so far, not a group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, NodeCounter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def cycle_string(p: Perm) -> str:
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) if out else "()"


def images_1indexed(p: Perm) -> list[int]:
    return [x + 1 for x in p]


def apply_word(p: Perm, word: int) -> int:
    """Permute a binary word: bit i moves to bit p[i]."""
    out = 0
    while word:
        low = word & -word
        out |= 1 << p[low.bit_length() - 1]
        word ^= low
    return out


def apply_code(p: Perm, code):
    from . import gf2

    return gf2.span(code.length, [apply_word(p, b) for b in code.basis])


def orbit(point: int, gens) -> set[int]:
    """The orbit of point under the group the permutations gens generate."""
    out = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


@dataclass(frozen=True)
class SignedPerm:
    """A monomial transformation of Z4^n: permute coordinates, then flip signs.

    The image word satisfies (g.x)[perm[i]] = signs[i] * x[i] mod 4, with
    signs in {+1, -1}.
    """

    perm: Perm
    signs: tuple[int, ...]

    def apply(self, word):
        out = [0] * len(self.perm)
        for i, d in enumerate(word):
            out[self.perm[i]] = (self.signs[i] * d) % 4
        return tuple(out)


class PermGroup:
    """A permutation group with a base and strong generating set.

    Every group keeps one stabilizer chain: the base, and for each level l
    the strong generators that fix base[:l], the basic orbit of base[l] as a
    point set and a transversal built on first use. The constructor fills
    the chain by Schreier-Sims; from_bsgs takes it from a caller that proved
    it.
    """

    def __init__(self, degree: int, generators, base=()):
        self.degree = degree
        gens = [tuple(g) for g in generators if not is_identity(tuple(g))]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation of the right degree")
        self.generators = tuple(gens)
        self._build(list(base))

    # -- construction -----------------------------------------------------

    def _build(self, base_hint: list[int]):
        """Sift-and-insert Schreier-Sims on the chain seeded by base_hint.

        Each generator is sifted and its residue inserted. Then, for l = 0,
        1, ..., level l is done once every Schreier generator
        u.s.u(s(pt))^-1 of it sifts to the identity: they generate the
        stabilizer of base[l] in <S_l>, so that stabilizer is <S_(l+1)>. A
        residue found there lies in <S_l> and fixes base[:l+1]. It joins the
        generators of levels 0..l without changing their groups, so those
        levels stay done, and the Schreier generators of level l need not
        take it in.
        """
        self._base, self._level_gens, self._orbits, self._transversals = [], [], [], []
        for b in base_hint:
            self._add_level(b)
        for g in self.generators:
            self._insert(*self._strip(g))
        l = 0
        while l < len(self._base):
            trans = self.transversal(l)
            for s in list(self._level_gens[l]):
                for pt, u in trans.items():
                    self._insert(*self._strip(compose(compose(u, s), inverse(trans[s[pt]]))))
            l += 1
        self.strong_generators = tuple(dict.fromkeys(g for gens in self._level_gens for g in gens))

    def _add_level(self, b: int):
        self._base.append(b)
        self._level_gens.append([])
        self._orbits.append({b})
        self._transversals.append(None)

    def _insert(self, residue: Perm, stop: int):
        """Add a sifted residue that stopped at level stop to the levels
        whose base prefix it fixes, growing the base if it fixes all of it."""
        if is_identity(residue):
            return
        if stop == len(self._base):
            self._add_level(next(i for i in range(self.degree) if residue[i] != i))
        for l in range(stop + 1):
            self._level_gens[l].append(residue)
            if any(residue[x] not in self._orbits[l] for x in self._orbits[l]):
                self._orbits[l] = orbit(self._base[l], self._level_gens[l])
                self._transversals[l] = None

    @classmethod
    def from_bsgs(cls, degree: int, base, level_gens) -> "PermGroup":
        """The group with a known base and strong generating set.

        level_gens[l] must generate the pointwise stabilizer of base[:l] in
        the group, and only the identity may fix the whole base. This is
        taken on trust, not verified: only the basic orbits are computed.
        The generators, which are also the strong generators, are the
        distinct generators of all levels, in order of first appearance.
        """
        base = list(base)
        if len(level_gens) != len(base):
            raise ValueError("need one generator list per base point")
        group = cls.__new__(cls)
        group.degree = degree
        group._base = base
        group._level_gens = [list(gens) for gens in level_gens]
        group._orbits = [orbit(b, gens) for b, gens in zip(base, level_gens)]
        group._transversals = [None] * len(base)
        group.generators = group.strong_generators = tuple(
            dict.fromkeys(g for gens in level_gens for g in gens))
        return group

    def _strip(self, g: Perm):
        for l in range(len(self._base)):
            x = g[self._base[l]]
            if x == self._base[l]:
                continue
            u = self.transversal(l).get(x)
            if u is None:
                return g, l
            g = compose(g, inverse(u))
        return g, len(self._base)

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._base)

    def order(self) -> int:
        out = 1
        for orb in self._orbits:
            out *= len(orb)
        return out

    def contains(self, p: Perm) -> bool:
        if len(p) != self.degree:
            return False
        residue, _ = self._strip(tuple(p))
        return is_identity(residue)

    def __contains__(self, p) -> bool:
        return self.contains(tuple(p))

    def level_generators(self, l: int) -> list[Perm]:
        """The strong generators that fix base[:l]: they generate its
        pointwise stabilizer."""
        return self._level_gens[l]

    def basic_orbit(self, l: int) -> set[int]:
        return self._orbits[l]

    def transversal(self, l: int) -> dict[int, Perm]:
        """For each point x of the basic orbit of base[l], an element of
        the stabilizer of base[:l] that maps base[l] to x."""
        if self._transversals[l] is None:
            trans = {self._base[l]: identity(self.degree)}
            queue = [self._base[l]]
            while queue:
                pt = queue.pop()
                u = trans[pt]
                for g in self._level_gens[l]:
                    img = g[pt]
                    if img not in trans:
                        trans[img] = compose(u, g)
                        queue.append(img)
            self._transversals[l] = trans
        return self._transversals[l]

    def extended(self, new_gens) -> "PermGroup":
        """Group generated by this group and new_gens, keeping the base prefix."""
        return PermGroup(
            self.degree, list(self.strong_generators) + [tuple(g) for g in new_gens],
            base=self._base,
        )

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


# ---------------------------------------------------------------------------
# Backtrack searches
# ---------------------------------------------------------------------------

def bottom_up(base, candidates, find) -> list[list[Perm]]:
    """Per base point, the generators found at its level or deeper.

    Levels run from the last base point to the first. At level l,
    find(l, c, reached) looks for one element that fixes base[:l] and maps
    base[l] to c, for each c of candidates[l] outside reached, the orbit of
    base[l] under the generators found so far. Where candidates[l] holds
    the basic orbit, once level l is done they generate the stabilizer of
    base[:l]: a strong generating set, taken without Schreier-Sims
    (PermGroup.from_bsgs). A budget stop carries them as its partial.
    """
    found: list[Perm] = []
    level_gens: list[list[Perm]] = [[] for _ in base]
    try:
        for l in range(len(base) - 1, -1, -1):
            reached = orbit(base[l], found)
            for c in candidates[l]:
                if c in reached:
                    continue
                g = find(l, c, reached)
                if g is not None:
                    found.append(g)
                    reached = orbit(base[l], found)
            level_gens[l] = list(found)
    except BudgetExceeded as err:
        err.partial = found
        raise
    return level_gens


def subgroup_search(group: PermGroup, test, *, budget: int | None = None, progress=None) -> PermGroup:
    """All elements of ``group`` satisfying ``test`` (must form a subgroup).

    Classic base-image backtracking on the group's stabilizer chain, driven
    bottom-up (bottom_up): a witness for base image c at level l is the
    first test-passing element below the transversal element that maps
    base[l] to c.
    """
    base = group.base
    k = len(base)
    orbits = [sorted(group.basic_orbit(l)) for l in range(k)]
    nodes = NodeCounter(budget, progress)

    def extend(depth: int, partial: Perm):
        """Find one test-passing element below the given coset representative."""
        nodes.tick()
        if depth == k:
            return partial if test(partial) else None
        for x in orbits[depth]:
            got = extend(depth + 1, compose(group.transversal(depth)[x], partial))
            if got is not None:
                return got
        return None

    level_gens = bottom_up(base, orbits, lambda l, c, _: extend(l + 1, group.transversal(l)[c]))
    return PermGroup.from_bsgs(group.degree, base, level_gens)
