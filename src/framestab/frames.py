"""Structure codes and frame stabilizer orders for the two frame variants.

Given a Z4-code with torsion code C0 and residue code C1, the Virasoro
frame of the associated lattice VOA has structure codes

    D = d(C1),                 C = Span{ d(Z2^n), e(C0) },

and for the Z2-orbifold of the lattice VOA (C of Type II)

    D = Span{ d(C1), e(1^n) }, C = Span{ d(E_n), e(C0) },

where d doubles coordinates, e injects into even positions, and E_n is the
even-weight code. Everything downstream is exact linear algebra over GF(2)
plus permutation group orders:

  * P = { xi : alpha & xi in C for all alpha in D } controls the pointwise
    stabilizer, an extension of Z2^r / dual(D) by P / dual(C), so its order
    is 2^(a+b) with a = dim D and b = dim P - dim dual(C).
  * K, the stabilizer modulo its pointwise part, acts transitively on the
    family H of subcodes of C isomorphic to d(Z2^n) (lattice case) or
    d(E_n) (orbifold case); its order is the stabilizer of one member
    times |H|.
  * In the lattice case H is the set of perfect matchings of the graph of
    weight-2 words of C. In a linear code that graph is a disjoint union of
    cliques (two weight-2 words sharing a point add to a third), so |H| is
    a product of double factorials (|Q| - 1)!! over the cliques Q, zero if
    one has odd size; the count is closed-form and never hits a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import autsearch, gf2, z4
from .errors import EnumerationLimit, FramestabError
from .gf2 import BinaryCode

# Most perfect matchings a member list or the orbifold family enumerates.
MATCHING_CAP = 1 << 22


class VariantError(FramestabError):
    """The requested frame variant is outside its hypotheses."""


@dataclass(frozen=True)
class StructureCodes:
    r: int
    c_code: BinaryCode
    d_code: BinaryCode
    variant: str  # "lattice" | "orbifold"

    def __post_init__(self):
        if self.variant not in ("lattice", "orbifold"):
            raise ValueError(f"unknown variant {self.variant!r}")
        dual_d = gf2.dual(self.d_code)
        for b in self.c_code.basis:
            if not dual_d.contains(b):
                raise ValueError("structure codes must satisfy C <= dual(D)")


def structure_codes_lattice(code: z4.Z4Code) -> StructureCodes:
    """Structure codes of the lattice VOA frame attached to a Z4-code."""
    if not z4.is_self_orthogonal(code) or not z4.all_weights_divisible_by_8(code):
        raise VariantError(
            "lattice variant needs an even Construction-A lattice "
            "(all Euclidean weights divisible by 8)"
        )
    n = code.length
    c0, c1 = z4.torsion(code), z4.residue(code)
    d_code = gf2.d_map(c1)
    c_code = gf2.span(
        2 * n, list(gf2.d_map(gf2.full_code(n)).basis) + list(gf2.e_map(c0).basis)
    )
    return StructureCodes(2 * n, c_code, d_code, "lattice")


def structure_codes_orbifold(code: z4.Z4Code) -> StructureCodes:
    """Structure codes of the Z2-orbifold frame; requires Type II."""
    if not z4.is_type_ii(code):
        raise VariantError("orbifold variant requires a Type II Z4-code")
    n = code.length
    c0, c1 = z4.torsion(code), z4.residue(code)
    d_code = gf2.span(
        2 * n, list(gf2.d_map(c1).basis) + [gf2.e_word((1 << n) - 1)]
    )
    c_code = gf2.span(
        2 * n, list(gf2.d_map(gf2.even_code(n)).basis) + list(gf2.e_map(c0).basis)
    )
    return StructureCodes(2 * n, c_code, d_code, "orbifold")


def structure_codes(code: z4.Z4Code, variant: str) -> StructureCodes:
    if variant == "lattice":
        return structure_codes_lattice(code)
    if variant == "orbifold":
        return structure_codes_orbifold(code)
    raise ValueError(f"unknown variant {variant!r}")


def holomorphic(sc: StructureCodes) -> bool:
    return sc.c_code == gf2.dual(sc.d_code)


def compute_p(sc: StructureCodes) -> BinaryCode:
    """P = { xi : alpha & xi in C for all alpha in D }.

    The coordinatewise product distributes over XOR in each argument, so a
    basis of D against a parity-check basis of C gives the full linear
    system; P is the dual of the span of the products h & alpha.
    """
    checks = gf2.dual(sc.c_code).basis
    rows = [h & alpha for h in checks for alpha in sc.d_code.basis]
    return gf2.dual(gf2.span(sc.r, rows))


def pointwise_order(sc: StructureCodes) -> tuple[int, int]:
    """Exponents (a, b) with pointwise stabilizer order 2^(a+b)."""
    a = sc.d_code.dim
    b = compute_p(sc).dim - (sc.r - sc.c_code.dim)
    return a, b


# ---------------------------------------------------------------------------
# The family H of distinguished subcodes
# ---------------------------------------------------------------------------


def _matching_count(n_points: int, edges: list[int]) -> int:
    """Number of perfect matchings of the weight-2 graph of a binary code.

    The edges must be all weight-2 words of one linear code. That graph is a
    disjoint union of cliques: i~j and j~k give (e_i+e_j) + (e_j+e_k) =
    e_i+e_k, so each point's clique is the point with its neighbours. A
    clique of 2m points has (2m-1)!! perfect matchings, and a clique of odd
    size (an uncovered point is one of size 1) has none.
    """
    closed = [1 << i for i in range(n_points)]
    for e in edges:
        i, j = (e & -e).bit_length() - 1, e.bit_length() - 1
        closed[i] |= e
        closed[j] |= e
    total = 1
    for clique in set(closed):
        size = clique.bit_count()
        if size % 2:
            return 0
        total *= prod(range(size - 1, 0, -2))
    return total


def list_perfect_matchings(n_points: int, edges: list[int], compatible=None):
    """Perfect matchings of a graph on bitmask edges, as edge tuples.

    ``compatible(edge, chosen)``, when given, must hold for each edge against
    the edges already chosen on its path; it only prunes.
    """
    full = (1 << n_points) - 1
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, chosen):
        if not remaining:
            out.append(tuple(chosen))
            return
        if len(out) > MATCHING_CAP:
            raise EnumerationLimit("matching list cap exceeded")
        low = remaining & -remaining
        for e in edges:
            if e & low and not (e & ~remaining) and (
                compatible is None or compatible(e, chosen)
            ):
                chosen.append(e)
                rec(remaining & ~e, chosen)
                chosen.pop()

    rec(full, [])
    return out


def enumerate_h_lattice(sc: StructureCodes, *, members: bool = False):
    """Subcodes of C isomorphic to d(Z2^n): count, optional member list.

    Such a subcode is spanned by n disjoint weight-2 words covering all 2n
    coordinates, so members correspond to perfect matchings of the graph
    whose edges are the weight-2 codewords of C. That graph is a disjoint
    union of cliques, so the count is a product of double factorials
    (_matching_count); MATCHING_CAP bounds only the member list.
    """
    if sc.variant != "lattice":
        raise VariantError("enumerate_h_lattice needs the lattice variant")
    edges = gf2.weight_words(sc.c_code, 2)
    if members:
        matchings = list_perfect_matchings(sc.r, edges)
        codes = [gf2.span(sc.r, m) for m in matchings]
        return len(codes), codes
    return _matching_count(sc.r, edges), None


def _compatible_matchings(c0: BinaryCode):
    """Perfect matchings of the n coordinates with every pairwise sum of
    pairs a codeword of c0. Pairwise sums are sums of consecutive chain
    sums, so this is exactly the chain condition of the subcode families."""
    n = c0.length
    weight4 = set(gf2.weight_words(c0, 4))
    pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    return list_perfect_matchings(
        n, pairs, lambda e, chosen: all((e | f) in weight4 for f in chosen)
    )


def _family_one(n: int, matching) -> BinaryCode:
    gens = [gf2.d_word(x) for x in matching]
    gens += [gf2.e_word(matching[i] ^ matching[i + 1]) for i in range(len(matching) - 1)]
    return gf2.span(2 * n, gens)


def _pick_w(xa: int, xb: int) -> int:
    return (xa & -xa) | (xb & -xb)


def _family_two(n: int, matching) -> BinaryCode:
    """Second family: e(y_j) + d(w_j) with w_j meeting consecutive pairs once.

    All four choices of w_j differ by d(x_j) or d(x_(j+1)), which are already
    generators, so any choice spans the same subcode; the smallest points are
    used for determinism.
    """
    gens = [gf2.d_word(x) for x in matching]
    for i in range(len(matching) - 1):
        y = matching[i] ^ matching[i + 1]
        w = _pick_w(matching[i], matching[i + 1])
        gens.append(gf2.e_word(y) ^ gf2.d_word(w))
    return gf2.span(2 * n, gens)


def enumerate_h_orbifold(sc: StructureCodes, c0: BinaryCode, *, members: bool = False):
    """Subcodes of C isomorphic to d(E_n): count, optional member list.

    With min weight of c0 above 4 the only member is d(E_n) itself. With
    min weight exactly 4, every other member arises from a matching of the
    n coordinates whose pairwise pair-sums lie in c0, in one of two span
    shapes per matching; duplicates are removed by canonical (RREF) basis.
    """
    if sc.variant != "orbifold":
        raise VariantError("enumerate_h_orbifold needs the orbifold variant")
    n = sc.r // 2
    mw = gf2.min_weight(c0)
    if mw < 4:
        raise VariantError(
            f"min weight of C0 is {mw}: the orbifold subcode family is only "
            "classified for minimum weight at least 4"
        )
    d_en = gf2.d_map(gf2.even_code(n))
    if mw > 4:
        return 1, ([d_en] if members else None)
    found: dict = {d_en.basis: d_en}
    for matching in _compatible_matchings(c0):
        for e in (_family_one(n, matching), _family_two(n, matching)):
            if not all(sc.c_code.contains(b) for b in e.basis):
                raise FramestabError("a subcode of the d(E_n) family does not lie in C")
            found[e.basis] = e
    codes = list(found.values())
    return len(codes), (codes if members else None)


# ---------------------------------------------------------------------------
# Frame report
# ---------------------------------------------------------------------------


@dataclass
class FrameReport:
    code_id: str
    variant: str
    n: int
    r: int
    dim_c: int
    dim_d: int
    dim_p: int
    holomorphic: bool
    pointwise: tuple[int, int]
    aut_z4_total: int
    aut_z4_bar: int
    aut_c0: int
    h_count: int
    h_count_by_index: int | None
    k_order: int
    stab_order: int
    index_aut_c_k: int
    aut_c: int | None
    stab_factored: str

    def to_json(self) -> dict:
        return {
            "code_id": self.code_id,
            "variant": self.variant,
            "n": self.n,
            "r": self.r,
            "dims": {"C": self.dim_c, "D": self.dim_d, "P": self.dim_p},
            "holomorphic": self.holomorphic,
            "pointwise": {"a": self.pointwise[0], "b": self.pointwise[1]},
            "aut": {
                "z4_total": str(self.aut_z4_total),
                "z4_bar": str(self.aut_z4_bar),
                "c0": str(self.aut_c0),
            },
            "h_count": str(self.h_count),
            "k_order": str(self.k_order),
            "stab_order": str(self.stab_order),
            "index_autC_K": str(self.index_aut_c_k),
        }


def _aut_c_feasible(c_code: BinaryCode) -> bool:
    small = min(c_code.dim, c_code.length - c_code.dim)
    return c_code.length <= 16 or small <= 8


def frame_report(code: z4.Z4Code, variant: str, *, code_id: str = "",
                 budget: int | None = None, progress=None) -> FrameReport:
    """Assemble the full stabilizer report for one code and frame variant.

    K is the frame stabilizer modulo its pointwise part:
      lattice:  |K| = 2^n * |Aut(C)bar| * |H|
      orbifold: |K| = 2^(dim dual(C0)) * |Aut(C)bar| * |H|
    and |Stab| = 2^(a+b) * |K|. The index |Aut(C) : K| always equals
    |Aut(C0) : Aut(C)bar|; when Aut(C) itself is computed the direct
    quotient is required to agree. Aut(C) is computed where _aut_c_feasible
    allows it. |H| is enumerated, or read from |Aut(C)| = 2^e * |Aut(C0)| * |H|
    (2^e the power of 2 in |K|) when enumeration raises EnumerationLimit;
    where both routes run they must agree.
    """
    sc = structure_codes(code, variant)
    n = code.length
    c0 = z4.torsion(code)
    if variant == "orbifold" and (mw := gf2.min_weight(c0)) < 4:
        raise VariantError(
            f"min weight of C0 is {mw}: outside the orbifold transitivity hypotheses"
        )
    a, b = pointwise_order(sc)
    kernel, image = autsearch.aut_z4(code, budget=budget, progress=progress)
    bar = image.order()
    aut_c0 = autsearch.aut_binary(c0, budget=budget, progress=progress).order()

    aut_c = None
    if _aut_c_feasible(sc.c_code):
        aut_c = autsearch.aut_binary(sc.c_code, budget=budget, progress=progress).order()

    if variant == "lattice":
        stab_exp = n
    else:
        stab_exp = n - c0.dim  # dim dual(C0)

    # |H|: direct enumeration, index formula when it hits its cap
    try:
        if variant == "lattice":
            h_direct, _ = enumerate_h_lattice(sc)
        else:
            h_direct, _ = enumerate_h_orbifold(sc, c0)
    except EnumerationLimit:
        h_direct = None
    h_index = None
    if aut_c is not None:
        denom = (1 << stab_exp) * aut_c0
        if aut_c % denom:
            raise FramestabError("stabilizer order does not divide |Aut(C)|")
        h_index = aut_c // denom
    if h_direct is None and h_index is None:
        raise FramestabError(
            "|H| unavailable: direct enumeration hit its cap and Aut(C) was not computed"
        )
    if h_direct is not None and h_index is not None and h_direct != h_index:
        raise FramestabError(
            f"|H| mismatch: enumeration gives {h_direct}, index formula gives {h_index}"
        )
    h_count = h_direct if h_direct is not None else h_index

    k_order = (1 << stab_exp) * bar * h_count
    stab_order = (1 << (a + b)) * k_order
    if aut_c0 % bar:
        raise FramestabError("Aut(C)bar does not divide Aut(C0)")
    index_formula = aut_c0 // bar
    if aut_c is not None:
        if aut_c % k_order:
            raise FramestabError("K does not divide Aut(C)")
        if aut_c // k_order != index_formula:
            raise FramestabError(
                f"index mismatch: |Aut(C):K| = {aut_c // k_order} by division, "
                f"{index_formula} by the index identity"
            )
    factored = f"2^{a + b} * 2^{stab_exp} * {bar}"
    if h_count != 1:
        factored += f" * {h_count}"
    return FrameReport(
        code_id=code_id,
        variant=variant,
        n=n,
        r=sc.r,
        dim_c=sc.c_code.dim,
        dim_d=sc.d_code.dim,
        dim_p=b + sc.r - sc.c_code.dim,  # b = dim P - dim dual(C)
        holomorphic=holomorphic(sc),
        pointwise=(a, b),
        aut_z4_total=kernel * bar,
        aut_z4_bar=bar,
        aut_c0=aut_c0,
        h_count=h_count,
        h_count_by_index=h_index,
        k_order=k_order,
        stab_order=stab_order,
        index_aut_c_k=index_formula,
        aut_c=aut_c,
        stab_factored=factored,
    )
