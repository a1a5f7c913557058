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
    weight-2 words of C; in the orbifold case (min weight of C0 at least
    4) it is d(E_n) and two members per matching of the n coordinates
    whose pairs sum pairwise into C0, so |H| = 1 + 2 * (number of such
    matchings). Both counts are read in closed form from the columns of
    one check matrix (of C, or of C0), with no cap and no member built.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import autsearch, gf2, z4
from .errors import BudgetExceeded, FramestabError
from .gf2 import BinaryCode


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
        if any((c & d).bit_count() & 1 for c in self.c_code.basis for d in self.d_code.basis):
            raise ValueError("structure codes must satisfy C <= dual(D)")

    @cached_property
    def checks(self) -> BinaryCode:
        """dual(C), whose basis is the rows of a check matrix of C."""
        return gf2.dual(self.c_code)


def structure_codes_lattice(code: z4.Z4Code) -> StructureCodes:
    """Structure codes of the lattice VOA frame attached to a Z4-code."""
    if not z4.all_weights_divisible_by_8(code):
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
    """Whether C = dual(D): C <= dual(D) holds, so the dimensions decide."""
    return sc.c_code.dim + sc.d_code.dim == sc.r


def compute_p(sc: StructureCodes) -> BinaryCode:
    """P = { xi : alpha & xi in C for all alpha in D }.

    The coordinatewise product distributes over XOR in each argument, so a
    basis of D against a parity-check basis of C gives the full linear
    system; P is the dual of the span of the products h & alpha.
    """
    rows = [h & alpha for h in sc.checks.basis for alpha in sc.d_code.basis]
    return gf2.dual(gf2.span(sc.r, rows))


def pointwise_order(sc: StructureCodes) -> tuple[int, int]:
    """Exponents (a, b) with pointwise stabilizer order 2^(a+b)."""
    a = sc.d_code.dim
    b = compute_p(sc).dim - (sc.r - sc.c_code.dim)
    return a, b


# ---------------------------------------------------------------------------
# The family H of distinguished subcodes
# ---------------------------------------------------------------------------


def enumerate_h_lattice(sc: StructureCodes):
    """Subcodes of C isomorphic to d(Z2^n): their count, and None.

    Such a subcode is spanned by n disjoint weight-2 words covering all 2n
    coordinates, so members correspond to perfect matchings of the graph
    whose edges are the weight-2 codewords of C. e_i + e_j lies in C exactly
    when columns i and j of a check matrix agree, so that graph is the
    disjoint union of the cliques of equal columns. A clique of 2m points
    has (2m-1)!! perfect matchings, and one of odd size has none.
    """
    if sc.variant != "lattice":
        raise VariantError("enumerate_h_lattice needs the lattice variant")
    sizes = Counter(gf2.columns(sc.checks)).values()
    return prod(0 if m % 2 else prod(range(m - 1, 0, -2)) for m in sizes), None


def _period_matchings(c0: BinaryCode) -> int:
    """The number of perfect matchings of the n coordinates with every
    pairwise sum of pairs a codeword of c0, which must have min weight at
    least 4. Pairwise sums are sums of consecutive chain sums, so this is
    exactly the chain condition of the subcode families.

    The columns of a check matrix of c0 are then distinct and nonzero, and
    two disjoint pairs sum into c0 exactly when their column sums agree. So
    the pairs of a matching share one column sum s, each column has at most
    one partner at sum s, and the matchings are one per period s != 0 of
    the column set (columns ^ s = columns): this counts the periods.
    """
    cols = gf2.columns(gf2.dual(c0))
    present = set(cols)
    periods = (cols[0] ^ col for col in cols[1:])
    return sum(all(col ^ s in present for col in cols) for s in periods)


def enumerate_h_orbifold(sc: StructureCodes, c0: BinaryCode):
    """Subcodes of C isomorphic to d(E_n): their count, and None.

    Needs min weight of c0 at least 4. Besides d(E_n) itself, H has two
    members per period matching x_0, ..., x_(m-1) of c0 (_period_matchings),
    with y_j = x_j + x_(j+1):

        family one = Span{ d(x_j), e(y_j) },
        family two = Span{ d(x_j), e(y_j) + d(w_j) },

    w_j a pair meeting x_j and x_(j+1) in one point each. Their generators
    lie in Span{ d(E_n), e(c0) }, so once d(E_n) and e(c0) lie in C, every
    member does. The count 1 + 2 * (number of matchings) is exact:

      * distinct periods give distinct matchings, because the check columns
        of c0 are distinct;
      * write each word as d(a) + e(b); the y_j are independent, so the
        words of a member with b = 0 are exactly the d(sum of some x_j).
        Those words fix the matching, and they span n/2 dimensions, fewer
        than the n - 1 of d(E_n) for n >= 4;
      * e(y_0) lies in family one but not in family two, because w_0 meets
        x_0 in one point.
    """
    if sc.variant != "orbifold":
        raise VariantError("enumerate_h_orbifold needs the orbifold variant")
    n = sc.r // 2
    mw = gf2.min_weight(c0)
    if mw < 4:
        raise VariantError(
            f"min weight of C0 is {mw}: outside the orbifold transitivity hypotheses"
        )
    gens = gf2.d_map(gf2.even_code(n)).basis + gf2.e_map(c0).basis
    if not all(sc.c_code.contains(g) for g in gens):
        raise FramestabError("a subcode of the d(E_n) family does not lie in C")
    return 1 + 2 * _period_matchings(c0), None


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
    and |Stab| = 2^(a+b) * |K|. The index |Aut(C) : K| is
    |Aut(C0) : Aut(C)bar|. |H| is read in closed form from the columns of a
    check matrix (enumerate_h_lattice, enumerate_h_orbifold): the product of
    double factorials over the cliques of equal columns of C, or 1 + 2 *
    (number of periods of C0's column set). It has no cap and is read
    before any search runs. Where _aut_c_feasible allows, Aut(C) is searched
    as a cross-check: the index formula |Aut(C)| = 2^e * |Aut(C0)| * |H| (2^e
    the power of 2 in |K|) must give the same |H|, and then the index of K
    in Aut(C) is the one above; a budget stop in this search, unlike one in
    aut_z4 or Aut(C0), leaves aut_c and h_count_by_index None. One check
    matrix of C (sc.checks) serves |H|, P and this search, since Aut(C) =
    Aut(dual C).
    """
    sc = structure_codes(code, variant)
    n = code.length
    c0 = z4.torsion(code)
    if variant == "lattice":
        h_count, _ = enumerate_h_lattice(sc)
        stab_exp = n
    else:
        h_count, _ = enumerate_h_orbifold(sc, c0)
        stab_exp = n - c0.dim  # dim dual(C0)
    a, b = pointwise_order(sc)
    kernel, image = autsearch.aut_z4(code, budget=budget, progress=progress)
    bar = image.order()
    aut_c0 = autsearch.aut_binary(c0, budget=budget, progress=progress).order()

    # the index formula, a second route to |H| where Aut(C) is searched
    aut_c = h_index = None
    if _aut_c_feasible(sc.c_code):
        with suppress(BudgetExceeded):  # a budget stop skips the cross-check
            aut_c = autsearch.aut_binary(sc.checks, budget=budget, progress=progress).order()
    if aut_c is not None:
        denom = (1 << stab_exp) * aut_c0
        if aut_c % denom:
            raise FramestabError("stabilizer order does not divide |Aut(C)|")
        h_index = aut_c // denom
        if h_index != h_count:
            raise FramestabError(
                f"|H| mismatch: closed form gives {h_count}, index formula gives {h_index}"
            )

    k_order = (1 << stab_exp) * bar * h_count
    stab_order = (1 << (a + b)) * k_order
    if aut_c0 % bar:
        raise FramestabError("Aut(C)bar does not divide Aut(C0)")
    index_formula = aut_c0 // bar
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
