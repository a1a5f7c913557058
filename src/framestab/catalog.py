"""Built-in generator matrices for every code the pipeline reproduces.

Matrices are stored as verbatim text blocks in the printed layout and
parsed at load; a checksum over the digit stream guards the transcription,
and the test suite re-derives every expected invariant. Expected values are
tagged 'given' (asserted by the source of the matrix) or 'derived'
(recomputed independently here).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import gf2, z4

Z4_LEN8 = {
    1: """
        1111 1111
        2200 0000
        0220 0000
        0022 0000
        0002 2000
        0000 2200
        0000 0220
    """,
    2: """
        3111 3111
        1111 2000
        2200 0000
        0220 0000
        0000 2200
        0000 0220
    """,
    3: """
        3111 3111
        1111 2000
        1320 1100
        2200 0000
        0220 0220
    """,
    4: """
        3111 3111
        1111 2000
        1320 1100
        1010 1032
    """,
}

PSEUDO_GOLAY_1 = """
    1 0 0 0 0 0 0 0 0 0 0 0   1 3 0 0 2 1 1 1 0 1 2 3
    0 1 0 0 0 0 0 0 0 0 0 0   1 2 1 0 2 3 0 0 3 1 1 1
    0 0 1 0 0 0 0 0 0 0 0 0   3 3 1 1 2 3 3 0 1 2 0 0
    0 0 0 1 0 0 0 0 0 0 0 0   0 3 3 1 1 2 3 3 0 1 2 0
    0 0 0 0 1 0 0 0 0 0 0 0   0 0 3 3 1 1 2 3 3 0 1 2
    0 0 0 0 0 1 0 0 0 0 0 0   2 0 2 3 3 3 1 2 1 1 2 3
    0 0 0 0 0 0 1 0 0 0 0 0   1 0 1 2 1 2 3 1 1 2 2 3
    0 0 0 0 0 0 0 1 0 0 0 0   1 3 1 1 0 0 2 3 0 2 3 3
    0 0 0 0 0 0 0 0 1 0 0 0   1 3 0 1 3 3 0 2 2 1 3 0
    0 0 0 0 0 0 0 0 0 1 0 0   0 1 3 0 1 3 3 0 2 2 1 3
    0 0 0 0 0 0 0 0 0 0 1 0   1 2 2 3 2 0 3 3 3 3 3 2
    0 0 0 0 0 0 0 0 0 0 0 1   2 1 0 2 3 0 0 3 1 1 1 1
"""

PSEUDO_GOLAY_2 = """
    1 0 0 0 0 0 0 0 0 0 0 0   2 2 2 2 0 1 1 1 3 1 3 1
    0 1 0 0 0 0 0 0 0 0 0 0   2 0 3 1 3 1 2 3 1 2 2 3
    0 0 1 0 0 0 0 0 0 0 0 0   3 0 1 2 1 2 2 3 1 1 1 2
    0 0 0 1 0 0 0 0 0 0 0 0   0 1 0 3 3 0 2 2 3 3 1 1
    0 0 0 0 1 0 0 0 0 0 0 0   3 2 2 1 3 2 3 3 0 1 2 1
    0 0 0 0 0 1 0 0 0 0 0 0   3 1 3 3 3 2 1 2 1 0 2 2
    0 0 0 0 0 0 1 0 0 0 0 0   1 3 2 0 3 3 1 2 2 3 1 2
    0 0 0 0 0 0 0 1 0 0 0 0   2 1 1 0 1 2 1 3 0 0 3 1
    0 0 0 0 0 0 0 0 1 0 0 0   3 3 2 3 0 1 2 3 3 3 2 2
    0 0 0 0 0 0 0 0 0 1 0 0   3 0 3 3 2 3 3 1 2 0 3 0
    0 0 0 0 0 0 0 0 0 0 1 0   1 3 3 0 2 1 0 0 1 2 1 1
    0 0 0 0 0 0 0 0 0 0 0 1   2 1 3 3 0 3 3 2 0 1 0 1
"""

LEECH_STANDARD = """
    1 1 1 1  1 1 1 1  1 1 1 1  1 1 1 1  0 0 0 0  0 0 0 0
    1 1 1 1  1 1 1 3  2 0 0 0  0 0 0 0  2 0 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  1 1 1 1  1 1 1 1  1 1 1 1  1 1 1 1
    1 1 1 3  2 0 0 0  1 1 1 1  0 0 0 0  1 1 1 1  0 0 0 0
    1 3 2 0  1 1 0 0  1 1 0 0  1 1 0 0  1 1 0 0  1 1 0 0
    3 2 1 0  1 0 1 0  1 0 1 0  1 0 1 0  1 0 1 0  1 0 1 0
    2 2 2 2  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
    2 2 0 0  2 2 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
    2 0 2 0  2 0 2 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 2 2 2  0 0 0 0  0 0 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 2 0 0  2 2 0 0  0 0 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 0 2 0  2 0 2 0  0 0 0 0  0 0 0 0
    2 2 0 0  0 0 0 0  2 2 0 0  0 0 0 0  0 0 0 0  0 0 0 0
    2 0 2 0  0 0 0 0  2 0 2 0  0 0 0 0  0 0 0 0  0 0 0 0
    2 0 0 0  2 0 0 0  2 0 0 0  2 0 0 0  0 0 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 2 0 0  0 0 0 0  2 2 0 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 0 2 0  0 0 0 0  2 0 2 0  0 0 0 0
    0 0 0 0  0 0 0 0  2 0 0 0  2 0 0 0  2 0 0 0  2 0 0 0
"""

MOONSHINE_D = """
    1111 1111 1111 1111 1111 1111 1111 1111 1111 1111 1111 1111
    1111 1111 1111 1111 1111 1111 1111 1111 0000 0000 0000 0000
    1111 1111 1111 1111 0000 0000 0000 0000 0000 0000 0000 0000
    1111 1111 0000 0000 1111 1111 0000 0000 1111 1111 0000 0000
    1111 0000 1111 0000 1111 0000 1111 0000 1111 0000 1111 0000
    1100 1100 1100 1100 1100 1100 1100 1100 1100 1100 1100 1100
    1010 1010 1010 1010 1010 1010 1010 1010 1010 1010 1010 1010
"""

_CHECKSUMS = {
    "z4-len8-1": "c858bf139245827f",
    "z4-len8-2": "4b95e5567a93ce7a",
    "z4-len8-3": "686d18424a7d5e89",
    "z4-len8-4": "1a9521887d4a2fc7",
    "z4-pseudo-golay-1": "0395de810aa47ed7",
    "z4-pseudo-golay-2": "988c59bd900e3e6d",
    "z4-leech-standard": "718cffdcf72cbcae",
    "bin-moonshine-d": "187b236f0e76ee3a",
}


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # "z4" | "binary"
    matrix: str
    provenance: str
    expected: dict = field(default_factory=dict)

    def code(self):
        if self.kind == "z4":
            return z4.from_text(self.matrix)
        return gf2.from_text(self.matrix)

    def digest(self) -> str:
        stream = "".join(ch for ch in self.matrix if ch.isdigit())
        return hashlib.sha256(stream.encode()).hexdigest()[:16]


def _entries() -> dict[str, CatalogEntry]:
    out: dict[str, CatalogEntry] = {}
    shapes = {1: "4*2^6", 2: "4^2*2^4", 3: "4^3*2^2", 4: "4^4"}
    stab_shapes = {
        1: "2^(1+14).Sym16",
        2: "2^(2+12).(Sym8 wr 2)",
        3: "2^(3+9).(Sym4 wr Sym4)",
        4: "2^(4+5).(2 wr AGL(3,2))",
    }
    for k, text in Z4_LEN8.items():
        out[f"z4-len8-{k}"] = CatalogEntry(
            id=f"z4-len8-{k}",
            kind="z4",
            matrix=text,
            provenance=f"type II length-8 classification, matrix {k} of 4",
            expected={
                "shape": (shapes[k], "given"),
                "type_ii": (True, "given"),
                "min_euclidean_weight": (8, "derived"),
                "stab_shape_lattice": (stab_shapes[k], "given"),
            },
        )
    out["z4-pseudo-golay-1"] = CatalogEntry(
        id="z4-pseudo-golay-1",
        kind="z4",
        matrix=PSEUDO_GOLAY_1,
        provenance="pseudo Golay code, worked example 1",
        expected={
            "type_ii": (True, "given"),
            "min_euclidean_weight": (16, "given"),
            "aut_total": (12144, "given"),
            "aut_bar": (6072, "given"),
            "stab_shape_orbifold": ("2^13.(2^12.PSL2(23))", "given"),
        },
    )
    out["z4-pseudo-golay-2"] = CatalogEntry(
        id="z4-pseudo-golay-2",
        kind="z4",
        matrix=PSEUDO_GOLAY_2,
        provenance="pseudo Golay code, worked example 2",
        expected={
            "type_ii": (True, "given"),
            "aut_total": (6, "given"),
            "aut_bar": (3, "given"),
            "stab_shape_orbifold": ("2^13.(2^12.3)", "given"),
        },
    )
    out["z4-leech-standard"] = CatalogEntry(
        id="z4-leech-standard",
        kind="z4",
        matrix=LEECH_STANDARD,
        provenance=(
            "standard 4-frame of the Leech lattice; one digit of row 4 "
            "corrected (printed row pairs to 2 mod 4 against row 3, so the "
            "printed matrix is not self-orthogonal; the corrected matrix is "
            "the unique single-digit repair that restores self-duality, and "
            "it passes the Type II / extremal / residue checks)"
        ),
        expected={
            "type_ii": (True, "given"),
            "dim_c1": (6, "given"),
            "min_weight_c0": (4, "given"),
            "aut_total": (2**18 * 1008, "given"),
            "aut_bar": (2**9 * 1008, "given"),
            "stab_shape_orbifold": ("2^(7+20).(2^12.(Sym3 x GL(4,2)))", "given"),
        },
    )
    out["bin-moonshine-d"] = CatalogEntry(
        id="bin-moonshine-d",
        kind="binary",
        matrix=MOONSHINE_D,
        provenance="structure code D of the standard moonshine frame",
        expected={
            "dim": (7, "given"),
            "aut_order": (2**12 * 6 * 20160, "given"),
        },
    )
    out["bin-golay"] = CatalogEntry(
        id="bin-golay",
        kind="binary",
        matrix="\n".join(
            gf2.format_word(b, 24) for b in gf2.golay24().basis
        ),
        provenance="binary Golay code (extended quadratic residue form)",
        expected={
            "params": ((24, 12, 8), "derived"),
            "self_dual": (True, "derived"),
            "min_weight": (8, "derived"),
            "aut_order": (244823040, "given"),
        },
    )
    out["bin-hamming8"] = CatalogEntry(
        id="bin-hamming8",
        kind="binary",
        matrix="\n".join(gf2.format_word(b, 8) for b in gf2.hamming8().basis),
        provenance="extended Hamming [8,4,4] code",
        expected={
            "params": ((8, 4, 4), "derived"),
            "aut_order": (1344, "given"),
        },
    )
    for r, m in ((1, 4), (2, 4)):
        rm = gf2.reed_muller(r, m)
        out[f"bin-rm-{r}-{m}"] = CatalogEntry(
            id=f"bin-rm-{r}-{m}",
            kind="binary",
            matrix="\n".join(gf2.format_word(b, 16) for b in rm.basis),
            provenance=f"Reed-Muller RM({r},{m})",
            expected={
                "dim": (rm.dim, "derived"),
                "aut_order": (322560, "given") if r == 2 else (322560, "derived"),
            },
        )
    return out


_CATALOG = _entries()


def list_ids() -> list[str]:
    """The fixed ids; the even-weight family bin-even-N (N >= 2) is not listed."""
    return sorted(_CATALOG)


def get(entry_id: str) -> CatalogEntry:
    suffix = entry_id.removeprefix("bin-even-")
    # the even-weight code of length 1 is the zero code, which has no matrix
    if suffix != entry_id and suffix.isdecimal() and int(suffix) >= 2:
        n = int(suffix)
        code = gf2.even_code(n)
        return CatalogEntry(
            id=entry_id,
            kind="binary",
            matrix="\n".join(gf2.format_word(b, n) for b in code.basis),
            provenance="even-weight code",
            expected={"dim": (n - 1, "derived")},
        )
    try:
        entry = _CATALOG[entry_id]
    except KeyError:
        raise KeyError(
            f"unknown catalog id {entry_id!r}; known ids: {', '.join(list_ids())}, "
            "and bin-even-N for N >= 2"
        ) from None
    want = _CHECKSUMS.get(entry_id)
    if want is not None and entry.digest() != want:
        raise AssertionError(f"catalog entry {entry_id} failed its checksum")
    return entry
