"""Built-in generator matrices for every code the pipeline reproduces.

Each entry is a generator matrix and its provenance. Printed matrices are
stored as verbatim text blocks in the printed layout and parsed at load; a
checksum over the digit stream guards the transcription. The gf2 family
codes are formatted from their constructions. The tests re-derive the
invariants each code is known for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import gf2, z4
from .errors import FramestabError

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

    def code(self):
        if self.kind == "z4":
            return z4.from_text(self.matrix)
        return gf2.from_text(self.matrix)

    def digest(self) -> str:
        stream = "".join(ch for ch in self.matrix if ch.isdigit())
        return hashlib.sha256(stream.encode()).hexdigest()[:16]


def _binary(entry_id: str, code: gf2.BinaryCode, provenance: str) -> CatalogEntry:
    return CatalogEntry(
        id=entry_id,
        kind="binary",
        matrix="\n".join(gf2.format_word(b, code.length) for b in code.basis),
        provenance=provenance,
    )


def _entries() -> dict[str, CatalogEntry]:
    out: dict[str, CatalogEntry] = {}
    for k, text in Z4_LEN8.items():
        out[f"z4-len8-{k}"] = CatalogEntry(
            id=f"z4-len8-{k}",
            kind="z4",
            matrix=text,
            provenance=f"type II length-8 classification, matrix {k} of 4",
        )
    out["z4-pseudo-golay-1"] = CatalogEntry(
        id="z4-pseudo-golay-1",
        kind="z4",
        matrix=PSEUDO_GOLAY_1,
        provenance="pseudo Golay code, worked example 1",
    )
    out["z4-pseudo-golay-2"] = CatalogEntry(
        id="z4-pseudo-golay-2",
        kind="z4",
        matrix=PSEUDO_GOLAY_2,
        provenance="pseudo Golay code, worked example 2",
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
    )
    out["bin-moonshine-d"] = CatalogEntry(
        id="bin-moonshine-d",
        kind="binary",
        matrix=MOONSHINE_D,
        provenance="structure code D of the standard moonshine frame",
    )
    for entry_id, code, provenance in (
        ("bin-golay", gf2.golay24(), "binary Golay code (extended quadratic residue form)"),
        ("bin-hamming8", gf2.hamming8(), "extended Hamming [8,4,4] code"),
        ("bin-rm-1-4", gf2.reed_muller(1, 4), "Reed-Muller RM(1,4)"),
        ("bin-rm-2-4", gf2.reed_muller(2, 4), "Reed-Muller RM(2,4)"),
    ):
        out[entry_id] = _binary(entry_id, code, provenance)
    return out


_CATALOG = _entries()


def list_ids() -> list[str]:
    """The fixed ids; the even-weight family bin-even-N (N >= 2) is not listed."""
    return sorted(_CATALOG)


def get(entry_id: str) -> CatalogEntry:
    suffix = entry_id.removeprefix("bin-even-")
    # the even-weight code of length 1 is the zero code, which has no matrix
    if suffix != entry_id and suffix.isdecimal() and int(suffix) >= 2:
        return _binary(entry_id, gf2.even_code(int(suffix)), "even-weight code")
    try:
        entry = _CATALOG[entry_id]
    except KeyError:
        raise KeyError(
            f"unknown catalog id {entry_id!r}; known ids: {', '.join(list_ids())}, "
            "and bin-even-N for N >= 2"
        ) from None
    want = _CHECKSUMS.get(entry_id)
    if want is not None and entry.digest() != want:
        raise FramestabError(f"catalog entry {entry_id} failed its checksum")
    return entry
