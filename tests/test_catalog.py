import pytest

from framestab import catalog, gf2, z4

KNOWN_IDS = [
    "bin-golay", "bin-hamming8", "bin-moonshine-d", "bin-rm-1-4", "bin-rm-2-4",
    "z4-leech-standard", "z4-len8-1", "z4-len8-2", "z4-len8-3", "z4-len8-4",
    "z4-pseudo-golay-1", "z4-pseudo-golay-2",
]


def test_list_ids():
    ids = catalog.list_ids()
    assert ids == KNOWN_IDS
    # every listed id resolves, and its matrix parses
    for eid in ids:
        assert catalog.get(eid).code().length > 0


def test_unknown_id():
    # the even-weight family starts at length 2: length 1 is the zero code,
    # which has no matrix
    for eid in ("z4-nonsense", "bin-even-0", "bin-even-1", "bin-even-<n>"):
        with pytest.raises(KeyError, match="bin-even-N for N >= 2"):
            catalog.get(eid)


def test_len8_4_matrix_rows():
    entry = catalog.get("z4-len8-4")
    parsed = [tuple(int(ch) for ch in "".join(line.split()))
              for line in entry.matrix.strip().splitlines()]
    assert parsed == [
        (3, 1, 1, 1, 3, 1, 1, 1),
        (1, 1, 1, 1, 2, 0, 0, 0),
        (1, 3, 2, 0, 1, 1, 0, 0),
        (1, 0, 1, 0, 1, 0, 3, 2),
    ]


def test_leech_matrix_dimensions():
    entry = catalog.get("z4-leech-standard")
    rows = entry.matrix.strip().splitlines()
    assert len(rows) == 18
    assert all(len("".join(r.split())) == 24 for r in rows)


def test_checksums_hold():
    for eid in ("z4-len8-1", "z4-len8-2", "z4-len8-3", "z4-len8-4",
                "z4-pseudo-golay-1", "z4-pseudo-golay-2",
                "z4-leech-standard", "bin-moonshine-d"):
        catalog.get(eid)  # raises on checksum mismatch


def test_all_z4_entries_type_ii():
    for eid in catalog.list_ids():
        if not eid.startswith("z4-"):
            continue
        code = catalog.get(eid).code()
        assert z4.is_type_ii(code), eid


def test_leech_entry_invariants():
    code = catalog.get("z4-leech-standard").code()
    assert z4.residue(code).dim == 6
    assert gf2.min_weight(z4.torsion(code)) == 4


def test_binary_entries_match_families():
    assert catalog.get("bin-golay").code() == gf2.golay24()
    assert catalog.get("bin-hamming8").code() == gf2.hamming8()
    assert catalog.get("bin-rm-1-4").code() == gf2.reed_muller(1, 4)
    assert catalog.get("bin-rm-2-4").code() == gf2.reed_muller(2, 4)
    assert catalog.get("bin-even-10").code() == gf2.even_code(10)
    assert catalog.get("bin-even-2").code() == gf2.even_code(2)


def test_moonshine_d_entry():
    d = catalog.get("bin-moonshine-d").code()
    assert (d.length, d.dim) == (48, 7)


def test_expected_values_reproduced_cheap():
    shapes = {1: "4*2^6", 2: "4^2*2^4", 3: "4^3*2^2", 4: "4^4"}
    for k, shape in shapes.items():
        code = catalog.get(f"z4-len8-{k}").code()
        assert z4.group_shape(code) == shape
        assert z4.min_euclidean_weight(code) == 8
    code = catalog.get("bin-golay").code()
    assert (code.length, code.dim, gf2.min_weight(code)) == (24, 12, 8)
