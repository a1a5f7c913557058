import json
import random
from math import factorial

import pytest
from click.testing import CliRunner

from framestab import autsearch, catalog, frames, gf2, permgrp, z4
from framestab.cli import main
from framestab.frames import VariantError


@pytest.fixture
def runner():
    return CliRunner()


def test_catalog_list(runner):
    result = runner.invoke(main, ["catalog", "list"])
    assert result.exit_code == 0
    ids = result.output.splitlines()
    assert set(ids) >= {
        "bin-golay", "bin-hamming8", "bin-moonshine-d", "bin-rm-1-4", "bin-rm-2-4",
        "z4-leech-standard", "z4-len8-1", "z4-len8-2", "z4-len8-3", "z4-len8-4",
        "z4-pseudo-golay-1", "z4-pseudo-golay-2",
    }
    # every listed line is an id that the other commands accept
    for line in ids:
        shown = runner.invoke(main, ["catalog", "show", line])
        assert shown.exit_code == 0, (line, shown.output)
        assert shown.output.startswith(f"# {line} (")


def test_catalog_list_help_names_the_even_family(runner):
    result = runner.invoke(main, ["catalog", "list", "--help"])
    assert result.exit_code == 0
    assert "bin-even-N" in result.output and "N >= 2" in result.output


def test_catalog_show(runner):
    result = runner.invoke(main, ["catalog", "show", "z4-len8-4"])
    assert result.exit_code == 0
    assert "3111 3111" in result.output.replace("  ", " ")


def test_analyze_len8_1(runner):
    result = runner.invoke(main, ["analyze", "--input", "z4-len8-1"])
    assert result.exit_code == 0
    assert "shape 4*2^6" in result.output
    assert "type II: True" in result.output
    assert "min Euclidean weight: 8" in result.output


def test_analyze_json(runner):
    result = runner.invoke(main, ["analyze", "--input", "z4-len8-4", "--json"])
    assert result.exit_code == 0
    info = json.loads(result.output)
    assert info["shape"] == "4^4"
    assert info["extremal"] is True
    assert info["c0"] == {"dim": 4, "min_weight": 4}


def test_analyze_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0123\n01x3\n")
    result = runner.invoke(main, ["analyze", "--input", str(bad)])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_analyze_zero_code(runner, tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("0 0 0 0\n")
    result = runner.invoke(main, ["analyze", "--input", str(zero), "--json"])
    assert result.exit_code == 0, result.output
    info = json.loads(result.output)
    assert info["size"] == "1"
    assert info["min_euclidean_weight"] is None
    assert info["extremal"] is False


def test_analyze_twice_golay_pair(runner, tmp_path):
    # 2·(G⊕G), G the Golay code: C0 = G⊕G of dimension 24, C1 = 0
    g = gf2.golay24()
    rows = list(g.basis) + [b << 24 for b in g.basis]
    matrix = tmp_path / "twice-golay-pair.txt"
    matrix.write_text("".join(gf2.format_word(r, 48).replace("1", "2") + "\n" for r in rows))
    result = runner.invoke(main, ["analyze", "--input", str(matrix), "--json"])
    assert result.exit_code == 0, result.output
    info = json.loads(result.output)
    assert info["c0"] == {"dim": 24, "min_weight": 8}
    assert info["c1"] == {"dim": 0, "min_weight": None}
    assert info["min_euclidean_weight"] == 32
    assert info["size"] == "16777216"


def test_analyze_empty_file(runner, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    result = runner.invoke(main, ["analyze", "--input", str(empty)])
    assert result.exit_code != 0


def test_frame_case1(runner):
    result = runner.invoke(main, ["frame", "--input", "z4-len8-1", "--variant", "lattice"])
    assert result.exit_code == 0
    assert str(2**15 * factorial(16)) in result.output


def test_frame_json_roundtrip(runner, tmp_path):
    result = runner.invoke(
        main, ["frame", "--input", "z4-len8-4", "--variant", "orbifold", "--json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pointwise"] == {"a": 5, "b": 0}
    assert payload["dims"]["P"] == 5
    # re-ingest the printed matrix: identical report
    show = runner.invoke(main, ["catalog", "show", "z4-len8-4"])
    matrix = "\n".join(line for line in show.output.splitlines() if not line.startswith("#"))
    path = tmp_path / "code.txt"
    path.write_text(matrix)
    again = runner.invoke(
        main, ["frame", "--input", str(path), "--variant", "orbifold", "--json"]
    )
    assert again.exit_code == 0
    payload2 = json.loads(again.output)
    payload2["code_id"] = payload["code_id"]
    assert payload2 == payload


def test_frame_orbifold_refused_for_weight_two_torsion(runner):
    result = runner.invoke(main, ["frame", "--input", "z4-len8-1", "--variant", "orbifold"])
    assert result.exit_code != 0
    assert "min weight of C0 is 2" in result.output


def test_aut_binary_catalog(runner):
    result = runner.invoke(main, ["aut", "--input", "bin-hamming8", "--binary"])
    assert result.exit_code == 0
    assert "= 1344" in result.output


def test_aut_z4(runner):
    result = runner.invoke(main, ["aut", "--input", "z4-len8-3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["total_order"] == str(2**4 * 384)
    gens = payload["image_generators"]
    assert all(sorted(g) == list(range(1, 9)) for g in gens)


def test_aut_z4_residue_above_half_length(runner, tmp_path):
    # dim C1 = 5 > 9/2: the word graph takes its words from C1, not its dual
    path = tmp_path / "nine.txt"
    path.write_text("100001030\n010003303\n001003111\n000103223\n000011332\n")
    result = runner.invoke(main, ["aut", "--input", str(path), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["kernel_order"], payload["image_order"], payload["total_order"]) == (
        "2", "2", "4")


def test_no_library_path_takes_a_z4_dual(runner, tmp_path, monkeypatch):
    # torsion, the self-duality tests and the sign system read the residue
    # lifts: every frame report whose variant's hypotheses hold, analyze and
    # aut run on every catalog Z4-code, and on z4-len8-3 without its first
    # row (not self-dual, with 2-torsion), with z4_dual raising
    def no_dual(c):
        raise AssertionError("z4_dual called")

    monkeypatch.setattr(z4, "z4_dual", no_dual)
    path = tmp_path / "len8-3-rows-2-4.txt"
    path.write_text("1111 2000\n1320 1100\n2200 0000\n0220 0220\n")
    refs = [code_id for code_id in catalog.list_ids() if code_id.startswith("z4-")]
    reports = []
    for ref in refs + [str(path)]:
        code = catalog.get(ref).code() if ref in refs else z4.from_text(path.read_text())
        for variant in ("lattice", "orbifold"):
            try:
                frames.frame_report(code, variant)
            except VariantError:
                continue
            reports.append((ref, variant))
        for command in ("analyze", "aut"):
            result = runner.invoke(main, [command, "--input", ref, "--json"])
            assert result.exit_code == 0, (command, ref, result.output, result.exception)
    assert len(reports) == 12 and (str(path), "orbifold") not in reports


def test_aut_binary_file_input(runner, tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("110000\n001100\n000011\n")
    result = runner.invoke(main, ["aut", "--input", str(path), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "binary"
    assert payload["order"] == str(2**3 * 6)  # wreath of pairs: 2^3 * 3! = 48


def test_aut_file_kind_ignores_comment_digits(runner, tmp_path):
    # the 2 in the comment is no matrix entry: the code is binary
    path = tmp_path / "hamming8.txt"
    path.write_text("# extended Hamming code, table 2\n"
                    "10010110\n01010101\n00110011\n00001111\n")
    result = runner.invoke(main, ["aut", "--input", str(path), "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["kind"], payload["order"]) == ("binary", "1344")


UNREADABLE_INPUT_COMMANDS = [["analyze"], ["frame", "--variant", "lattice"], ["aut"]]


@pytest.mark.parametrize("args", UNREADABLE_INPUT_COMMANDS)
def test_directory_input_is_clean_error(runner, tmp_path, args):
    result = runner.invoke(main, [*args, "--input", str(tmp_path)])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: cannot read {tmp_path}: ")


@pytest.mark.parametrize("args", UNREADABLE_INPUT_COMMANDS)
def test_non_utf8_input_is_clean_error(runner, tmp_path, args):
    path = tmp_path / "code.txt"
    path.write_bytes(b"0123\n\xff\n")
    result = runner.invoke(main, [*args, "--input", str(path)])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: cannot read {path}: ")
    assert "decode" in result.output


def test_frame_enumerate_h_flag_is_gone(runner):
    result = runner.invoke(
        main, ["frame", "--input", "z4-len8-1", "--variant", "lattice", "--no-enumerate-h"]
    )
    assert result.exit_code == 2
    assert "No such option" in result.output and "--no-enumerate-h" in result.output


def test_aut_budget_exceeded(runner):
    # the partial group is built by Schreier-Sims from the generators found
    # within the budget
    autsearch._aut_binary.cache_clear()
    result = runner.invoke(
        main, ["aut", "--input", "bin-golay", "--binary", "--aut-budget", "10"]
    )
    assert result.exit_code == 1
    assert result.output == (
        "Error: search budget exceeded; partial group order 960 is a lower bound only\n"
    )


def test_aut_budget_z4_message_gives_kernel_and_image(runner):
    result = runner.invoke(
        main, ["aut", "--input", "z4-pseudo-golay-2", "--aut-budget", "120"]
    )
    assert result.exit_code == 1
    assert result.output == (
        "Error: search budget exceeded; sign kernel 2 times partial image order 1 "
        "= 2 is a lower bound only\n"
    )


def test_aut_budget_stop_in_the_subgroup_search(runner, tmp_path):
    # span{(2, 0, 1, 1, 1)} takes aut_z4's subgroup_search fallback, whose
    # first 5 nodes find generators of the whole image, of order 6; the code
    # has no frame, so frame cannot stop there
    path = tmp_path / "two-one.txt"
    path.write_text("2 0 1 1 1\n")
    autsearch._aut_binary.cache_clear()
    result = runner.invoke(main, ["aut", "--input", str(path), "--aut-budget", "5"])
    assert result.exit_code == 1
    assert result.output == (
        "Error: search budget exceeded; sign kernel 8 times partial image order 6 "
        "= 48 is a lower bound only\n"
    )


def test_frame_budget_message_matches_aut(runner):
    # frame stops in the same aut_z4 search as aut, and says so the same way;
    # a finished search is cached whatever its budget, so each starts from an
    # empty memo (C0 of z4-len8-4 has no twins, so its search takes nodes)
    for code_id, budget, expected in (
        ("z4-len8-4", "5", "sign kernel 2 times partial image order 24 = 48"),
        ("z4-pseudo-golay-2", "120", "sign kernel 2 times partial image order 1 = 2"),
    ):
        autsearch._aut_binary.cache_clear()
        frame = runner.invoke(main, ["frame", "--input", code_id, "--variant", "lattice",
                                     "--aut-budget", budget])
        autsearch._aut_binary.cache_clear()
        aut = runner.invoke(main, ["aut", "--input", code_id, "--aut-budget", budget])
        assert frame.exit_code == aut.exit_code == 1
        assert frame.output == aut.output == (
            f"Error: search budget exceeded; {expected} is a lower bound only\n"
        )


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_aut_budget_option_must_be_positive(runner, raw):
    for args in (["aut", "--input", "bin-hamming8", "--binary"],
                 ["frame", "--input", "z4-len8-1", "--variant", "lattice"]):
        result = runner.invoke(main, [*args, "--aut-budget", raw])
        assert result.exit_code == 2
        assert "Invalid value for '--aut-budget'" in result.output


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3"])
def test_aut_budget_env_must_be_positive_integer(runner, raw):
    # the variable is validated like the flag: a usage error that names it
    for args in (["aut", "--input", "bin-hamming8", "--binary"],
                 ["frame", "--input", "z4-len8-1", "--variant", "lattice"]):
        result = runner.invoke(main, args, env={"FRAMESTAB_AUT_BUDGET": raw})
        assert result.exit_code == 2
        assert "FRAMESTAB_AUT_BUDGET" in result.output
        assert raw in result.output


def test_aut_budget_env_sets_the_budget(runner):
    result = runner.invoke(main, ["aut", "--input", "bin-golay", "--binary"],
                           env={"FRAMESTAB_AUT_BUDGET": "10"})
    assert result.exit_code == 1
    assert "lower bound" in result.output


def test_checksum_failure_is_a_clean_error(runner, monkeypatch):
    monkeypatch.setitem(catalog._CHECKSUMS, "z4-len8-1", "0" * 16)
    for args in (["catalog", "show", "z4-len8-1"],
                 ["frame", "--input", "z4-len8-1", "--variant", "lattice"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output == "Error: catalog entry z4-len8-1 failed its checksum\n"
        assert isinstance(result.exception, SystemExit)


def test_catalog_show_bad_even_length(runner):
    result = runner.invoke(main, ["catalog", "show", "bin-even-x"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: unknown catalog id 'bin-even-x';")


@pytest.mark.parametrize("args", [["aut", "--input", "bin-even-1", "--binary"],
                                  ["aut", "--input", "bin-even-1"],
                                  ["catalog", "show", "bin-even-1"]])
def test_even_code_of_length_1_is_an_unknown_id(runner, args):
    # the even-weight code of length 1 is the zero code, which has no matrix
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith("Error: unknown catalog id 'bin-even-1';")
    assert "bin-even-N for N >= 2" in result.output
    assert isinstance(result.exception, SystemExit)


def test_catalog_entry_that_fails_to_parse_is_clean_error(runner, monkeypatch):
    entry = catalog.CatalogEntry(id="bad", kind="z4", matrix="1 2\n3", provenance="test")
    monkeypatch.setattr(catalog, "get", lambda ref: entry)
    for args in (["analyze", "--input", "bad"], ["aut", "--input", "bad"],
                 ["frame", "--input", "bad", "--variant", "lattice"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert result.output.startswith("Error: line "), (args, result.output)
        assert isinstance(result.exception, SystemExit), args


def test_frame_unknown_catalog_id(runner):
    result = runner.invoke(main, ["frame", "--input", "nope", "--variant", "lattice"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: unknown catalog id 'nope';")


def test_analyze_too_large_is_clean_error(runner, tmp_path):
    # a free code of length 32 and rank 16: |C| = 2^32 is above the scan cap
    big = tmp_path / "free32.txt"
    big.write_text("\n".join("0" * i + "1" + "0" * (31 - i) for i in range(16)) + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(big)])
    assert result.exit_code == 1
    assert result.output.startswith("Error: ")
    assert "above enumeration cap" in result.output


def test_aut_too_large_is_clean_error(runner, tmp_path):
    # a random [80, 40] binary code: neither side's weight classes are enumerable
    rng = random.Random(1)
    big = tmp_path / "rand80.txt"
    big.write_text("\n".join(
        "".join(rng.choice("01") for _ in range(80)) for _ in range(40)
    ) + "\n")
    result = runner.invoke(main, ["aut", "--input", str(big), "--binary"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: ")
    assert "enumeration cap" in result.output


@pytest.mark.parametrize("code_id", [f"z4-len8-{k}" for k in (1, 2, 3, 4)]
                         + ["z4-leech-standard", "z4-pseudo-golay-1"])
def test_aut_json_image_generators_generate_the_image(runner, code_id):
    result = runner.invoke(main, ["aut", "--input", code_id, "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    n = len(payload["image_generators"][0])
    gens = [tuple(x - 1 for x in g) for g in payload["image_generators"]]
    assert str(permgrp.PermGroup(n, gens).order()) == payload["image_order"]
