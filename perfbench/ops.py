"""Workloads of the benchmark: their operations, seeded inputs and checks.

An operation starts the way a command-line user starts: from matrix text.
The text is a catalog Z4-code with its coordinates permuted, its coordinate
signs flipped and its rows shuffled, all drawn from the workload seed. The
timed call parses the text with ``z4.from_text`` and calls the public entry
point. Frame reports and analyses are invariant under these relabelings, so
every result must equal the reference for the unrelabeled catalog code
stored in ``expected.json``.
"""

from __future__ import annotations

import json
import random
from math import factorial
from pathlib import Path

from framestab import frames, gf2, z4

# name -> ops per round, rounds in a traced run, index of the op the CLI repeats
WORKLOADS = {
    "frames-e8": {
        "ops": [
            ("frame", "z4-len8-1", "lattice"),
            ("frame", "z4-len8-2", "lattice"),
            ("frame", "z4-len8-3", "lattice"),
            ("frame", "z4-len8-4", "lattice"),
            ("frame", "z4-len8-4", "orbifold"),
        ],
        "trace_rounds": 30,
        "cli_op": 4,
    },
    "frames-len24": {
        "ops": [
            ("frame", "z4-pseudo-golay-1", "orbifold"),
            ("frame", "z4-pseudo-golay-2", "orbifold"),
            ("frame", "z4-leech-standard", "orbifold"),
            ("frame", "z4-leech-standard", "lattice"),
        ],
        "trace_rounds": 1,
        "cli_op": 2,
    },
    "analyze-len24": {
        "ops": [
            ("analyze", "z4-pseudo-golay-1", None),
            ("analyze", "z4-leech-standard", None),
        ],
        "trace_rounds": 1,
        "cli_op": 1,
    },
}

# The README's headline table, written as the products it states. For
# z4-len8-4 the table's 1344 is |Aut image|; the consistent total |Aut| of
# that code is 2688, because the sign kernel always holds global negation.
HEADLINE_STAB = {
    "z4-len8-1/lattice": 2**15 * factorial(16),
    "z4-len8-4/lattice": 2**9 * 2**8 * 1344,
    "z4-len8-4/orbifold": 2**5 * 322560,
    "z4-pseudo-golay-1/orbifold": 2**13 * 2**12 * 6072,
    "z4-leech-standard/orbifold": 2**27 * 2**12 * 120960,
}
HEADLINE_AUT_TOTAL = {"z4-len8-4/lattice": 2688, "z4-len8-4/orbifold": 2688}

# Every analyzed code is Type II and extremal with minimum Euclidean weight 16.
MIN_WEIGHT_WORDS = {"z4-pseudo-golay-1": 98256, "z4-leech-standard": 95610}


def op_key(op) -> str:
    kind, code_id, variant = op
    return f"{code_id}/{variant}" if kind == "frame" else f"{code_id}/analyze"


def catalog_ids(workload: str) -> list[str]:
    return sorted({code_id for _, code_id, _ in WORKLOADS[workload]["ops"]})


def load_expected() -> dict:
    """Reference results, checked against the headline table before use."""
    expected = json.loads((Path(__file__).with_name("expected.json")).read_text())
    for key, stab in HEADLINE_STAB.items():
        if int(expected[key]["stab_order"]) != stab:
            raise ValueError(f"expected.json disagrees with the headline table at {key}")
    for key, total in HEADLINE_AUT_TOTAL.items():
        if int(expected[key]["aut"]["z4_total"]) != total:
            raise ValueError(f"expected.json disagrees with |Aut| = {total} at {key}")
    for code_id, count in MIN_WEIGHT_WORDS.items():
        got = expected[f"{code_id}/analyze"]
        if (got["min_weight_words"], got["min_euclidean_weight"], got["type_ii"],
                got["extremal"]) != (count, 16, True, True):
            raise ValueError(f"expected.json has a wrong extremality record for {code_id}")
    return expected


def relabel(code: z4.Z4Code, rng: random.Random) -> str:
    """Matrix text of a random monomial relabeling of the code."""
    n = code.length
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, 3)) for _ in range(n)]
    rows = []
    for row in code.basis:
        out = [0] * n
        for i, d in enumerate(row):
            out[perm[i]] = d * signs[i] % 4
        rows.append(" ".join(map(str, out)))
    rng.shuffle(rows)
    return "\n".join(rows) + "\n"


def round_inputs(workload: str, rng: random.Random, codes: dict) -> list[str]:
    return [relabel(codes[code_id], rng) for _, code_id, _ in WORKLOADS[workload]["ops"]]


def analysis(code: z4.Z4Code) -> dict:
    """What ``framestab analyze`` computes, plus the minimum-word count."""
    c0, c1 = z4.torsion(code), z4.residue(code)
    type_ii = z4.is_type_ii(code)
    min_w = z4.min_euclidean_weight(code)
    return {
        "length": code.length,
        "size": str(code.size()),
        "shape": z4.group_shape(code),
        "c0": {"dim": c0.dim, "min_weight": gf2.min_weight(c0) if c0.dim else None},
        "c1": {"dim": c1.dim, "min_weight": gf2.min_weight(c1) if c1.dim else None},
        "self_orthogonal": z4.is_self_orthogonal(code),
        "self_dual": z4.is_self_dual(code),
        "type_ii": type_ii,
        "min_euclidean_weight": min_w,
        "extremal": type_ii and min_w == 8 * (code.length // 24 + 1),
        "min_weight_words": len(z4.min_weight_words(code)),
    }


# fields of a result that the CLI's JSON does not carry
NOT_IN_CLI_JSON = ("h_count_by_index", "aut_c", "stab_factored", "min_weight_words")


def report_record(report: frames.FrameReport) -> dict:
    """The JSON report plus the fields it leaves out."""
    record = report.to_json()
    record["h_count_by_index"] = (
        None if report.h_count_by_index is None else str(report.h_count_by_index)
    )
    record["aut_c"] = None if report.aut_c is None else str(report.aut_c)
    record["stab_factored"] = report.stab_factored
    return record


def execute(op, code: z4.Z4Code) -> dict:
    kind, code_id, variant = op
    if kind == "frame":
        return report_record(frames.frame_report(code, variant, code_id=code_id))
    return analysis(code)


def run_op(op, text: str) -> dict:
    """The timed operation: parse the matrix text, call the entry point."""
    return execute(op, z4.from_text(text))


def mismatches(want: dict, got: dict) -> list[str]:
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
