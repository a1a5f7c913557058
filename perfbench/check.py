"""Checks of the benchmark itself; run from the root of a checkout.

    python3 perfbench/check.py spread
        runs every workload with seeds 1..10 and prints, per end-to-end
        metric, the median and the spread (quartile distance over median)
        against the metric's bound in BENCHMARK.json. The medians are kept
        in perfbench/out/spread.json; when an earlier set is there, each
        median must also be no worse than the earlier one by more than the
        bound. Run it twice to compare two sets.
    python3 perfbench/check.py repeat
        runs each traced workload twice with seed 1 and requires every
        count to repeat exactly

Exits 1 when a spread passes its bound, a median is worse than the earlier
set's by more than its bound, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEDIANS = Path(__file__).resolve().parent / "out" / "spread.json"
RUNS = 10
SEED = 1


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return result


def spread(config: dict, workloads: list[str]) -> bool:
    values: dict[tuple[str, str], list[float]] = {}
    for seed in range(1, RUNS + 1):  # workloads interleaved, as machine load drifts
        for workload in workloads:
            got = bench(workload, seed, 0, config["run_seconds"])["metrics"]
            for name, metric in got.items():
                values.setdefault((workload, name), []).append(metric["value"])
    earlier = json.loads(MEDIANS.read_text()) if MEDIANS.is_file() else {}
    medians = {}
    ok = True
    for workload in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload, name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            medians[f"{workload}/{name}"] = med
            notes = [] if share <= bound else ["SPREAD OVER"]
            before = earlier.get(f"{workload}/{name}")
            if before is not None:
                worse = (med - before if metric["better"] == "lower" else before - med) / before
                notes.append(f"vs earlier {worse:+.4f}")
                if worse > bound:
                    notes.append("WORSE OVER")
            ok &= not any(note.endswith("OVER") for note in notes)
            print(f"{workload:14s} {name:12s} median {med:.6g} spread {share:.4f} "
                  f"bound {bound}  {' '.join(notes)}  {[round(v, 4) for v in vals]}")
    MEDIANS.parent.mkdir(exist_ok=True)
    MEDIANS.write_text(json.dumps(medians, indent=1) + "\n")
    return ok


def repeat(config: dict, workloads: list[str]) -> bool:
    counts = [m["name"] for m in config["per_layer"] if m["unit"] == "count"]
    ok = True
    for workload in workloads:
        first, second = (bench(workload, SEED, 1, config["run_seconds"])["metrics"]
                         for _ in range(2))
        differ = [n for n in counts if first.get(n) != second.get(n)]
        ok &= not differ
        print(f"{workload}: {len(counts) - len(differ)} of {len(counts)} counts repeat"
              + (f"; differ: {differ}" if differ else ""))
        for name in counts:
            print(f"  {name} = {first[name]['value'] if name in first else 'absent'}")
    return ok


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=("spread", "repeat"))
    args = parser.parse_args()
    workloads = [w["name"] for w in config["workloads"]]
    ok = (spread if args.check == "spread" else repeat)(config, workloads)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
