"""Benchmark of framestab: frame reports and extremality scans on seeded inputs.

    python3 perfbench/run.py --workload frames-e8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every workload is a closed loop: one client
in one process, no threads, each op issued after the previous one ends.
Each run starts its worker in a fresh interpreter, as a command-line user
pays every cost on every call, and removes FRAMESTAB_AUT_BUDGET from its
environment so that no search stops early. The worker runs no threads:
OPENBLAS_NUM_THREADS=1 keeps numpy from starting any. Its PYTHONHASHSEED is
the run's seed, and glibc never hands its heap back to the kernel
(MALLOC_TRIM_THRESHOLD_), so that a run does not pay for page faults by
the luck of its memory layout.

Each worker times with ``clock.ProbeClock``, so that every time it reports
is scaled to a reference CPU and the host's other tenants move it little. With ``--trace 0`` the run prints the end-to-end
metrics: set-up time (median of several fresh interpreters), the median
time of one round of the workload's ops, per-op latency percentiles, the
share of ops that succeeded and the worker's peak resident memory. With ``--trace 1`` it runs
a fixed number of rounds untraced and then traced, and prints per-layer self
times and exact counts; the spans go to ``perfbench/out/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Workload design: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the timed worker, and again after it
DEADLINE_S = 170  # a run must end within 180 s


class RunFailed(Exception):
    pass


def worker(args: list[str], seed: int, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.pop("FRAMESTAB_AUT_BUDGET", None)
    # string hashing sets the order of sets and dicts of strings; the run's
    # seed fixes it, so that a seed repeats its run
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # framestab does no linear algebra through numpy; numpy's BLAS would start
    # a thread per CPU at import, and set-up time would then depend on whether
    # the other CPU is free
    env["OPENBLAS_NUM_THREADS"] = "1"
    # glibc hands the top of its heap back to the kernel once enough of it is
    # free. Whether a freed block ends at the top depends on where small blocks
    # happened to land, which moves with the hash seed and the environment:
    # a frames-len24 round then took 0.05 or 3.7 million page faults (0.1 or
    # 7.4 s of system time) from seed to seed, most of them from re-mapping
    # the 4.6 MB numpy temporaries of autsearch._refine on pseudo-golay-2.
    # With trimming off it takes 0.04 million on every seed.
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker {args} passed the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    # set-up probes before and after the timed worker, so that their median
    # spans the run rather than one moment of the machine's load
    probe = ["setup", workload]
    setup = [worker(probe, seed, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    got = worker(["run", workload, str(seed), "--seconds", str(seconds), "--cli"], seed,
                 deadline)
    setup += [worker(probe, seed, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    ops = got["op_times"]
    ok = got["attempted"] - len(got["failures"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(got["round_times"]),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": statistics.quantiles(ops, n=10, method="inclusive")[8],
        "ok_frac": ok / got["attempted"],
        "peak_rss_mb": got["peak_rss_mb"],
    }
    return got, metrics


def per_layer(workload: str, seed: int, deadline: float):
    plain = worker(["run", workload, str(seed), "--fixed"], seed, deadline)
    got = worker(["run", workload, str(seed), "--fixed", "--trace", "--cli"], seed, deadline)
    metrics = got["trace"]["metrics"]
    metrics["cli.invoke_s"] = got["cli_invoke_s"]
    metrics["trace.overhead_frac"] = sum(got["op_times"]) / sum(plain["op_times"])
    metrics["clock.slowdown"] = got["slowdown"]
    for name in got["trace"]["absent"]:
        print(f"traced function {name} no longer exists; the metrics that read it are "
              "left out", file=sys.stderr)
    got["attempted"] += plain["attempted"]
    got["failures"] += plain["failures"]
    return got, metrics


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and the metrics, with their units
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "framestab" / "__init__.py").is_file():
        print(f"no framestab sources under {SRC}; run from a framestab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            got, metrics = per_layer(args.workload, args.seed, deadline)
            units = {m["name"]: m["unit"] for m in config["per_layer"]}
        else:
            got, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    except RunFailed as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    for failure in got["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not got["failures"],
        "attempted": got["attempted"],
        "failed": len(got["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
