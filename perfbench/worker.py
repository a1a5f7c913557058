"""One fresh interpreter of the benchmark; ``run.py`` starts it.

    worker.py setup WORKLOAD
        time to import framestab.cli and load and checksum the workload's
        catalog entries
    worker.py run WORKLOAD SEED (--seconds S | --fixed) [--trace] [--cli]
        run rounds of the workload's ops: until the next round would end
        after S seconds (at least one round), or the workload's fixed
        number of traced rounds

Both time with ``clock.ProbeClock``: every time they report is scaled to
the reference CPU. Both print one JSON object as the last line of standard
output.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from clock import ProbeClock

OUT_DIR = Path(__file__).resolve().parent / "out"


def setup(workload: str, clock: ProbeClock) -> dict:
    started = time.perf_counter_ns()
    import framestab.cli  # noqa: F401
    from framestab import catalog

    import ops

    for code_id in ops.catalog_ids(workload):
        catalog.get(code_id).code()
    return {"setup_s": clock.scaled_s(started, time.perf_counter_ns())}


def run(workload: str, seed: int, seconds: float | None, traced: bool, cli: bool,
        clock: ProbeClock) -> dict:
    from framestab import catalog

    import ops

    rounds = ops.WORKLOADS[workload]["trace_rounds"] if seconds is None else None
    load_start = time.perf_counter_ns()
    codes = {code_id: catalog.get(code_id).code() for code_id in ops.catalog_ids(workload)}
    load_s = clock.scaled_s(load_start, time.perf_counter_ns())
    expected = ops.load_expected()
    op_list = ops.WORKLOADS[workload]["ops"]
    rng = random.Random(f"{workload}/{seed}")
    # collected before the tracer wraps the functions
    caches = [value for name, module in sys.modules.items() if name.startswith("framestab")
              for value in vars(module).values() if hasattr(value, "cache_clear")]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    op_times: list[float] = []  # scaled seconds, in the order the ops ran
    round_times: list[float] = []
    raw_round_times: list[float] = []  # wall seconds, to end the run in time
    failures: list[str] = []
    last_inputs: list[str] = []
    last_results: list = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        texts = ops.round_inputs(workload, rng, codes)
        results = []
        round_s = 0.0
        for op, text in zip(op_list, texts):
            op_id = len(op_times)
            fresh_start(caches)
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    result = ops.run_op(op, text)
                else:
                    result = tracer.op(op_id, ops.run_op, op, text)
            except Exception:  # a raised op is a failed op, never a fast one
                result = None
                failures.append(f"op {op_id} {ops.op_key(op)} raised:\n"
                                + traceback.format_exc(limit=3))
            op_times.append(clock.scaled_s(t0, time.perf_counter_ns()))
            if result is not None:
                bad = ops.mismatches(expected[ops.op_key(op)], result)
                if bad:
                    failures.append(f"op {op_id} {ops.op_key(op)} differs in {bad}")
            results.append(result)
            round_s += op_times[-1]
        round_times.append(round_s)
        raw_round_times.append(time.perf_counter() - round_started)
        last_inputs, last_results = texts, results
        if rounds is not None:
            if len(round_times) == rounds:
                break
        elif time.perf_counter() - started + statistics.median(raw_round_times) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "attempted": len(op_times),
        "failures": failures,
        "op_times": op_times,
        "round_times": round_times,
        "peak_rss_mb": peak_rss_mb,
        "slowdown": clock.slowdown(),
    }
    if tracer is not None:
        tracer.recording = False  # the CLI check is outside the traced ops
        out["trace"] = trace_summary(tracer, load_s)
        write_spans(workload, seed, tracer)
    if cli:
        fresh_start(caches)
        k = ops.WORKLOADS[workload]["cli_op"]
        invoke_s, problem = cli_check(workload, op_list[k], last_inputs[k], last_results[k],
                                      clock)
        out["attempted"] += 1
        if problem:
            failures.append(problem)
        out["cli_invoke_s"] = invoke_s
    return out


def fresh_start(caches: list) -> None:
    """Start the next op as a command-line call starts, outside its timing.

    A call starts with the package's memo caches empty (the lru_cache on
    z4._weight_scan holds up to 8 scans and their word lists) and with no
    garbage left by an earlier op.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()


def cli_check(workload: str, op, text: str, library_result,
              clock: ProbeClock) -> tuple[float, str | None]:
    """Repeat one op through the CLI; its JSON must equal the library's."""
    from click.testing import CliRunner
    from framestab.cli import main

    import ops

    kind, code_id, variant = op
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-cli-input.txt"
    path.write_text(text)
    if kind == "frame":
        args = ["frame", "--input", str(path), "--variant", variant, "--json"]
    else:
        args = ["analyze", "--input", str(path), "--json"]
    t0 = time.perf_counter_ns()
    result = CliRunner().invoke(main, args)
    invoke_s = clock.scaled_s(t0, time.perf_counter_ns())
    if result.exit_code != 0:
        return invoke_s, f"CLI {args[0]} exited {result.exit_code}: {result.output[-500:]}"
    got = json.loads(result.stdout)
    if library_result is None:
        return invoke_s, "CLI check has no library result: the op raised"
    want = {k: v for k, v in library_result.items() if k not in ops.NOT_IN_CLI_JSON}
    if kind == "frame":
        want["code_id"] = path.name
    else:
        want["id"] = path.name
    bad = ops.mismatches(want, got)
    return invoke_s, (f"CLI {args[0]} JSON differs from the library in {bad}" if bad else None)


# Per-layer metrics and the spans they read. A metric that reads a function
# which no longer exists (a later change renamed it) is left out of the
# result, so that it cannot read as a gain.
SELF_S = {
    "autsearch.refine.self_s": ["autsearch._refine"],
    "autsearch.aut_z4.self_s": ["autsearch.aut_z4"],
    "autsearch.aut_binary.self_s": ["autsearch.aut_binary"],
    "permgrp.build.self_s": ["permgrp.PermGroup", "permgrp.PermGroup._build",
                             "permgrp.PermGroup.extended"],
    "z4.weight_scan.self_s": ["z4._weight_scan"],
    "z4.howell.self_s": ["z4.torsion", "z4.residue", "z4.z4_dual", "z4.is_self_dual"],
    "z4.is_type_ii.self_s": ["z4.is_type_ii"],
    "frames.structure_codes.self_s": ["frames.structure_codes"],
    "frames.compute_p.self_s": ["frames.compute_p"],
    "frames.h_enum.self_s": ["frames.enumerate_h_lattice", "frames.enumerate_h_orbifold"],
    "frames.report.self_s": ["frames.frame_report"],
    "gf2.dual.self_s": ["gf2.dual"],
    "gf2.weight_words.self_s": ["gf2.weight_words"],
}
CALLS = {
    "autsearch.refine.calls": "autsearch._refine",
    "autsearch.aut_binary.calls": "autsearch.aut_binary",
    "permgrp.build.calls": "permgrp.PermGroup",
    "permgrp.extended.calls": "permgrp.PermGroup.extended",
    "permgrp.subgroup_search.calls": "permgrp.subgroup_search",
    "frames.compute_p.calls": "frames.compute_p",
    "gf2.dual.calls": "gf2.dual",
}
COUNTS = {  # counted when the named spans end
    "autsearch.generators": ["autsearch.automorphism_group"],
    "z4.weight_scan.words": ["z4._weight_scan"],
    "frames.h_count": ["frames.enumerate_h_lattice", "frames.enumerate_h_orbifold"],
    "frames.aut_c_ran": ["frames.frame_report"],
}
RATIOS = {  # name -> (numerator, denominator, scale); 0 when the denominator is 0
    "autsearch.refine.us_per_call": ("autsearch.refine.self_s", "autsearch.refine.calls", 1e6),
    "z4.weight_scan.words_per_s": ("z4.weight_scan.words", "z4.weight_scan.self_s", 1),
}


def trace_summary(tracer, load_s: float) -> dict:
    """Per-layer metrics of a traced run, without those that read an absent span."""
    import tracing

    metrics: dict = {}
    for name, spans in SELF_S.items():
        metrics[name] = sum(tracer.self_ns[s] for s in spans) / 1e9
    for name, span in CALLS.items():
        metrics[name] = tracer.calls[span]
    for name in COUNTS:
        metrics[name] = tracer.counts[name]
    for name, (num, den, scale) in RATIOS.items():
        metrics[name] = metrics[num] / metrics[den] * scale if metrics[den] else 0.0
    layers = tracer.layer_self_ns()
    for layer, ns in layers.items():
        metrics[f"layer.{layer}.self_s"] = ns / 1e9
    wall_ns = tracer.wall_ns()
    metrics["trace.unattributed_s"] = tracer.self_ns[tracing.OP] / 1e9
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.spans"] = len(tracer.spans)
    metrics["catalog.load_s"] = load_s
    if sum(layers.values()) + tracer.self_ns[tracing.OP] != wall_ns:
        raise AssertionError("layer self times do not add up to the traced wall time")

    reads = {**SELF_S, **{name: [span] for name, span in CALLS.items()}, **COUNTS}
    absent = set(tracer.absent)
    gone = {name for name, spans in reads.items() if absent.intersection(spans)}
    gone |= {name for name, (num, den, _) in RATIOS.items() if {num, den} & gone}
    return {"metrics": {k: v for k, v in metrics.items() if k not in gone},
            "absent": tracer.absent}


def write_spans(workload: str, seed: int, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
                             "absent": tracer.absent}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload")
    p_run = sub.add_parser("run")
    p_run.add_argument("workload")
    p_run.add_argument("seed", type=int)
    limit = p_run.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--fixed", action="store_true")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--cli", action="store_true")
    args = parser.parse_args(argv)
    clock = ProbeClock()
    clock.start()
    try:
        if args.mode == "setup":
            out = setup(args.workload, clock)
        else:
            out = run(args.workload, args.seed, args.seconds, args.trace, args.cli, clock)
    finally:
        clock.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
