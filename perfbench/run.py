#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload jit_mns --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced pass and then a traced pass over the same inputs, prints the
per-layer metrics and writes the traced pass's spans as Chrome trace JSON
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least ``SETUPS``, then more while their summed time
#: stays under ``SETUP_BUDGET_S``, up to ``MAX_SETUPS``; ``setup_s`` is their
#: median.  A sync set-up takes milliseconds and a process one a third of a
#: second, so the sync workloads make ~100 and ``shared_proc`` ~14.
SETUPS = 7
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 105
#: Run length of the self-check, seconds.
SELF_CHECK_SECONDS = 1

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="show that a clean run passes the oracle check and a run with one "
        "dropped result fails it",
    )
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _prepare(name: str, seed: int, seconds: int):
    from perfbench.oracle import reference_digests
    from perfbench.workloads import make_inputs, WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, seed, seconds)
    oracle = reference_digests(inputs.queries, inputs.stream, workload.window_s, inputs.cuts)
    # The inputs live for the whole run but belong to the load generator, not
    # the server: keep the collector from traversing them (and from copying
    # their pages into forked shard workers by touching them).
    gc.collect()
    gc.freeze()
    return inputs, oracle


def _describe(result, inputs) -> None:
    from perfbench.cores import REFERENCE_LOOP_S
    from perfbench.harness import nearest_rank

    print(
        f"# {result.workload}: {inputs.n_warm} warm-up events, then {len(result.latencies)} "
        f"rounds of closed-loop and open-loop segments ({inputs.n_closed} and {inputs.n_open} "
        f"events in all, open loop at {inputs.workload.rate:g}/s)"
    )
    picks = ", ".join(f"cpu {cpu} {n} times" for cpu, n in sorted(result.cores.picks.items()))
    print(f"# pinned before each timed piece to the fastest core: {picks or 'never (process workers)'}")
    rates = result.segment_rates
    print("# closed-loop rates: " + ", ".join(f"{r:.1f}" for r in rates) + " ev/s")
    loops = result.segment_loop + result.setup_loop + result.open_loop
    if loops:
        print(
            f"# core loop time (perfbench/cores.py): median {statistics.median(loops) * 1e3:.3f} ms, "
            f"range {min(loops) * 1e3:.3f}-{max(loops) * 1e3:.3f} ms; metrics scaled to "
            f"{REFERENCE_LOOP_S * 1e3:g} ms"
        )
    print(
        f"# closed-loop rate, median of {len(rates)} parts: {statistics.median(rates):.1f} ev/s "
        f"as timed, {result.events_per_s:.1f} ev/s scaled"
    )
    per_round = ", ".join(
        f"{len(got)} (p99 {nearest_rank(got, 0.99) * 1e3:.3f} ms)" for got in result.latencies
    )
    print(f"# open-loop results per round: {per_round}")
    pooled = [x for got in result.latencies for x in got]
    for label, got in (("as timed", pooled), ("scaled", result.scaled_latencies())):
        print(
            f"# open-loop latency {label}, {len(got)} results: p50 {nearest_rank(got, 0.5) * 1e3:.3f} ms, "
            f"p99 {nearest_rank(got, 0.99) * 1e3:.3f} ms ({len(got) // 100} beyond it), "
            f"max {max(got) * 1e3:.3f} ms"
        )
    print(
        f"# generator lateness p99 {result.lateness_p99 * 1e3:.3f} ms; backlog growing in "
        f"{result.backlog_growing} of {len(result.lateness)} open-loop segments"
    )
    times = result.setup_times
    print(
        f"# {len(times)} set-ups: median {statistics.median(times):.4f} s as timed, "
        f"{result.setup_s:.4f} s scaled, max {max(times):.4f} s"
    )
    for failure in result.failures[:20]:
        print(f"# FAILED {failure}")


def run(args) -> dict:
    from perfbench.harness import serve_run
    from perfbench.layers import PER_LAYER_UNITS, Recorder, derive

    inputs, oracle = _prepare(args.workload, args.seed, args.seconds)
    result = serve_run(
        inputs, oracle, setups=SETUPS, setup_budget_s=SETUP_BUDGET_S, max_setups=MAX_SETUPS
    )
    _describe(result, inputs)
    attempted, failed = result.attempted, result.failed
    if args.trace:
        recorder = Recorder()
        traced = serve_run(inputs, oracle, setups=1, recorder=recorder)
        for failure in traced.failures[:20]:
            print(f"# FAILED (traced pass) {failure}")
        attempted += traced.attempted
        failed += traced.failed
        values = derive(result, traced)
        units = PER_LAYER_UNITS
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write_chrome_trace(path)
        print(f"# trace: {len(recorder.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        values = result.end_to_end()
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _lose_first_dispatch(stack) -> None:
    """Make the engine's drain backend discard the first event it is given."""
    backend = stack.engine._backend
    dispatch = backend.dispatch
    lost = [False]

    def dispatch_but_first(shard_id, item, trace_ctx=None, watermark=0.0):
        if not lost[0]:
            lost[0] = True
            return
        dispatch(shard_id, item, trace_ctx, watermark)

    backend.dispatch = dispatch_but_first


def self_check() -> bool:
    """A clean run passes; a run with one result dropped, or one event lost
    on its way to a shard, fails."""
    from perfbench.harness import serve_run

    inputs, oracle = _prepare("fanout_ref", 1, SELF_CHECK_SECONDS)
    clean = serve_run(inputs, oracle, setups=1)
    victim = next(qid for qid, digests in oracle.items() if digests[0].count)
    dropped = serve_run(inputs, oracle, setups=1, drop=victim)
    lost = serve_run(inputs, oracle, setups=1, tamper=_lose_first_dispatch)
    print(f"# clean run: {clean.attempted} attempted, {clean.failed} failed")
    print(f"# one result of {victim} dropped: {dropped.attempted} attempted, {dropped.failed} failed")
    for failure in dropped.failures:
        print(f"#   {failure}")
    print(f"# one event lost before its shard: {lost.attempted} attempted, {lost.failed} failed")
    for failure in lost.failures[-1:]:
        print(f"#   {failure}")
    ok = (
        clean.failed == 0
        and dropped.failed == 1
        and dropped.failures[0].startswith(victim)
        and lost.failures[-1].startswith("events:")
        and " 1 of " in lost.failures[-1]
    )
    print("self-check passed" if ok else "self-check FAILED")
    return ok


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.self_check:
        return 0 if self_check() else 1
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
