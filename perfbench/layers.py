"""Per-layer accounting for the traced run: spans, counts and their metrics.

The program is not changed for tracing.  :func:`instrument` replaces, on the
live objects of one served stack, the public methods where one layer calls
the next (``StreamServer.submit``, ``ShardedEngine.submit``, the drain
backend's ``dispatch``/``barrier``/``deliver_results``, each shard's
``process_event``, the scheduler's ``pop_next``, every operator's
``process``, every queue's ``push``/``pop``, every window state's
``insert``/``purge``/``probe_key`` and the JIT structures) with wrappers that
record a span: name, start, end, parent span and the id of the event being
ingested.  A layer's self time is its spans' time minus their children's.
Counts come from the program's own models (``shard.metrics().counters``,
``join_operators[*].stats``), read as deltas over the measured phases.

In process mode the operators run in worker processes, out of reach of these
wrappers: there the per-layer numbers are the parent's spans, worker CPU read
from ``/proc`` and the counters the workers ship with every barrier.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional

from repro.core.jit_join import JITJoinOperator
from repro.operators.join import BinaryJoinOperator
from repro.operators.tee import TeeOperator
from repro.trace.tracer import validate_chrome_trace

#: Spans kept for the Chrome trace; time and counts cover every span.
MAX_SPANS = 100_000

#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.self_us_per_event": "us",
    "serve.buffer_wait_ms_p50": "ms",
    "serve.scrape_ms_p50": "ms",
    "serve.backpressure_total": "count",
    "multi.self_us_per_event": "us",
    "multi.dispatches_per_event": "count",
    "multi.router_dropped_total": "count",
    "backend.dispatch_us_per_event": "us",
    "backend.bytes_out_per_event": "bytes",
    "backend.acks_total": "count",
    "backend.results_per_ack": "count",
    "backend.result_bytes_per_result": "bytes",
    "backend.barrier_ms": "ms",
    "backend.worker_busy_ratio": "ratio",
    "backend.worker_skew": "ratio",
    "backend.parent_busy_ratio": "ratio",
    "shard.drain_us_per_event": "us",
    "scheduler.steps_per_event": "count",
    "scheduler.pop_us": "us",
    "scheduler.boosts_per_kevent": "count",
    "operators.join_us_per_event": "us",
    "operators.state_us_per_event": "us",
    "operators.insert_per_event": "count",
    "operators.purge_per_event": "count",
    "operators.purge_calls_per_event": "count",
    "operators.probe_steps_per_event": "count",
    "operators.queue_ops_per_event": "count",
    "operators.queue_us_per_event": "us",
    "operators.results_built_per_event": "count",
    "operators.useful_result_ratio": "ratio",
    "operators.tee_deliveries_per_event": "count",
    "operators.state_peak_kb": "KiB",
    "core.lattice_nodes_per_event": "count",
    "core.blacklist_scans_per_event": "count",
    "core.feedback_msgs_per_event": "count",
    "core.detect_us_per_event": "us",
    "core.blacklist_us_per_event": "us",
    "core.suspensions_per_kevent": "count",
    "core.resumed_per_suspended": "ratio",
    "plans.register_ms": "ms",
    "setup.host_ms": "ms",
    "setup.spawn_ms": "ms",
    "serve.init_ms": "ms",
    "load.lateness_p99_ms": "ms",
    "load.backlog_growing": "count",
    "trace.events_per_s_ratio": "ratio",
    "trace.spans_total": "count",
}


class Recorder:
    """Spans recorded around calls into the program, kept in memory.

    Wrappers are installed once and stay cheap while :attr:`on` is false.
    Each thread keeps its own span stack and totals (the process backend
    delivers results on its reader threads), merged when read.
    """

    def __init__(self) -> None:
        self.on = False
        #: Index of the event being ingested; set by the load generator.
        self.event_id: Optional[int] = None
        self.spans: List[tuple] = []
        self.durations: Dict[str, List[float]] = {}
        #: Seconds each event spent in the ingestion buffer, from the end
        #: of ``StreamServer.submit`` to the start of ``ShardedEngine.submit``.
        self.buffer_waits: List[float] = []
        #: Buffer waits are kept only while this is set: in the open loop,
        #: where they add to result latency.
        self.open_phase = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[tuple] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._epoch = time.perf_counter()

    def _thread_state(self) -> tuple:
        state = getattr(self._local, "state", None)
        if state is None:
            # (span stack, name -> [calls, total s, self s], counters)
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, obj, attr: str, name: str, keep_durations: bool = False) -> None:
        """Replace ``obj.attr`` with a wrapper recording a span named ``name``."""
        inner = getattr(obj, attr)
        recorder = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not recorder.on:
                return inner(*args, **kwargs)
            stack, totals, _counts = recorder._thread_state()
            span_id = next(recorder._ids)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                cell = totals.get(name)
                if cell is None:
                    cell = totals[name] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[0]
                if keep_durations:
                    recorder.durations.setdefault(name, []).append(elapsed)
                if len(recorder.spans) < MAX_SPANS:
                    tid = threading.get_ident()
                    event = recorder.event_id if tid == recorder._main else None
                    recorder.spans.append((name, tid, start, end, span_id, parent, event))

        setattr(obj, attr, traced)

    def count(self, key: str, amount: float) -> None:
        counts = self._thread_state()[2]
        counts[key] = counts.get(key, 0) + amount

    def probe(self, key: str, payload) -> None:
        """Count ``payload``'s pickled size under ``key``, inside a child span.

        The probe runs as its own span so its time is subtracted from the
        caller's self time instead of inflating it.
        """
        stack = self._thread_state()[0]
        start = time.perf_counter()
        self.count(key, len(ForkingPickler.dumps(payload)))
        if stack:
            stack[-1][0] += time.perf_counter() - start

    def totals(self) -> Dict[str, List[float]]:
        """Merged ``name -> [calls, total seconds, self seconds]``."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._threads)
        for _stack, totals, _counts in states:
            for name, (calls, total, self_s) in totals.items():
                cell = merged.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += total
                cell[2] += self_s
        return merged

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            states = list(self._threads)
        for _stack, _totals, counts in states:
            for key, value in counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (complete ``X`` spans)."""
        tids: Dict[int, int] = {}
        records = []
        for name, tid, start, end, span_id, parent, event in self.spans:
            records.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tids.setdefault(tid, len(tids)),
                    "ts": (start - self._epoch) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"span": span_id, "parent": parent, "event": event},
                }
            )
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Validate and write the kept spans to ``path``."""
        trace = validate_chrome_trace(self.chrome_trace())
        with open(path, "w") as handle:
            json.dump(trace, handle)


def _operators_and_queues(shard):
    """Every operator and input queue hosted on a local shard."""
    templates = [t for runtime in shard.runtimes for t in runtime.templates]
    for shared in shard.shared_subplans():
        templates.extend(shared.templates)
    operators = {id(t.operator): t.operator for t in templates}
    queues = {id(t.queue): t.queue for t in templates}
    return list(operators.values()), list(queues.values())


def _wrap_jit(recorder: Recorder, op: JITJoinOperator) -> None:
    for detector in op.detectors.values():
        if detector is None:
            continue
        for attr in ("start", "observe", "finish", "note_opposite_insert", "note_opposite_remove"):
            recorder.wrap(detector, attr, "core.detect")
    for blacklist in op.blacklists.values():
        for attr in ("match_arrival", "add_suspended", "ensure_entry", "pop_entry", "purge"):
            recorder.wrap(blacklist, attr, "core.blacklist")
    for buffer in op.mns_buffers.values():
        for attr in ("add", "remove", "match", "purge", "blocks_suspension"):
            recorder.wrap(buffer, attr, "core.mns_buffer")
    recorder.wrap(op, "produce_suspended", "core.blacklist")
    recorder.wrap(op, "handle_feedback", "core.feedback")


def instrument(recorder: Recorder, server, engine) -> None:
    """Install span wrappers on every layer of one served stack."""
    accepted: Dict[int, float] = {}
    clock = time.perf_counter
    server_submit = server.submit
    engine_submit = engine.submit

    def submit_stamped(event) -> bool:
        admitted = server_submit(event)
        if recorder.on:
            accepted[id(event)] = clock()
        return admitted

    def submit_waited(event) -> None:
        offered = accepted.pop(id(event), None)
        if offered is not None and recorder.open_phase:
            recorder.buffer_waits.append(clock() - offered)
        engine_submit(event)

    server.submit = submit_stamped
    engine.submit = submit_waited
    recorder.wrap(server, "submit", "serve.submit")
    recorder.wrap(server, "drain", "serve.drain")
    recorder.wrap(server, "flush", "serve.flush")
    recorder.wrap(server, "exposition", "serve.scrape", keep_durations=True)
    recorder.wrap(engine, "submit", "multi.submit")
    recorder.wrap(engine, "flush", "multi.flush")
    # The drain backend (inline or process) is the engine's transport layer;
    # the engine holds it privately and exposes no other handle on it.
    backend = engine._backend
    if engine.drain_mode == "process":
        dispatch = backend.dispatch
        deliver = backend.deliver_results

        def dispatch_counted(shard_id, item, trace_ctx=None, watermark=0.0):
            dispatch(shard_id, item, trace_ctx, watermark)
            op = "batch" if isinstance(item, list) else "evt"
            recorder.probe("backend.bytes_out", (op, item, trace_ctx, watermark))

        def deliver_counted(results):
            deliver(results)
            recorder.count("backend.results", len(results))
            recorder.probe("backend.result_bytes", results)

        backend.dispatch = dispatch_counted
        backend.deliver_results = deliver_counted
        recorder.wrap(backend, "deliver_results", "backend.deliver")
    recorder.wrap(backend, "dispatch", "backend.dispatch")
    recorder.wrap(backend, "barrier", "backend.barrier", keep_durations=True)
    if engine.drain_mode == "process":
        return
    for shard in engine.shards:
        recorder.wrap(shard, "process_event", "shard.drain")
        recorder.wrap(shard, "process_batch", "shard.drain")
        recorder.wrap(shard.scheduler, "pop_next", "scheduler.pop")
        operators, queues = _operators_and_queues(shard)
        for queue in queues:
            recorder.wrap(queue, "push", "operators.queue")
            recorder.wrap(queue, "pop", "operators.queue")
        for op in operators:
            if isinstance(op, BinaryJoinOperator):
                recorder.wrap(op, "process", "operators.join")
                for state in op.states.values():
                    recorder.wrap(state, "insert", "operators.state.insert")
                    recorder.wrap(state, "purge", "operators.state.purge")
                    recorder.wrap(state, "probe_key", "operators.state.probe")
                if isinstance(op, JITJoinOperator):
                    _wrap_jit(recorder, op)
            elif isinstance(op, TeeOperator):
                recorder.wrap(op, "process", "operators.tee")
            else:
                recorder.wrap(op, "process", "operators.other")


def layer_counts(engine, feedback: Dict[str, int]) -> Dict[str, float]:
    """Cumulative counts of every layer; diff two of them for a phase.

    ``feedback`` holds the suspension/resumption totals shipped by process
    workers (local shards report them through their join operators).
    """
    counts: Dict[str, float] = {}
    state_peak = 0
    for shard in engine.shards:
        report = shard.metrics()
        for kind, value in report.counters.items():
            counts[kind] = counts.get(kind, 0) + value
        state_peak += report.peak_memory_by_category.get("state", 0)
        for key, value in shard.scheduler.stats().items():
            counts[f"sched.{key}"] = counts.get(f"sched.{key}", 0) + value
    counts["state_peak_bytes"] = state_peak
    if engine.drain_mode == "process":
        counts["suspensions"] = feedback["suspensions"]
        counts["resumptions"] = feedback["resumptions"]
        return counts
    suspensions = resumptions = tee = 0
    for shard in engine.shards:
        plans = [runtime.plan for runtime in shard.runtimes if runtime.plan is not None]
        for shared in shard.shared_subplans():
            plans.append(shared.plan)
            tee += shared.tee.delivered_count
        for plan in plans:
            for op in plan.join_operators:
                stats = getattr(op, "stats", None)
                if stats:
                    suspensions += stats["suspensions_sent"]
                    resumptions += stats["resumptions_sent"]
    counts["suspensions"] = suspensions
    counts["resumptions"] = resumptions
    counts["tee_deliveries"] = tee
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(untraced, traced) -> Dict[str, float]:
    """Per-layer metrics from an untraced run and a traced run of one input.

    Times and span counts come from ``traced``; CPU shares, generator
    lateness and the tracing overhead compare it with ``untraced``.
    """
    rec: Recorder = traced.recorder
    totals = rec.totals()
    counts = rec.counts()
    events = traced.events_measured
    delta = {k: traced.counts_end.get(k, 0) - traced.counts_start.get(k, 0) for k in traced.counts_end}

    def self_us(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names) * 1e6 / events

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_event(kind: str) -> float:
        return delta.get(kind, 0) / events

    scrapes = rec.durations.get("serve.scrape", [])
    barrier = totals.get("backend.barrier", (0, 0.0, 0.0))
    acks = calls("backend.deliver")
    acked_results = counts.get("backend.results", 0)
    pop = totals.get("scheduler.pop", (0, 0.0, 0.0))
    built = delta.get("result_build", 0)
    if traced.drain_mode == "process":
        # Workers ship no tee count (a tee delivery is charged as a result
        # build), so the figure is unavailable in process mode: reported 0.
        tee = 0
        drain_us = _ratio(untraced.cpu["workers_s"] * 1e6, untraced.cpu["events"])
    else:
        tee = delta.get("tee_deliveries", 0)
        drain_us = totals.get("shard.drain", (0, 0.0, 0.0))[1] * 1e6 / events
    state_names = ("operators.state.insert", "operators.state.purge", "operators.state.probe")
    return {
        "serve.self_us_per_event": self_us("serve.submit", "serve.drain", "serve.flush"),
        "serve.buffer_wait_ms_p50": statistics.median(rec.buffer_waits) * 1e3
        if rec.buffer_waits
        else 0.0,
        "serve.scrape_ms_p50": statistics.median(scrapes) * 1e3 if scrapes else 0.0,
        "serve.backpressure_total": traced.backpressure,
        "multi.self_us_per_event": self_us("multi.submit", "multi.flush"),
        "multi.dispatches_per_event": calls("backend.dispatch") / events,
        "multi.router_dropped_total": traced.router_dropped,
        "backend.dispatch_us_per_event": self_us("backend.dispatch"),
        "backend.bytes_out_per_event": counts.get("backend.bytes_out", 0) / events,
        "backend.acks_total": acks,
        "backend.results_per_ack": _ratio(acked_results, acks),
        "backend.result_bytes_per_result": _ratio(counts.get("backend.result_bytes", 0), acked_results),
        "backend.barrier_ms": _ratio(barrier[1] * 1e3, barrier[0]),
        "backend.worker_busy_ratio": untraced.cpu["worker_busy"],
        "backend.worker_skew": untraced.cpu["worker_skew"],
        "backend.parent_busy_ratio": untraced.cpu["parent_busy"],
        "shard.drain_us_per_event": drain_us,
        "scheduler.steps_per_event": per_event("scheduler_step"),
        "scheduler.pop_us": _ratio(pop[1] * 1e6, pop[0]),
        "scheduler.boosts_per_kevent": per_event("sched.boosts_granted") * 1000,
        "operators.join_us_per_event": self_us("operators.join"),
        "operators.state_us_per_event": self_us(*state_names),
        "operators.insert_per_event": per_event("insert"),
        "operators.purge_per_event": per_event("purge"),
        "operators.purge_calls_per_event": calls("operators.state.purge") / events,
        "operators.probe_steps_per_event": per_event("probe_step"),
        "operators.queue_ops_per_event": per_event("queue_op"),
        "operators.queue_us_per_event": self_us("operators.queue"),
        "operators.results_built_per_event": built / events,
        "operators.useful_result_ratio": _ratio(traced.results_measured, built),
        "operators.tee_deliveries_per_event": tee / events,
        "operators.state_peak_kb": traced.counts_end.get("state_peak_bytes", 0) / 1024,
        "core.lattice_nodes_per_event": per_event("lattice_node"),
        "core.blacklist_scans_per_event": per_event("blacklist_scan"),
        "core.feedback_msgs_per_event": per_event("feedback_message"),
        "core.detect_us_per_event": self_us("core.detect"),
        "core.blacklist_us_per_event": self_us("core.blacklist", "core.mns_buffer", "core.feedback"),
        "core.suspensions_per_kevent": per_event("suspensions") * 1000,
        "core.resumed_per_suspended": _ratio(delta.get("resumptions", 0), delta.get("suspensions", 0)),
        "plans.register_ms": traced.setup_parts["register"] * 1e3,
        "setup.host_ms": (traced.setup_parts["engine"] - traced.setup_parts["spawn"]) * 1e3,
        "setup.spawn_ms": traced.setup_parts["spawn"] * 1e3,
        "serve.init_ms": traced.setup_parts["server"] * 1e3,
        "load.lateness_p99_ms": untraced.lateness_p99 * 1e3,
        "load.backlog_growing": float(untraced.backlog_growing),
        "trace.events_per_s_ratio": traced.events_per_s / untraced.events_per_s,
        "trace.spans_total": sum(cell[0] for cell in totals.values()),
    }
