"""One served run of a workload: set-up, closed loop, open loop, checks.

The load comes from this process and this thread.  The system under test is
a ``StreamServer`` (block policy, default buffer) in front of a
``ShardedEngine``; in process drain mode its shard workers are the only
other processes.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.health import HealthMonitor
from repro.multi import QueryRegistry, ShardedEngine
from repro.multi import backend as backend_module
from repro.serve.server import StreamServer

from perfbench.cores import REFERENCE_LOOP_S, CorePicker
from perfbench.layers import Recorder, instrument, layer_counts
from perfbench.oracle import Digest
from perfbench.workloads import ROUNDS, Inputs

#: Telemetry scrape period of the workloads that scrape.
SCRAPE_PERIOD_S = 0.1
#: Memory sampling period of the open loop, and the least time to the next
#: send that a sample may use (a sample reads ``/proc``: about 1 ms).
MEMORY_PERIOD_S = 0.25
MEMORY_SLACK_S = 0.005
#: In sync drain mode the loop of ``perfbench.cores`` is also timed in the
#: open loop's idle gaps: at most once per ``LOOP_PERIOD_S``, when the next
#: send is at least ``LOOP_SLACK_S`` away (a timing takes about 1 ms).  The
#: latencies of a segment are scaled by the median of its timings.
LOOP_PERIOD_S = 0.02
LOOP_SLACK_S = 0.003
#: Longest wait for an open-loop segment's results; a query whose results
#: have not all been delivered by then fails that segment's check.
RESULT_TAIL_TIMEOUT_S = 20.0
#: The generator's backlog counts as growing when the median lateness of the
#: open loop's last tenth exceeds that of its first tenth by this much.
BACKLOG_GROWTH_S = 0.05


class ResultTap:
    """Times and digests every result as it is delivered into its collector.

    Installed on each ``ResultCollector.add`` before the ``StreamServer`` is
    built, so the server's own result sink calls it last, on delivery.  It
    keeps no result tuples: per query, a running :class:`Digest` plus the
    delivery time and timestamp of each result since the last :meth:`take`.
    ``drop`` names a query whose first result is discarded: the self-check
    uses it to show that a lost result fails the run.
    """

    def __init__(self, drop: Optional[str] = None) -> None:
        self.digests: Dict[str, Digest] = {}
        self.delivered: Dict[str, List[float]] = {}
        self.stamps: Dict[str, List[float]] = {}
        self._drop = drop

    def install(self, query_id: str, collector) -> None:
        digest = self.digests[query_id] = Digest()
        delivered = self.delivered[query_id] = []
        stamps = self.stamps[query_id] = []
        inner = collector.add
        clock = time.perf_counter
        skip = [query_id == self._drop]

        def add(tup) -> None:
            if skip[0]:
                skip[0] = False
                return
            inner(tup)
            delivered.append(clock())
            stamps.append(tup.ts)
            digest.add(tup)

        collector.add = add

    def take(self) -> Dict[str, Digest]:
        """Per-query digests of the results since the last call; resets."""
        out = {}
        for query_id, digest in self.digests.items():
            out[query_id] = Digest().merge(digest)
            digest.reset()
            self.delivered[query_id].clear()
            self.stamps[query_id].clear()
        return out

    def received_total(self) -> int:
        # Summed per-query counts rather than one shared counter: process-mode
        # results arrive on one reader thread per worker.
        return sum(len(delivered) for delivered in self.delivered.values())


@dataclass
class Stack:
    """One set-up serving stack."""

    engine: ShardedEngine
    server: StreamServer
    monitor: Optional[HealthMonitor]
    tap: ResultTap
    feedback: Dict[str, int]
    setup_s: float
    parts: Dict[str, float]

    def close(self) -> None:
        # Closing the server flushes it and closes the engine, whose
        # process backend joins its workers.
        try:
            self.server.close()
        finally:
            self.engine.close()


@contextmanager
def _timed_spawn(cell: Dict[str, float]):
    """Time ``ProcessBackend`` construction (the worker spawns) in ``cell``."""
    original = backend_module.ProcessBackend.__init__

    def init(self, *args, **kwargs):
        start = time.perf_counter()
        original(self, *args, **kwargs)
        cell["spawn"] += time.perf_counter() - start

    backend_module.ProcessBackend.__init__ = init
    try:
        yield
    finally:
        backend_module.ProcessBackend.__init__ = original


def set_up(inputs: Inputs, tap: ResultTap, split_spawn: bool = False) -> Stack:
    """Register the queries and bring the server up; times the whole of it.

    ``setup_s`` runs from the first ``QueryRegistry.register`` to a ready
    server: workers up and every query hosted.  ``split_spawn`` additionally
    times the worker spawns on their own (traced runs only).
    """
    w = inputs.workload
    parts = {"spawn": 0.0}
    start = time.perf_counter()
    registry = QueryRegistry()
    for query_id, query in inputs.queries:
        registry.register(query, query_id=query_id, strategy=w.strategy, use_hash_index=True)
    registered = time.perf_counter()
    if split_spawn:
        with _timed_spawn(parts):
            engine = _make_engine(registry, w)
    else:
        engine = _make_engine(registry, w)
    built = time.perf_counter()
    try:
        for query_id in registry.ids:
            tap.install(query_id, engine.results_for(query_id))
        feedback = {"suspensions": 0, "resumptions": 0}
        if w.drain_mode == "process":

            def on_feedback(_shard_id, suspensions, resumptions) -> None:
                feedback["suspensions"] += suspensions
                feedback["resumptions"] += resumptions

            engine.add_feedback_delta_listener(on_feedback)
        server = StreamServer(engine)
        served = time.perf_counter()
        monitor = HealthMonitor(server) if w.scrape else None
    except BaseException:
        engine.close()
        raise
    ready = time.perf_counter()
    parts.update(register=registered - start, engine=built - registered, server=served - built)
    return Stack(engine, server, monitor, tap, feedback, ready - start, parts)


def _make_engine(registry: QueryRegistry, w) -> ShardedEngine:
    return ShardedEngine(
        registry,
        n_shards=w.n_shards,
        scheduler=w.scheduler,
        keep_results=False,
        drain_mode=w.drain_mode,
        share_subplans=w.share_subplans,
    )


# -- outside measurements: memory and CPU from /proc ---------------------------


def _pss_kib(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class MemorySampler:
    """Peak summed PSS of the serving process and its shard workers.

    PSS splits pages shared after ``fork`` between the processes sharing
    them, so the sum counts each page once.
    """

    def __init__(self) -> None:
        self.peak_kib = 0

    def sample(self) -> None:
        pids = ["self"] + [str(child.pid) for child in multiprocessing.active_children()]
        self.peak_kib = max(self.peak_kib, sum(_pss_kib(pid) for pid in pids))


def _cpu_snapshot() -> Dict[str, object]:
    workers = {child.pid: _cpu_s(child.pid) for child in multiprocessing.active_children()}
    return {"wall": time.perf_counter(), "parent": time.process_time(), "workers": workers}


def _cpu_shares(spent: Dict[str, object], events: int) -> Dict[str, float]:
    """Busy shares of the parent and the workers over the timed segments."""
    wall = spent["wall"]
    used = list(spent["workers"].values())
    mean = statistics.fmean(used) if used else 0.0
    return {
        "parent_busy": spent["parent"] / wall,
        "worker_busy": sum(used) / (wall * len(used)) if used else 0.0,
        "worker_skew": max(used) / mean if mean else 0.0,
        "workers_s": sum(used),
        "events": events,
    }


# -- the run ----------------------------------------------------------------


def nearest_rank(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class RunResult:
    """Everything one served run measured and checked."""

    workload: str
    drain_mode: str
    share_subplans: bool
    setup_times: List[float] = field(default_factory=list)
    setup_parts: Dict[str, float] = field(default_factory=dict)
    #: Closed-loop events per second, one per flushed part of a segment.
    segment_rates: List[float] = field(default_factory=list)
    #: Open-loop result latencies (seconds), one list per round.
    latencies: List[List[float]] = field(default_factory=list)
    #: The cores' loop time (``perfbench.cores``) next to each set-up and
    #: each closed-loop part and, in sync drain mode, in each open-loop
    #: segment.
    setup_loop: List[float] = field(default_factory=list)
    segment_loop: List[float] = field(default_factory=list)
    open_loop: List[float] = field(default_factory=list)
    #: Open-loop generator lateness (seconds), one list per round.
    lateness: List[List[float]] = field(default_factory=list)
    peak_kib: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    cpu: Dict[str, float] = field(default_factory=dict)
    counts_start: Dict[str, float] = field(default_factory=dict)
    counts_end: Dict[str, float] = field(default_factory=dict)
    events_measured: int = 0
    results_measured: int = 0
    backpressure: int = 0
    router_dropped: int = 0
    recorder: Optional[Recorder] = None
    cores: Optional[CorePicker] = None

    @property
    def scaled_rates(self) -> List[float]:
        """Closed-loop part rates, at the reference core speed where the
        loop was timed next to them."""
        return [r * loop / REFERENCE_LOOP_S for r, loop in zip(self.segment_rates, self.segment_loop)]

    @property
    def scaled_setups(self) -> List[float]:
        """Set-up times, at the reference core speed where the loop was
        timed next to them."""
        return [t * REFERENCE_LOOP_S / loop for t, loop in zip(self.setup_times, self.setup_loop)]

    def scaled_latencies(self) -> List[float]:
        """Open-loop latencies, at the reference core speed where the loop
        was timed next to them.

        With process workers a result waits for the workers'
        acknowledgements, paced by the send schedule's wall time, and
        nothing is scaled.
        """
        if not self.open_loop:
            return [x for got in self.latencies for x in got]
        return [
            x * REFERENCE_LOOP_S / loop
            for got, loop in zip(self.latencies, self.open_loop)
            for x in got
        ]

    @property
    def events_per_s(self) -> float:
        return statistics.median(self.scaled_rates)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.scaled_setups)

    def latency_ms(self, q: float) -> float:
        """Nearest-rank ``q`` quantile of :meth:`scaled_latencies`, in ms."""
        return nearest_rank(self.scaled_latencies(), q) * 1e3

    @property
    def lateness_p99(self) -> float:
        return nearest_rank([x for got in self.lateness for x in got], 0.99)

    @property
    def backlog_growing(self) -> int:
        """Open-loop segments whose generator fell steadily further behind."""
        growing = 0
        for got in self.lateness:
            tenth = max(1, len(got) // 10)
            if statistics.median(got[-tenth:]) - statistics.median(got[:tenth]) > BACKLOG_GROWTH_S:
                growing += 1
        return growing

    def end_to_end(self) -> Dict[str, float]:
        return {
            "events_per_s": self.events_per_s,
            "latency_p50_ms": self.latency_ms(0.50),
            "latency_p99_ms": self.latency_ms(0.99),
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_kib / 1024,
        }


class _Load:
    """The load generator: submission, scraping, memory sampling and checks."""

    def __init__(
        self, stack: Stack, inputs: Inputs, result: RunResult, recorder, cores: CorePicker
    ) -> None:
        self.stack = stack
        self.cores = cores
        self.server = stack.server
        self.inputs = inputs
        self.result = result
        self.recorder = recorder
        self.scrape = stack.monitor is not None
        self.next_scrape = time.perf_counter() + SCRAPE_PERIOD_S
        self.submitted = 0
        self.refused = 0
        #: Admitted events per source: with the router's fan-out, the number
        #: of shard deliveries the engine owes.
        self.admitted: Counter = Counter()
        #: Queries whose results of the current open segment were not all
        #: delivered within ``RESULT_TAIL_TIMEOUT_S``.
        self.undelivered: Set[str] = set()
        self.memory = MemorySampler()
        self.cpu_spent: Dict[str, object] = {}

    def submit(self, event) -> None:
        if self.recorder is not None:
            self.recorder.event_id = self.submitted
        self.submitted += 1
        if self.server.submit(event):
            self.admitted[event.source] += 1
        else:
            self.refused += 1

    def maybe_scrape(self, now: float) -> None:
        if self.scrape and now >= self.next_scrape:
            self.server.exposition()
            self.next_scrape = now + SCRAPE_PERIOD_S

    def check(self, expected: Dict[str, Digest], label: str) -> None:
        """Compare every query's results since the last check with the oracle.

        A query also fails when its open-loop results were late: delivered
        only by the flush after ``RESULT_TAIL_TIMEOUT_S``, so never timed.
        """
        for query_id, digest in self.stack.tap.take().items():
            self.result.attempted += 1
            if query_id in self.undelivered:
                self.result.failed += 1
                self.result.failures.append(
                    f"{query_id} {label}: results not all delivered within "
                    f"{RESULT_TAIL_TIMEOUT_S:g} s of the last send"
                )
            elif digest != expected[query_id]:
                self.result.failed += 1
                self.result.failures.append(
                    f"{query_id} {label}: got {digest}, oracle {expected[query_id]}"
                )
        self.undelivered = set()

    def closed(self, first: int, stop: int, timed: bool) -> None:
        """Replay events ``first..stop`` as fast as ``submit`` returns.

        A timed segment is cut into ``Workload.closed_parts`` parts, each
        ending with ``flush`` and adding one closed-loop rate, so a run's
        capacity is the median of many short measurements.  The events are
        built before the clock starts; the cores are picked and timed
        outside it.
        """
        stream = self.inputs.stream
        splits = self.inputs.workload.closed_parts if timed else 1
        bounds = [first + (stop - first) * k // splits for k in range(splits + 1)]
        chunks = [stream.events(a, b) for a, b in zip(bounds, bounds[1:])]
        clock = time.perf_counter
        cores = self.cores
        for chunk in chunks:
            if timed:
                cores.pick()
                loop_before = cores.time_loop()
                cpu_before = _cpu_snapshot()
            start = clock()
            for event in chunk:
                self.submit(event)
                if self.scrape:
                    self.maybe_scrape(clock())
            self.server.flush()
            if timed and chunk:
                self.result.segment_rates.append(len(chunk) / (clock() - start))
                _add_cpu(self.cpu_spent, cpu_before, _cpu_snapshot())
                self.result.segment_loop.append((loop_before + cores.time_loop()) / 2)
        del chunks
        self.memory.sample()

    def open(self, first: int, stop: int, expected: Dict[str, Digest]) -> None:
        """Send events ``first..stop`` on their virtual-time schedule; drain only.

        Each event is built while the generator waits for its due time.  The
        segment ends when the oracle's number of results (``expected``) has
        been delivered: no flush, so results still in flight arrive the way
        a client sees them.  Queries still short of it after
        ``RESULT_TAIL_TIMEOUT_S`` are marked for :meth:`check` to fail.
        """
        stream = self.inputs.stream
        scale = self.inputs.wall_per_virtual_s
        clock = time.perf_counter
        server = self.server
        tap = self.stack.tap
        lateness: List[float] = []
        ts0 = stream.ts(first)
        cores = self.cores
        cores.pick()
        loops: List[float] = []
        start = clock() + 0.01
        next_memory = next_loop = start
        # A sync server runs in this thread: waiting by spinning keeps its
        # core from idling, and waking from idle, between events.  With
        # worker processes the core is theirs while the generator waits.
        spin = self.stack.engine.drain_mode == "sync"
        if self.recorder is not None:
            self.recorder.open_phase = True
        for index in range(first, stop):
            event = stream.event(index)
            due = start + (event.ts - ts0) * scale
            now = clock()
            if now >= next_memory and due - now > MEMORY_SLACK_S:
                # Sample only with slack before the next send, so reading
                # /proc never delays an event.
                self.memory.sample()
                next_memory = now + MEMORY_PERIOD_S
                now = clock()
            if cores.pin and now >= next_loop and due - now > LOOP_SLACK_S:
                loops.append(cores.time_loop(1))
                next_loop = now + LOOP_PERIOD_S
                now = clock()
            if due > now:
                if spin:
                    while now < due:
                        now = clock()
                else:
                    time.sleep(due - now)
                    now = clock()
            lateness.append(now - due)
            self.submit(event)
            server.drain()
            self.maybe_scrape(now)
        total = sum(digest.count for digest in expected.values())
        deadline = clock() + RESULT_TAIL_TIMEOUT_S
        while tap.received_total() < total and clock() < deadline:
            time.sleep(0.002)
            self.maybe_scrape(clock())
        self.undelivered = {
            query_id
            for query_id, delivered in tap.delivered.items()
            if len(delivered) < expected[query_id].count
        }
        if self.recorder is not None:
            self.recorder.open_phase = False
        self.memory.sample()
        latencies = []
        for query_id, delivered in tap.delivered.items():
            for at, ts in zip(delivered, tap.stamps[query_id]):
                latencies.append(at - (start + (ts - ts0) * scale))
        self.result.latencies.append(latencies)
        if cores.pin:
            self.result.open_loop.append(statistics.median(loops or [cores.time_loop()]))
        self.result.lateness.append(lateness)
        self.server.flush()


def _add_cpu(total: Dict[str, object], before: Dict[str, object], after: Dict[str, object]) -> None:
    total["wall"] = total.get("wall", 0.0) + after["wall"] - before["wall"]
    total["parent"] = total.get("parent", 0.0) + after["parent"] - before["parent"]
    workers = total.setdefault("workers", {})
    for pid, spent in after["workers"].items():
        workers[pid] = workers.get(pid, 0.0) + spent - before["workers"].get(pid, 0.0)


def _set_up_repeatedly(
    inputs: Inputs,
    result: "RunResult",
    least: int,
    most: int,
    budget_s: float,
    cores: CorePicker,
    drop: Optional[str] = None,
    split_spawn: bool = False,
) -> Stack:
    """Set up ``least`` times, then again while the set-ups have taken under
    ``budget_s``, up to ``most`` in all; returns the last stack, still open.

    Each set-up starts after a full collection, so the garbage of the
    previous stack is not collected inside its timing.
    """
    stack = None
    made = 0
    spent = 0.0
    cores.pick()
    while made < least or (made < most and spent < budget_s):
        if stack is not None:
            stack.close()
        gc.collect()
        loop_before = cores.time_loop()
        stack = set_up(inputs, ResultTap(drop), split_spawn=split_spawn)
        result.setup_times.append(stack.setup_s)
        result.setup_loop.append((loop_before + cores.time_loop()) / 2)
        made += 1
        spent += stack.setup_s
    assert stack is not None
    return stack


def serve_run(
    inputs: Inputs,
    oracle: Dict[str, List[Digest]],
    setups: int,
    setup_budget_s: float = 0.0,
    max_setups: int = 0,
    recorder: Optional[Recorder] = None,
    drop: Optional[str] = None,
    tamper: Optional[Callable[[Stack], None]] = None,
) -> RunResult:
    """Set up repeatedly, then serve the stream on the last stack.

    Sets up ``setups`` times, and more, up to ``max_setups`` in all, while
    the set-ups have taken under ``setup_budget_s``.  With more than one
    set-up they come in ``ROUNDS + 1`` equal batches: one before serving,
    whose last stack serves the run, and one after each round, closed again
    before the next.  Set-up time thus samples the machine over the whole
    run, like the other metrics, not only its first second.  With a
    ``recorder`` the serving stack is instrumented and every round is
    traced.  ``tamper`` is called with the serving stack before any event is
    sent; the self-check uses it to break the program.
    """
    w = inputs.workload
    result = RunResult(w.name, w.drain_mode, w.share_subplans, recorder=recorder)
    result.cores = cores = CorePicker(pin=w.drain_mode == "sync")
    batches = min(setups, ROUNDS + 1)
    least = -(-setups // batches)
    batch = (least, max(least, max_setups // batches), setup_budget_s / batches, cores)
    try:
        stack = _set_up_repeatedly(
            inputs, result, *batch, drop=drop, split_spawn=recorder is not None
        )
    except BaseException:
        cores.restore()
        raise
    result.setup_parts = stack.parts
    try:
        if tamper is not None:
            tamper(stack)
        if recorder is not None:
            instrument(recorder, stack.server, stack.engine)
        load = _Load(stack, inputs, result, recorder, cores)
        load.memory.sample()
        cuts = inputs.cuts
        for check, (kind, first, stop) in enumerate(inputs.phases()):
            expected = {query_id: digests[check] for query_id, digests in oracle.items()}
            if kind == "open":
                load.open(first, stop, expected)
            else:
                load.closed(first, stop, timed=kind == "closed")
            load.check(expected, f"{kind} segment ending at ts {cuts[check]:.3f}")
            if kind == "open" and batches > 1:
                _set_up_repeatedly(inputs, result, *batch).close()
                gc.collect()
            if kind == "warm":
                result.counts_start = layer_counts(stack.engine, stack.feedback)
                if recorder is not None:
                    recorder.on = True
            else:
                result.results_measured += sum(d.count for d in expected.values())
        if recorder is not None:
            recorder.on = False
        result.counts_end = layer_counts(stack.engine, stack.feedback)
        result.cpu = _cpu_shares(load.cpu_spent, inputs.n_closed)
        report = stack.server.report()
        result.events_measured = inputs.n_closed + inputs.n_open
        result.backpressure = report.backpressure_engagements
        result.router_dropped = stack.engine.router.dropped_events
        lost = load.submitted - load.refused - report.shed - stack.engine.events_ingested
        # After the last flush every shard has processed, and in process
        # mode reported at the barrier, each event routed to it: a shortfall
        # is events lost between the engine and the shards' operators.
        router = stack.engine.router
        owed = sum(n * len(router.shards_for(source)) for source, n in load.admitted.items())
        missing = owed - sum(shard.events_processed for shard in stack.engine.shards)
        result.attempted += load.submitted
        result.failed += load.refused + report.shed + max(0, lost) + max(0, missing)
        if load.refused or report.shed or lost or missing:
            result.failures.append(
                f"events: {load.refused} refused, {report.shed} shed, {lost} lost before "
                f"the engine, {missing} of {owed} shard deliveries missing"
            )
        result.peak_kib = load.memory.peak_kib
    finally:
        try:
            stack.close()
        finally:
            cores.restore()
    return result
