"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is a population of standing neighborhood queries over shared
Poisson streams (``repro.multi.workload``), served through ``StreamServer``
(block policy) in front of a ``ShardedEngine``.  Each stresses different
layers; ``README.md`` in this directory gives the reasons, the layer map and
why ``BENCHMARK.json`` gates ``jit_mns`` and ``shared_proc`` but not
``fanout_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.multi.workload import generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.streams.sources import StreamEvent
from repro.streams.tuples import AtomicTuple

#: Share of ``--seconds`` given to the closed-loop and open-loop phases.
CLOSED_SHARE = 0.25
OPEN_SHARE = 0.75
#: Rounds per run.  Each round is one closed-loop segment followed by one
#: open-loop segment, so both phases sample the whole run and a slow stretch
#: of the machine lands in a few segments, not in one phase.
ROUNDS = 6
#: Arrival rate λ of every source, in tuples per virtual second.
SOURCE_RATE = 1.0


@dataclass(frozen=True)
class Workload:
    """One served query population and the load offered to it."""

    name: str
    n_queries: int
    n_sources: int
    widths: Tuple[int, ...]
    window_s: float
    dmax: int
    strategy: str
    scheduler: str
    n_shards: int
    drain_mode: str
    share_subplans: bool
    #: Open-loop send rate, events per wall second (see README.md).
    rate: float
    #: Closed-loop capacity measured at the commit that defined the
    #: benchmark; it only sizes the closed-loop phase to ``CLOSED_SHARE`` of
    #: the run, so a faster or slower program changes that phase's length.
    capacity_hint: float
    #: Attach a HealthMonitor and scrape the exposition every 100 ms.
    scrape: bool = False
    #: Flushed parts of each closed-loop segment; each yields one rate.  A
    #: flush in process drain mode waits for every worker's acknowledgement
    #: (about 50 ms), so those parts are fewer and longer.
    closed_parts: int = 8
    #: Windows of untimed warm-up.  REF state is full after one window; JIT
    #: state (suspended tuples, MNS buffers) grows for several, and the work
    #: per event with it.
    warm_windows: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanout_ref",
            n_queries=128,
            n_sources=4,
            widths=(2, 2, 3),
            window_s=30.0,
            dmax=400,
            strategy=STRATEGY_REF,
            scheduler="fifo",
            n_shards=1,
            drain_mode="sync",
            share_subplans=False,
            rate=100.0,
            capacity_hint=450.0,
        ),
        Workload(
            name="jit_mns",
            n_queries=18,
            n_sources=9,
            widths=(2, 3),
            window_s=25.0,
            dmax=100,
            strategy=STRATEGY_JIT,
            scheduler="jit_aware",
            n_shards=1,
            drain_mode="sync",
            share_subplans=False,
            rate=300.0,
            capacity_hint=2400.0,
            warm_windows=8,
        ),
        Workload(
            name="shared_proc",
            n_queries=128,
            n_sources=16,
            widths=(2, 2, 3),
            window_s=30.0,
            dmax=400,
            strategy=STRATEGY_REF,
            scheduler="fifo",
            n_shards=2,
            drain_mode="process",
            share_subplans=True,
            rate=1500.0,
            capacity_hint=3800.0,
            scrape=True,
            closed_parts=4,
        ),
    )
}


class Stream:
    """The generated event stream, held compactly.

    Each event is kept as ``(ts, source, seq, values)`` and rebuilt as an
    identical ``StreamEvent`` only when it is needed.  A materialized event
    costs kilobytes (its tuple carries an attribute dict), so a whole run's
    stream would otherwise dwarf the server's own memory in ``peak_rss_mb``,
    and forked shard workers would inherit it.
    """

    def __init__(self) -> None:
        self._columns: Dict[str, Tuple[str, ...]] = {}
        self._sizes: Dict[str, int] = {}
        self.records: List[tuple] = []

    @classmethod
    def generate(cls, sources, duration: float, limit: int) -> "Stream":
        """The first ``limit`` events of ``sources`` merged in time order."""
        stream = cls()
        for source in sources:
            columns = source.schema.attribute_names
            stream._columns[source.name] = columns
            stream._sizes[source.name] = source.schema.tuple_size_bytes
            for event in source.events(duration):
                tup = event.tuple
                stream.records.append(
                    (event.ts, event.source, tup.seq, tuple(tup.attrs[c] for c in columns))
                )
        # The tie-break of ``merge_sources``.
        stream.records.sort(key=lambda r: (r[0], r[1], r[2]))
        if len(stream.records) < limit:
            raise RuntimeError(f"generated {len(stream.records)} events, need {limit}")
        del stream.records[limit:]
        return stream

    def __len__(self) -> int:
        return len(self.records)

    def ts(self, index: int) -> float:
        return self.records[index][0]

    def event(self, index: int) -> StreamEvent:
        return self._build(self.records[index])

    def events(self, start: int, stop: int) -> List[StreamEvent]:
        return [self._build(record) for record in self.records[start:stop]]

    def events_of(self, sources) -> List[StreamEvent]:
        """Every event of the given sources, in stream order."""
        wanted = set(sources)
        return [self._build(record) for record in self.records if record[1] in wanted]

    def _build(self, record: tuple) -> StreamEvent:
        ts, source, seq, values = record
        attrs = dict(zip(self._columns[source], values))
        tup = AtomicTuple(source, ts, attrs, seq=seq, size_bytes=self._sizes[source])
        return StreamEvent(ts=ts, source=source, tuple=tup)


@dataclass
class Inputs:
    """A workload's generated queries and stream, split into phases."""

    workload: Workload
    queries: List[Tuple[str, object]]
    stream: Stream
    #: Event counts of the warm-up, closed-loop and open-loop segments.
    n_warm: int
    n_closed: int
    n_open: int

    def phases(self) -> List[Tuple[str, int, int]]:
        """``(kind, first, stop)`` event ranges in serving order.

        The warm-up fills the window state; then ``ROUNDS`` rounds each serve a
        ``closed`` segment and an ``open`` segment of the stream.
        """
        out = [("warm", 0, self.n_warm)]
        index = self.n_warm
        for k in range(ROUNDS):
            for kind, total in (("closed", self.n_closed), ("open", self.n_open)):
                size = total * (k + 1) // ROUNDS - total * k // ROUNDS
                out.append((kind, index, index + size))
                index += size
        return out

    @property
    def cuts(self) -> List[float]:
        """Timestamps ending each segment, warm-up included: the check points."""
        return [self.stream.ts(stop - 1) for _kind, _first, stop in self.phases()]

    @property
    def wall_per_virtual_s(self) -> float:
        """Open-loop wall seconds per virtual second of the stream."""
        return self.workload.n_sources * SOURCE_RATE / self.workload.rate


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Generate the queries and the event stream for one run."""
    n_warm = round(workload.warm_windows * workload.window_s * workload.n_sources * SOURCE_RATE)
    n_closed = max(ROUNDS, round(workload.capacity_hint * CLOSED_SHARE * seconds))
    n_open = max(ROUNDS, round(workload.rate * OPEN_SHARE * seconds))
    needed = n_warm + n_closed + n_open
    duration = 1.2 * needed / (workload.n_sources * SOURCE_RATE) + 10.0
    generated = generate_multi_query_workload(
        n_queries=workload.n_queries,
        n_sources=workload.n_sources,
        rate=SOURCE_RATE,
        window_seconds=workload.window_s,
        dmax=workload.dmax,
        duration=duration,
        seed=seed,
        sources_per_query=workload.widths,
    )
    return Inputs(
        workload=workload,
        queries=[(f"q{k}", query) for k, query in enumerate(generated.queries())],
        stream=Stream.generate(generated.base.sources(), duration, needed),
        n_warm=n_warm,
        n_closed=n_closed,
        n_open=n_open,
    )
