"""Reference results and the order-independent result digest.

The oracle is the paper's semantics: every standing query run on its own,
synchronously, on the REF engine (``run_workload`` in sync mode), whatever
strategy, sharing or drain mode the served copy uses.  A served query is
correct when the multiset of its results equals the oracle's.  Multisets are
compared through :class:`Digest`, a sum of per-result hashes: independent of
emission order, and stable across processes (it hashes with ``blake2b``, not
the salted built-in ``hash``), so results shipped back from worker processes
digest exactly like results built in the serving process.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left
from hashlib import blake2b
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.engine import run_workload
from repro.plans.builder import STRATEGY_REF, build_xjoin_plan

_MASK = (1 << 64) - 1
#: Processes the oracle runs its reference queries in.
ORACLE_PROCESSES = 2


def _hash64(text: str) -> int:
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "little")


def result_token(tup) -> int:
    """64-bit hash of a result's identity: its components and timestamp.

    The components are summed, so their order does not matter, then mixed
    with the timestamp.  Only strings and ints are built: the tap digests
    each result as it is delivered, in the serving process, and creates no
    object that the garbage collector tracks.
    """
    components = 0
    for component in tup.components:
        components += _hash64(f"{component.source}\0{component.seq}")
    return _hash64(f"{components & _MASK}:{tup.ts!r}")


class Digest:
    """Order-independent digest of a result multiset: (count, sum of tokens)."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0

    def add(self, tup) -> None:
        self.count += 1
        self.total = (self.total + result_token(tup)) & _MASK

    def add_all(self, results: Iterable) -> "Digest":
        for tup in results:
            self.add(tup)
        return self

    def merge(self, other: "Digest") -> "Digest":
        self.count += other.count
        self.total = (self.total + other.total) & _MASK
        return self

    def reset(self) -> None:
        self.count = 0
        self.total = 0

    def key(self) -> Tuple[int, int]:
        return (self.count, self.total)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digest) and self.key() == other.key()

    def __repr__(self) -> str:
        return f"Digest(count={self.count}, total={self.total:016x})"


def reference_digests(
    queries: Sequence, stream, window_length: float, cuts: Sequence[float]
) -> Dict[str, List[Digest]]:
    """Per-query oracle digests of the results in each segment of the stream.

    ``queries`` holds ``(query_id, ContinuousQuery)`` pairs, ``stream`` the
    workload's :class:`~perfbench.workloads.Stream`.  ``cuts`` are
    ascending event timestamps; segment ``i`` holds the results whose
    timestamp (that of their newest component) lies in ``(cuts[i-1],
    cuts[i]]``, the first segment starting at the beginning of the stream.
    A result is emitted when its newest component arrives, so the results of
    a served prefix ending at event timestamp ``c`` are exactly those with
    ``ts <= c``.  Each query runs over only the events of its own sources;
    the other events never reach its plan.  Queries with equal definitions
    share one run; the runs are spread over ``ORACLE_PROCESSES`` processes,
    all ended before this returns.
    """
    # Queries with equal definitions have equal results; run each once.
    definitions: Dict[str, object] = {}
    ids: Dict[str, str] = {}
    for query_id, query in queries:
        definition = repr(
            (query.sources, query.window, query.predicate, query.selections, query.projection)
        )
        definitions.setdefault(definition, query)
        ids[query_id] = definition
    global _JOB
    _JOB = (list(definitions.values()), stream, window_length, cuts)
    try:
        # Forked, so the workers read the stream without it being pickled.
        with multiprocessing.get_context("fork").Pool(ORACLE_PROCESSES) as pool:
            digests = pool.map(_reference, range(len(definitions)), chunksize=1)
            pool.close()
            pool.join()
    finally:
        _JOB = None
    by_definition = dict(zip(definitions, digests))
    return {query_id: by_definition[definition] for query_id, definition in ids.items()}


#: The oracle's work, set for the forked pool workers: ``(queries, stream,
#: window_length, cuts)``.
_JOB = None


def _reference(index: int) -> List[Digest]:
    queries, stream, window_length, cuts = _JOB
    query = queries[index]
    own = stream.events_of(query.sources)
    plan = build_xjoin_plan(query, strategy=STRATEGY_REF, use_hash_index=True)
    report = run_workload(plan, own, window_length)
    segments: List[List] = [[] for _ in cuts]
    for tup in report.results.results:
        segments[bisect_left(cuts, tup.ts)].append(tup)
    return [Digest().add_all(segment) for segment in segments]
