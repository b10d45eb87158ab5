"""Threaded query server: a worker thread, blocking callers, stdio.

:class:`QueryServer` is the threaded transport of the shared
:class:`~repro.serving.aio.ServingCore` (admission, batch evaluation through
the hot-pair cache, fan-outs, mutations, metrics and the line protocol all
live there).  This module adds only the threaded concurrency:

* Clients :meth:`~QueryServer.submit` requests (one or many pairs each);
  admission rejects immediately with :class:`~repro.errors.AdmissionError`
  once ``max_pending`` requests are outstanding — fail fast beats an
  unbounded backlog.
* A single worker thread drains a :class:`queue.Queue`, coalescing requests
  until either ``max_batch_size`` pairs are gathered or ``batch_timeout``
  elapses, and hands each batch to the core.  Callers block on
  :meth:`~repro.serving.aio.QueryRequest.wait`.

:func:`serve_stdio` speaks the line protocol (``s t`` or ``s,t`` per query;
``many s t1 t2 ...`` fan-outs; ``add a b`` / ``remove a b`` to mutate the
shadow graph and ``publish`` to hot-swap the mutations in; ``STATS`` /
``STATS JSON`` for a JSON metrics line; ``TRACES`` / ``ALERTS``; ``QUIT`` to
end the session) over pipes or an interactive terminal.  Network clients are
served by :class:`~repro.serving.aio.AsyncQueryFrontend`, the event-loop
front end that multiplexes thousands of TCP connections.
:func:`replay_mutations` drives the same mutation vocabulary from a file
against either front end (the ``--mutations`` serve option), and
:func:`warm_cache` replays a query log into the hot-pair cache before a
listener starts accepting traffic (the ``--warm`` serve option).
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from concurrent.futures import Future
from typing import IO, Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ServingError
from repro.serving.aio import LineCall, QueryRequest, ServingCore
from repro.serving.cache import LRUCache, cached_query_batch
from repro.serving.engine import BatchQueryEngine
from repro.serving.metrics import ServerMetrics
from repro.serving.protocol import (
    OP_ADD,
    OP_PUBLISH,
    OP_REMOVE,
    format_error,
    parse_mutation,
    parse_pair,
)
from repro.serving.snapshot import SnapshotManager
from repro.serving.tracing import StructuredLogger, TraceRecorder

__all__ = [
    "QueryRequest",
    "QueryServer",
    "read_pairs_file",
    "replay_mutations",
    "serve_stdio",
    "warm_cache",
]


class QueryServer(ServingCore):
    """Batching, cache-fronted, hot-swappable distance query server.

    The threaded transport of the shared :class:`~repro.serving.aio.ServingCore`:
    a single worker thread drains a :class:`queue.Queue` of admitted
    requests, and callers block on :meth:`QueryRequest.wait`.

    Parameters
    ----------
    backend:
        Either a :class:`~repro.serving.snapshot.SnapshotManager` (queries are
        answered against whatever snapshot is current when a batch starts —
        the hot-swap path), a bare
        :class:`~repro.serving.engine.BatchQueryEngine` (static index), or a
        :class:`~repro.serving.sharded.ShardedQueryEngine` (multi-process
        serving; when it wraps a shared snapshot manager, the mutation API
        and hot swap work exactly as with a manager backend).
    cache:
        Optional hot-pair :class:`~repro.serving.cache.LRUCache`; hits skip
        the engine entirely.
    max_batch_size:
        Maximum pairs coalesced into one engine call.
    batch_timeout:
        Seconds the worker waits for more requests before dispatching a
        partial batch (the latency/throughput knob).
    max_pending:
        Admission-control bound on admitted, not yet answered requests.
    tracer:
        :class:`~repro.serving.tracing.TraceRecorder` collecting per-request
        traces (default: a fresh recorder).  Pass a
        :class:`~repro.serving.tracing.NullTraceRecorder` to switch tracing
        off entirely.
    logger:
        Optional :class:`~repro.serving.tracing.StructuredLogger` for
        lifecycle events (``server_start`` / ``server_stop`` /
        ``snapshot_publish``).

    Use as a context manager (``with QueryServer(engine) as server: ...``) or
    call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        backend: Union[SnapshotManager, BatchQueryEngine],
        *,
        cache: Optional[LRUCache] = None,
        max_batch_size: int = 2048,
        batch_timeout: float = 0.002,
        max_pending: int = 4096,
        metrics: Optional[ServerMetrics] = None,
        tracer: Optional[TraceRecorder] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        super().__init__(
            backend,
            cache=cache,
            max_batch_size=max_batch_size,
            batch_timeout=batch_timeout,
            max_pending=max_pending,
            metrics=metrics,
            tracer=tracer,
            logger=logger,
        )
        self._queue: "queue.Queue[QueryRequest]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryServer":
        """Start the worker thread (idempotent)."""
        if self._running:
            return self
        self._running = True
        self._accepting = True
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-pll-query-worker", daemon=True
        )
        self._worker.start()
        if self.logger is not None:
            self.logger.event(
                "server_start",
                max_batch_size=self.max_batch_size,
                batch_timeout=self.batch_timeout,
                max_pending=self.max_pending,
            )
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) pending requests finish first.

        New submissions are rejected from the moment ``stop`` begins, so the
        drain is over a bounded backlog even if clients keep sending.
        """
        if not self._running:
            return
        self._accepting = False
        if drain:
            self._queue.join()
        self._running = False
        if self._worker is not None:
            self._worker.join(timeout=5.0)
            self._worker = None
        self._fail_stragglers()
        if self.logger is not None:
            self.logger.event(
                "server_stop", num_queries=self.metrics.num_queries
            )

    def _fail_stragglers(self) -> None:
        """Fail anything still queued so no client blocks forever.

        Called from :meth:`stop` and from :meth:`submit` when a request races
        shutdown (passes the running check, lands on the queue after the
        final drain) — whichever side runs last sees it.
        """
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            with self._admission_lock:
                self._pending -= 1
            self._fail(request, ServingError("server stopped before request was served"))
            self._queue.task_done()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    def submit(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> QueryRequest:
        """Enqueue one request of aligned pairs; returns immediately.

        Raises
        ------
        AdmissionError
            When ``max_pending`` requests are already admitted.
        ServingError
            When the server has not been started.
        VertexError
            When a vertex id is out of range.
        ValueError
            When ``sources`` and ``targets`` differ in length.
        """
        request = self._admit(sources, targets, Future)
        self._queue.put(request)
        if not self._running:
            self._fail_stragglers()
        return request

    def submit_pairs(self, pairs: Iterable[Tuple[int, int]]) -> QueryRequest:
        """Enqueue one request built from ``(s, t)`` tuples."""
        pair_array = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        return self.submit(pair_array[:, 0], pair_array[:, 1])

    def distance(self, s: int, t: int, *, timeout: Optional[float] = 30.0) -> float:
        """Synchronous scalar query (submit one pair and wait)."""
        return float(self.submit([s], [t]).wait(timeout)[0])

    def distances(
        self,
        pairs: Iterable[Tuple[int, int]],
        *,
        timeout: Optional[float] = 30.0,
    ) -> np.ndarray:
        """Synchronous batch query."""
        return self.submit_pairs(pairs).wait(timeout)

    def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Distances from ``source`` to ``targets`` (all vertices when ``None``).

        Dispatched on the calling thread rather than through the pair queue;
        in-flight fan-outs count against ``max_pending`` like queued pairs.

        Raises
        ------
        AdmissionError
            When ``max_pending`` requests are already admitted.
        """
        self._reserve(fanout=True)
        return self._query_one_to_many(source, targets)

    # ------------------------------------------------------------------ #
    # Mutations (hot-swap write path)
    # ------------------------------------------------------------------ #

    def insert_edge(self, a: int, b: int) -> None:
        """Apply one edge insertion to the backing shadow index (not yet published)."""
        self._require_manager().insert_edge(a, b)

    def remove_edge(self, a: int, b: int) -> None:
        """Apply one edge deletion to the backing shadow index (not yet published)."""
        self._require_manager().remove_edge(a, b)

    def publish(self):
        """Publish pending mutations as a new snapshot; readers swap atomically."""
        return self._publish()

    def apply_mutation(
        self, op: str, endpoints: Optional[Tuple[int, int]] = None
    ) -> str:
        """Apply one parsed mutation (``add`` / ``remove`` / ``publish``);
        returns the one-line acknowledgement."""
        return self._apply_mutation(op, endpoints)

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #

    def _gather_batch(self) -> list:
        """Block for the first request, then coalesce more until size/timeout."""
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return []
        first.dequeued = time.perf_counter()
        batch = [first]
        gathered = len(first)
        deadline = first.dequeued + self.batch_timeout
        while gathered < self.max_batch_size:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                request = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            request.dequeued = time.perf_counter()
            batch.append(request)
            gathered += len(request)
        return batch

    def _process_batch(self, batch: list) -> None:
        start = time.perf_counter()
        batch_spans = self._span_sink()
        try:
            joint, outcomes = self._evaluate_batch(batch, batch_spans)
            self._finish_batch(batch, joint, outcomes, batch_spans, start)
        finally:
            for _ in batch:
                self._queue.task_done()

    def _worker_loop(self) -> None:
        while self._running:
            try:
                batch = self._gather_batch()
                if batch:
                    self._process_batch(batch)
            except Exception:  # pragma: no cover - last-resort worker guard
                # _process_batch handles per-request failures; anything that
                # still escapes must not kill the worker and wedge the server.
                continue


# ---------------------------------------------------------------------- #
# Wire protocol
# ---------------------------------------------------------------------- #


def _handle_line(server: QueryServer, line: str) -> Optional[str]:
    """Evaluate one protocol line; returns the reply, or ``None`` to end the session."""
    step = server._parse_line(line)
    if not isinstance(step, LineCall):
        return step
    try:
        value = step.call()
    except step.errors as exc:
        return format_error(exc)
    return step.render(value)


def replay_mutations(server: ServingCore, lines: Iterable[str]) -> dict:
    """Replay a mixed insert/delete stream against a front end's shadow index.

    ``server`` is either front end; the mutations apply synchronously on the
    calling thread through the shared core, so an asyncio front end can be
    caught up before its loop starts.

    ``lines`` holds one mutation per line in the shared protocol vocabulary
    (``add a b``, ``remove a b``, ``publish``); blank lines and ``#``
    comments are skipped.  If mutations remain unpublished after the last
    line, a final publish makes them visible — a replayed file always leaves
    the serving snapshot caught up with the stream.

    Returns a counter dict (``added`` / ``removed`` / ``published``).

    Raises
    ------
    ValueError
        On an unparsable line (prefixed with its 1-based line number).
    ServingError
        When the server has no writable snapshot-manager backend.
    """
    counts = {"added": 0, "removed": 0, "published": 0}
    for op, endpoints in _parse_lines(lines, parse_mutation, "mutations"):
        server._apply_mutation(op, endpoints)
        if op == OP_ADD:
            counts["added"] += 1
        elif op == OP_REMOVE:
            counts["removed"] += 1
        else:
            counts["published"] += 1
    manager = server.snapshot_manager
    if manager is not None and manager.pending_updates > 0:
        server._apply_mutation(OP_PUBLISH)
        counts["published"] += 1
    return counts


def read_pairs_file(path) -> np.ndarray:
    """Read a query-pair file (one ``s t`` / ``s,t`` pair per line) into an array.

    Blank lines and ``#`` comments are skipped — the format is the natural
    dump of a query log.  Returns an ``(n, 2)`` int64 array.

    Raises
    ------
    ValueError
        On an unparsable line (prefixed with its 1-based line number).
    OSError
        When the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        pairs = list(_parse_lines(handle, parse_pair, "pairs"))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _parse_lines(lines: Iterable[str], parse: Callable[[str], Any], kind: str) -> Iterator:
    """Yield ``parse(line)`` for every line that is not blank or a ``#`` comment.

    A ``ValueError`` names the ``kind`` of file and the 1-based line number.
    """
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            try:
                parsed = parse(stripped)
            except ValueError as exc:
                raise ValueError(f"{kind} line {line_number}: {exc}") from None
            yield parsed


def warm_cache(engine, cache: LRUCache, pairs, *, batch_size: int = 8192) -> dict:
    """Replay query pairs through ``engine`` to populate the hot-pair ``cache``.

    Run before a listener starts accepting connections (the serve ``--warm``
    option), so the first real clients hit a warm cache instead of paying the
    cold misses themselves.  The replay goes through the same
    probe-compute-store path as live traffic: duplicated pairs in the log hit
    the cache, so the returned ``hit_rate`` is the rate a workload shaped
    like the log can expect (and the warm hits/misses are counted in
    ``cache.stats``, which keeps the serving metrics honest about how the
    cache got warm).

    ``engine`` is anything with ``query_batch`` — a
    :class:`~repro.serving.engine.BatchQueryEngine` or a
    :class:`~repro.serving.sharded.ShardedQueryEngine`.  Returns a summary
    dict: ``pairs``, ``hits``, ``misses``, ``hit_rate``, ``cached`` (entries
    now resident) and ``seconds``.
    """
    pair_array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    start = time.perf_counter()
    misses_before = cache.stats.misses
    for offset in range(0, pair_array.shape[0], int(batch_size)):
        chunk = pair_array[offset: offset + int(batch_size)]
        cached_query_batch(engine, cache, chunk[:, 0], chunk[:, 1])
    num_pairs = int(pair_array.shape[0])
    hits = num_pairs - (cache.stats.misses - misses_before)
    return {
        "pairs": num_pairs,
        "hits": hits,
        "misses": num_pairs - hits,
        "hit_rate": hits / num_pairs if num_pairs else 0.0,
        "cached": len(cache),
        "seconds": time.perf_counter() - start,
    }


def serve_stdio(
    server: QueryServer,
    in_stream: Optional[IO[str]] = None,
    out_stream: Optional[IO[str]] = None,
) -> int:
    """Serve the line protocol over text streams until EOF or ``QUIT``.

    Returns the number of protocol lines handled.  Used by
    ``repro-pll serve`` when no ``--port`` is given, and directly testable
    with ``io.StringIO``.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    handled = 0
    for line in in_stream:
        reply = _handle_line(server, line)
        if reply is None:
            break
        handled += 1
        if reply:
            print(reply, file=out_stream, flush=True)
    return handled
