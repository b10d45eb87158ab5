"""Benchmark for the asyncio serving front end under connection pressure.

A thread-per-connection server lets a few thousand mostly-idle clients
exhaust the thread budget before the engine breaks a sweat.  This benchmark
demonstrates what the asyncio TCP front end
(:class:`~repro.serving.aio.AsyncQueryFrontend`) does instead:

* holds **>= 2000 concurrent connections** open against a single front-end
  process (one event loop, no per-connection threads),
* serves a mixed query load from an active subset of those connections
  *while* the idle majority stays connected, with a bounded client-observed
  P99,
* answers every wire query **identically to the scalar path**
  (``index.distance``) — the replies are parsed and compared pair by pair,
* exposes a ``curl``-able ``GET /metrics`` admin endpoint whose body is
  validated line by line against the Prometheus text-exposition grammar
  (and must report the open-connection count and the queries served).

The front end runs in a background thread on its own event loop (exactly the
deployment shape: one serving process, external clients); the measuring
clients run on a second loop and talk real TCP.  ``--smoke`` keeps every
assertion — including the >= 2000-connection floor — but shrinks the graph
and query counts and relaxes the latency bound for shared CI runners.
Also runnable standalone: ``python benchmarks/bench_async.py [--smoke]``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.generators import barabasi_albert_graph
from repro.serving import AsyncQueryFrontend, LRUCache, ServerMetrics, SnapshotManager

# The exposition validator started life in this file; it now lives next to
# the renderer it checks so tests and benchmarks share one grammar.
from repro.serving.metrics import validate_prometheus_exposition

#: The headline floor: concurrent open connections on one front-end process.
REQUIRED_CONNECTIONS = 2000
#: Client-observed P99 budget for queries racing 2000+ idle connections.
REQUIRED_P99_MS = 500.0
SMOKE_P99_MS = 2500.0


def _raise_fd_limit(needed: int) -> int:
    """Raise RLIMIT_NOFILE towards ``needed``; return the resulting soft limit."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return needed
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        target = needed if hard == resource.RLIM_INFINITY else min(needed, hard)
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
            soft = target
        except (ValueError, OSError):  # pragma: no cover - clamped by the OS
            pass
    return soft


async def _http_get(host: str, port: int, path: str) -> Tuple[int, str]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode("utf-8")


class _FrontendThread:
    """Run one AsyncQueryFrontend on its own loop in a background thread."""

    def __init__(self, frontend: AsyncQueryFrontend) -> None:
        self.frontend = frontend
        self.ready = threading.Event()
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            await self.frontend.serve(
                "127.0.0.1",
                0,
                http_port=0,
                install_signal_handlers=False,
                ready=lambda _front: self.ready.set(),
            )

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced by the caller
            self.error = exc
            self.ready.set()

    def __enter__(self) -> "_FrontendThread":
        self.thread.start()
        self.ready.wait(timeout=60)
        if self.error is not None:
            raise self.error
        if not self.ready.is_set():
            raise RuntimeError("front end did not come up in time")
        return self

    def __exit__(self, *exc_info) -> None:
        self.frontend.request_stop_threadsafe()
        self.thread.join(timeout=60)


async def _run_clients(
    host: str,
    port: int,
    http_port: int,
    *,
    num_connections: int,
    num_active: int,
    queries_per_client: int,
    query_pool: np.ndarray,
) -> Dict[str, object]:
    """Open the connection fleet, drive the active subset, scrape /metrics."""
    connections: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def open_one(_index: int):
        return await asyncio.open_connection(host, port)

    # Open in bounded waves: a single burst of thousands of SYNs races the
    # accept loop and the listener backlog for no benefit.
    for offset in range(0, num_connections, 256):
        wave = await asyncio.gather(
            *(open_one(i) for i in range(offset, min(offset + 256, num_connections)))
        )
        connections.extend(wave)

    # Let the server-side accept catch up, then snapshot /metrics with the
    # whole fleet connected but idle.
    for _ in range(50):
        _, body = await _http_get(host, http_port, "/metrics")
        idle_samples = validate_prometheus_exposition(body)
        if idle_samples.get("repro_pll_num_connections", 0) >= num_connections:
            break
        await asyncio.sleep(0.1)

    latencies: List[float] = []
    mismatches: List[str] = []
    answered = 0

    async def drive(client_index: int) -> None:
        nonlocal answered
        reader, writer = connections[client_index]
        rng = np.random.default_rng(1000 + client_index)
        for _ in range(queries_per_client):
            s, t, expected = query_pool[rng.integers(0, query_pool.shape[0])]
            start = time.perf_counter()
            writer.write(f"{int(s)} {int(t)}\n".encode())
            await writer.drain()
            reply = (await reader.readline()).decode().rstrip("\n")
            latencies.append(time.perf_counter() - start)
            parts = reply.split("\t")
            if len(parts) != 3 or int(parts[0]) != s or int(parts[1]) != t:
                mismatches.append(reply)
                continue
            got = float(parts[2])
            if not (got == expected or (np.isinf(got) and np.isinf(expected))):
                mismatches.append(f"{reply} (expected {expected})")
            answered += 1

    await asyncio.gather(*(drive(i) for i in range(num_active)))

    status, body = await _http_get(host, http_port, "/metrics")
    loaded_samples = validate_prometheus_exposition(body)
    health_status, health_body = await _http_get(host, http_port, "/healthz")
    health = json.loads(health_body)

    for _reader, writer in connections:
        writer.close()
    for _reader, writer in connections:
        try:
            await writer.wait_closed()
        except Exception:
            pass

    return {
        "idle_connections_seen": idle_samples.get("repro_pll_num_connections", 0.0),
        "metrics_status": status,
        "metrics_samples": loaded_samples,
        "health_status": health_status,
        "health": health,
        "latencies": latencies,
        "mismatches": mismatches,
        "answered": answered,
    }


def run_async_benchmark(
    *,
    num_vertices: int = 10_000,
    attach: int = 4,
    num_connections: int = 2_500,
    num_active: int = 200,
    queries_per_client: int = 100,
    query_pool_size: int = 4_000,
    batch_timeout: float = 0.002,
    cache_size: int = 65_536,
    seed: int = 23,
) -> Dict[str, float]:
    """Measure the async front end under >= 2000 concurrent connections."""
    soft_limit = _raise_fd_limit(2 * num_connections + 512)
    fd_limited = soft_limit < 2 * num_connections + 256
    if fd_limited:  # pragma: no cover - depends on the host's hard limit
        num_connections = max((soft_limit - 256) // 2, 64)

    graph = barabasi_albert_graph(num_vertices, attach, seed=seed)
    build_start = time.perf_counter()
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=8).build(graph)
    build_seconds = time.perf_counter() - build_start

    # The ground truth every wire reply is checked against: the scalar path.
    rng = np.random.default_rng(seed + 1)
    pool_pairs = rng.integers(0, num_vertices, size=(query_pool_size, 2))
    expected = np.asarray(
        [index.distance(int(s), int(t)) for s, t in pool_pairs], dtype=np.float64
    )
    query_pool = np.column_stack([pool_pairs.astype(np.float64), expected])

    metrics = ServerMetrics()
    frontend = AsyncQueryFrontend(
        SnapshotManager.from_index(index),
        cache=LRUCache(cache_size) if cache_size else None,
        batch_timeout=batch_timeout,
        metrics=metrics,
    )
    load_start = time.perf_counter()
    with _FrontendThread(frontend) as running:
        host, port = running.frontend.tcp_address
        http_host, http_port = running.frontend.http_address
        client_results = asyncio.run(
            _run_clients(
                host,
                port,
                http_port,
                num_connections=num_connections,
                num_active=num_active,
                queries_per_client=queries_per_client,
                query_pool=query_pool,
            )
        )
    load_seconds = time.perf_counter() - load_start

    latencies = np.asarray(client_results["latencies"], dtype=np.float64)
    samples = client_results["metrics_samples"]
    num_queries = num_active * queries_per_client
    return {
        "num_vertices": num_vertices,
        "num_edges": graph.num_edges,
        "build_seconds": build_seconds,
        "fd_limited": float(fd_limited),
        "num_connections": num_connections,
        "idle_connections_seen": float(client_results["idle_connections_seen"]),
        "num_active": num_active,
        "num_queries": num_queries,
        "answered": client_results["answered"],
        "num_mismatches": len(client_results["mismatches"]),
        "qps": num_queries / load_seconds,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1000.0,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1000.0,
        "metrics_status": float(client_results["metrics_status"]),
        "metrics_num_queries": samples.get("repro_pll_num_queries", 0.0),
        "metrics_num_samples": float(len(samples)),
        "health_status": float(client_results["health_status"]),
        "health_ok": float(client_results["health"].get("status") == "ok"),
        "load_seconds": load_seconds,
    }


def format_async_report(results: Dict[str, float]) -> str:
    """Human-readable async front-end benchmark report."""
    lines = [
        "Async serving benchmark (event-loop front end, idle fleet + query load)",
        f"  graph: {results['num_vertices']:,.0f} vertices / "
        f"{results['num_edges']:,.0f} edges "
        f"(index built in {results['build_seconds']:.1f}s)",
        f"  connections: {results['num_connections']:,.0f} concurrent "
        f"({results['idle_connections_seen']:,.0f} reported by /metrics while idle)",
        f"  load: {results['num_active']:,.0f} active clients x "
        f"{results['num_queries'] / max(results['num_active'], 1):,.0f} queries "
        f"({results['answered']:,.0f} answered, "
        f"{results['num_mismatches']:,.0f} mismatches vs the scalar path)",
        "",
        f"  throughput          {results['qps']:10,.0f} queries/s end to end",
        f"  client P50          {results['latency_p50_ms']:10,.2f} ms",
        f"  client P99          {results['latency_p99_ms']:10,.2f} ms",
        f"  GET /metrics        HTTP {results['metrics_status']:.0f}, "
        f"{results['metrics_num_samples']:.0f} valid exposition samples, "
        f"num_queries={results['metrics_num_queries']:,.0f}",
        f"  GET /healthz        HTTP {results['health_status']:.0f} "
        f"(status ok: {bool(results['health_ok'])})",
    ]
    return "\n".join(lines)


def _check(results: Dict[str, float], *, smoke: bool) -> None:
    """Assert the acceptance bars (relaxed latency budget at smoke scale)."""
    if not results["fd_limited"]:
        assert results["num_connections"] >= REQUIRED_CONNECTIONS, (
            f"only {results['num_connections']:.0f} connections opened; the "
            f"front end must hold >= {REQUIRED_CONNECTIONS}"
        )
        assert results["idle_connections_seen"] >= REQUIRED_CONNECTIONS, (
            f"/metrics saw only {results['idle_connections_seen']:.0f} "
            f"concurrent connections (need >= {REQUIRED_CONNECTIONS})"
        )
    assert results["num_mismatches"] == 0, (
        f"{results['num_mismatches']:.0f} wire replies disagreed with the "
        "scalar path"
    )
    assert results["answered"] == results["num_queries"], (
        f"only {results['answered']:.0f}/{results['num_queries']:.0f} queries "
        "were answered"
    )
    budget = SMOKE_P99_MS if smoke else REQUIRED_P99_MS
    assert results["latency_p99_ms"] <= budget, (
        f"client P99 {results['latency_p99_ms']:.1f} ms above the "
        f"{budget:.0f} ms budget"
    )
    assert results["metrics_status"] == 200
    assert results["health_status"] == 200 and results["health_ok"]
    assert results["metrics_num_queries"] >= results["num_queries"], (
        "/metrics under-reports the queries served"
    )


def test_async_frontend(run_once, save_result, full_scale):
    """The async front end must hold >= 2000 connections with bounded P99."""
    kwargs = dict(num_connections=4_000, num_active=400) if full_scale else {}
    results = run_once(run_async_benchmark, **kwargs)
    text = format_async_report(results)
    print("\n" + text)
    save_result("async", text)
    _check(results, smoke=False)


def collect_results(*, smoke: bool = False):
    """Run the suite and emit the shared observatory schema (``repro.obs``)."""
    from repro.obs import Metric, bench_result

    if smoke:
        results = run_async_benchmark(
            num_vertices=2_000,
            attach=3,
            num_connections=2_048,
            num_active=64,
            queries_per_client=40,
            query_pool_size=1_000,
        )
    else:
        results = run_async_benchmark()
    _check(results, smoke=smoke)
    metrics = [
        Metric("qps", results["qps"], unit="queries/s", higher_is_better=True),
        Metric(
            "latency_p50_ms",
            results["latency_p50_ms"],
            unit="ms",
            higher_is_better=False,
        ),
        Metric(
            "latency_p99_ms",
            results["latency_p99_ms"],
            unit="ms",
            higher_is_better=False,
        ),
        # Exact-zero gate: any reply mismatch is a correctness regression.
        Metric("num_mismatches", results["num_mismatches"], higher_is_better=False),
        Metric("num_connections", results["num_connections"]),
        Metric("num_active", results["num_active"]),
        Metric("answered", results["answered"]),
        Metric("idle_connections_seen", results["idle_connections_seen"]),
    ]
    return bench_result("async", metrics, smoke=smoke)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    if smoke:
        report = run_async_benchmark(
            num_vertices=2_000,
            attach=3,
            num_connections=2_048,
            num_active=64,
            queries_per_client=40,
            query_pool_size=1_000,
        )
    else:
        report = run_async_benchmark()
    print(format_async_report(report))
    try:
        _check(report, smoke=smoke)
    except AssertionError as exc:
        raise SystemExit(f"FAIL: {exc}")
    print("PASS" + (" (smoke scale)" if smoke else ""))
