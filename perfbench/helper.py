"""Fresh-process helpers: build an index, and time single layers in isolation.

Run with ``PYTHONPATH=src`` from the checkout root (``run.py`` does this):

``helper.py build``
    Load the edge list, then time ``--loads`` more loads (and ``--loads-after``
    at the end), each with the reference start-up around it (see
    ``procs.setup_samples``); build the index with degree order and ``--bp``
    bit-parallel roots, prepare the batch kernel, optionally save it, and
    time the single-pair queries listed in ``--pairs`` through the scalar
    path (repeated passes for ``--query-seconds``).  With ``--spans`` the
    construction phases are wrapped in spans and construction statistics
    are collected.

``helper.py calibrate``
    Load a saved index and time each query-side layer on seeded inputs: the
    scalar merge, the batch kernel and the engine at ``--batch`` pairs per
    call, the one-to-many kernel per target, the cache probe, index loading,
    kernel preparation and the protocol parse/format functions.

Each prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from percentiles import median, summarize
from procs import peak_rss_mib, setup_samples
from spans import SpanRecorder, aggregate

FAN_OUT_TARGETS = 1024  # targets per one-to-many call, as in the fanout workload


def _build(args) -> dict:
    from repro.core.index import PrunedLandmarkLabeling
    from repro.core.serialization import save_index
    from repro.graph.io import read_edge_list

    def load() -> float:
        start = time.perf_counter()
        read_edge_list(args.edges)
        return time.perf_counter() - start

    graph, _ = read_edge_list(args.edges)
    setups = setup_samples(load, args.loads)
    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        from instrument import instrument_build

        instrument_build(recorder)
    start = time.perf_counter()
    index = PrunedLandmarkLabeling(
        ordering="degree", num_bit_parallel_roots=args.bp, collect_stats=bool(args.spans)
    ).build(graph)
    kernel = index.prepare_batch_kernel()
    build_s = time.perf_counter() - start
    n = graph.num_vertices
    out = {
        "n": n,
        "m": graph.num_edges,
        "setups": setups,
        "build_s": build_s,
        "label_entries_per_vertex": index.average_label_size(),
        "index_bytes_per_vertex": index.index_size_bytes() / n,
        "kernel": str(kernel.selection.as_dict().get("selected")),
    }
    if args.save:
        save_index(index, args.save)
    if args.pairs:
        with open(args.pairs, "r", encoding="ascii") as handle:
            pairs = [tuple(map(int, line.split())) for line in handle]
        for s, t in pairs[:200]:  # warm the interpreter's caches, not timed
            index.distance(s, t)
        clock = time.perf_counter
        dist = [index.distance(s, t) for s, t in pairs]
        # Time passes over the pairs until --query-seconds have gone by, so
        # the figure spans the machine's speed swings instead of one instant.
        lat = []
        deadline = clock() + args.query_seconds
        while not lat or clock() < deadline:
            for s, t in pairs:
                t0 = clock()
                index.distance(s, t)
                lat.append(clock() - t0)
        out["distances"] = [None if d == float("inf") else d for d in dist]
        out["query_ms"] = summarize([x * 1000.0 for x in lat])
        out["query_passes"] = len(lat) // len(pairs)
    out["rss_mb"] = peak_rss_mib("self")
    if args.loads_after:
        setups += setup_samples(load, args.loads_after)
    if recorder is not None:
        recorder.unpatch()
        stats = index.construction_stats
        visited = int(np.sum(stats.visited_per_bfs))
        labeled = int(np.sum(stats.labeled_per_bfs))
        out["pruned_visited_per_vertex"] = visited / n
        out["pruned_label_yield"] = labeled / visited if visited else 0.0
        recorder.dump(args.spans)
        out["spans"] = aggregate(recorder.rows)
        out["missing"] = recorder.missing
    return out


def _timed(fn, repeat: int = 5) -> float:
    """Median wall time of ``repeat`` calls of ``fn``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def _calibrate(args) -> dict:
    from repro.core.serialization import load_index
    from repro.serving import protocol
    from repro.serving.cache import LRUCache
    from repro.serving.engine import BatchQueryEngine

    loads = []
    preps = []
    index = None
    for _ in range(3):
        start = time.perf_counter()
        index = load_index(args.index)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        index.prepare_batch_kernel()
        preps.append(time.perf_counter() - start)
    n = index.label_set.num_vertices
    rng = np.random.default_rng(args.seed)
    count = 4096
    sources = rng.integers(0, n, count)
    targets = rng.integers(0, n, count)
    pair_list = list(zip(sources.tolist(), targets.tolist()))
    batch = max(1, min(args.batch, count))
    chunks = [(sources[i:i + batch], targets[i:i + batch]) for i in range(0, count, batch)]
    kernel = index.prepare_batch_kernel()
    engine = BatchQueryEngine(index)
    cache = LRUCache(65536)
    cache.store_batch(sources, targets, engine.query_batch(sources, targets))

    def scalar():
        for s, t in pair_list:
            index.distance(s, t)

    def kernel_pairs():
        for s, t in chunks:
            kernel.query_pairs(s, t)

    def engine_pairs():
        for s, t in chunks:
            engine.query_batch(s, t)

    def cache_probe():
        for s, t in chunks:
            cache.lookup_batch(s, t)

    fan_sources = rng.integers(0, n, 32).tolist()
    fan_targets = rng.integers(0, n, FAN_OUT_TARGETS)

    def fan_out():
        for s in fan_sources:
            kernel.query_one_to_many(s, fan_targets)

    # The protocol functions the async front end applies to each line.
    if args.lines == "many":
        lines = [
            "many %d %s" % (s, " ".join(map(str, fan_targets.tolist()))) for s in fan_sources
        ]
        dist = np.ones(FAN_OUT_TARGETS)
        replies = [(s, tuple(fan_targets.tolist()), dist) for s in fan_sources]

        def parse():
            for line in lines:
                protocol.normalize_command(line)
                protocol.is_mutation(line)
                protocol.is_one_to_many(line)
                protocol.parse_one_to_many(line)

        def fmt():
            for s, ts, d in replies:
                protocol.format_one_to_many_reply(s, ts, d)
    else:
        lines = ["%d %d" % pair for pair in pair_list]

        def parse():
            for line in lines:
                protocol.normalize_command(line)
                protocol.is_mutation(line)
                protocol.is_one_to_many(line)
                protocol.parse_pair(line)

        def fmt():
            for s, t in pair_list:
                protocol.format_distance_line(s, t, 3.0)

    return {
        "serialization_load_s": median(loads),
        "kernel_prep_s": median(preps),
        "index_bytes_per_vertex": index.index_size_bytes() / n,
        "batch": batch,
        "scalar_us_per_pair": _timed(scalar) / count * 1e6,
        "kernel_us_per_pair": _timed(kernel_pairs) / count * 1e6,
        "engine_us_per_pair": _timed(engine_pairs) / count * 1e6,
        "cache_probe_us_per_pair": _timed(cache_probe) / count * 1e6,
        "kernel_us_per_target": _timed(fan_out) / (len(fan_sources) * FAN_OUT_TARGETS) * 1e6,
        "protocol_parse_us_per_line": _timed(parse) / len(lines) * 1e6,
        "protocol_format_us_per_reply": _timed(fmt) / len(lines) * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    build = sub.add_parser("build")
    build.add_argument("--edges", required=True)
    build.add_argument("--bp", type=int, default=16)
    build.add_argument("--loads", type=int, default=1)
    build.add_argument("--loads-after", type=int, default=0,
                       help="loads after the timed queries, also in setups")
    build.add_argument("--save", default=None)
    build.add_argument("--pairs", default=None, help="file of 's t' pairs to time")
    build.add_argument("--query-seconds", type=float, default=0.0,
                       help="keep timing passes over the pairs for this long")
    build.add_argument("--spans", default=None)
    cal = sub.add_parser("calibrate")
    cal.add_argument("--index", required=True)
    cal.add_argument("--batch", type=int, default=1)
    cal.add_argument("--lines", choices=["pair", "many"], default="pair")
    cal.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out = _build(args) if args.cmd == "build" else _calibrate(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
