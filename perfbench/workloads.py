"""The four workloads: how each is generated from the seed, run and checked.

Each ``run_<workload>(ctx)`` returns a :class:`Outcome`: the end-to-end
metrics (untraced), the per-layer metrics (traced runs only), the counts of
attempted and failed operations, whether every checked answer was right,
and free-form details for the result file.  See ``perfbench/README.md`` for
why each workload exists and which layers it loads.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen
from groundtruth import (
    BfsOracle,
    barabasi_albert_edges,
    check_many_reply,
    check_pair_reply,
    write_edge_list,
)
from percentiles import median, summarize
from procs import (
    HERE,
    Server,
    parse_prometheus,
    reference_startup_s,
    run_helper,
    scaled_setup_s,
    setup_samples,
)
from spans import aggregate, load_spans
from traced_serve import served_sizes_path

PAIR_LIMIT_MS = 10.0  # latency limit on a single-pair read
FANOUT_LIMIT_MS = 50.0  # latency limit on a 1024-target read
#: Edge-list loads before the build and again after the timed queries.
GRAPH_LOADS = 5
#: Measured phases tried, each on a fresh server, before a run whose load
#: generator keeps falling behind its schedule is declared invalid.
PHASE_ATTEMPTS = 5
#: Seed of the base graphs; ``--seed`` relabels their vertices (see make_graph).
GRAPH_SEED = 2013
MIN_TAIL_SAMPLES = 1000  # so that p99 has at least 10 samples beyond it
PROBE_S = 3.0  # length of one capacity-search probe

# setups: server start-ups before and after the measured phase; setup_s is
# the scaled median of all of them (see procs.scaled_setup_s), so it spans
# the run rather than one instant of it.  read_write's take about 2 s each.
# search_from: where the capacity search of the (write-free) read path starts.
SPEC = {
    "build": {"n": 20000, "m": 3, "bp": 16, "sample_sources": 250, "sample_targets": 20},
    "read_hot": {"n": 5000, "m": 3, "bp": 16, "rate": 200.0, "pool": 50000, "zipf": 1.0,
                 "setups": (3, 3)},
    "fanout": {"n": 5000, "m": 3, "bp": 16, "rate": 70.0, "phase_factor": 1.5,
               "targets": 1024, "setups": (3, 3)},
    "read_write": {"n": 5000, "m": 3, "bp": 0, "rate": 40.0, "phase_factor": 2.5,
                   "verify_targets": 32, "edit_edges": 24, "search_from": 200.0,
                   "setups": (2, 2)},
}


class InvalidRun(RuntimeError):
    """The run measured something other than the program (e.g. a late generator)."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    spans_dir: Path
    log: Callable[[str], None]


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    details: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


def make_graph(ctx: Context) -> Tuple[int, List[Tuple[int, int]], Path]:
    """The workload's graph: a fixed BA graph with vertex ids shuffled by ``--seed``.

    The graph itself stands in for a fixed dataset, as the paper's networks
    do, so index size and build work do not swing from seed to seed; the
    seed still changes every input the program sees (ids, hence degree
    tie-breaks and label layout, and all query and edit streams).
    """
    spec = SPEC[ctx.workload]
    n = spec["n"]
    perm = list(range(n))
    random.Random(f"{ctx.seed}:relabel").shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in barabasi_albert_edges(n, spec["m"], GRAPH_SEED)]
    path = ctx.work / "graph.txt"
    write_edge_list(path, n, edges)
    return n, edges, path


def zipf_sampler(size: int, exponent: float) -> Callable[[random.Random], int]:
    """Draw ranks ``0..size-1`` with probability proportional to ``1/(rank+1)**exponent``."""
    cdf = list(accumulate(1.0 / (r + 1) ** exponent for r in range(size)))
    total = cdf[-1]
    return lambda rng: min(bisect_left(cdf, rng.random() * total), size - 1)


def pair_line(s: int, t: int) -> bytes:
    return b"%d %d\n" % (s, t)


def many_line(s: int, targets: Sequence[int]) -> bytes:
    return ("many %d %s\n" % (s, " ".join(map(str, targets)))).encode()


# --------------------------------------------------------------------------- #
# Serving helpers
# --------------------------------------------------------------------------- #


def time_startups(ctx: Context, serve_args: List[str], count: int,
                  tag: str) -> List[Tuple[float, float]]:
    """Start and stop the server ``count`` times: set-up samples (see ``setup_samples``)."""
    tags = iter(range(count))

    def startup() -> float:
        server = Server.start(serve_args, ctx.work / f"server-{tag}{next(tags)}.log")
        server.stop()
        return server.startup_s

    return setup_samples(startup, count)


def open_loop(server: Server, schedule, *, seconds: float, drain_s: float,
              writer: Optional[loadgen.Writer] = None, conns: int = 2,
              abort_backlog: Optional[int] = None):
    socks = [loadgen.connect(*server.tcp) for _ in range(conns)]
    try:
        start = time.perf_counter() + 0.02
        return loadgen.run(socks, schedule, start=start, end=start + seconds,
                           drain_s=drain_s, writer=writer, abort_backlog=abort_backlog)
    finally:
        for sock in socks:
            sock.close()


def requests(ctx: Context, make_request, stream: str, count: int) -> list:
    """``count`` requests of a named stream; the same seed gives the same requests.

    Streams are independent, so the traced pass replays exactly the requests
    of the untraced one, and capacity probes never shift them.
    """
    rng = random.Random(f"{ctx.seed}:{ctx.workload}:{stream}")
    return [make_request(rng) for _ in range(count)]


def fixed_rate(rate: float, reqs: list, conns: int = 2):
    """A uniform schedule: request ``i`` due at ``i / rate``, alternating connections."""
    return [(i / rate, i % conns, *req) for i, req in enumerate(reqs)]


def latency_summary(requests) -> Dict[str, float]:
    return summarize([r.latency * 1000.0 for r in requests if r.done is not None])


def late_p99_ms(requests) -> float:
    return summarize([r.late * 1000.0 for r in requests])["p99"]


def generator_kept_up(late_ms: float, tail_ms: float, limit_ms: float) -> bool:
    """Whether the generator's own lateness is small next to what it measured.

    Reads are timed from when they were due, so a late send counts in the
    read's latency.  The phase measured the server only if the generator's
    p99 lateness stayed within half the latency limit, or within a quarter
    of the measured tail.
    """
    return late_ms <= max(limit_ms / 2.0, tail_ms / 4.0)


def scrape_counters(server: Server) -> Dict[str, float]:
    """The program's own serving counters, from one ``/metrics`` scrape."""
    m = parse_prometheus(server.scrape())

    def get(name: str, default: float = 0.0) -> float:
        return m.get("repro_pll_" + name, default)

    def mean_ms(hist: str) -> float:
        count = get(hist + "_count")
        return get(hist + "_sum") / count * 1000.0 if count else 0.0

    hits, misses = get("cache_hits"), get("cache_misses")
    kernels = sorted(k for k in m if k.startswith("repro_pll_kernel_info{"))
    return {
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_lookups": hits + misses,
        "cache_evictions": get("cache_evictions"),
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "average_batch_size": get("average_batch_size"),
        "queue_wait_ms": mean_ms("stage_queue_seconds"),
        "batch_wait_ms": mean_ms("stage_batch_seconds"),
        "kernel_ms": mean_ms("stage_kernel_seconds"),
        "cache_probe_ms": mean_ms("stage_cache_probe_seconds"),
        "loop_lag_ms": get("event_loop_lag_seconds") * 1000.0,
        "label_entries_per_vertex": get("index_label_entries") / get("index_num_vertices"),
        "rejected": get("num_rejected"),
        "errors": get("num_errors"),
        "kernel": kernels[0].split('kernel="')[1].split('"')[0] if kernels else "unknown",
    }


# --------------------------------------------------------------------------- #
# Capacity search
# --------------------------------------------------------------------------- #


class Unmeasurable(Exception):
    """A capacity probe the load generator could not keep to its schedule."""


def search_max_rate(probe: Callable[[float], Optional[Tuple[float, bool]]], start: float,
                    limit_ms: float, *, factor: float = 1.5, refine: int = 2,
                    floor_share: float = 0.25) -> Tuple[float, list]:
    """Highest offered rate whose tail latency meets ``limit_ms`` with no growing backlog.

    ``probe(rate)`` returns ``(tail_ms, backlog_ok)``, or ``None`` when the
    rate could not be measured (the load generator fell behind it).  The
    search brackets the limit by stepping the rate by ``factor`` from
    ``start``, narrows the bracket ``refine`` times geometrically, then
    interpolates the crossing between the highest passing and lowest failing
    rate, so the estimate is not quantised to the probe grid.  Below
    ``floor_share * start`` it gives up and returns 0.0: no rate worth
    probing meets the limit.  An unmeasurable probe ends the search at the
    highest passing rate so far, a lower bound (0.0 if none passed).
    Returns ``(rate, probes)``; probes are ``(rate, tail_ms, ok)`` with
    ``ok`` None for an unmeasurable one.
    """
    probes: List[Tuple[float, float, Optional[bool]]] = []

    def passes(rate: float) -> bool:
        result = probe(rate)
        if result is None:
            probes.append((rate, math.nan, None))
            raise Unmeasurable
        tail, backlog_ok = result
        ok = backlog_ok and tail <= limit_ms
        probes.append((rate, tail, ok))
        return ok

    lo = hi = None
    try:
        rate = start
        if passes(rate):
            lo = rate
            while hi is None:
                rate *= factor
                if passes(rate):
                    lo = rate
                else:
                    hi = rate
        else:
            hi = rate
            while lo is None:
                rate /= factor
                if rate < floor_share * start:
                    return 0.0, probes
                if passes(rate):
                    lo = rate
                else:
                    hi = rate
        for _ in range(refine):
            mid = math.sqrt(lo * hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
    except Unmeasurable:
        return (lo or 0.0), probes
    tails = {r: t for r, t, _ in probes}
    t_lo, t_hi = tails[lo], tails[hi]
    if math.isfinite(t_hi) and t_hi > t_lo:
        share = (limit_ms - t_lo) / (t_hi - t_lo)
        return lo + (hi - lo) * min(1.0, max(0.0, share)), probes
    return lo, probes


def backlog_ok(requests, limit_ms: float) -> bool:
    """No growing backlog: every request answered, last quarter not far slower than the first."""
    if any(r.done is None for r in requests):
        return False
    lat = [r.latency * 1000.0 for r in requests]
    q = max(1, len(lat) // 4)
    return median(lat[-q:]) <= max(2.0 * median(lat[:q]), limit_ms / 2.0)


def capacity(ctx: Context, server: Server, make_request, start_rate: float,
             limit_ms: float) -> Tuple[float, list]:
    """Search the server's read capacity with probes of ``PROBE_S`` seconds.

    The limit applies to the highest percentile with at least 10 samples
    beyond it (p99 from 1,000 requests, p95 from 200).
    """
    count = iter(range(1000))

    def probe(rate: float) -> Optional[Tuple[float, bool]]:
        # A probe whose generator fell behind is tried once more, then
        # reported as unmeasurable rather than as a failure of the server.
        for _ in range(2):
            seconds = PROBE_S
            reqs = requests(ctx, make_request, f"probe{next(count)}",
                            max(20, round(rate * seconds)))
            reads, _, aborted = open_loop(
                server, fixed_rate(rate, reqs), seconds=seconds,
                drain_s=max(1.0, 4 * limit_ms / 1000.0), abort_backlog=int(rate * 0.5) + 20,
            )
            time.sleep(0.3)  # let an overloaded server finish what it already read
            if aborted:
                return math.inf, False
            s = summarize([r.latency * 1000.0 for r in reads if r.done is not None])
            tail = s["tail"] if s["n"] == len(reads) and s["tail_q"] else math.inf
            late = late_p99_ms(reads)
            ctx.log(f"  probe {rate:.1f}/s: p{s.get('tail_q', 0):g} {tail:.2f} ms, "
                    f"generator late p99 {late:.2f} ms")
            if generator_kept_up(late, tail, limit_ms):
                return tail, backlog_ok(reads, limit_ms)
        return None

    rate, probes = search_max_rate(probe, start_rate, limit_ms)
    ctx.log(f"read_max_rps {rate:.1f}/s")
    return rate, probes


# --------------------------------------------------------------------------- #
# Traced serving pass and per-layer ledger
# --------------------------------------------------------------------------- #


def start_traced_server(ctx: Context, serve_args: List[str], spans_path: Path) -> Server:
    launcher = [sys.executable, str(HERE / "traced_serve.py"), str(spans_path)]
    return Server.start(serve_args, ctx.work / "server-traced.log", launcher=launcher)


def span_ledger(spans_path: Path, window: Tuple[float, float], client_latency_s: float,
                requests: int) -> Dict[str, float]:
    """Per-layer numbers from a traced server's spans within ``window`` (perf_counter)."""
    rows = [r for r in load_spans(spans_path) if window[0] <= r[4] <= window[1]]
    agg = aggregate(rows)
    self_total = sum(v["self_s"] for v in agg.values())

    def per_call_ms(name: str) -> float:
        entry = agg.get(name)
        return entry["total_s"] / entry["calls"] * 1000.0 if entry and entry["calls"] else 0.0

    publish = agg.get("snapshot.publish")
    return {
        "trace.closure": self_total / client_latency_s if client_latency_s else 0.0,
        "aio.wire_ms": max(0.0, (client_latency_s - self_total) / requests * 1000.0)
        if requests else 0.0,
        "dynamic.insert_ms": per_call_ms("dynamic.insert_edge"),
        "dynamic.remove_ms": per_call_ms("dynamic.remove_edge"),
        "dynamic.freeze_ms": per_call_ms("dynamic.freeze"),
        "dynamic.dirty_per_publish": publish["items"] / publish["calls"] if publish else 0.0,
        "snapshot.publish_ms": per_call_ms("snapshot.publish"),
        "_spans": agg,
    }


def build_layers(build: dict) -> Dict[str, float]:
    """Per-layer construction numbers from a traced ``helper.py build``."""
    spans = build["spans"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    return {
        "graph.load_s": median([load for load, _ in build["setups"]]),
        "ordering.order_s": self_s("ordering.compute_order"),
        "bitparallel.build_s": self_s("bitparallel.build"),
        "pruned.bfs_s": self_s("pruned.build"),
        "pruned.visited_per_vertex": build["pruned_visited_per_vertex"],
        "pruned.label_yield": build["pruned_label_yield"],
    }


def calibrate_layers(ctx: Context, index: Path, batch: float, lines: str) -> Dict[str, float]:
    cal = run_helper(
        "helper.py",
        ["calibrate", "--index", str(index), "--batch", str(max(1, round(batch))),
         "--lines", lines, "--seed", str(ctx.seed)],
        ctx.work / "calibrate.log", timeout=170,
    )
    return {
        "serialization.load_s": cal["serialization_load_s"],
        "kernel.prep_s": cal["kernel_prep_s"],
        "kernel.us_per_pair": cal["kernel_us_per_pair"],
        "kernel.us_per_target": cal["kernel_us_per_target"],
        "query.scalar_us_per_pair": cal["scalar_us_per_pair"],
        "engine.us_per_pair": cal["engine_us_per_pair"],
        "cache.probe_us_per_pair": cal["cache_probe_us_per_pair"],
        "protocol.parse_us_per_line": cal["protocol_parse_us_per_line"],
        "protocol.format_us_per_reply": cal["protocol_format_us_per_reply"],
        "index_bytes_per_vertex": cal["index_bytes_per_vertex"],
    }


def served_index_bytes(spans_path: Path) -> float:
    """Bytes per vertex of the last index a traced dynamic server froze for serving."""
    sizes = json.loads(served_sizes_path(spans_path).read_text(encoding="utf-8"))
    return sizes["index_bytes_per_vertex"]


def prep_index(ctx: Context, edges_path: Path, bp: int) -> Tuple[dict, Path]:
    """Build (and save) the index a serving workload uses, in a fresh process."""
    index_path = ctx.work / "index.npz"
    args = ["build", "--edges", str(edges_path), "--bp", str(bp), "--save", str(index_path)]
    if ctx.trace:
        args += ["--spans", str(ctx.spans_dir / f"{ctx.workload}-s{ctx.seed}-build.jsonl")]
    build = run_helper("helper.py", args, ctx.work / "build.log", timeout=170)
    ctx.log(f"index built in {build['build_s']:.3f} s "
            f"({build['label_entries_per_vertex']:.2f} entries/vertex)")
    return build, index_path


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


def run_build(ctx: Context) -> Outcome:
    spec = SPEC["build"]
    n, edges, path = make_graph(ctx)
    rng = random.Random(ctx.seed)
    sources = [rng.randrange(n) for _ in range(spec["sample_sources"])]
    pairs = [(s, rng.randrange(n)) for s in sources for _ in range(spec["sample_targets"])]
    rng.shuffle(pairs)
    # The helper times exactly these pairs; the check below covers them all.
    index_path = ctx.work / "index.npz"
    args = ["build", "--edges", str(path), "--bp", str(spec["bp"]),
            "--loads", str(GRAPH_LOADS), "--loads-after", str(GRAPH_LOADS),
            "--pairs", str(ctx.work / "pairs.txt"),
            "--query-seconds", str(ctx.seconds / 2)]
    with open(ctx.work / "pairs.txt", "w", encoding="ascii") as handle:
        handle.writelines(f"{s} {t}\n" for s, t in pairs)
    if ctx.trace:
        args += ["--save", str(index_path)]
    build = run_helper("helper.py", args, ctx.work / "build.log", timeout=170)
    ctx.log(f"built {n} vertices in {build['build_s']:.3f} s")
    oracle = BfsOracle(n, edges)
    wrong = 0
    for (s, t), d in zip(pairs, build["distances"]):
        got = float("inf") if d is None else d
        wrong += got != oracle.distance(s, t)
    lat = build["query_ms"]
    out = Outcome(attempted=len(pairs), failed=wrong, wrong=wrong)
    out.end_to_end = {
        "setup_s": scaled_setup_s(build["setups"]),
        "label_entries_per_vertex": build["label_entries_per_vertex"],
        "rss_mb": build["rss_mb"],
    }
    out.details = {"n": n, "m": build["m"], "kernel": build["kernel"], "reads": lat,
                   "setups": build["setups"], "build_s": build["build_s"],
                   "query_passes": build["query_passes"]}
    if ctx.trace:
        spans_path = ctx.spans_dir / f"build-s{ctx.seed}-build.jsonl"
        traced = run_helper(
            "helper.py",
            ["build", "--edges", str(path), "--bp", str(spec["bp"]), "--spans", str(spans_path)],
            ctx.work / "build-traced.log", timeout=170,
        )
        layers = build_layers(traced)
        layers.update(calibrate_layers(ctx, index_path, 1, "pair"))
        closure = sum(v["self_s"] for v in traced["spans"].values()) / traced["build_s"]
        layers.update({
            "build_s": build["build_s"],
            "read_p50_ms": lat["p50"],
            "read_p99_ms": lat["p99"],
            "trace.closure": closure,
            "trace.overhead": traced["build_s"] / build["build_s"] - 1.0,
            "read_n": lat["n"],
            "read_max_rps": 1000.0 / lat["mean"],
        })
        out.per_layer = layers
        out.details["spans_file"] = str(spans_path)
        out.details["build_spans"] = traced["spans"]
    return out


def _serving_reads(ctx: Context, server: Server, make_request, rate: float, seconds: float,
                   writer=None, conns: int = 2):
    """Warm-up second (not timed), then the fixed-rate phase; returns its requests."""
    warm_reqs = requests(ctx, make_request, "warm", int(rate))
    warm, _, _ = open_loop(server, fixed_rate(rate, warm_reqs, conns),
                           seconds=1.0, drain_s=5.0, conns=conns)
    reqs = requests(ctx, make_request, "fixed", int(round(rate * seconds)))
    window_start = time.perf_counter()
    reads, writes, _ = open_loop(
        server, fixed_rate(rate, reqs, conns), seconds=seconds,
        drain_s=10.0, writer=writer, conns=conns + (1 if writer else 0),
    )
    window = (window_start, time.perf_counter())
    if len(reads) < MIN_TAIL_SAMPLES:
        raise InvalidRun(f"only {len(reads)} reads; p99 needs {MIN_TAIL_SAMPLES}")
    return warm, reads, writes, window


@dataclass
class Phase:
    """A valid measured phase, on a server left running, plus every attempt's requests."""

    server: Server
    reads: list
    writes: list
    window: Tuple[float, float]
    late: float
    #: ``(reads incl. warm-up, writes, writer)`` of every attempt, to check.
    attempts: list


def measured_phase(ctx: Context, start_server: Callable[[], Server], make_request,
                   rate: float, seconds: float, limit_ms: float, new_writer) -> Phase:
    """Start a server and run the warm-up and the measured phase on it.

    A phase whose generator fell behind its schedule (see
    :func:`generator_kept_up`) is discarded, not reported, and run again on
    a fresh server, up to ``PHASE_ATTEMPTS`` times; its replies are still
    checked.  The server of the valid phase is left running.
    """
    attempts = []
    for _ in range(PHASE_ATTEMPTS):
        server = start_server()
        try:
            writer = new_writer() if new_writer else None
            warm, reads, writes, window = _serving_reads(
                ctx, server, make_request, rate, seconds, writer=writer,
                conns=1 if writer else 2,
            )
        except BaseException:
            server.stop()
            raise
        attempts.append((warm + reads, writes, writer))
        late, tail = late_p99_ms(reads), latency_summary(reads)["p99"]
        if generator_kept_up(late, tail, limit_ms):
            return Phase(server, reads, writes, window, late, attempts)
        server.stop()
        ctx.log(f"load generator fell behind its schedule (late p99 {late:.1f} ms, "
                f"read p99 {tail:.1f} ms): phase discarded")
    raise InvalidRun(f"load generator fell behind its schedule in {PHASE_ATTEMPTS} phases")


def tally(oracle: BfsOracle, check, attempts) -> Tuple[int, int]:
    """``(wrong, missing)``: wrong answers, and requests unanswered or answered with an error."""
    wrong = missing = 0
    for reads, writes, writer in attempts:
        for r in reads:
            if r.done is None or r.reply.startswith(b"error"):
                missing += 1
            elif not check(oracle, r):
                wrong += 1
        for w in writes:
            if w.done is None or w.reply.startswith(b"error"):
                missing += 1
            elif not writer.check(oracle, w):
                wrong += 1
    return wrong, missing


def _run_serving(ctx: Context, *, serve_args_for, make_request, check, rate: float,
                 seconds: float, limit_ms: float, bp: int, lines: str,
                 writer_factory=None, search_from: Optional[float] = None) -> Outcome:
    n, edges, path = make_graph(ctx)
    new_writer = (lambda: writer_factory(edges, n)) if writer_factory else None
    # read_hot and fanout serve a saved static index.  read_write's server
    # builds its own dynamic index from the edge list; the static build only
    # feeds the traced run's per-layer figures.
    build = index_path = None
    if writer_factory is None or ctx.trace:
        build, index_path = prep_index(ctx, path, bp)
    serve_args = serve_args_for(path, index_path)
    oracle = BfsOracle(n, edges)
    out = Outcome()
    setups_before, setups_after = SPEC[ctx.workload]["setups"]
    setups = time_startups(ctx, serve_args, setups_before - 1, "before")

    def start_measured() -> Server:
        ref = reference_startup_s()
        server = Server.start(serve_args, ctx.work / f"server-measured{len(setups)}.log")
        setups.append((server.startup_s, (ref + reference_startup_s()) / 2.0))
        return server

    phase = measured_phase(ctx, start_measured, make_request, rate, seconds, limit_ms,
                           new_writer)
    try:
        counters = scrape_counters(phase.server)
        rss = phase.server.peak_rss_mib()
        max_rps, probes = (0.0, [])
        if ctx.trace:
            max_rps, probes = capacity(ctx, phase.server, make_request, search_from or rate,
                                       limit_ms)
    finally:
        phase.server.stop()
    setups += time_startups(ctx, serve_args, setups_after, "after")
    ctx.log("server start-up (reference) " +
            ", ".join("%.3f (%.3f)" % sample for sample in setups) + " s")
    reads, writes = phase.reads, phase.writes
    lat = latency_summary(reads)
    ctx.log(f"reads p50 {lat['p50']:.3f} ms p99 {lat['p99']:.3f} ms (n={lat['n']}), "
            f"generator late p99 {phase.late:.3f} ms")
    out.attempted = sum(len(r) + len(w) for r, w, _ in phase.attempts)
    out.wrong, missing = tally(oracle, check, phase.attempts)
    # Refused and failed requests come back as error lines; the server's own
    # counters catch any the replies did not show.
    out.failed = max(out.wrong + missing, int(counters["rejected"] + counters["errors"]))
    out.end_to_end = {
        "setup_s": scaled_setup_s(setups),
        "label_entries_per_vertex": counters["label_entries_per_vertex"],
        "rss_mb": rss,
    }
    write_ms = {}
    for op in ("remove", "add", "publish"):
        samples = [w.latency * 1000.0 for w in writes if w.tag == op and w.done is not None]
        write_ms[op] = median(samples) if samples else 0.0
    out.details = {
        "n": n, "reads": lat, "setups": setups, "counters": counters,
        "phases_discarded": len(phase.attempts) - 1,
        "late_p99_ms": phase.late, "writes": {op: len([w for w in writes if w.tag == op])
                                              for op in write_ms},
        "write_p50_ms": write_ms, "kernel": counters["kernel"],
    }
    if build is not None:
        out.details["build_s"] = build["build_s"]
    if not ctx.trace:
        return out

    # Traced pass: same inputs, same server start-up, spans on.
    spans_path = ctx.spans_dir / f"{ctx.workload}-s{ctx.seed}-serve.jsonl"
    traced = measured_phase(ctx, lambda: start_traced_server(ctx, serve_args, spans_path),
                            make_request, rate, seconds, limit_ms, new_writer)
    traced.server.stop()
    t_lat = latency_summary(traced.reads)
    done = [r for r in traced.reads + traced.writes if r.done is not None]
    ledger = span_ledger(spans_path, traced.window, sum(r.latency for r in done), len(done))
    span_agg = ledger.pop("_spans")
    t_wrong, t_missing = tally(oracle, check, traced.attempts)
    out.wrong += t_wrong
    out.failed += t_wrong + t_missing
    out.attempted += sum(len(r) + len(w) for r, w, _ in traced.attempts)
    layers = build_layers(build)
    layers.update(calibrate_layers(ctx, index_path, counters["average_batch_size"], lines))
    layers.update(ledger)
    if writer_factory is not None:
        # The served index is the dynamic one, as the traced server froze it last.
        layers["index_bytes_per_vertex"] = served_index_bytes(spans_path)
    layers.update({
        "build_s": build["build_s"],
        "read_p50_ms": lat["p50"],
        "read_p99_ms": lat["p99"],
        "engine.batch_pairs": counters["average_batch_size"],
        "cache.hit_rate": counters["cache_hit_rate"],
        "cache.lookups": counters["cache_lookups"],
        "cache.evictions": counters["cache_evictions"],
        "aio.queue_wait_ms": counters["queue_wait_ms"],
        "aio.batch_wait_ms": counters["batch_wait_ms"],
        "aio.loop_lag_ms": counters["loop_lag_ms"],
        "trace.overhead": t_lat["p50"] / lat["p50"] - 1.0,
        "loadgen.late_p99_ms": phase.late,
        "read_n": lat["n"],
        "write_n": len(writes),
        "read_max_rps": max_rps,
        "add_p50_ms": write_ms["add"],
        "remove_p50_ms": write_ms["remove"],
        "publish_p50_ms": write_ms["publish"],
    })
    out.per_layer = layers
    out.details.update({"spans_file": str(spans_path), "serve_spans": span_agg,
                        "capacity_probes": probes, "traced_reads": t_lat})
    return out


def run_read_hot(ctx: Context) -> Outcome:
    spec = SPEC["read_hot"]
    n = spec["n"]
    rng = random.Random(f"{ctx.seed}:read_hot:pool")
    pool = [(rng.randrange(n), rng.randrange(n)) for _ in range(spec["pool"])]
    rank = zipf_sampler(spec["pool"], spec["zipf"])

    def make_request(rng: random.Random):
        s, t = pool[rank(rng)]
        return pair_line(s, t), 1, (s, t)

    return _run_serving(
        ctx, serve_args_for=lambda edges, index: [str(index)], make_request=make_request,
        check=lambda oracle, r: check_pair_reply(oracle, *r.tag, r.reply),
        rate=spec["rate"], seconds=ctx.seconds, limit_ms=PAIR_LIMIT_MS, bp=spec["bp"],
        lines="pair",
    )


def run_fanout(ctx: Context) -> Outcome:
    spec = SPEC["fanout"]
    n, k = spec["n"], spec["targets"]

    def make_request(rng: random.Random):
        s = rng.randrange(n)
        targets = np.array([rng.randrange(n) for _ in range(k)], dtype=np.int64)
        return many_line(s, targets.tolist()), k, (s, targets)

    return _run_serving(
        ctx, serve_args_for=lambda edges, index: [str(index)], make_request=make_request,
        check=lambda oracle, r: check_many_reply(oracle, r.tag[0], r.tag[1], r.reply),
        rate=spec["rate"], seconds=ctx.seconds * spec["phase_factor"],
        limit_ms=FANOUT_LIMIT_MS, bp=spec["bp"],
        lines="many",
    )


class EditCycleWriter(loadgen.Writer):
    """Closed-loop writer: remove a seeded edge, add it back, publish, verify a batch.

    The graph is the same after every cycle, so every read — and the
    verification batch sent after each publish acknowledgement — has the
    original graph's distances as its answer.
    """

    conn = 1

    def __init__(self, edges, n: int, seed: str, verify_targets: int, sample: int) -> None:
        self.rng = random.Random(seed)
        # A fixed uniform sample of the base graph's edges (positions in the
        # edge list, which relabeling keeps), visited in a seeded order: every
        # run edits the same edges, so runs differ by order, not by cost.
        picks = random.Random(GRAPH_SEED).sample(range(len(edges)), sample)
        self.rng.shuffle(picks)
        self.cycle = [edges[i] for i in picks]
        self.n = n
        self.k = verify_targets
        self.step = 0
        self.cycles = 0
        self.edge = (0, 0)

    def next_request(self, now: float):
        if self.step == 0:
            self.edge = self.cycle[self.cycles % len(self.cycle)]
            self.cycles += 1
            self.step = 1
            return b"remove %d %d\n" % self.edge, 1, "remove"
        if self.step == 1:
            self.step = 2
            return b"add %d %d\n" % self.edge, 1, "add"
        if self.step == 2:
            self.step = 3
            return b"publish\n", 1, "publish"
        self.step = 0
        a, b = self.edge
        targets = [b] + [self.rng.randrange(self.n) for _ in range(self.k - 1)]
        return many_line(a, targets), self.k, ("verify", a, targets)

    @staticmethod
    def check(oracle: BfsOracle, request) -> bool:
        if isinstance(request.tag, tuple):
            _, a, targets = request.tag
            return check_many_reply(oracle, a, targets, request.reply)
        expected = b"ok published" if request.tag == "publish" else b"ok " + request.tag.encode()
        return request.reply.startswith(expected)


def run_read_write(ctx: Context) -> Outcome:
    spec = SPEC["read_write"]
    n = spec["n"]

    def make_request(rng: random.Random):
        s, t = rng.randrange(n), rng.randrange(n)
        return pair_line(s, t), 1, (s, t)

    return _run_serving(
        ctx, serve_args_for=lambda edges_path, index: ["--edge-list", str(edges_path)],
        make_request=make_request,
        check=lambda oracle, r: check_pair_reply(oracle, *r.tag, r.reply),
        rate=spec["rate"], seconds=ctx.seconds * spec["phase_factor"], limit_ms=PAIR_LIMIT_MS,
        bp=spec["bp"], lines="pair",
        writer_factory=lambda edges, n: EditCycleWriter(
            edges, n, f"{ctx.seed}:read_write:writer", spec["verify_targets"],
            spec["edit_edges"]),
        search_from=spec["search_from"],
    )


WORKLOADS = {
    "build": run_build,
    "read_hot": run_read_hot,
    "fanout": run_fanout,
    "read_write": run_read_write,
}
