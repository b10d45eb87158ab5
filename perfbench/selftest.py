"""Self-tests for the benchmark's own parts (not the program's).

Run from the checkout root::

    python3 perfbench/selftest.py

Covers the percentile and sample-count rule, the capacity search (against a
model and against a stub TCP server of known capacity), the BFS answer
checker catching injected wrong replies, span self times and the seeded
input generators.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import socket
import sys
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
from groundtruth import (  # noqa: E402
    BfsOracle,
    barabasi_albert_edges,
    check_many_reply,
    check_pair_reply,
)
from percentiles import (  # noqa: E402
    nearest_rank,
    samples_beyond,
    summarize,
    tail_level,
)
from procs import REFERENCE_STARTUP_S, scaled_setup_s  # noqa: E402
from spans import SpanRecorder, aggregate, self_times  # noqa: E402
from workloads import (  # noqa: E402
    Context,
    EditCycleWriter,
    capacity,
    generator_kept_up,
    search_max_rate,
    zipf_sampler,
)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_counts_samples_beyond(self):
        self.assertEqual(nearest_rank(1000, 99.0), 990)
        self.assertEqual(samples_beyond(1000, 99.0), 10)
        self.assertEqual(samples_beyond(999, 99.0), 9)
        self.assertEqual(nearest_rank(1, 50.0), 1)

    def test_tail_level_is_highest_with_ten_beyond(self):
        self.assertEqual(tail_level(1000), 99.0)
        self.assertEqual(tail_level(999), 95.0)
        self.assertEqual(tail_level(10000), 99.9)
        self.assertEqual(tail_level(200), 95.0)
        self.assertEqual(tail_level(20), 50.0)
        self.assertEqual(tail_level(19), 0.0)

    def test_summarize_reports_counts(self):
        values = list(range(1, 1001))
        random.Random(3).shuffle(values)
        s = summarize(values)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500)
        self.assertEqual(s["p99"], 990)
        self.assertEqual(s["p99_beyond"], 10)
        self.assertEqual((s["tail_q"], s["tail"], s["tail_beyond"]), (99.0, 990, 10))
        self.assertEqual(summarize([5, 1, 3])["p50"], 3)


class SetupScaling(unittest.TestCase):
    def test_host_speed_divides_out(self):
        # The same set-up on a host running at full, half and a third speed.
        ref = REFERENCE_STARTUP_S
        samples = [(0.3, ref), (0.6, 2 * ref), (0.9, 3 * ref)]
        self.assertAlmostEqual(scaled_setup_s(samples), 0.3)


class CapacitySearch(unittest.TestCase):
    def test_model_with_known_capacity(self):
        capacity_rps = 437.0

        def probe(rate):
            # Latency rises towards the knee, then the backlog grows without bound.
            if rate >= capacity_rps:
                return math.inf, False
            return 2.0 + 8.0 * rate / capacity_rps, True

        rate, probes = search_max_rate(probe, 100.0, limit_ms=10.0)
        self.assertLessEqual(rate, capacity_rps)
        self.assertGreater(rate, 0.85 * capacity_rps)
        self.assertLessEqual(len(probes), 8)

    def test_model_that_never_meets_the_limit(self):
        rate, _ = search_max_rate(lambda r: (50.0, True), 100.0, limit_ms=10.0)
        self.assertEqual(rate, 0.0)

    def test_unmeasurable_probe_ends_search_at_a_lower_bound(self):
        # The server would pass up to 437/s, but the generator cannot keep
        # up beyond 200/s: the search stops there instead of failing the server.
        def probe(rate):
            if rate > 200.0:
                return None
            return 2.0 + 8.0 * rate / 437.0, True

        rate, probes = search_max_rate(probe, 100.0, limit_ms=10.0)
        self.assertEqual(rate, 150.0)
        self.assertIsNone(probes[-1][2])
        self.assertEqual(search_max_rate(lambda r: None, 100.0, limit_ms=10.0)[0], 0.0)

    def test_late_generator_is_judged_against_what_it_measured(self):
        self.assertTrue(generator_kept_up(4.0, 6.0, limit_ms=10.0))
        self.assertFalse(generator_kept_up(8.0, 12.0, limit_ms=10.0))
        # A long tail from the server itself dwarfs a modest lateness.
        self.assertTrue(generator_kept_up(30.0, 400.0, limit_ms=10.0))

    def test_stub_server_with_known_capacity(self):
        service_s = 0.004  # one request every 4 ms: capacity 250 requests/s
        with StubServer(service_s) as stub:
            ctx = Context(workload="stub", seed=1, seconds=1.0, trace=False,
                          work=Path("."), spans_dir=Path("."), log=lambda m: None)

            def make_request(rng):
                s, t = rng.randrange(100), rng.randrange(100)
                return b"%d %d\n" % (s, t), 1, (s, t)

            # A limit well above the host's scheduling stalls (tens of ms on a
            # busy 2-vCPU machine): only the stub's own backlog can exceed it.
            rate, _ = capacity(ctx, stub, make_request, 100.0, limit_ms=100.0)
        self.assertGreater(rate, 0.7 / service_s)
        self.assertLess(rate, 1.1 / service_s)


class StubServer:
    """Line server answering ``s t`` with ``s<TAB>t<TAB>1`` at a fixed service rate.

    Runs in its own process (as the real server does), so the generator and
    the stub never contend for one interpreter lock.  Requests from every
    connection share one schedule served one at a time, so the capacity is
    exactly ``1 / service_s`` requests per second.
    """

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.tcp = None
        self.process = None

    def __enter__(self):
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        self.process = ctx.Process(target=_stub_main, args=(self.service_s, child), daemon=True)
        self.process.start()
        self.tcp = tuple(parent.recv())
        return self

    def __exit__(self, *exc):
        self.process.terminate()
        self.process.join(timeout=10)


def _stub_main(service_s: float, pipe) -> None:
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    pipe.send(listener.getsockname())
    lock = threading.Lock()
    next_free = [0.0]

    def serve(conn):
        buf = b""
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    with lock:
                        next_free[0] = max(time.perf_counter(), next_free[0]) + service_s
                        done_at = next_free[0]
                    time.sleep(max(0.0, done_at - time.perf_counter()))
                    s, t = line.split()
                    try:
                        conn.sendall(s + b"\t" + t + b"\t1\n")
                    except OSError:
                        return

    while True:
        conn, _ = listener.accept()
        threading.Thread(target=serve, args=(conn,), daemon=True).start()


class Checker(unittest.TestCase):
    def setUp(self):
        # Path 0-1-2-3 plus an isolated vertex 4.
        self.oracle = BfsOracle(5, [(0, 1), (1, 2), (2, 3)])

    def test_pair_reply(self):
        self.assertTrue(check_pair_reply(self.oracle, 0, 3, b"0\t3\t3\n"))
        self.assertTrue(check_pair_reply(self.oracle, 0, 4, b"0\t4\tinf\n"))
        self.assertFalse(check_pair_reply(self.oracle, 0, 3, b"0\t3\t2\n"))  # injected off-by-one
        self.assertFalse(check_pair_reply(self.oracle, 0, 3, b"0\t2\t3\n"))  # wrong echo
        self.assertFalse(check_pair_reply(self.oracle, 0, 4, b"0\t4\t9\n"))
        self.assertFalse(check_pair_reply(self.oracle, 0, 3, b"error: boom\n"))

    def test_many_reply(self):
        good = b"1\t0\t1\n1\t3\t2\n1\t4\tinf\n"
        self.assertTrue(check_many_reply(self.oracle, 1, [0, 3, 4], good))
        self.assertFalse(check_many_reply(self.oracle, 1, [0, 3, 4], good.replace(b"\t2\n", b"\t1\n")))
        self.assertFalse(check_many_reply(self.oracle, 1, [0, 3, 4], good[: good.rindex(b"1\t4")]))
        self.assertFalse(check_many_reply(self.oracle, 1, [0, 4, 3], good))

    def test_writer_acks_and_verify_batch(self):
        class Req:
            def __init__(self, tag, reply):
                self.tag, self.reply = tag, reply

        check = EditCycleWriter.check
        self.assertTrue(check(self.oracle, Req("remove", b"ok remove (0, 1); 1 updates\n")))
        self.assertFalse(check(self.oracle, Req("remove", b"error: no such edge\n")))
        self.assertTrue(check(self.oracle, Req("publish", b"ok published version=3\n")))
        self.assertTrue(check(self.oracle, Req(("verify", 0, [3]), b"0\t3\t3\n")))
        self.assertFalse(check(self.oracle, Req(("verify", 0, [3]), b"0\t3\t4\n")))

    def test_bfs_matches_brute_force_on_generated_graph(self):
        n = 300
        edges = barabasi_albert_edges(n, 2, seed=5)
        oracle = BfsOracle(n, edges)
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        for source in (0, 7, 299):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            for t in range(n):
                self.assertEqual(oracle.distance(source, t), float(dist.get(t, math.inf)))


class Inputs(unittest.TestCase):
    def test_generator_is_seeded(self):
        a = barabasi_albert_edges(1000, 3, seed=9)
        self.assertEqual(a, barabasi_albert_edges(1000, 3, seed=9))
        self.assertNotEqual(a, barabasi_albert_edges(1000, 3, seed=10))
        self.assertEqual(len(a), 3 * (1000 - 3))
        self.assertEqual(len(set(a)), len(a))

    def test_zipf_is_skewed(self):
        draw = zipf_sampler(1000, 1.0)
        rng = random.Random(1)
        ranks = [draw(rng) for _ in range(20000)]
        self.assertGreater(ranks.count(0), ranks.count(10) * 5)
        self.assertTrue(all(0 <= r < 1000 for r in ranks))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        rows = [
            (1, 0, 1, "outer", 0.0, 10.0, 1),
            (2, 1, 1, "inner", 2.0, 5.0, 1),
            (3, 1, 1, "inner", 4.0, 7.0, 1),  # overlaps the first child
            (4, 2, 1, "leaf", 2.5, 3.0, 1),
        ]
        selfs = self_times(rows)
        self.assertAlmostEqual(selfs[1], 5.0)
        self.assertAlmostEqual(selfs[2], 2.5)
        self.assertAlmostEqual(selfs[4], 0.5)
        agg = aggregate(rows)
        self.assertEqual(agg["inner"]["calls"], 2)

    def test_wrapped_calls_nest_and_restore(self):
        recorder = SpanRecorder()

        class Thing:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        recorder.patch(Thing, "outer", "t.outer")
        recorder.patch(Thing, "inner", "t.inner")
        recorder.patch(Thing, "absent", "t.absent")
        self.assertEqual(Thing().outer(), 2)
        recorder.unpatch()
        Thing().outer()
        self.assertEqual([r[3] for r in recorder.rows], ["t.inner", "t.outer"])
        inner, outer = recorder.rows
        self.assertEqual(inner[1], outer[0])  # parent
        self.assertEqual(inner[2], outer[2])  # same trace
        self.assertEqual(recorder.missing, ["Thing.absent"])


class LoadGenerator(unittest.TestCase):
    def test_open_loop_times_from_due_and_matches_replies(self):
        with StubServer(0.0005) as stub:
            socks = [loadgen.connect(*stub.tcp) for _ in range(2)]
            schedule = [(i / 200.0, i % 2, b"%d %d\n" % (i, i + 1), 1, i) for i in range(100)]
            start = time.perf_counter() + 0.01
            reads, writes, aborted = loadgen.run(socks, schedule, start=start, end=start + 0.5,
                                                 drain_s=2.0)
            for sock in socks:
                sock.close()
        self.assertFalse(aborted)
        self.assertEqual(writes, [])
        for request in reads:
            self.assertIsNotNone(request.done)
            self.assertEqual(request.reply, b"%d\t%d\t1\n" % (request.tag, request.tag + 1))
            self.assertGreaterEqual(request.latency, 0.0005)
            self.assertGreaterEqual(request.sent, request.due)


if __name__ == "__main__":
    unittest.main(verbosity=2)
