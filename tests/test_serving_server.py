"""Tests for the batching query server, admission control and wire protocol."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.errors import AdmissionError, ServingError, VertexError
from repro.graph.csr import Graph
from repro.serving import (
    BatchQueryEngine,
    LRUCache,
    QueryServer,
    SnapshotManager,
    serve_stdio,
)


@pytest.fixture
def engine(small_social_graph):
    index = PrunedLandmarkLabeling(num_bit_parallel_roots=2).build(small_social_graph)
    return BatchQueryEngine(index)


class TestQueryServer:
    def test_distance_matches_index(self, engine, small_social_graph):
        with QueryServer(engine) as server:
            for s, t in [(0, 5), (3, 7), (2, 2)]:
                assert server.distance(s, t) == engine.index.distance(s, t)

    def test_batch_submission(self, engine):
        with QueryServer(engine) as server:
            request = server.submit([0, 1, 2], [5, 6, 7])
            result = request.wait(10)
            assert np.array_equal(
                result, engine.index.distance_batch([0, 1, 2], [5, 6, 7])
            )
            assert request.done

    def test_coalesces_concurrent_requests(self, engine):
        with QueryServer(engine, batch_timeout=0.05) as server:
            requests = [server.submit([i], [7 - i]) for i in range(4)]
            for i, request in enumerate(requests):
                assert request.wait(10)[0] == engine.index.distance(i, 7 - i)
            stats = server.metrics_snapshot()
            # All four one-pair requests ran, in fewer batches than requests.
            assert stats["num_queries"] == 4
            assert stats["num_batches"] <= stats["num_requests"]

    def test_submit_requires_running_server(self, engine):
        server = QueryServer(engine)
        with pytest.raises(ServingError):
            server.submit([0], [1])

    def test_out_of_range_rejected_at_submit(self, engine):
        with QueryServer(engine) as server:
            with pytest.raises(VertexError):
                server.submit([0], [10_000])
            # The bad request did not poison the server.
            assert server.distance(0, 5) == engine.index.distance(0, 5)

    def test_admission_control_rejects_when_full(self, engine):
        server = QueryServer(engine, max_pending=2)
        server._running = True  # worker intentionally not started
        server._accepting = True
        try:
            server.submit([0], [1])
            server.submit([1], [2])
            with pytest.raises(AdmissionError):
                server.submit([2], [3])
            assert server.metrics_snapshot()["num_rejected"] == 1
        finally:
            server._running = False
            server._accepting = False

    def test_mismatched_lengths_rejected_at_submit(self, engine):
        """A length mismatch fails the caller at once, not the batch it would
        have joined, and is not counted as a server error."""
        with QueryServer(engine) as server:
            with pytest.raises(ValueError):
                server.submit([0, 1], [2])
            assert server.distance(0, 5) == engine.index.distance(0, 5)
            assert server.metrics_snapshot()["num_errors"] == 0

    def test_stats_report_index_health_gauges(self, small_social_graph):
        """The dirty-vertex-ratio alert needs both gauges on every front end."""
        manager = SnapshotManager.from_graph(small_social_graph)
        with QueryServer(manager) as server:
            server.insert_edge(0, small_social_graph.num_vertices - 1)
            stats = json.loads(server.metrics_json())
        assert stats["index_num_vertices"] == small_social_graph.num_vertices
        assert stats["index_dirty_vertices"] > 0
        assert "kernel_name" in stats

    def test_admission_counters_survive_concurrent_clients(self, engine):
        """Client threads admit and the worker releases the same counters; a
        lost update would leave slots held after every request finished."""
        import sys
        import threading

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryServer(engine, max_pending=4, batch_timeout=0.0005) as server:

                def client(seed):
                    for i in range(40):
                        try:
                            if i % 4:
                                server.distance(seed, i % 8, timeout=10)
                            else:
                                server.query_one_to_many(seed, [1, 2, 3])
                        except AdmissionError:
                            pass

                threads = [threading.Thread(target=client, args=(seed,)) for seed in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert server._pending == 0 and server._fanout_pending == 0
                assert server.metrics_snapshot()["queue_depth"] == 0
        finally:
            sys.setswitchinterval(switch_interval)

    def test_cache_integration(self, engine):
        cache = LRUCache(64)
        with QueryServer(engine, cache=cache) as server:
            first = server.distance(0, 5)
            second = server.distance(0, 5)
            third = server.distance(5, 0)  # symmetric hit
            assert first == second == third
            assert cache.stats.hits >= 2
            stats = server.metrics_snapshot()
            assert stats["cache_hit_rate"] > 0.0

    def test_metrics_snapshot_keys(self, engine):
        with QueryServer(engine, cache=LRUCache(8)) as server:
            server.distance(0, 5)
            stats = server.metrics_snapshot()
        for key in (
            "qps",
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "num_queries",
            "cache_hit_rate",
            "queue_depth",
        ):
            assert key in stats

    def test_snapshot_backend_serves_hot_swapped_index(self):
        manager = SnapshotManager.from_graph(Graph(4, [(0, 1), (2, 3)]))
        with QueryServer(manager) as server:
            assert server.distance(0, 3) == float("inf")
            manager.insert_edge(1, 2)
            manager.publish()
            assert server.distance(0, 3) == 3.0
            assert server.metrics_snapshot()["snapshot_version"] == 2

    def test_cache_is_invalidated_on_hot_swap(self):
        # Regression: a cached pre-swap distance must not survive publish().
        manager = SnapshotManager.from_graph(Graph(4, [(0, 1), (2, 3)]))
        cache = LRUCache(64)
        with QueryServer(manager, cache=cache) as server:
            assert server.distance(0, 3) == float("inf")  # now cached
            manager.insert_edge(1, 2)
            manager.publish()
            assert server.distance(0, 3) == 3.0
            # Reload-style swaps invalidate too (version bump is the trigger).
            assert server.distance(0, 3) == 3.0  # cache hit on the new version
            assert cache.stats.hits >= 1


class TestWireProtocol:
    def test_stdio_session(self, engine):
        index = engine.index
        with QueryServer(engine, cache=LRUCache(16)) as server:
            in_stream = io.StringIO("0 5\n0,5\n\nSTATS\nbogus line here\n9999 0\nQUIT\n")
            out_stream = io.StringIO()
            handled = serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        expected = index.distance(0, 5)
        rendered = "inf" if expected == float("inf") else f"{expected:g}"
        assert lines[0] == f"0\t5\t{rendered}"
        assert lines[1] == lines[0]
        stats = json.loads(lines[2])
        assert stats["num_queries"] == 2.0
        assert lines[3].startswith("error: cannot parse query")
        assert lines[4].startswith("error: vertex 9999")
        assert handled == 6  # QUIT ends the session without being counted

    def test_stats_json_command_reaches_render_json(self, engine):
        """``stats json`` (any casing/spacing) answers with the JSON metrics line."""
        with QueryServer(engine, cache=LRUCache(16)) as server:
            in_stream = io.StringIO("0 5\nstats json\nSTATS  JSON\nQUIT\n")
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        for line in lines[1:]:
            stats = json.loads(line)
            assert stats["num_queries"] == 1.0
            assert "cache_hit_rate" in stats

    def test_huge_vertex_id_does_not_kill_session(self, engine):
        with QueryServer(engine) as server:
            in_stream = io.StringIO(f"0 {10**30}\n0 5\nQUIT\n")
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        assert "does not fit 64 bits" in lines[0]
        assert lines[1].startswith("0\t5\t")  # the session survived

    def test_stopped_server_replies_with_error_line(self, engine):
        server = QueryServer(engine)  # never started
        out_stream = io.StringIO()
        serve_stdio(server, io.StringIO("0 5\nQUIT\n"), out_stream)
        assert out_stream.getvalue().startswith("error: server is not accepting")

    def test_parse_pair_shared_with_cli(self):
        from repro.serving import parse_pair

        assert parse_pair("3,7") == (3, 7)
        assert parse_pair("3 7") == (3, 7)
        for bad in ("3", "3 7 9", "a b", str(10**30) + " 0"):
            with pytest.raises(ValueError):
                parse_pair(bad)

    def test_stdio_stops_at_eof(self, engine):
        with QueryServer(engine) as server:
            out_stream = io.StringIO()
            handled = serve_stdio(server, io.StringIO("0 5\n"), out_stream)
        assert handled == 1
        assert out_stream.getvalue().count("\t") == 2


class TestMutationProtocol:
    def _writable_server(self):
        from repro.serving import SnapshotManager

        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        return QueryServer(SnapshotManager.from_graph(graph))

    def test_add_remove_publish_session(self):
        with self._writable_server() as server:
            in_stream = io.StringIO(
                "0 4\nremove 2 3\n0 4\npublish\n0 4\nadd 0,4\npublish\n0 4\nQUIT\n"
            )
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        assert lines[0] == "0\t4\t4"
        assert lines[1].startswith("ok remove (2, 3)")
        assert lines[2] == "0\t4\t4"      # not yet published
        assert lines[3] == "ok published version=2"
        assert lines[4] == "0\t4\tinf"
        assert lines[5].startswith("ok add (0, 4)")
        assert lines[6] == "ok published version=3"
        assert lines[7] == "0\t4\t1"

    def test_mutations_on_engine_backend_answer_error_line(self, engine):
        with QueryServer(engine) as server:
            in_stream = io.StringIO("add 0 1\npublish\n0 5\nQUIT\n")
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        assert lines[0].startswith("error: mutations require")
        assert lines[1].startswith("error: mutations require")
        assert lines[2].startswith("0\t5\t")  # the session survived

    def test_malformed_mutations_answer_error_line(self):
        with self._writable_server() as server:
            in_stream = io.StringIO(
                "add 1\nremove a b\npublish now\nadd 0 99\n0 4\nQUIT\n"
            )
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        assert lines[0].startswith("error: cannot parse mutation")
        assert lines[1].startswith("error: cannot parse mutation")
        assert lines[2].startswith("error: cannot parse mutation")
        assert lines[3].startswith("error: edge endpoints (0, 99)")
        assert lines[4] == "0\t4\t4"

    def test_cache_invalidated_by_published_removal(self):
        from repro.serving import SnapshotManager

        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        manager = SnapshotManager.from_graph(graph)
        with QueryServer(manager, cache=LRUCache(16)) as server:
            assert server.distance(0, 3) == 3.0
            assert server.distance(0, 3) == 3.0  # now cached
            server.remove_edge(1, 2)
            server.publish()
            assert server.distance(0, 3) == float("inf")

    def test_comma_form_mutations_route_to_mutation_parser(self):
        """Regression: 'add,0,2' used to fall through to the query parser in
        the live protocol even though parse_mutation (and replay files)
        accept it."""
        with self._writable_server() as server:
            in_stream = io.StringIO("remove,2,3\npublish\n2 3\nQUIT\n")
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        assert lines[0].startswith("ok remove (2, 3)")
        assert lines[1] == "ok published version=2"
        assert lines[2] == "2\t3\tinf"

    def test_parse_mutation_vocabulary(self):
        from repro.serving import parse_mutation

        assert parse_mutation("add 1 2") == ("add", (1, 2))
        assert parse_mutation("INSERT 1,2") == ("add", (1, 2))
        assert parse_mutation("remove 3 4") == ("remove", (3, 4))
        assert parse_mutation("Delete 3,4") == ("remove", (3, 4))
        assert parse_mutation("publish") == ("publish", None)
        for bad in ("", "add 1", "frobnicate 1 2", "publish 3", "add x y"):
            with pytest.raises(ValueError):
                parse_mutation(bad)


class TestReplayMutations:
    def test_replay_applies_and_auto_publishes(self):
        from repro.serving import SnapshotManager, replay_mutations

        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with QueryServer(SnapshotManager.from_graph(graph)) as server:
            counts = replay_mutations(
                server,
                ["# comment", "", "remove 2 3", "publish", "add 0 4"],
            )
            assert counts == {"added": 1, "removed": 1, "published": 2}
            # The removed edge now routes around the inserted one: 2-1-0-4-3.
            assert server.distance(2, 3) == 4.0
            assert server.distance(0, 4) == 1.0

    def test_replay_no_trailing_publish_needed(self):
        from repro.serving import SnapshotManager, replay_mutations

        graph = Graph(3, [(0, 1)])
        with QueryServer(SnapshotManager.from_graph(graph)) as server:
            counts = replay_mutations(server, ["add 1 2", "publish"])
            assert counts["published"] == 1

    def test_replay_reports_bad_line_number(self):
        from repro.serving import SnapshotManager, replay_mutations

        graph = Graph(3, [(0, 1)])
        with QueryServer(SnapshotManager.from_graph(graph)) as server:
            with pytest.raises(ValueError, match="line 2"):
                replay_mutations(server, ["add 1 2", "nonsense"])

    def test_replay_requires_writable_backend(self, engine):
        from repro.serving import replay_mutations
        from repro.errors import ServingError

        with QueryServer(engine) as server:
            with pytest.raises(ServingError):
                replay_mutations(server, ["add 0 1"])


class TestCacheWarming:
    def test_warm_cache_populates_and_reports(self, engine):
        from repro.serving import warm_cache

        cache = LRUCache(64)
        # A skewed log: the hot pair repeats across chunks, so the replay
        # itself measures the hit rate such a workload will see.
        pairs = [(0, 5)] * 6 + [(1, 7), (2, 9)]
        stats = warm_cache(engine, cache, pairs, batch_size=2)
        assert stats["pairs"] == 8
        assert stats["cached"] == len(cache) == 3
        assert stats["hits"] == 4  # chunk one computes (0,5); later chunks hit
        assert stats["hit_rate"] == pytest.approx(0.5)
        # A served query on a warmed pair is a pure cache hit.
        hits_before = cache.stats.hits
        with QueryServer(engine, cache=cache) as server:
            assert server.distance(0, 5) == engine.index.distance(0, 5)
        assert cache.stats.hits == hits_before + 1

    def test_warm_cache_empty_log(self, engine):
        from repro.serving import warm_cache

        stats = warm_cache(engine, LRUCache(8), [])
        assert stats["pairs"] == 0
        assert stats["hit_rate"] == 0.0

    def test_warm_cache_propagates_vertex_errors(self, engine):
        from repro.errors import VertexError
        from repro.serving import warm_cache

        with pytest.raises(VertexError):
            warm_cache(engine, LRUCache(8), [(0, 10**6)])

    def test_read_pairs_file(self, tmp_path):
        from repro.serving import read_pairs_file

        path = tmp_path / "pairs.txt"
        path.write_text("# hot pairs\n0 5\n\n1,7\n")
        pairs = read_pairs_file(path)
        assert pairs.tolist() == [[0, 5], [1, 7]]

    def test_read_pairs_file_reports_line_number(self, tmp_path):
        from repro.serving import read_pairs_file

        path = tmp_path / "pairs.txt"
        path.write_text("0 5\nnot-a-pair\n")
        with pytest.raises(ValueError, match="line 2"):
            read_pairs_file(path)


class TestServerTracing:
    def test_requests_leave_stitched_traces(self, engine):
        from repro.serving import TraceRecorder

        tracer = TraceRecorder()
        with QueryServer(engine, cache=LRUCache(16), tracer=tracer) as server:
            server.distance(0, 5)
        assert tracer.num_recorded == 1
        trace = tracer.recent()[0]
        assert trace["status"] == "ok"
        assert trace["num_pairs"] == 1
        assert trace["total_ms"] > 0.0
        names = [span["name"] for span in trace["spans"]]
        for expected in ("queue", "batch", "cache_probe", "kernel", "reply"):
            assert expected in names
        kernel = next(s for s in trace["spans"] if s["name"] == "kernel")
        assert kernel["pairs"] == 1

    def test_coalesced_batch_shares_kernel_span(self, engine):
        from repro.serving import TraceRecorder

        tracer = TraceRecorder()
        with QueryServer(engine, batch_timeout=0.05, tracer=tracer) as server:
            requests = [server.submit([i], [7 - i]) for i in range(4)]
            for request in requests:
                request.wait(10)
        traces = tracer.recent()
        assert len(traces) == 4
        ids = {t["trace_id"] for t in traces}
        assert len(ids) == 4  # each request has its own trace id
        # At least one kernel span covers more pairs than its own request —
        # evidence the batch-level span was stitched into each member trace.
        kernel_pairs = [
            span["pairs"]
            for trace in traces
            for span in trace["spans"]
            if span["name"] == "kernel"
        ]
        assert max(kernel_pairs) > 1

    def test_null_tracer_records_nothing_but_serves(self, engine):
        from repro.serving import NullTraceRecorder

        tracer = NullTraceRecorder()
        with QueryServer(engine, tracer=tracer) as server:
            assert server.distance(0, 5) == engine.index.distance(0, 5)
        assert tracer.num_recorded == 0

    def test_stage_histograms_fed_from_server_path(self, engine):
        from repro.serving import NullTraceRecorder

        # Even with tracing off, the stage histograms must fill.
        with QueryServer(engine, cache=LRUCache(16), tracer=NullTraceRecorder()) as server:
            server.distance(0, 5)
            histograms = server.metrics_snapshot()["histograms"]
        assert histograms["latency_seconds"]["count"] == 1
        for stage in ("queue", "batch", "kernel", "cache_probe"):
            assert histograms[f"stage_{stage}_seconds"]["count"] == 1

    def test_traces_wire_command(self, engine):
        with QueryServer(engine) as server:
            in_stream = io.StringIO("0 5\nTRACES\ntraces\nQUIT\n")
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        for line in lines[1:]:
            payload = json.loads(line)
            assert payload["num_recorded"] >= 1
            assert payload["recent"][0]["num_pairs"] == 1
            span_names = [s["name"] for s in payload["recent"][0]["spans"]]
            assert "kernel" in span_names

    def test_structured_logger_start_stop_events(self, engine):
        from repro.serving import StructuredLogger

        stream = io.StringIO()
        server = QueryServer(engine, logger=StructuredLogger(stream, component="server"))
        with server:
            server.distance(0, 5)
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert events[0] == "server_start"
        assert events[-1] == "server_stop"


class TestOneToManyProtocol:
    """The ``many``/``one-to-many`` wire verb and its fan-out dispatch."""

    def test_parse_one_to_many_spellings(self):
        from repro.serving.protocol import is_one_to_many, parse_one_to_many

        for line in (
            "many 0 1 2",
            "MANY 0 1 2",
            "one_to_many 0 1 2",
            "one-to-many,0,1,2",
            "  many, 0, 1, 2  ",
        ):
            assert is_one_to_many(line), line
            assert parse_one_to_many(line) == (0, (1, 2)), line
        assert not is_one_to_many("0 5")
        assert not is_one_to_many("add 0 1")

    def test_parse_one_to_many_errors(self):
        from repro.serving.protocol import parse_one_to_many

        with pytest.raises(ValueError, match="at least one target"):
            parse_one_to_many("many 0")
        with pytest.raises(ValueError, match="integers"):
            parse_one_to_many("many 0 x")

    def test_format_one_to_many_reply_matches_distance_lines(self):
        from repro.serving.protocol import (
            format_distance_line,
            format_one_to_many_reply,
        )

        reply = format_one_to_many_reply(3, [1, 2], [4.0, float("inf")])
        lines = reply.split("\n")
        assert lines[0] == format_distance_line(3, 1, 4.0)
        assert lines[1] == format_distance_line(3, 2, float("inf"))

    def test_query_one_to_many_matches_batch(self, engine):
        with QueryServer(engine) as server:
            targets = [1, 2, 3, 4]
            fanned = server.query_one_to_many(0, targets)
            batched = engine.index.distance_batch([0] * len(targets), targets)
            assert np.array_equal(fanned, batched)

    def test_query_one_to_many_all_targets_default(self, engine):
        with QueryServer(engine) as server:
            distances = server.query_one_to_many(5)
            assert distances.shape == (engine.num_vertices,)
            assert distances[5] == 0

    def test_stdio_one_to_many_session(self, engine):
        index = engine.index
        with QueryServer(engine) as server:
            in_stream = io.StringIO(
                "many 0 1 2\none-to-many,0,3\nmany 0\nmany 0 99999\nQUIT\n"
            )
            out_stream = io.StringIO()
            serve_stdio(server, in_stream, out_stream)
        lines = out_stream.getvalue().splitlines()
        # First verb fans out to two reply lines, one per target.
        for line, t in zip(lines[:2], (1, 2)):
            expected = index.distance(0, t)
            rendered = "inf" if expected == float("inf") else f"{expected:g}"
            assert line == f"0\t{t}\t{rendered}"
        assert lines[2].startswith("0\t3\t")
        assert lines[3].startswith("error: cannot parse query")
        assert lines[4].startswith("error: vertex 99999")

    def test_one_to_many_counts_in_verb_metrics(self, engine):
        with QueryServer(engine) as server:
            server.query_one_to_many(0, [1, 2, 3])
            server.distance(0, 5)
            stats = server.metrics_snapshot()
        assert stats["verbs"] == {"one_to_many": 3, "pair": 1}
        kernel_ops = stats["kernel_ops"]
        (kernel,) = kernel_ops
        assert kernel_ops[kernel]["query_one_to_many"] == 3
        assert kernel_ops[kernel]["query_pairs"] == 1

    def test_one_to_many_requires_accepting_server(self, engine):
        server = QueryServer(engine)
        with pytest.raises(ServingError):
            server.query_one_to_many(0, [1])

    def test_one_to_many_admission_control(self, engine):
        """Fan-outs share the max_pending budget instead of bypassing it."""
        server = QueryServer(engine, max_pending=1)
        server._running = True  # worker intentionally not started
        server._accepting = True
        try:
            server.submit([0], [1])  # saturates the pending budget
            with pytest.raises(AdmissionError):
                server.query_one_to_many(0, [1, 2, 3])
            assert server.metrics_snapshot()["num_rejected"] == 1
        finally:
            server._fail_stragglers()
            server._running = False
            server._accepting = False

    def test_one_to_many_admitted_below_limit(self, engine):
        with QueryServer(engine, max_pending=1) as server:
            distances = server.query_one_to_many(0, [1, 2])
            assert distances.shape == (2,)
            assert server._fanout_pending == 0
            assert server.metrics_snapshot()["num_rejected"] == 0
