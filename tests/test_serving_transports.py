"""One scripted session through both transports of the shared serving core.

The threaded server (driven here through ``serve_stdio``) and the asyncio
front end (driven through its TCP listener) parse, dispatch and render every
line through the same core, so the same script must produce byte-identical
replies.  ``STATS JSON`` values (latencies, counters) legitimately differ
between two runs, so for that line only the key set is compared, minus the
two gauges that belong to the asyncio transport alone.
"""

from __future__ import annotations

import asyncio
import io
import json

from repro.serving import AsyncQueryFrontend, QueryServer, SnapshotManager, serve_stdio
from tests.test_serving_aio import _send_lines

#: Gauges only the asyncio transport reports.
ASYNC_ONLY_STATS = {"num_connections", "event_loop_lag_seconds"}


def _script(num_vertices: int) -> str:
    last = num_vertices - 1
    return "\n".join(
        [
            "0 5",
            "3,7",
            "many 0 1 2 3",
            f"0 {last}",
            f"add 0 {last}",
            "publish",
            f"0 {last}",
            "frobnicate",
            "0 100000",
            "STATS JSON",
            "QUIT",
            "",
        ]
    )


def _normalise(replies, drop=frozenset()):
    """Replace the ``STATS JSON`` reply by its sorted key list."""
    normalised = []
    for reply in replies:
        if reply.startswith("{"):
            reply = sorted(set(json.loads(reply)) - drop)
        normalised.append(reply)
    return normalised


def test_stdio_and_async_tcp_replies_are_identical(small_social_graph):
    script = _script(small_social_graph.num_vertices)

    with QueryServer(SnapshotManager.from_graph(small_social_graph)) as server:
        out_stream = io.StringIO()
        serve_stdio(server, io.StringIO(script), out_stream)
    stdio_replies = out_stream.getvalue().splitlines()

    async def over_tcp():
        frontend = AsyncQueryFrontend(SnapshotManager.from_graph(small_social_graph))
        await frontend.start()
        await frontend.start_tcp()
        try:
            return await _send_lines(*frontend.tcp_address, script)
        finally:
            await frontend.stop()

    tcp_replies = asyncio.run(over_tcp())

    # The script reached every verb: pairs, a fan-out, both mutations, a
    # parse error, an out-of-range id and the stats dump.
    assert len(stdio_replies) == 12
    assert stdio_replies[6].startswith("ok add")
    assert stdio_replies[7] == "ok published version=2"
    assert stdio_replies[8].endswith("\t1")
    assert stdio_replies[9].startswith("error: cannot parse query")
    assert stdio_replies[10].startswith("error:")
    assert _normalise(stdio_replies) == _normalise(tcp_replies, drop=ASYNC_ONLY_STATS)
    stats_keys = _normalise(stdio_replies)[-1]
    assert "index_num_vertices" in stats_keys
    assert not ASYNC_ONLY_STATS & set(stats_keys)
