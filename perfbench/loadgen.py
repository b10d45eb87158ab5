"""Single-threaded load generator for the line protocol, over at most two TCP connections.

Open-loop requests are sent on a fixed schedule whether or not replies have
arrived; each is timed from when it was *due*, so a stall also charges the
requests queued behind it.  How late the generator itself got round to each
send is recorded separately (``late``): a run whose generator fell behind its
own schedule measured the generator, not the server, and is invalid.

A closed-loop writer can share the loop on its own connection: it sends its
next request only after the previous reply arrived.

Replies are matched to requests by order per connection.  A request expects
a known number of reply lines (1 for a pair or a mutation, ``k`` for a
one-to-many line over ``k`` targets); an ``error:`` line always ends the
request it answers.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

Schedule = Sequence[Tuple[float, int, bytes, int, object]]


class Request:
    """One request's timeline and raw reply."""

    __slots__ = ("due", "sent", "done", "line", "expect", "tag", "reply")

    def __init__(self, due: float, line: bytes, expect: int, tag: object):
        self.due = due
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.line = line
        self.expect = expect
        self.tag = tag
        self.reply: bytes = b""

    @property
    def latency(self) -> Optional[float]:
        """Seconds from due (open loop) or send (closed loop) to the last reply byte."""
        return None if self.done is None else self.done - self.due

    @property
    def late(self) -> float:
        return 0.0 if self.sent is None else self.sent - self.due


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.lines = 0  # complete lines in inbuf
        self.waiting: Deque[Request] = deque()


def connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


class Writer:
    """Closed-loop request source on connection ``conn``: asked for its next
    ``(line, expected_lines, tag)`` each time its previous request completed."""

    conn: int = 0

    def next_request(self, now: float) -> Optional[Tuple[bytes, int, object]]:
        raise NotImplementedError


def run(
    socks: Sequence[socket.socket],
    schedule: Schedule,
    *,
    start: float,
    end: float,
    drain_s: float,
    writer: Optional[Writer] = None,
    abort_backlog: Optional[int] = None,
) -> Tuple[List[Request], List[Request], bool]:
    """Drive ``schedule`` (offsets from ``start``) and an optional closed-loop writer.

    ``schedule`` rows are ``(offset_s, conn, line, expected_lines, tag)``
    sorted by offset.  The writer stops issuing at ``end``; the loop then
    waits up to ``drain_s`` for outstanding replies.  With ``abort_backlog``
    the run stops early once that many open-loop requests are outstanding
    (used by the capacity search: the rate is already known to fail).

    Returns ``(open_loop_requests, writer_requests, aborted)``; requests
    without ``done`` got no reply in time.
    """
    conns = [_Conn(s) for s in socks]
    # select(2) takes a microsecond timeout; epoll rounds up to whole
    # milliseconds, which would make every open-loop send up to 1 ms late.
    selector = selectors.SelectSelector()
    for idx, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, idx)
    reads: List[Request] = []
    writes: List[Request] = []
    outstanding = 0
    pointer = 0
    writer_busy = False
    aborted = False
    deadline = end + drain_s

    def enqueue(conn_idx: int, request: Request, now: float) -> None:
        request.sent = now
        conn = conns[conn_idx]
        conn.out += request.line
        conn.waiting.append(request)

    def flush(conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                return
            del conn.out[:sent]

    try:
        while True:
            now = time.perf_counter()
            # Open-loop sends that are due.
            while pointer < len(schedule) and start + schedule[pointer][0] <= now:
                offset, conn_idx, line, expect, tag = schedule[pointer]
                request = Request(start + offset, line, expect, tag)
                enqueue(conn_idx, request, now)
                reads.append(request)
                outstanding += 1
                pointer += 1
            if writer is not None and not writer_busy and now < end:
                nxt = writer.next_request(now)
                if nxt is not None:
                    line, expect, tag = nxt
                    request = Request(now, line, expect, tag)
                    enqueue(writer.conn, request, now)
                    writes.append(request)
                    writer_busy = True
            for conn in conns:
                flush(conn)
            if abort_backlog is not None and outstanding >= abort_backlog:
                aborted = True
                break
            done_sending = pointer >= len(schedule) and (writer is None or now >= end)
            if done_sending and outstanding == 0 and not writer_busy:
                break
            if now >= deadline:
                break
            # Sleep until the next due send, a reply, or a writable socket.
            if pointer < len(schedule):
                wait = max(0.0, start + schedule[pointer][0] - now)
            else:
                wait = min(0.05, max(0.0, deadline - now))
            for idx, conn in enumerate(conns):
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                selector.modify(conn.sock, events, idx)
            for key, mask in selector.select(wait):
                conn = conns[key.data]
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    chunk = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                received = time.perf_counter()
                conn.inbuf += chunk
                conn.lines += chunk.count(b"\n")
                while conn.waiting and conn.lines:
                    head = conn.waiting[0]
                    need = 1 if conn.inbuf.startswith(b"error:") else head.expect
                    if conn.lines < need:
                        break
                    pos = -1
                    for _ in range(need):
                        pos = conn.inbuf.index(b"\n", pos + 1)
                    head.reply = bytes(conn.inbuf[: pos + 1])
                    del conn.inbuf[: pos + 1]
                    conn.lines -= need
                    head.done = received
                    conn.waiting.popleft()
                    if writes and head is writes[-1]:
                        writer_busy = False
                    else:
                        outstanding -= 1
    finally:
        selector.close()
    return reads, writes, aborted
