"""In-memory span recorder that wraps the program's public functions from outside.

The traced run patches selected module functions and class methods with a
wrapper that records one span per call: name, start, end, parent span and
trace id.  Nesting is tracked per thread, so a call made inside another
wrapped call becomes its child; a call with no wrapped caller starts a new
trace.  Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of it that its children
cover, so summing self times never counts a nested call twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span_id, parent_id, trace_id, name, start, end, items)
SpanRow = Tuple[int, int, int, str, float, float, int]


class SpanRecorder:
    """Collects spans from wrapped callables; thread-safe appends."""

    def __init__(self) -> None:
        self.rows: List[SpanRow] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        func: Callable,
        name: str,
        items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """Return ``func`` wrapped to record a span named ``name`` per call.

        ``items(*args, **kwargs)`` optionally counts the work items of a call
        (pairs, targets, lines) so per-item costs can be derived.
        """
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent_id, trace_id = stack[-1]
            else:
                parent_id, trace_id = 0, span_id
            # Counted before the call: a publish resets the count it reports.
            count = items(*args, **kwargs) if items is not None else 1
            stack.append((span_id, trace_id))
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.rows.append(
                    (span_id, parent_id, trace_id, name, start, end, count)
                )

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        items: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or class method) with a traced one.

        A missing attribute is skipped and listed in :attr:`missing`, so a
        renamed function costs one layer's numbers, not the whole run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, items))

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, start, end, count in self.rows:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "start": start,
                            "end": end,
                            "items": count,
                        }
                    )
                    + "\n"
                )


def load_spans(path) -> List[SpanRow]:
    """Read a span file written by :meth:`SpanRecorder.dump`."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            d = json.loads(line)
            rows.append(
                (d["id"], d["parent"], d["trace"], d["name"], d["start"], d["end"], d["items"])
            )
    return rows


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(rows: Sequence[SpanRow]) -> Dict[int, float]:
    """Self time of every span: duration minus the union its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end, _ in rows:
        if parent:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, _, start, end, _ in rows:
        kids = children.get(span_id)
        covered = _covered((max(a, start), min(b, end)) for a, b in kids) if kids else 0.0
        out[span_id] = max(0.0, (end - start) - covered)
    return out


def aggregate(rows: Sequence[SpanRow]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, items, total duration and total self time (seconds)."""
    selfs = self_times(rows)
    agg: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span_id, _, _, name, start, end, count in rows:
        entry = agg[name]
        entry["calls"] += 1
        entry["items"] += count
        entry["total_s"] += end - start
        entry["self_s"] += selfs[span_id]
    return dict(agg)
