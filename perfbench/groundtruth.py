"""Seeded input graphs and the benchmark's own BFS answer checker.

The benchmark generates its graphs here instead of through the program's
generators, so a change to the program can neither change the workload nor
the answers it is checked against.  Distances are checked against a
breadth-first search over the same edge set; the index under test is never
consulted.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


def barabasi_albert_edges(n: int, m: int, seed: int) -> List[Edge]:
    """Preferential-attachment edges: each new vertex links to ``m`` earlier ones.

    Vertex ``v >= m`` attaches to ``m`` distinct earlier vertices drawn with
    probability proportional to degree (the repeated-endpoints list), so the
    graph is connected with ``m * (n - m)`` edges.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = random.Random(seed)
    edges: List[Edge] = []
    targets = list(range(m))
    repeated: List[int] = []
    for source in range(m, n):
        for target in targets:
            edges.append((target, source))
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return edges


def write_edge_list(path: Path, n: int, edges: Iterable[Edge]) -> None:
    """Write ``u v`` lines with a comment header naming the vertex count."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices={n}\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges)


class BfsOracle:
    """Exact hop distances by level-synchronous BFS over a CSR edge set.

    Rows are computed on demand and kept as ``int8`` (``-1`` = unreachable;
    the generated graphs have diameters far below 127), so checking many
    replies from the same source costs one BFS.
    """

    def __init__(self, n: int, edges: Sequence[Edge]) -> None:
        self.n = n
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
        tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.argsort(heads, kind="stable")
        self.indices = tails[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=self.indptr[1:])
        self._rows: Dict[int, np.ndarray] = {}

    def row(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex."""
        cached = self._rows.get(source)
        if cached is not None:
            return cached
        dist = np.full(self.n, -1, dtype=np.int8)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            neighbors = self.indices[np.repeat(starts, counts) + offsets]
            fresh = np.unique(neighbors[dist[neighbors] < 0])
            depth += 1
            dist[fresh] = depth
            frontier = fresh
        self._rows[source] = dist
        return dist

    def distance(self, s: int, t: int) -> float:
        d = int(self.row(s)[t])
        return float("inf") if d < 0 else float(d)

    def distances(self, s: int, targets: Sequence[int]) -> np.ndarray:
        d = self.row(s)[np.asarray(targets, dtype=np.int64)].astype(np.float64)
        d[d < 0] = np.inf
        return d


def parse_distance(token: bytes) -> float:
    """Parse one wire distance token (``inf`` or a number)."""
    return float("inf") if token == b"inf" else float(token)


def check_pair_reply(oracle: BfsOracle, s: int, t: int, reply: bytes) -> bool:
    """Whether a ``s<TAB>t<TAB>d`` reply line echoes the pair and the true distance."""
    parts = reply.split()
    if len(parts) != 3 or parts[0] != b"%d" % s or parts[1] != b"%d" % t:
        return False
    try:
        return parse_distance(parts[2]) == oracle.distance(s, t)
    except ValueError:
        return False


def check_many_reply(
    oracle: BfsOracle, s: int, targets: Sequence[int], reply: bytes
) -> bool:
    """Whether a one-to-many reply has one correct line per target, in order."""
    parts = reply.split()
    k = len(targets)
    if len(parts) != 3 * k:
        return False
    if any(p != b"%d" % s for p in parts[0::3]):
        return False
    if not np.array_equal(np.array([int(p) for p in parts[1::3]]), np.asarray(targets)):
        return False
    try:
        got = np.array([parse_distance(p) for p in parts[2::3]], dtype=np.float64)
    except ValueError:
        return False
    return bool(np.array_equal(got, oracle.distances(s, targets)))
