"""Which public functions of the program the traced run wraps, and the span names.

Span names use the module (layer) as prefix, matching the per-layer metric
names.  Build spans cover ordering, bit-parallel labels, pruned BFS and the
batch-kernel preparation.  Serve spans cover the public methods of the
engine, cache, snapshot-manager and dynamic-index objects the front end is
handed, and the protocol functions the async front end applies to each line.
"""

from __future__ import annotations

from spans import SpanRecorder


def _pairs(self, sources, *args, **kwargs) -> int:
    return len(sources)


def _targets(self, source, targets=None, *args, **kwargs) -> int:
    return len(targets) if targets is not None else 0


def instrument_build(recorder: SpanRecorder) -> None:
    """Wrap the index-construction phases (module attributes used by ``build``)."""
    from repro.core import index as core_index

    recorder.patch(core_index, "compute_order", "ordering.compute_order")
    recorder.patch(core_index, "build_bit_parallel_labels", "bitparallel.build")
    recorder.patch(core_index, "build_pruned_labels", "pruned.build")
    recorder.patch(core_index.PrunedLandmarkLabeling, "prepare_batch_kernel", "kernel.prepare")


def instrument_serving(recorder: SpanRecorder) -> None:
    """Wrap what a served request or mutation passes through, plus start-up loading."""
    from repro.core import serialization
    from repro.core.dynamic import DynamicPrunedLandmarkLabeling
    from repro.core.query import BatchQueryKernel
    from repro.serving import aio
    from repro.serving.cache import LRUCache
    from repro.serving.engine import BatchQueryEngine
    from repro.serving.snapshot import SnapshotManager

    instrument_build(recorder)
    recorder.patch(serialization, "load_index", "serialization.load_index")
    recorder.patch(BatchQueryEngine, "query_batch", "engine.query_batch", _pairs)
    recorder.patch(BatchQueryEngine, "query_one_to_many", "engine.query_one_to_many", _targets)
    recorder.patch(BatchQueryKernel, "query_pairs", "kernel.query_pairs", _pairs)
    recorder.patch(BatchQueryKernel, "query_one_to_many", "kernel.query_one_to_many", _targets)
    recorder.patch(aio, "cached_query_batch", "cache.cached_query_batch",
                   lambda engine, cache, sources, *a, **k: len(sources))
    recorder.patch(LRUCache, "lookup_batch", "cache.lookup_batch", _pairs)
    recorder.patch(LRUCache, "store_batch", "cache.store_batch", _pairs)
    for method in ("insert_edge", "remove_edge"):
        recorder.patch(SnapshotManager, method, f"snapshot.{method}")
    # A publish span's items are the vertices whose labels it republishes.
    recorder.patch(SnapshotManager, "publish", "snapshot.publish",
                   lambda self, *a, **k: self.dirty_vertex_count)
    for method in ("build", "insert_edge", "remove_edge", "freeze"):
        recorder.patch(DynamicPrunedLandmarkLabeling, method, f"dynamic.{method}")
    for name in (
        "normalize_command",
        "is_mutation",
        "is_one_to_many",
        "parse_pair",
        "parse_one_to_many",
        "parse_mutation",
    ):
        recorder.patch(aio, name, f"protocol.parse.{name}")
    for name in (
        "format_distance_line",
        "format_one_to_many_reply",
        "format_mutation_ack",
        "format_publish_ack",
    ):
        recorder.patch(aio, name, f"protocol.format.{name}")
