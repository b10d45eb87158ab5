"""Tests for the pluggable batch-kernel layer (selection, dtypes, identity).

The kernel contract has three legs:

* **Selection** — ``auto`` picks the best available backend, explicit names
  pin one, anything that cannot serve falls back to the numpy baseline with
  the fallback flagged (logged on ``repro.kernels`` and surfaced through the
  metrics endpoint).
* **Dtype planning** — the narrow uint32/uint8 layout is chosen per
  generation at freeze time, guarded against key/distance overflow, and
  recorded in the layout metadata so attaching workers agree byte for byte.
* **Byte-identity** — every backend (including the un-jitted numba loop
  logic, which runs under the plain interpreter when numba is absent)
  produces bit-identical distance arrays.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core.index import PrunedLandmarkLabeling
from repro.core.kernels import (
    available_kernels,
    plan_dtypes,
    registered_kernels,
)
from repro.core.kernels.base import NARROW_MAX_DISTANCE, DtypePlan
from repro.core.kernels.narrow import NARROW_FIELDS
from repro.core.kernels.numba_kernel import (
    NumbaKernel,
    _JIT_NO_HUB,
    _one_to_many_loop,
    _query_pairs_loop,
    _rooted_probe_loop,
    numba_installed,
)
from repro.core.kernels.numpy_kernel import NumpyKernel
from repro.core.serialization import index_from_backend, load_index, save_index
from repro.generators import barabasi_albert_graph
from repro.graph.csr import Graph
from repro.serving import BatchQueryEngine, SnapshotManager
from repro.serving.metrics import index_health_stats, render_prometheus_text


@pytest.fixture
def built_index(small_social_graph):
    return PrunedLandmarkLabeling().build(small_social_graph)


def _long_path_index(length: int = 300) -> PrunedLandmarkLabeling:
    """A path graph whose diameter exceeds the narrow distance bound."""
    graph = Graph(length, [(i, i + 1) for i in range(length - 1)])
    return PrunedLandmarkLabeling(num_bit_parallel_roots=0).build(graph)


# ---------------------------------------------------------------------------
# Dtype planning
# ---------------------------------------------------------------------------


class TestDtypePlan:
    def test_small_index_plans_narrow(self):
        plan = plan_dtypes(1_000, np.asarray([0, 3, NARROW_MAX_DISTANCE], dtype=np.uint16))
        assert plan.narrow
        assert plan.key_dtype == "uint32"
        assert plan.dist_dtype == "uint8"
        assert plan.max_distance == NARROW_MAX_DISTANCE

    def test_distance_255_forces_wide(self):
        plan = plan_dtypes(1_000, np.asarray([NARROW_MAX_DISTANCE + 1], dtype=np.uint16))
        assert not plan.narrow
        assert plan.key_dtype == "int64"
        assert plan.dist_dtype == "uint16"

    def test_key_overflow_forces_wide(self):
        # 2**16.5 vertices: n*n - 1 exceeds uint32, even with tiny distances.
        plan = plan_dtypes(100_000, np.asarray([1], dtype=np.uint16))
        assert not plan.narrow

    def test_empty_distances(self):
        assert plan_dtypes(10, np.empty(0, dtype=np.uint16)).narrow

    def test_meta_round_trip(self):
        plan = plan_dtypes(50, np.asarray([7], dtype=np.uint16))
        assert DtypePlan.from_meta(plan.to_meta()) == plan

    def test_long_path_index_keeps_wide_layout(self):
        index = _long_path_index()
        kernel = index.prepare_batch_kernel()
        assert not kernel.plan.narrow
        assert kernel.plan.max_distance >= NARROW_MAX_DISTANCE + 1
        assert kernel.export_narrow_fields() == {}


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_registry_lists_every_backend(self):
        assert list(registered_kernels()) == ["numpy", "narrow", "numba"]
        assert "numpy" in available_kernels()

    def test_auto_picks_highest_priority_available(self, built_index):
        kernel = built_index.prepare_batch_kernel()
        assert not kernel.selection.fallback
        if numba_installed():
            assert kernel.backend_name == "numba"
        else:
            # The index is small: the narrow layout applies and outranks numpy.
            assert kernel.backend_name == "narrow"

    def test_auto_skips_narrow_silently_on_wide_layout(self):
        index = _long_path_index()
        kernel = index.prepare_batch_kernel()
        if not numba_installed():
            assert kernel.backend_name == "numpy"
            # Skipping an inapplicable backend under auto is not a fallback.
            assert not kernel.selection.fallback

    @pytest.mark.skipif(numba_installed(), reason="needs a numba-free host")
    def test_explicit_numba_without_numba_falls_back(self, built_index, caplog):
        base = built_index.prepare_batch_kernel()
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            clone = base.using("numba")
        assert clone.backend_name == "numpy"
        assert clone.selection.fallback
        assert "not available" in clone.selection.reason
        assert any("kernel fallback" in rec.message for rec in caplog.records)

    def test_explicit_narrow_on_wide_layout_falls_back(self):
        index = _long_path_index()
        clone = index.prepare_batch_kernel().using("narrow")
        assert clone.backend_name == "numpy"
        assert clone.selection.fallback
        assert "does not support" in clone.selection.reason

    def test_constructor_failure_falls_back_and_is_logged(
        self, built_index, monkeypatch, caplog
    ):
        monkeypatch.setattr(NumbaKernel, "available", classmethod(lambda cls: True))

        def boom(self, data):
            raise RuntimeError("synthetic compile failure")

        monkeypatch.setattr(NumbaKernel, "__init__", boom)
        base = built_index.prepare_batch_kernel()
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            clone = base.using("numba")
        assert clone.backend_name in ("numpy", "narrow")
        assert clone.selection.fallback
        assert "synthetic compile failure" in clone.selection.reason

    def test_selection_flags_surface_in_metrics(self, monkeypatch):
        monkeypatch.setattr(NumbaKernel, "available", classmethod(lambda cls: True))

        def boom(self, data):
            raise RuntimeError("synthetic compile failure")

        monkeypatch.setattr(NumbaKernel, "__init__", boom)
        index = PrunedLandmarkLabeling().build(barabasi_albert_graph(150, 3, seed=5))
        engine = BatchQueryEngine(index)
        stats = index_health_stats(engine)
        # Automatic selection tried numba first; its failed constructor is a
        # flagged fallback to the next candidate.
        assert stats["kernel_fallback"] == 1
        assert stats["kernel_requested"] == "auto"
        assert stats["kernel_name"] == "narrow"
        text = render_prometheus_text(stats)
        assert "repro_pll_kernel_fallback 1" in text
        assert 'repro_pll_kernel_info{kernel="narrow",requested="auto"} 1' in text

    def test_healthy_selection_reports_no_fallback(self, built_index):
        stats = index_health_stats(BatchQueryEngine(built_index))
        assert stats["kernel_fallback"] == 0
        assert "repro_pll_kernel_fallback 0" in render_prometheus_text(stats)


# ---------------------------------------------------------------------------
# Byte-identity across backends
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.fixture
    def pairs(self, built_index):
        rng = np.random.default_rng(3)
        n = built_index.label_set.num_vertices
        return rng.integers(0, n, size=(600, 2))

    def _clones(self, index):
        base = index.prepare_batch_kernel()
        clones = {"numpy": base.using("numpy")}
        for name in ("narrow", "numba"):
            clone = base.using(name)
            if clone.backend_name == name and not clone.selection.fallback:
                clones[name] = clone
        return clones

    def test_query_pairs_byte_identical(self, built_index, pairs):
        clones = self._clones(built_index)
        assert "narrow" in clones  # the fixture index is narrow-eligible
        reference = clones["numpy"].query_pairs(pairs[:, 0], pairs[:, 1]).tobytes()
        for name, clone in clones.items():
            assert clone.query_pairs(pairs[:, 0], pairs[:, 1]).tobytes() == reference, name

    def test_one_to_many_byte_identical(self, built_index):
        clones = self._clones(built_index)
        n = built_index.label_set.num_vertices
        subset = np.asarray([0, 5, n - 1, 17, 5], dtype=np.int64)
        for source in (0, n // 2, n - 1):
            full_ref = clones["numpy"].query_one_to_many(source).tobytes()
            sub_ref = clones["numpy"].query_one_to_many(source, subset).tobytes()
            for name, clone in clones.items():
                assert clone.query_one_to_many(source).tobytes() == full_ref, name
                assert clone.query_one_to_many(source, subset).tobytes() == sub_ref, name

    def test_one_to_many_matches_scalar_label_queries(self, built_index):
        # The wire-level contract: one-to-many through the engine equals the
        # scalar per-pair path bit for bit (zeroing and bp fold included).
        engine = BatchQueryEngine(built_index)
        n = built_index.label_set.num_vertices
        source = 3
        batch = engine.query_one_to_many(source)
        scalar = np.asarray(
            [built_index.distance(source, t) for t in range(n)], dtype=np.float64
        )
        assert batch.tobytes() == scalar.tobytes()

    def test_unjitted_numba_loops_match_numpy(self, built_index, pairs):
        # Without numba the loop functions run under the plain interpreter;
        # the merge logic must still match the numpy kernel bit for bit.
        base = built_index.prepare_batch_kernel().using("numpy")
        data = base._impl.data
        sources = np.ascontiguousarray(pairs[:64, 0])
        targets = np.ascontiguousarray(pairs[:64, 1])
        out = np.empty(sources.shape[0], dtype=np.int64)
        _query_pairs_loop(data.indptr, data.hub_ranks, data.dists, sources, targets, out)
        looped = np.full(out.shape[0], np.inf, dtype=np.float64)
        found = out < _JIT_NO_HUB
        looped[found] = out[found].astype(np.float64)
        expected = base.query_pairs(sources, targets)
        assert looped.tobytes() == expected.tobytes()

        source = int(sources[0])
        s0, s1 = data.indptr[source], data.indptr[source + 1]
        temp = np.full(data.num_vertices, _JIT_NO_HUB, dtype=np.int64)
        temp[data.hub_ranks[s0:s1]] = data.dists[s0:s1]
        target_ids = np.arange(data.num_vertices, dtype=np.int64)
        out = np.empty(target_ids.shape[0], dtype=np.int64)
        _one_to_many_loop(data.indptr, data.hub_ranks, data.dists, temp, target_ids, out)
        looped = np.full(out.shape[0], np.inf, dtype=np.float64)
        found = out < _JIT_NO_HUB
        looped[found] = out[found].astype(np.float64)
        assert looped.tobytes() == base.query_one_to_many(source).tobytes()

    def test_rooted_probe_loop_matches_numpy(self):
        rng = np.random.default_rng(9)
        num_segments, num_ranks = 40, 25
        sizes = rng.integers(0, 6, size=num_segments).astype(np.int64)
        total = int(sizes.sum())
        starts = np.zeros(num_segments, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        flat_hubs = rng.integers(0, num_ranks, size=total).astype(np.int64)
        # Rank-sorted within each segment, as the dynamic oracle guarantees.
        for p in range(num_segments):
            seg = slice(starts[p], starts[p] + sizes[p])
            flat_hubs[seg] = np.sort(flat_hubs[seg])
        flat_dists = rng.integers(0, 30, size=total).astype(np.int64)
        sentinel = int(_JIT_NO_HUB)
        temp = np.full(num_ranks, sentinel, dtype=np.int64)
        temp[rng.integers(0, num_ranks, size=10)] = rng.integers(0, 20, size=10)
        for max_rank in (0, num_ranks // 2, num_ranks - 1):
            expected = NumpyKernel.rooted_probe(
                flat_hubs, flat_dists, starts, sizes, temp, max_rank, sentinel
            )
            out = np.empty(num_segments, dtype=np.int64)
            _rooted_probe_loop(
                flat_hubs, flat_dists, starts, sizes, temp, max_rank, sentinel, out
            )
            assert out.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Layout metadata: publish, attach, reload
# ---------------------------------------------------------------------------


class TestLayoutMetadata:
    def test_sharded_attach_adopts_published_plan(self, small_social_graph):
        manager = SnapshotManager.from_graph(small_social_graph, shared=True)
        try:
            published = manager.current.engine.index
            plan = published.prepare_batch_kernel().plan
            backend = manager.current.generation.backend
            if plan.narrow:
                stored = set(backend.fields())
                assert set(NARROW_FIELDS) <= stored
            attached = index_from_backend(backend)
            attached_plan = attached.prepare_batch_kernel().plan
            # The worker adopts the publisher's dtype decision from the layout
            # metadata rather than re-measuring the index.
            assert attached_plan == plan
            rng = np.random.default_rng(4)
            n = small_social_graph.num_vertices
            pairs = rng.integers(0, n, size=(200, 2))
            assert (
                attached.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
                == published.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
            )
        finally:
            manager.close()

    def test_raw_round_trip_preserves_plan(self, tmp_path, built_index):
        path = tmp_path / "index.pll"
        save_index(built_index, path)
        loaded = load_index(path)
        original = built_index.prepare_batch_kernel()
        restored = loaded.prepare_batch_kernel()
        assert restored.plan == original.plan
        if original.plan.narrow:
            assert set(restored.narrow_fields()) == set(NARROW_FIELDS)
        rng = np.random.default_rng(6)
        n = built_index.label_set.num_vertices
        pairs = rng.integers(0, n, size=(200, 2))
        assert (
            loaded.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
            == built_index.distance_batch(pairs[:, 0], pairs[:, 1]).tobytes()
        )

    def test_wide_plan_round_trips_too(self, tmp_path):
        index = _long_path_index(280)
        path = tmp_path / "wide.pll"
        save_index(index, path)
        loaded = load_index(path)
        assert not loaded.prepare_batch_kernel().plan.narrow
        assert loaded.distance(0, 279) == 279.0

    def test_narrow_clone_shares_label_arrays(self, built_index):
        base = built_index.prepare_batch_kernel()
        clone = base.using("narrow")
        assert clone._impl.data.indptr is base._impl.data.indptr
        assert clone._impl.data.keys is base._impl.data.keys
