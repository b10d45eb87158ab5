"""Benchmark for the pluggable batch-kernel layer.

Measures, on a generated clustered power-law graph, the end-to-end batch
query throughput of every constructible kernel backend (``numpy`` baseline,
``narrow`` uint32/uint8 layout, ``numba`` JIT where installed) across a
batch-size sweep, on an index with and without bit-parallel labels — and
pins down the two guarantees the kernel layer makes:

* **Speed**: the best available kernel answers batched queries at least
  ``REQUIRED_SPEEDUP``x faster than the scalar per-pair ``index.distance``
  loop (the PR 1 query path that predates the batch kernel).
* **Exactness**: every kernel produces byte-identical distance arrays — for
  ``query_pairs``, for ``query_one_to_many`` (full and subset), and through
  the full ``distance_batch`` path with the bit-parallel fold on top.

Also runnable standalone: ``python benchmarks/bench_kernels.py`` (pass
``--smoke`` for the reduced-scale CI configuration, which keeps the
byte-identity assertions exact but relaxes the speedup floor that needs
full scale to be meaningful).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.index import PrunedLandmarkLabeling
from repro.core.kernels import registered_kernels
from repro.generators import holme_kim_graph

#: Minimum best-kernel vs scalar-loop speedup promised at full scale.
REQUIRED_SPEEDUP = 3.0
#: Relaxed floor for the reduced-scale smoke configuration.
SMOKE_SPEEDUP = 1.5
#: Batch sizes swept per kernel (the issue's 1 / 64 / 4096 matrix).
BATCH_SIZES = (1, 64, 4096)


def _constructible_kernels(index: PrunedLandmarkLabeling) -> Dict[str, object]:
    """Name -> kernel clone for every backend that truly constructs.

    ``using(name)`` falls back to numpy when a backend is unavailable (no
    numba) or unsupported (wide dtype plan); those fallbacks are excluded so
    each matrix row measures the backend it is labelled with.
    """
    base = index.prepare_batch_kernel()
    kernels = {}
    for name, cls in registered_kernels().items():
        if not cls.available():
            continue
        clone = base.using(name)
        if clone.selection.selected == name and not clone.selection.fallback:
            kernels[name] = clone
    return kernels


def _time_batches(
    index: PrunedLandmarkLabeling,
    pairs: np.ndarray,
    batch_size: int,
    *,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` throughput (pairs/s) at one batch size."""
    sources, targets = pairs[:, 0], pairs[:, 1]
    total = sources.shape[0]
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for lo in range(0, total, batch_size):
            hi = min(lo + batch_size, total)
            index.distance_batch(sources[lo:hi], targets[lo:hi])
        elapsed = time.perf_counter() - start
        best = max(best, total / elapsed)
    return best


def _scalar_baseline(
    index: PrunedLandmarkLabeling, pairs: np.ndarray, *, repeats: int = 3
) -> float:
    """Throughput (pairs/s) of the PR 1-era scalar per-pair query loop."""
    best = 0.0
    pair_list = [(int(s), int(t)) for s, t in pairs]
    for _ in range(repeats):
        start = time.perf_counter()
        for s, t in pair_list:
            index.distance(s, t)
        elapsed = time.perf_counter() - start
        best = max(best, len(pair_list) / elapsed)
    return best


def _assert_byte_identical(
    index: PrunedLandmarkLabeling,
    kernels: Dict[str, object],
    pairs: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Every kernel must reproduce the numpy baseline bit for bit."""
    num_vertices = index.label_set.num_vertices
    source = int(rng.integers(num_vertices))
    subset = rng.integers(0, num_vertices, size=min(512, num_vertices))
    reference: Dict[str, bytes] = {}
    original = index._batch_kernel
    try:
        for name, kernel in kernels.items():
            index._batch_kernel = kernel
            observed = {
                "query_pairs": kernel.query_pairs(pairs[:, 0], pairs[:, 1]).tobytes(),
                "one_to_many_full": kernel.query_one_to_many(source).tobytes(),
                "one_to_many_subset": kernel.query_one_to_many(
                    source, subset
                ).tobytes(),
                "distance_batch": index.distance_batch(
                    pairs[:, 0], pairs[:, 1]
                ).tobytes(),
            }
            for verb, payload in observed.items():
                if verb not in reference:
                    reference[verb] = payload
                elif reference[verb] != payload:
                    raise AssertionError(
                        f"kernel {name!r} disagrees with the baseline on {verb}"
                    )
    finally:
        index._batch_kernel = original


def run_kernel_benchmark(
    *,
    num_vertices: int = 8_000,
    attach: int = 3,
    triad_probability: float = 0.4,
    matrix_pairs: int = 8_192,
    scalar_pairs: int = 400,
    seed: int = 11,
) -> Dict[str, object]:
    """Measure the per-kernel throughput matrix and the acceptance speedup."""
    graph = holme_kim_graph(num_vertices, attach, triad_probability, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pairs = rng.integers(0, num_vertices, size=(matrix_pairs, 2))

    matrix: Dict[str, float] = {}
    kernels_measured: List[str] = []
    best_qps = 0.0
    scalar_qps = 0.0
    plan_narrow = False
    for variant, roots in (("bp", 16), ("nobp", 0)):
        index = PrunedLandmarkLabeling(num_bit_parallel_roots=roots).build(graph)
        kernels = _constructible_kernels(index)
        _assert_byte_identical(index, kernels, pairs, rng)
        if variant == "bp":
            kernels_measured = sorted(kernels)
            scalar_qps = _scalar_baseline(index, pairs[:scalar_pairs])
            plan_narrow = index.prepare_batch_kernel().plan.narrow
        for name, kernel in kernels.items():
            index._batch_kernel = kernel
            for batch_size in BATCH_SIZES:
                qps = _time_batches(index, pairs, batch_size)
                matrix[f"{variant}:{name}:{batch_size}"] = qps
                if variant == "bp" and batch_size == max(BATCH_SIZES):
                    best_qps = max(best_qps, qps)

    return {
        "num_vertices": num_vertices,
        "num_edges": graph.num_edges,
        "matrix_pairs": matrix_pairs,
        "kernels": kernels_measured,
        "narrow_plan": plan_narrow,
        "matrix": matrix,
        "scalar_qps": scalar_qps,
        "best_qps": best_qps,
        "speedup": best_qps / scalar_qps if scalar_qps else float("inf"),
    }


def format_kernel_report(results: Dict[str, object]) -> str:
    """Human-readable kernel throughput matrix."""
    matrix = results["matrix"]
    lines = [
        "Batch-kernel benchmark (throughput in query pairs/s)",
        f"  graph: {results['num_vertices']:,.0f} vertices / "
        f"{results['num_edges']:,.0f} edges, {results['matrix_pairs']:,.0f} "
        f"pairs per measurement",
        f"  kernels constructible here: {', '.join(results['kernels'])} "
        f"(narrow plan: {'yes' if results['narrow_plan'] else 'no'})",
        "",
        f"  {'index':6s} {'kernel':8s}" + "".join(f" {f'batch {b}':>12s}" for b in BATCH_SIZES),
    ]
    for variant in ("bp", "nobp"):
        for name in results["kernels"]:
            cells = "".join(
                f" {matrix[f'{variant}:{name}:{b}']:12,.0f}" for b in BATCH_SIZES
            )
            lines.append(f"  {variant:6s} {name:8s}{cells}")
    lines += [
        "",
        f"  scalar per-pair loop {results['scalar_qps']:12,.0f} pairs/s "
        f"(the pre-kernel query path)",
        f"  best kernel          {results['best_qps']:12,.0f} pairs/s "
        f"(batch {max(BATCH_SIZES)}, bit-parallel index)",
        f"  speedup              {results['speedup']:12,.1f}x",
    ]
    return "\n".join(lines)


def _check(results: Dict[str, object], *, smoke: bool) -> None:
    """Assert the acceptance bars (relaxed speedup floor at smoke scale)."""
    assert "numpy" in results["kernels"], "the numpy baseline must always construct"
    required = SMOKE_SPEEDUP if smoke else REQUIRED_SPEEDUP
    assert results["speedup"] >= required, (
        f"best kernel speedup {results['speedup']:.1f}x below the "
        f"{required:.1f}x requirement over the scalar query loop"
    )
    if not smoke:
        assert results["num_vertices"] >= 8_000


def test_kernel_layer_beats_scalar_loop(run_once, save_result, full_scale):
    """The best kernel must beat the scalar loop by >= 3x; all byte-identical."""
    kwargs = dict(num_vertices=12_000) if full_scale else {}
    results = run_once(run_kernel_benchmark, **kwargs)
    text = format_kernel_report(results)
    print("\n" + text)
    save_result("kernels", text)
    _check(results, smoke=False)


def collect_results(*, smoke: bool = False):
    """Run the suite and emit the shared observatory schema (``repro.obs``)."""
    from repro.obs import Metric, bench_result

    if smoke:
        results = run_kernel_benchmark(
            num_vertices=1_500, matrix_pairs=2_048, scalar_pairs=150
        )
    else:
        results = run_kernel_benchmark()
    _check(results, smoke=smoke)
    metrics = [
        Metric("best_qps", results["best_qps"], unit="pairs/s", higher_is_better=True),
        Metric(
            "scalar_qps", results["scalar_qps"], unit="pairs/s", higher_is_better=True
        ),
        Metric("speedup", results["speedup"], unit="x", higher_is_better=True),
        Metric("num_vertices", results["num_vertices"]),
        Metric("num_edges", results["num_edges"]),
        Metric("num_kernels", len(results["kernels"])),
    ]
    return bench_result("kernels", metrics, smoke=smoke)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    if smoke:
        report = run_kernel_benchmark(
            num_vertices=1_500, matrix_pairs=2_048, scalar_pairs=150
        )
    else:
        report = run_kernel_benchmark()
    print(format_kernel_report(report))
    try:
        _check(report, smoke=smoke)
    except AssertionError as exc:
        raise SystemExit(f"FAIL: {exc}")
    print("PASS" + (" (smoke scale)" if smoke else ""))
