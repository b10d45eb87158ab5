"""Low-level query kernels for 2-hop labels.

Three kernels are provided, mirroring Section 4.5 of the paper:

* :func:`merge_join_query` — the textbook two-pointer merge join over two
  sorted label arrays, ``O(|L(s)| + |L(t)|)`` time.  This is the reference
  implementation used by tests.
* :func:`intersect_query` — the numpy ``intersect1d`` variant used by
  :class:`~repro.core.labels.LabelSet` at query time; asymptotically a log
  factor worse but far faster in practice under the Python interpreter.
* :class:`RootedQueryEvaluator` — the "targeted" evaluator used for the prune
  test during indexing.  It materialises the current root's label into a
  temporary distance array ``T`` indexed by hub rank, so each prune test costs
  ``O(|L(u)|)`` instead of ``O(|L(root)| + |L(u)|)`` — the optimisation the
  paper credits with a ~2x preprocessing speed-up.
* :class:`BatchQueryKernel` — the serving-path kernel: it answers *many*
  independent ``(s, t)`` pairs per call with flat numpy operations instead of
  one interpreted merge join per pair.  This is what makes the batched query
  engine in :mod:`repro.serving` worthwhile under the Python interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.kernels import DtypePlan, KernelData, KernelSelection, create_kernel
from repro.core.kernels import plan_dtypes as _plan_dtypes
from repro.core.kernels.narrow import NARROW_FIELDS, derive_narrow_fields
from repro.core.labels import INF_DISTANCE, LabelAccumulator, LabelSet
from repro.core.storage import ArrayBackend

#: Backend field name of the precomputed kernel key array (shared with the
#: shared-memory snapshot export; see :mod:`repro.core.storage`).
FIELD_KERNEL_KEYS = "kernel_keys"

__all__ = [
    "merge_join_query",
    "intersect_query",
    "RootedQueryEvaluator",
    "BatchQueryKernel",
]


def merge_join_query(
    s_hubs: Sequence[int],
    s_dists: Sequence[int],
    t_hubs: Sequence[int],
    t_dists: Sequence[int],
) -> float:
    """Two-pointer merge join over two rank-sorted labels.

    Returns the minimum ``d(s, w) + d(w, t)`` over common hubs ``w``, or
    ``inf`` when the labels are disjoint.
    """
    best = float("inf")
    i, j = 0, 0
    len_s, len_t = len(s_hubs), len(t_hubs)
    while i < len_s and j < len_t:
        hub_s, hub_t = s_hubs[i], t_hubs[j]
        if hub_s == hub_t:
            candidate = s_dists[i] + t_dists[j]
            if candidate < best:
                best = candidate
            i += 1
            j += 1
        elif hub_s < hub_t:
            i += 1
        else:
            j += 1
    return best


def intersect_query(
    s_hubs: np.ndarray,
    s_dists: np.ndarray,
    t_hubs: np.ndarray,
    t_dists: np.ndarray,
) -> float:
    """Numpy set-intersection variant of the merge join (labels must be sorted)."""
    if s_hubs.shape[0] == 0 or t_hubs.shape[0] == 0:
        return float("inf")
    _, s_idx, t_idx = np.intersect1d(
        s_hubs, t_hubs, assume_unique=True, return_indices=True
    )
    if s_idx.shape[0] == 0:
        return float("inf")
    sums = s_dists[s_idx].astype(np.int64) + t_dists[t_idx].astype(np.int64)
    return float(sums.min())


class RootedQueryEvaluator:
    """Prune-test evaluator specialised to one BFS root (paper Section 4.5.1).

    The evaluator keeps an array ``T`` of length ``max_rank`` where ``T[r]`` is
    the distance from the current root to the hub of rank ``r`` (or
    :data:`~repro.core.labels.INF_DISTANCE` when the root's label has no such
    hub).  ``T`` is populated from the root's current label when the root is
    :meth:`attach`-ed and cleared entry-by-entry on :meth:`detach`, so the cost
    of (re)initialisation is proportional to the root's label size rather than
    to ``n`` — the "avoid O(n) initialisation" point of Section 4.5.1.
    """

    __slots__ = ("_temp", "_touched")

    def __init__(self, max_rank: int) -> None:
        # A plain Python list is noticeably faster than a numpy array here:
        # the prune test indexes it once per label entry from interpreted code,
        # so avoiding numpy scalar boxing shaves ~30% off preprocessing time.
        self._temp: List[int] = [int(INF_DISTANCE)] * (max_rank + 1)
        self._touched: List[int] = []

    def attach(self, labels: LabelAccumulator, root: int) -> None:
        """Load the root's current label into the temporary array."""
        if self._touched:
            raise RuntimeError("attach called while another root is attached")
        for hub_rank, distance in labels.entries(root):
            self._temp[hub_rank] = distance
            self._touched.append(hub_rank)

    def detach(self) -> None:
        """Clear only the entries written by the last :meth:`attach`."""
        infinity = int(INF_DISTANCE)
        for hub_rank in self._touched:
            self._temp[hub_rank] = infinity
        self._touched.clear()

    def query_upper_bound(self, labels: LabelAccumulator, vertex: int) -> int:
        """Minimum ``d(root, w) + d(w, vertex)`` over hubs ``w`` in ``vertex``'s label.

        Runs in ``O(|L(vertex)|)``; returns a value of at least
        :data:`~repro.core.labels.INF_DISTANCE` when no common hub exists.
        """
        temp = self._temp
        best = int(INF_DISTANCE)
        hubs = labels.hub_ranks(vertex)
        dists = labels.distances(vertex)
        for i in range(len(hubs)):
            candidate = dists[i] + temp[hubs[i]]
            if candidate < best:
                best = candidate
        return best

    def query_upper_bound_with_cutoff(
        self, labels: LabelAccumulator, vertex: int, cutoff: int
    ) -> bool:
        """Whether some hub in ``vertex``'s label yields a distance ``<= cutoff``.

        This is the prune test proper: it early-exits on the first witness, so
        in the common "prune immediately via the top hub" case it inspects a
        single entry.
        """
        temp = self._temp
        hubs = labels.hub_ranks(vertex)
        dists = labels.distances(vertex)
        for i in range(len(hubs)):
            if dists[i] + temp[hubs[i]] <= cutoff:
                return True
        return False


class BatchQueryKernel:
    """Vectorised evaluator answering many independent ``(s, t)`` pairs per call.

    The per-pair kernels above pay interpreter and numpy-dispatch overhead for
    every query; at a few microseconds per call that overhead dominates the
    actual label merge.  This kernel amortises it across a whole batch:

    1. At construction, every label entry is encoded into a single sorted
       ``int64`` key ``owner_vertex * stride + hub_rank`` (``stride = n``).
       Because the flat label arrays are grouped by vertex and rank-sorted
       within each vertex, the key array is globally sorted.
    2. Per batch, the label entries of the *smaller* endpoint of each pair are
       gathered into one flat array (a ragged gather, fully vectorised), and
       each entry is probed against the other endpoint's label with one
       ``searchsorted`` over the key array.
    3. Matching entries contribute ``d(s, w) + d(w, t)``; per-pair minima are
       taken with ``np.minimum.reduceat`` over the ragged group boundaries.

    The cost is ``O(sum_i min(|L(s_i)|, |L(t_i)|) * log E)`` machine-level
    operations for the whole batch, with no per-pair Python work at all.
    Results are identical to :meth:`LabelSet.query` (``inf`` when the labels
    share no hub; the ``s == t`` short-circuit is the caller's business, as it
    is for the scalar kernels).

    Execution is delegated to a pluggable :class:`~repro.core.kernels.base.
    KernelBackend` (numpy baseline / narrow-dtype / numba-JIT) chosen by
    :func:`repro.core.kernels.create_kernel` at construction time; all
    backends are byte-identical, so the delegation is invisible on the wire.
    """

    __slots__ = (
        "_keys",
        "_entry_dists",
        "_indptr",
        "_hub_ranks",
        "_sizes",
        "_stride",
        "_plan",
        "_impl",
        "_selection",
    )

    def __init__(
        self,
        labels: LabelSet,
        *,
        backend: Optional[ArrayBackend] = None,
    ) -> None:
        num_vertices = labels.num_vertices
        sizes = np.asarray(labels.label_sizes(), dtype=np.int64)
        owners = np.repeat(np.arange(num_vertices, dtype=np.int64), sizes)
        self._stride = np.int64(max(num_vertices, 1))
        # The hub-rank and distance arrays are shared with (not copied from)
        # the immutable label set; sums and keys upcast to int64 at query
        # time.  Sharing keeps kernel construction — and especially
        # :meth:`patched` — down to the one array that must be derived.
        # With ``backend``, that derived key array is allocated from it (so a
        # shared-memory snapshot carries the kernel, and attaching workers
        # skip the O(total entries) re-derivation).
        self._hub_ranks = labels.hub_ranks
        keys = owners * self._stride + self._hub_ranks
        self._keys = keys if backend is None else backend.put(FIELD_KERNEL_KEYS, keys)
        self._entry_dists = labels.distances
        self._indptr = labels.indptr
        self._sizes = sizes
        self._finish(backend=backend)

    def _finish(
        self,
        *,
        backend: Optional[ArrayBackend] = None,
        plan: Optional[DtypePlan] = None,
        narrow_fields: Optional[Mapping[str, np.ndarray]] = None,
        requested: str = "auto",
    ) -> None:
        """Decide the dtype plan, stage narrow arrays, select the backend.

        Called by every construction path after the wide arrays are in
        place.  ``plan`` and ``narrow_fields`` come from a stored generation
        on the attach path (the publishing process's decision is reused);
        otherwise the plan is derived here, and — when publishing onto a
        storage ``backend`` — the narrow arrays are derived and stored so
        that attaching workers get them for free.
        """
        if plan is None:
            plan = _plan_dtypes(self.num_vertices, self._entry_dists)
        narrow: Dict[str, np.ndarray] = dict(narrow_fields) if narrow_fields else {}
        if plan.narrow and backend is not None and not narrow:
            derived = derive_narrow_fields(
                self._keys,
                self._hub_ranks,
                self._entry_dists,
                int(self._stride),
                self.num_vertices,
            )
            narrow = {name: backend.put(name, array) for name, array in derived.items()}
        self._plan = plan
        data = KernelData(
            indptr=self._indptr,
            hub_ranks=self._hub_ranks,
            dists=self._entry_dists,
            keys=self._keys,
            sizes=self._sizes,
            stride=self._stride,
            plan=plan,
            narrow=narrow,
        )
        self._impl, self._selection = create_kernel(data, requested)

    @classmethod
    def from_arrays(
        cls,
        labels: LabelSet,
        keys: np.ndarray,
        *,
        plan: Optional[DtypePlan] = None,
        narrow_fields: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "BatchQueryKernel":
        """Reassemble a kernel from ``labels`` plus stored kernel arrays.

        The attach path of the sharded serving layer: ``keys`` is the
        ``owner * stride + hub_rank`` encoding a previous
        :class:`BatchQueryKernel` derived for exactly these labels (and e.g.
        published in the same shared-memory generation), so nothing needs to
        be recomputed beyond the O(n) size table.  ``plan`` and
        ``narrow_fields`` likewise reuse the publishing process's dtype
        decision and narrow-layout arrays when the generation carries them;
        backend selection itself is re-run *here*, so a heterogeneous worker
        pool (numba on some hosts only) degrades per-process.
        """
        if keys.shape != labels.hub_ranks.shape:
            raise ValueError(
                f"kernel key array has {keys.shape[0]} entries for "
                f"{labels.hub_ranks.shape[0]} label entries"
            )
        kernel = cls.__new__(cls)
        kernel._keys = np.asarray(keys, dtype=np.int64)
        kernel._hub_ranks = labels.hub_ranks
        kernel._entry_dists = labels.distances
        kernel._indptr = labels.indptr
        kernel._sizes = np.asarray(labels.label_sizes(), dtype=np.int64)
        kernel._stride = np.int64(max(labels.num_vertices, 1))
        kernel._finish(plan=plan, narrow_fields=narrow_fields)
        return kernel

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the kernel."""
        return self._sizes.shape[0]

    @property
    def keys(self) -> np.ndarray:
        """The sorted ``owner * stride + hub_rank`` key array (read-mostly)."""
        return self._keys

    @property
    def plan(self) -> DtypePlan:
        """The per-generation dtype-narrowing decision."""
        return self._plan

    @property
    def selection(self) -> KernelSelection:
        """How the execution backend was chosen (requested/selected/fallback)."""
        return self._selection

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend actually executing queries."""
        return self._impl.name

    def narrow_fields(self) -> Dict[str, np.ndarray]:
        """The narrow-layout arrays staged for this kernel (may be empty)."""
        return dict(self._impl.data.narrow)

    def export_narrow_fields(self) -> Dict[str, np.ndarray]:
        """The complete narrow-layout field set for storage alongside the keys.

        Empty when the dtype plan is wide.  Arrays not yet derived (the
        selected backend may never have needed them) are derived here, so a
        stored generation always carries the full set and attaching workers
        never re-derive.
        """
        if not self._plan.narrow:
            return {}
        narrow = self._impl.data.narrow
        if any(name not in narrow for name in NARROW_FIELDS):
            narrow.update(
                derive_narrow_fields(
                    self._keys,
                    self._hub_ranks,
                    self._entry_dists,
                    int(self._stride),
                    self.num_vertices,
                )
            )
        return {name: narrow[name] for name in NARROW_FIELDS}

    def using(self, preference: str) -> "BatchQueryKernel":
        """A sibling kernel over the same arrays with an explicit backend.

        Shares every label/key array with the receiver; only the execution
        backend differs.  Used by the cross-kernel equality tests and the
        kernel benchmark matrix; check :attr:`selection` to see whether the
        preference was honoured or fell back.
        """
        kernel = BatchQueryKernel.__new__(BatchQueryKernel)
        kernel._keys = self._keys
        kernel._hub_ranks = self._hub_ranks
        kernel._entry_dists = self._entry_dists
        kernel._indptr = self._indptr
        kernel._sizes = self._sizes
        kernel._stride = self._stride
        kernel._finish(
            plan=self._plan,
            narrow_fields=self._impl.data.narrow,
            requested=preference,
        )
        return kernel

    def nbytes(self) -> int:
        """Approximate size of the precomputed key arrays in bytes."""
        total = int(self._keys.nbytes + self._entry_dists.nbytes + self._sizes.nbytes)
        for array in self._impl.data.narrow.values():
            total += int(array.nbytes)
        return total

    def patched(
        self,
        labels: LabelSet,
        dirty_vertices,
        *,
        backend: Optional[ArrayBackend] = None,
    ) -> "BatchQueryKernel":
        """Rebuild the kernel for ``labels``, reusing this kernel's arrays.

        ``labels`` must derive from this kernel's label set with only the
        labels of ``dirty_vertices`` changed (the contract of
        :meth:`LabelSet.patched`).  Entry keys encode ``owner * stride +
        hub_rank`` — both unchanged outside the dirty vertices — so every
        untouched run is block-copied from the existing arrays and only the
        dirty segments are re-encoded.  This keeps diff-based snapshot
        publication free of the O(total label entries) kernel rebuild.  With
        ``backend``, the new key array is patched directly into it (e.g. the
        next shared-memory generation).
        """
        num_vertices = labels.num_vertices
        if num_vertices != self.num_vertices:
            return BatchQueryKernel(labels, backend=backend)
        new_indptr = np.asarray(labels.indptr, dtype=np.int64)
        total = int(new_indptr[-1])
        if backend is None:
            new_keys = np.empty(total, dtype=np.int64)
        else:
            new_keys = backend.empty(FIELD_KERNEL_KEYS, (total,), np.int64)
        stride = self._stride
        run_start = 0
        for vertex in sorted(int(v) for v in dirty_vertices) + [num_vertices]:
            if run_start < vertex:
                src0, src1 = self._indptr[run_start], self._indptr[vertex]
                dst0 = new_indptr[run_start]
                new_keys[dst0: dst0 + (src1 - src0)] = self._keys[src0:src1]
            if vertex < num_vertices:
                hubs, _ = labels.vertex_label(vertex)
                dst0, dst1 = new_indptr[vertex], new_indptr[vertex + 1]
                new_keys[dst0:dst1] = vertex * stride + hubs.astype(np.int64)
            run_start = vertex + 1
        kernel = BatchQueryKernel.__new__(BatchQueryKernel)
        kernel._keys = new_keys
        kernel._hub_ranks = labels.hub_ranks
        kernel._entry_dists = labels.distances
        kernel._indptr = new_indptr
        kernel._sizes = np.asarray(labels.label_sizes(), dtype=np.int64)
        kernel._stride = stride
        # The patched labels can change the dtype plan (a repair can raise the
        # max distance past the narrow bound), so it is re-derived rather
        # than inherited.
        kernel._finish(backend=backend)
        return kernel

    def query_pairs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Label distances for aligned ``sources[i], targets[i]`` pairs.

        Returns a ``float64`` array (``inf`` where no common hub exists).
        Inputs must be in-range vertex ids; callers validate.  Delegates to
        the selected kernel backend; all backends are byte-identical.
        """
        return self._impl.query_pairs(sources, targets)

    def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Label distances from one source to many targets (all when ``None``).

        Returns ``float64`` distances aligned with ``targets`` (``inf`` where
        no common hub exists).  Unlike :meth:`LabelSet.query_one_to_many`,
        no ``source == target`` zeroing is applied — the index facade does
        that after folding in the bit-parallel bound.
        """
        return self._impl.query_one_to_many(source, targets)
