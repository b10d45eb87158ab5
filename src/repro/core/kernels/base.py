"""Kernel-backend protocol: the contract every batch-query kernel implements.

The serving hot loops — the label-merge intersection behind
:meth:`BatchQueryKernel.query_pairs`, the one-to-many scatter evaluator, and
the repair-BFS rooted probe of the dynamic oracle — all reduce to a handful of
array-level operations over the frozen label layout.  This module defines the
seam those operations sit behind:

* :class:`DtypePlan` — the per-generation dtype-narrowing decision, made once
  at ``freeze()`` time and recorded in the raw/shared-memory layout metadata
  so every attaching process agrees on the layout without re-deriving it.
* :class:`KernelData` — the flat, immutable array bundle a kernel operates
  on (the same arrays the :class:`~repro.core.labels.LabelSet` and
  :class:`~repro.core.query.BatchQueryKernel` share, plus the optional
  narrow-layout companions).
* :class:`KernelBackend` — the abstract backend: capability flags, an
  ``available()`` runtime-detection hook, and the three batch entry points.
* :class:`KernelSelection` — the record of which backend was chosen, what was
  requested, and whether the choice was a fallback (surfaced as a structured
  log event and a ``/metrics`` info gauge).

Concrete backends live in sibling modules (``numpy_kernel``, ``narrow``,
``numba_kernel``) and register themselves with the package registry; see
:func:`repro.core.kernels.create_kernel` for the selection rules.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "KernelUnavailableError",
    "DtypePlan",
    "KernelData",
    "KernelSelection",
    "KernelBackend",
    "plan_dtypes",
    "NARROW_MAX_DISTANCE",
    "CAP_QUERY_PAIRS",
    "CAP_ONE_TO_MANY",
    "CAP_ROOTED_PROBE",
    "CAP_NARROW_LAYOUT",
    "CAP_JIT",
]

#: Capability flags advertised by a backend (``KernelBackend.capabilities``).
CAP_QUERY_PAIRS = "query_pairs"
CAP_ONE_TO_MANY = "one_to_many"
CAP_ROOTED_PROBE = "rooted_probe"
CAP_NARROW_LAYOUT = "narrow_layout"
CAP_JIT = "jit"

#: Largest label distance the narrow (uint8) distance encoding can carry.
#: A frozen index whose diameter reaches 255 keeps the wide uint16 layout.
NARROW_MAX_DISTANCE = 254

#: Largest ``owner * stride + hub_rank`` key value the uint32 key encoding
#: can carry; with ``stride = n`` the maximum key is ``n**2 - 1``.
_NARROW_MAX_KEY = 2**32 - 1


class KernelUnavailableError(RuntimeError):
    """A requested kernel backend cannot run in this process/environment."""


@dataclass(frozen=True)
class DtypePlan:
    """The per-generation dtype-narrowing decision (made at freeze time).

    ``narrow`` is true when both the key space fits ``uint32`` and every
    label distance fits ``uint8`` — the cache-friendly layout the narrow
    kernel runs on.  The plan is serialised into the raw/shared-memory
    layout metadata (``kernel_plan``), so attaching workers adopt the
    publishing process's decision instead of re-measuring the index.
    """

    narrow: bool
    key_dtype: str
    dist_dtype: str
    max_distance: int

    def to_meta(self) -> Dict[str, object]:
        """JSON-able form stored in the layout metadata."""
        return {
            "narrow": self.narrow,
            "key_dtype": self.key_dtype,
            "dist_dtype": self.dist_dtype,
            "max_distance": self.max_distance,
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, object]) -> "DtypePlan":
        """Rehydrate a plan recorded by :meth:`to_meta`."""
        return cls(
            narrow=bool(meta.get("narrow", False)),
            key_dtype=str(meta.get("key_dtype", "int64")),
            dist_dtype=str(meta.get("dist_dtype", "uint16")),
            max_distance=int(meta.get("max_distance", 0)),
        )


def plan_dtypes(num_vertices: int, distances: np.ndarray) -> DtypePlan:
    """Decide the dtype plan for an index with ``distances`` label entries.

    O(total label entries) — one vectorised max — so it is computed at
    ``freeze()``/kernel-construction time and then carried in the layout
    metadata, never on the per-query path.
    """
    max_distance = int(distances.max()) if distances.shape[0] else 0
    keys_fit = num_vertices * num_vertices - 1 <= _NARROW_MAX_KEY
    dists_fit = max_distance <= NARROW_MAX_DISTANCE
    narrow = keys_fit and dists_fit
    return DtypePlan(
        narrow=narrow,
        key_dtype="uint32" if narrow else "int64",
        dist_dtype="uint8" if narrow else "uint16",
        max_distance=max_distance,
    )


@dataclass
class KernelData:
    """The immutable flat-array bundle a kernel backend evaluates against.

    The base arrays are shared with (never copied from) the owning
    :class:`~repro.core.labels.LabelSet` / ``BatchQueryKernel``; ``narrow``
    holds the optional narrow-layout companion arrays (uint32 keys, uint8
    distances, hub-major blocks) keyed by their storage field names — empty
    when the plan is wide or the arrays were neither stored nor derived yet.
    """

    indptr: np.ndarray
    hub_ranks: np.ndarray
    dists: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    stride: np.int64
    plan: DtypePlan
    narrow: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the label arrays."""
        return self.sizes.shape[0]


@dataclass(frozen=True)
class KernelSelection:
    """Outcome of one kernel selection (what ran vs. what was asked for)."""

    requested: str
    selected: str
    fallback: bool = False
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for log events and the metrics endpoint."""
        return {
            "requested": self.requested,
            "selected": self.selected,
            "fallback": self.fallback,
            "reason": self.reason,
        }


class KernelBackend(abc.ABC):
    """One batch-query execution strategy over a :class:`KernelData` bundle.

    Subclasses are registered with the package registry and chosen by
    :func:`repro.core.kernels.create_kernel`.  A backend must be safe to
    construct eagerly at publish time (expensive one-off work — JIT warm-up,
    derived layouts — belongs in ``__init__`` so the first request batch
    never pays for it) and must produce results byte-identical to the
    always-available numpy baseline.
    """

    #: Registry/selection name (the argument of ``BatchQueryKernel.using``).
    name: str = ""
    #: Capability flags (see the ``CAP_*`` constants).
    capabilities: frozenset = frozenset()
    #: Selection order under ``auto``: higher wins among available backends.
    priority: int = 0

    def __init__(self, data: KernelData) -> None:
        self._data = data

    @property
    def data(self) -> KernelData:
        """The array bundle this backend evaluates against."""
        return self._data

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current process at all."""
        return True

    @classmethod
    def supports(cls, data: KernelData) -> bool:
        """Whether this backend can serve this particular index layout."""
        return True

    @abc.abstractmethod
    def query_pairs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Label distances for aligned ``sources[i], targets[i]`` pairs.

        Returns ``float64`` (``inf`` where the labels share no hub); the
        ``s == t`` short-circuit and the bit-parallel minimum are the
        caller's business, exactly as for the scalar kernels.
        """

    @abc.abstractmethod
    def query_one_to_many(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Label distances from ``source`` to ``targets`` (all vertices if ``None``).

        Returns ``float64`` aligned with ``targets`` (``inf`` where no common
        hub exists).  No ``source == target`` zeroing — the index facade
        applies it after the bit-parallel minimum.
        """

    @classmethod
    def rooted_probe(
        cls,
        flat_hubs: np.ndarray,
        flat_dists: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        temp: np.ndarray,
        max_rank: int,
        sentinel: int,
    ) -> np.ndarray:
        """Batched rooted evaluator for the dynamic oracle's repair BFSs.

        With the current root's label scattered into ``temp`` (rank-indexed
        ``int64``, ``sentinel`` where absent), evaluates the minimum
        ``temp[hub] + dist`` over each vertex's label entries restricted to
        hubs of rank ``<= max_rank``; ``flat_hubs`` / ``flat_dists`` are the
        concatenated per-vertex entries with ``starts`` / ``sizes`` segment
        bounds.  Returns ``int64`` minima aligned with the segments,
        exactly ``sentinel`` where no qualifying common hub exists.

        A classmethod: the dynamic oracle's labels are Python lists, so
        there is no persistent :class:`KernelData` to bind to.
        """
        raise NotImplementedError
