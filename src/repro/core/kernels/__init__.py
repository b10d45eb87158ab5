"""Pluggable compiled-kernel layer behind the storage-backend seam.

The registry holds every :class:`~repro.core.kernels.base.KernelBackend`
implementation; :func:`create_kernel` picks the best one for a concrete
index and records the outcome as a
:class:`~repro.core.kernels.base.KernelSelection` — surfaced as a
structured log event on the ``repro.kernels`` logger, and by the serving
layer as a ``/metrics`` info gauge.

Selection rules:

* ``auto`` (what every index and server uses): the available,
  layout-compatible backend with the highest priority wins (numba > narrow
  > numpy).  Backends that are simply not installed or whose layout
  requirements the index does not meet are skipped silently — that is
  normal operation, not a fallback.  A constructor failure (e.g. a JIT
  warm-up compile) is a flagged fallback: the next candidate is tried,
  ending at numpy, which always constructs, and the selection carries
  ``fallback=True`` with the reason, so a degraded process is visible in
  logs and metrics rather than silent.
* An explicit backend name (:meth:`~repro.core.query.BatchQueryKernel.using`,
  for the cross-kernel equality tests and the kernel benchmark matrix):
  that backend is tried first; if it cannot serve (not installed, layout
  unsupported, or its constructor fails), selection *falls back* to the
  numpy baseline, flagged the same way.

The numpy baseline is byte-identical to the pre-kernel code and always
available, so every selection terminates successfully.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple, Type

from repro.core.kernels.base import (
    NARROW_MAX_DISTANCE,
    DtypePlan,
    KernelBackend,
    KernelData,
    KernelSelection,
    KernelUnavailableError,
    plan_dtypes,
)

__all__ = [
    "KernelBackend",
    "KernelData",
    "KernelSelection",
    "KernelUnavailableError",
    "DtypePlan",
    "plan_dtypes",
    "NARROW_MAX_DISTANCE",
    "register_kernel",
    "registered_kernels",
    "available_kernels",
    "select_kernel",
    "create_kernel",
]

#: Structured selection events ("kernel selected" / "kernel fallback") are
#: emitted here; tests and the serving layer's log plumbing both hook it.
_logger = logging.getLogger("repro.kernels")

_REGISTRY: Dict[str, Type[KernelBackend]] = {}


def register_kernel(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Class decorator: add a backend to the registry (last wins per name)."""
    _REGISTRY[cls.name] = cls
    return cls


def registered_kernels() -> Dict[str, Type[KernelBackend]]:
    """Snapshot of the registry, name -> backend class."""
    return dict(_REGISTRY)


def _by_priority() -> List[Type[KernelBackend]]:
    return sorted(_REGISTRY.values(), key=lambda cls: -cls.priority)


def available_kernels() -> List[str]:
    """Names of the backends that can run in this process, best first."""
    return [cls.name for cls in _by_priority() if cls.available()]


def _candidates(preference: str) -> List[Type[KernelBackend]]:
    if preference == "auto":
        return _by_priority()
    chosen = _REGISTRY.get(preference)
    fallback = _REGISTRY["numpy"]
    if chosen is None or chosen is fallback:
        return [fallback]
    return [chosen, fallback]


def select_kernel() -> Type[KernelBackend]:
    """The backend *class* automatic selection resolves to.

    Used where there is no persistent index to bind (the dynamic oracle's
    rooted repair probes): only ``available()`` is consulted, and the numpy
    baseline is the terminal candidate.
    """
    for cls in _by_priority():
        if cls.available():
            return cls
    return _REGISTRY["numpy"]


def create_kernel(
    data: KernelData, requested: str = "auto"
) -> Tuple[KernelBackend, KernelSelection]:
    """Construct the best kernel for ``data`` and report what happened.

    ``requested`` is ``"auto"`` or, for :meth:`BatchQueryKernel.using`, one
    backend name.  Never raises for backend trouble: any candidate that is
    unavailable, rejects the layout, or fails to construct is skipped
    (flagged as a fallback when it was explicitly requested or actually
    attempted), and the numpy baseline terminates the chain.
    """
    reasons: List[str] = []
    impl: Optional[KernelBackend] = None
    for cls in _candidates(requested):
        if not cls.available():
            if cls.name == requested:
                reasons.append(f"kernel '{cls.name}' is not available")
            continue
        if not cls.supports(data):
            if cls.name == requested:
                reasons.append(
                    f"kernel '{cls.name}' does not support this index layout"
                )
            continue
        try:
            impl = cls(data)
        except Exception as exc:
            reasons.append(f"kernel '{cls.name}' failed to initialise: {exc}")
            continue
        break
    if impl is None:
        # Unreachable in practice: the numpy baseline has no failure modes.
        raise KernelUnavailableError(
            "no kernel backend could be constructed: " + "; ".join(reasons)
        )
    selection = KernelSelection(
        requested=requested,
        selected=impl.name,
        fallback=bool(reasons),
        reason="; ".join(reasons),
    )
    if selection.fallback:
        _logger.warning(
            "kernel fallback: requested=%s selected=%s reason=%s",
            selection.requested,
            selection.selected,
            selection.reason,
        )
    else:
        _logger.info(
            "kernel selected: %s (requested=%s)",
            selection.selected,
            selection.requested,
        )
    return impl, selection


# Import for registration side effects (each module registers its backend).
from repro.core.kernels.narrow import NarrowKernel  # noqa: E402
from repro.core.kernels.numba_kernel import NumbaKernel  # noqa: E402
from repro.core.kernels.numpy_kernel import NumpyKernel  # noqa: E402

register_kernel(NumpyKernel)
register_kernel(NarrowKernel)
register_kernel(NumbaKernel)
