"""Compatibility constant for the retired compiled-kernel tier.

The library has one batched loop per algorithm and no compiled backend; a
spec naming ``"numba"`` for either backend resolves to ``"fast"`` /
``"array"`` (see :data:`repro.matching.MATCHING_BACKENDS` and
:data:`repro.matching.SOLVER_BACKENDS`).  This module survives only because
``perfbench/panel.py`` imports :func:`numba_backend_active` to stamp its
reports.
"""

from __future__ import annotations

__all__ = ["numba_backend_active"]


def numba_backend_active() -> bool:
    """Always ``False``: no compiled kernel exists (kept for ``perfbench/panel.py``)."""
    return False
