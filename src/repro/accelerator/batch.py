"""Batch execution on the row structure.

The Section 4.3 power totals for HamD/MD imply the row functions run
*batch-parallel*: each of the array's 128 rows holds one candidate
comparison against a shared query, and all rows settle together in one
analog transient.  :meth:`DistanceAccelerator.batch` models exactly
that — one block graph, one settling, many results — and is what gives
the 1-vs-many primitives (nearest neighbour, pairwise matrices,
template banks) their throughput on this architecture.
:meth:`DistanceAccelerator.batch_pairs` generalises it to independent
(p, q) pairs sharing one settle, which is what the serving layer's
dynamic batcher coalesces concurrent row-structure queries into.

That multi-row graph (one array row, and one run of fault sites, per
pair) is built by the same builder dispatch, frozen by the same
template constructor and read by the same ADC read-out as every
:meth:`DistanceAccelerator.compute` tile.  Its values differ from
:meth:`DistanceAccelerator.compute_many`, which settles same-shape
pairs of any function as a host-side ``(batch, n_blocks)`` stack of
one single-pair graph: each batch row draws its own systematic
errors.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np


@dataclasses.dataclass
class BatchResult:
    """Outcome of one batch settle across the array rows.

    ``convergence_time_s`` is the *slowest* candidate tap's settle —
    rows share one transient, and the ADC strobe cannot fire before
    the last row is inside tolerance.  ``overflow`` likewise flags any
    row pinned against either supply rail.
    """

    function: str
    values: np.ndarray
    convergence_time_s: Optional[float]
    conversion_time_s: float
    passes: int
    overflow: bool
    #: True when the settle reused a cached graph template rather
    #: than rebuilding the block graph from scratch.
    template_cached: bool = False

    @property
    def total_time_s(self) -> Optional[float]:
        if self.convergence_time_s is None:
            return None
        return (
            self.passes * self.convergence_time_s
            + self.conversion_time_s
        )

