"""Fault-aware analog block graph — the reference fault model.

:class:`FaultedBlockGraph` is a drop-in :class:`~repro.analog.BlockGraph`
that consults a :class:`~repro.faults.state.FaultState` while building:
each memristor-ratio weight (one per ``lin`` term / ``absdiff`` stage)
is assigned the next enabled physical PE site and perturbed by that
site's stuck/drift/mismatch faults, and every comparator threshold
picks up the chip's offset drift.  The graph stays electrically
well-formed — which is exactly why the static ERC layer cannot see
runtime faults and the online BIST of :mod:`repro.faults.bist` exists.

Faults only change stage values, never topology, so the accelerator's
template path does not build this graph: it keeps the healthy graph's
structure and re-derives the faulted values as vectors
(:meth:`repro.analog.FrozenGraph.with_values` with
:meth:`FaultState.apply_weights`).  This class is the stage-by-stage
reference those derived values are tested against, and what a chip
built with ``use_template_cache=False`` runs.  Under time-varying read
disturb each build draws fresh noise from the state's stateful RNG,
one draw per weighted stage in stage order — as each derivation does.
"""

from __future__ import annotations

from ..analog import BlockGraph, NonidealityModel, TimingModel
from .state import FaultState


class FaultedBlockGraph(BlockGraph):
    """A block graph built on a chip carrying runtime faults."""

    def __init__(
        self,
        fault_state: FaultState,
        nonideality: NonidealityModel,
        timing: TimingModel,
    ) -> None:
        super().__init__(nonideality=nonideality, timing=timing)
        self.fault_state = fault_state
        self._stage_counter = 0

    def _weight_error(self, w: float, precision: bool = False) -> float:
        """Fabrication tolerance first, then this site's runtime faults."""
        w = super()._weight_error(w, precision=precision)
        w = self.fault_state.apply_weight(self._stage_counter, w)
        self._stage_counter += 1
        return w

    def mux(
        self,
        a: int,
        b: int,
        when_close: int,
        when_far: int,
        threshold: float,
        label: str = "",
    ) -> int:
        return super().mux(
            a,
            b,
            when_close,
            when_far,
            threshold + self.fault_state.comparator_offset_v,
            label=label,
        )

    def gate(
        self,
        a: int,
        b: int,
        threshold: float,
        v_high: float,
        v_low: float = 0.0,
        label: str = "",
    ) -> int:
        return super().gate(
            a,
            b,
            threshold + self.fault_state.comparator_offset_v,
            v_high,
            v_low=v_low,
            label=label,
        )
