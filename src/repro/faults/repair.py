"""Repair: recalibrate faulted ratios, remap irreparable PEs.

The closed loop's third stage.  For every faulty site of a chip's
:class:`~repro.faults.state.FaultState`:

* **Drifted / mismatched sites** are re-tuned with the paper's own
  Section 3.3 modulate/verify loop (:func:`repro.memristor.tuning.
  tune_ratio`) against a mid-range reference device.  Success trims
  the site's ratio error to the achieved tuning residual (a real
  residual — the loop bottoms out at the verify-measurement noise
  floor, not at zero).
* **Stuck sites** are put through the same loop; a pinned device
  ignores every modulation pulse, the loop exhausts its iteration
  budget without converging, and the site is *disabled* — the
  controller remaps stages onto the remaining healthy sites and the
  usable array shrinks (extra tiling passes instead of wrong
  distances).
* **Chip-level converter offsets** (ADC reference, comparator
  thresholds) are auto-zero trimmed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

import numpy as np

from ..memristor.device import Memristor
from ..memristor.tuning import NoiseStream, TuningConfig, modulate_verify
from ..errors import FaultInjectionError
from .state import STUCK_NAMES, STUCK_NONE, FaultState


@dataclasses.dataclass(frozen=True)
class SiteRepair:
    """Outcome of one site's recalibration attempt."""

    site: int
    kind: str  # "stuck-at-ron" | "stuck-at-roff" | "drift" | "mismatch"
    outcome: str  # "retuned" | "dead"
    residual_error: float
    iterations: int

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RepairReport:
    """Everything one recalibration pass did to one chip."""

    repairs: List[SiteRepair]
    usable_rows_before: int
    usable_rows_after: int
    adc_offset_trimmed_v: float
    comparator_offset_trimmed_v: float

    @property
    def n_faulty(self) -> int:
        return len(self.repairs)

    @property
    def n_retuned(self) -> int:
        return sum(1 for r in self.repairs if r.outcome == "retuned")

    @property
    def n_dead(self) -> int:
        return sum(1 for r in self.repairs if r.outcome == "dead")

    @property
    def repair_rate(self) -> float:
        """Fraction of faulty sites restored by tuning (1.0 if none)."""
        return self.n_retuned / self.n_faulty if self.n_faulty else 1.0

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.repairs)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_faulty": self.n_faulty,
            "n_retuned": self.n_retuned,
            "n_dead": self.n_dead,
            "repair_rate": self.repair_rate,
            "total_iterations": self.total_iterations,
            "usable_rows_before": self.usable_rows_before,
            "usable_rows_after": self.usable_rows_after,
            "adc_offset_trimmed_v": self.adc_offset_trimmed_v,
            "comparator_offset_trimmed_v": (
                self.comparator_offset_trimmed_v
            ),
            "repairs": [r.as_dict() for r in self.repairs],
        }


def _site_kind(state: FaultState, site: int) -> str:
    code = int(state.stuck[site])
    if code != STUCK_NONE:
        return STUCK_NAMES[code]
    if state.drift[site] != 1.0:
        return "drift"
    return "mismatch"


def _repair_site(
    state: FaultState,
    site: int,
    r_ref: float,
    reference: Memristor,
    config: TuningConfig,
    stuck_config: TuningConfig,
    noise: NoiseStream,
) -> SiteRepair:
    """Re-tune one faulty site against ``reference`` (at ``r_ref``),
    or disable it when the loop cannot converge."""
    device = state.device
    kind = _site_kind(state, site)
    if int(state.stuck[site]) != STUCK_NONE:
        pinned_r = device.r_on if kind == "stuck-at-ron" else device.r_off
        # Filament ruptured / permanently formed: the pulses do not
        # move it.
        stuck_device = Memristor(device)
        stuck_device.set_resistance(pinned_r)
        _, converged = modulate_verify(
            stuck_device, reference, 1.0, stuck_config, noise, pinned=True
        )
        if converged:  # pragma: no cover - a pinned device cannot tune
            raise FaultInjectionError(
                f"stuck site {site} tuned successfully; the "
                "stuck model is broken"
            )
        state.disable_site(site)
        return SiteRepair(
            site=site,
            kind=kind,
            outcome="dead",
            residual_error=abs(pinned_r / r_ref - 1.0),
            iterations=stuck_config.max_iterations,
        )

    # Drift / lost-pair mismatch: the device moved but still moves —
    # rebuild it at its drifted resistance and re-tune the ratio back
    # to 1 (nominal).
    drifted_factor = float(state.drift[site] * state.mismatch[site])
    drifted = Memristor(device)
    # Scalar clamp: ``np.clip`` on one finite float.
    drifted.set_resistance(
        min(max(r_ref * drifted_factor, device.r_on), device.r_off)
    )
    result, converged = modulate_verify(
        drifted, reference, 1.0, config, noise
    )
    if not converged:
        state.disable_site(site)
        return SiteRepair(
            site=site,
            kind=kind,
            outcome="dead",
            residual_error=abs(drifted_factor - 1.0),
            iterations=config.max_iterations,
        )
    state.clear_site(site)
    # The re-tuned ratio keeps the loop's real residual.
    state.drift[site] = result.achieved_ratio
    return SiteRepair(
        site=site,
        kind=kind,
        outcome="retuned",
        residual_error=result.relative_error,
        iterations=result.iterations,
    )


def recalibrate(
    accelerator,
    config: Optional[TuningConfig] = None,
    rng: Optional[np.random.Generator] = None,
    stuck_iteration_budget: int = 8,
) -> RepairReport:
    """Run the repair loop over one chip's fault map.

    Parameters
    ----------
    accelerator:
        A :class:`~repro.accelerator.DistanceAccelerator` carrying a
        fault map (see :meth:`inject_faults`).
    config:
        Modulate/verify knobs.  The default tunes to 0.1 % — tighter
        than the fabrication-time 0.5 % default — because repair runs
        once per BIST flag, not once per chip batch, and a looser
        residual can flip near-tie diode selections (max/min trees)
        during requalification.
    rng:
        Write/verify noise stream (seeded from the fault map when
        omitted, keeping repair reproducible).
    stuck_iteration_budget:
        Modulation pulses spent on a site before declaring it dead —
        the controller gives up early rather than burning the full
        tuning budget on a pinned device.
    """
    state = accelerator.fault_state
    if state is None:
        raise FaultInjectionError(
            "accelerator carries no fault map; nothing to recalibrate"
        )
    if config is None:
        config = TuningConfig(tolerance=0.001, max_iterations=100)
    if rng is None:
        rng = np.random.default_rng(state.seed + 1)
    if stuck_iteration_budget < 1:
        raise FaultInjectionError(
            "stuck_iteration_budget must be >= 1"
        )

    device = state.device
    r_ref = math.sqrt(device.r_on * device.r_off)
    reference = Memristor(device)
    reference.set_resistance(r_ref)
    stuck_config = dataclasses.replace(
        config, max_iterations=stuck_iteration_budget
    )
    rows_before = state.usable_rows()
    # One noise stream for the whole pass: the sites draw their write
    # and verify noise in site order, as scalar draws from ``rng`` did.
    with NoiseStream(rng) as noise:
        repairs = [
            _repair_site(
                state, site, r_ref, reference, config, stuck_config, noise
            )
            for site in state.faulty_sites().tolist()
        ]

    adc_trim = state.adc_offset_v
    comparator_trim = state.comparator_offset_v
    state.adc_offset_v = 0.0
    state.comparator_offset_v = 0.0

    # The fault map changed under the accelerator's feet: any cached
    # graph template embeds the pre-repair weights and comparator
    # offsets, so bump the fault epoch before anything re-probes.
    invalidate = getattr(accelerator, "invalidate_templates", None)
    if invalidate is not None:
        invalidate()

    return RepairReport(
        repairs=repairs,
        usable_rows_before=rows_before,
        usable_rows_after=state.usable_rows(),
        adc_offset_trimmed_v=adc_trim,
        comparator_offset_trimmed_v=comparator_trim,
    )
