"""Per-chip runtime fault state.

A :class:`FaultState` is the *hardware truth* of one degraded chip: a
map over its physical PE sites (one site per gain-setting memristor
ratio, ``array_rows * array_cols`` of them) recording which sites are
stuck, drifted or mismatched, plus chip-level converter/comparator
offsets and a read-disturb noise magnitude.

A fault changes memristor ratios, never the circuit topology
(Section 3.3).  So the behavioural simulator applies the state to the
*values* of a chip's graphs: the ``k``-th weighted analog stage of a
computation is assigned the ``k``-th *enabled* physical site,
round-robin (deterministic for a given computation shape, as on a
real chip where the controller's PE mapping is fixed), and the site's
faults perturb that stage's memristor-ratio weight
(:meth:`FaultState.apply_weights`, one vector per graph); every
comparator threshold picks up the chip's offset drift.  The
accelerator re-derives these values whenever the fault map changes
(see :meth:`repro.accelerator.DistanceAccelerator.invalidate_templates`);
:class:`repro.faults.graph.FaultedBlockGraph` applies the same state
stage by stage while building, and is the reference the vectorized
path is tested against.

Repair (:mod:`repro.faults.repair`) mutates the same state: re-tuned
sites have their drift/mismatch trimmed to the tuning residual, and
irreparable sites are *disabled* — the controller remaps stages onto
the remaining healthy sites and the usable array shrinks by whole
rows (:meth:`FaultState.usable_rows`), forcing extra tiling passes
instead of wrong answers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

import numpy as np

from ..errors import FaultInjectionError
from ..memristor.device import DeviceParameters, PAPER_PARAMETERS

#: Stuck-at codes stored per site.
STUCK_NONE = 0
STUCK_RON = 1
STUCK_ROFF = 2

STUCK_NAMES = {
    STUCK_NONE: "none",
    STUCK_RON: "stuck-at-ron",
    STUCK_ROFF: "stuck-at-roff",
}


@dataclasses.dataclass
class FaultState:
    """Mutable runtime-fault map of one accelerator chip.

    Attributes
    ----------
    array_rows, array_cols:
        Physical PE array dimensions; ``n_sites = rows * cols``.
    device:
        Memristor device corner (Ron/Roff) used to translate stuck-at
        faults into effective weight ratios.
    stuck:
        Per-site stuck-at code (``STUCK_NONE`` / ``STUCK_RON`` /
        ``STUCK_ROFF``).
    drift:
        Per-site multiplicative conductance-drift factor on the tuned
        ratio (1.0 = no drift).
    mismatch:
        Per-site multiplicative lost-pair mismatch factor — the
        Section 3.3 matched-layout pairing has been violated (1.0 =
        intact pair).
    disabled:
        Per-site dead flag set by the repair remapper; disabled sites
        are never assigned to stages again.
    adc_offset_v:
        Chip-level additive offset (volts) at the ADC reference — the
        converter's drifted zero.
    comparator_offset_v:
        Chip-level additive offset (volts) on every comparator
        threshold.
    read_disturb_sigma:
        Relative std-dev of per-settle multiplicative read noise; this
        is the only *time-varying* fault (fresh draw every settle).
    seed:
        Seed of the read-disturb stream.
    """

    array_rows: int
    array_cols: int
    device: DeviceParameters = dataclasses.field(
        default_factory=lambda: PAPER_PARAMETERS
    )
    stuck: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    drift: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    mismatch: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    disabled: np.ndarray = dataclasses.field(default=None)  # type: ignore[assignment]
    adc_offset_v: float = 0.0
    comparator_offset_v: float = 0.0
    read_disturb_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.array_rows < 1 or self.array_cols < 1:
            raise FaultInjectionError("fault map needs a >= 1x1 array")
        n = self.n_sites
        if self.stuck is None:
            self.stuck = np.zeros(n, dtype=np.int8)
        if self.drift is None:
            self.drift = np.ones(n)
        if self.mismatch is None:
            self.mismatch = np.ones(n)
        if self.disabled is None:
            self.disabled = np.zeros(n, dtype=bool)
        for name in ("stuck", "drift", "mismatch", "disabled"):
            if getattr(self, name).shape != (n,):
                raise FaultInjectionError(
                    f"{name} map must have one entry per site ({n})"
                )
        if self.read_disturb_sigma < 0:
            raise FaultInjectionError(
                "read_disturb_sigma must be >= 0"
            )
        self._read_rng = np.random.default_rng(self.seed)
        self._refresh_enabled()

    # -- geometry ----------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self.array_rows * self.array_cols

    def _refresh_enabled(self) -> None:
        self._enabled = np.flatnonzero(~self.disabled)

    @property
    def n_enabled(self) -> int:
        return int(self._enabled.size)

    def usable_rows(self) -> int:
        """Rows of the logically repacked healthy array.

        The controller repacks healthy PEs into full-width rows, so
        ``n_enabled // array_cols`` rows remain addressable (never
        below one: a chip with fewer healthy sites than one row still
        serves, serially).
        """
        return max(1, min(self.array_rows, self.n_enabled // self.array_cols))

    def usable_cols(self) -> int:
        """Columns stay full width under row-granular repacking."""
        return self.array_cols

    # -- stage-to-site mapping ---------------------------------------------
    def site_for_stage(self, stage_index: int) -> int:
        """Physical site of the ``stage_index``-th weighted stage.

        Stages wrap round-robin over the *enabled* sites, so the same
        computation shape always exercises the same sites (needed for
        deterministic BIST) and the remapper's disable takes effect
        immediately.
        """
        if self._enabled.size == 0:
            raise FaultInjectionError(
                "every PE site is disabled; the chip has no capacity "
                "left (replace the shard)"
            )
        return int(self._enabled[stage_index % self._enabled.size])

    # -- fault application -------------------------------------------------
    def stuck_weight(self, code: int, w: float) -> float:
        """Effective ratio weight of a stage whose denominator device
        is pinned at Ron/Roff.

        The tuned pair realises ``w = R_ref / R_den`` with the
        reference anchored mid-range (geometric mean of the device
        corner); a pinned denominator forces the ratio to
        ``R_ref / R_on`` (huge) or ``R_ref / R_off`` (tiny) regardless
        of the programmed target.  The sign (inverting vs
        non-inverting wiring) survives the fault.
        """
        r_ref = math.sqrt(self.device.r_on * self.device.r_off)
        pinned = (
            self.device.r_on if code == STUCK_RON else self.device.r_off
        )
        magnitude = r_ref / pinned
        return math.copysign(magnitude, w) if w != 0.0 else magnitude

    def apply_weight(self, stage_index: int, w: float) -> float:
        """Perturb one stage weight with its site's runtime faults."""
        site = self.site_for_stage(stage_index)
        code = int(self.stuck[site])
        if code != STUCK_NONE:
            w = self.stuck_weight(code, w)
        else:
            w = w * float(self.drift[site] * self.mismatch[site])
        if self.read_disturb_sigma > 0.0:
            w = w * (
                1.0
                + float(
                    self._read_rng.normal(0.0, self.read_disturb_sigma)
                )
            )
        return w

    def apply_weights(self, weights: np.ndarray) -> np.ndarray:
        """:meth:`apply_weight` over stages ``0 .. len(weights) - 1``.

        Vectorized with the scalar path's arithmetic, so every entry
        holds the same bits; under read disturb the noise is drawn in
        stage order, one draw per stage, exactly as the scalar calls
        would draw it.
        """
        w = np.asarray(weights, dtype=np.float64)
        n = w.size
        if n == 0:
            return w.copy()
        if self._enabled.size == 0:
            raise FaultInjectionError(
                "every PE site is disabled; the chip has no capacity "
                "left (replace the shard)"
            )
        sites = self._enabled[np.arange(n) % self._enabled.size]
        out = w * (self.drift[sites] * self.mismatch[sites])
        code = self.stuck[sites]
        stuck = code != STUCK_NONE
        if stuck.any():
            r_ref = math.sqrt(self.device.r_on * self.device.r_off)
            pinned = np.where(
                code[stuck] == STUCK_RON,
                self.device.r_on,
                self.device.r_off,
            )
            magnitude = r_ref / pinned
            ws = w[stuck]
            out[stuck] = np.where(
                ws != 0.0, np.copysign(magnitude, ws), magnitude
            )
        if self.read_disturb_sigma > 0.0:
            out = out * (
                1.0
                + self._read_rng.normal(
                    0.0, self.read_disturb_sigma, size=n
                )
            )
        return out

    # -- mutation ----------------------------------------------------------
    def disable_site(self, site: int) -> None:
        """Mark one site dead (remapped around); clears its faults."""
        if not 0 <= site < self.n_sites:
            raise FaultInjectionError(f"no site {site}")
        self.disabled[site] = True
        self.stuck[site] = STUCK_NONE
        self.drift[site] = 1.0
        self.mismatch[site] = 1.0
        self._refresh_enabled()
        if self._enabled.size == 0:
            raise FaultInjectionError(
                "disabling this site killed the last healthy PE; the "
                "chip has no capacity left"
            )

    def clear_site(self, site: int) -> None:
        """Restore one site to nominal (successful recalibration)."""
        if not 0 <= site < self.n_sites:
            raise FaultInjectionError(f"no site {site}")
        self.stuck[site] = STUCK_NONE
        self.drift[site] = 1.0
        self.mismatch[site] = 1.0

    # -- reporting ---------------------------------------------------------
    def faulty_sites(self) -> np.ndarray:
        """Enabled sites carrying at least one device-level fault."""
        faulty = (
            (self.stuck != STUCK_NONE)
            | (self.drift != 1.0)
            | (self.mismatch != 1.0)
        ) & ~self.disabled
        return np.flatnonzero(faulty)

    @property
    def n_faulty(self) -> int:
        return int(self.faulty_sites().size)

    @property
    def has_faults(self) -> bool:
        return (
            self.n_faulty > 0
            or bool(self.disabled.any())
            or self.adc_offset_v != 0.0
            or self.comparator_offset_v != 0.0
            or self.read_disturb_sigma > 0.0
        )

    def summary(self) -> Dict[str, object]:
        """JSON-able census of the fault map."""
        return {
            "n_sites": self.n_sites,
            "n_enabled": self.n_enabled,
            "n_faulty": self.n_faulty,
            "n_disabled": int(self.disabled.sum()),
            "n_stuck_ron": int((self.stuck == STUCK_RON).sum()),
            "n_stuck_roff": int((self.stuck == STUCK_ROFF).sum()),
            "n_drifted": int(
                ((self.drift != 1.0) & ~self.disabled).sum()
            ),
            "n_mismatched": int(
                ((self.mismatch != 1.0) & ~self.disabled).sum()
            ),
            "adc_offset_v": float(self.adc_offset_v),
            "comparator_offset_v": float(self.comparator_offset_v),
            "read_disturb_sigma": float(self.read_disturb_sigma),
            "usable_rows": self.usable_rows(),
            "usable_cols": self.usable_cols(),
        }


def fresh_state(
    array_rows: int,
    array_cols: int,
    device: Optional[DeviceParameters] = None,
    seed: int = 0,
) -> FaultState:
    """A fault-free state sized for one chip."""
    return FaultState(
        array_rows=array_rows,
        array_cols=array_cols,
        device=device if device is not None else PAPER_PARAMETERS,
        seed=seed,
    )
