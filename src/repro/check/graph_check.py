"""Electrical rule checker for :class:`repro.analog.BlockGraph` DAGs.

The block graph is the array-scale twin of the SPICE netlist, and it
fails the same way: a graph that type-checks still settles to a wrong
voltage when a stage is left unread, a DAC const exceeds the supply,
or a weight cannot be programmed as a memristor ratio.  Rules:

========  ========  ====================================================
code      severity  rule
========  ========  ====================================================
ERC101    warning   dead block: feeds nothing and is not an output
ERC102    error     graph has no marked outputs (nothing to read)
ERC103    error     critical-path settling exceeds the transient window
ERC104    error     const source beyond the supply rail (DAC range)
ERC105    error     comparator block with inverted rails or negative
                    threshold
ERC106    error     stage weight not encodable as a memristor ratio in
                    [Ron/Roff, Roff/Ron]
ERC107    error     non-positive stage time constant
========  ========  ====================================================

``check_block_graph`` accepts either a mutable :class:`BlockGraph` or
its :class:`FrozenGraph` compilation; everything is a static pass over
the block records — no DC solve, no transient.
"""

from __future__ import annotations

import math
from typing import Optional, Set, Union

import numpy as np

from ..analog.graph import (
    BlockGraph,
    FrozenGraph,
    KIND_CONST,
    KIND_GATE,
    KIND_MUX,
    KIND_NAMES,
)
from ..memristor.device import DeviceParameters, PAPER_PARAMETERS
from .diagnostics import CheckReport, Severity, register_rule

ERC101 = register_rule("ERC101", "dead block (unused, not an output)")
ERC102 = register_rule("ERC102", "graph has no marked outputs")
ERC103 = register_rule(
    "ERC103", "settling time exceeds the transient window"
)
ERC104 = register_rule("ERC104", "const source beyond the supply rail")
ERC105 = register_rule(
    "ERC105", "comparator with inverted rails or negative threshold"
)
ERC106 = register_rule(
    "ERC106", "weight not encodable as a memristor ratio"
)
ERC107 = register_rule("ERC107", "non-positive stage time constant")

#: First-order chains settle to the 0.1 % criterion in about
#: ``ln(1000) ~ 6.9`` critical-path time constants.
SETTLE_TAUS = 7.0


def check_block_graph(
    graph: Union[BlockGraph, FrozenGraph],
    supply_rail: Optional[float] = None,
    window_s: Optional[float] = None,
    device: DeviceParameters = PAPER_PARAMETERS,
) -> CheckReport:
    """Run every block-graph ERC rule.

    Parameters
    ----------
    graph:
        The graph under check (mutable builder or frozen compilation).
    supply_rail:
        Maximum |voltage| a const source may demand (default: the
        graph's own nonideality supply rail when set, else unchecked).
    window_s:
        Planned transient window; when given, ERC103 fires if the
        critical-path settle estimate does not fit it.
    device:
        Memristor device parameters bounding the encodable weight
        ratio for ERC106.
    """
    report = CheckReport()
    if isinstance(graph, BlockGraph):
        frozen = graph.freeze()
        if supply_rail is None:
            supply_rail = graph.nonideality.supply_rail
    else:
        frozen = graph
        if supply_rail is None:
            supply_rail = frozen.supply_rail

    n = frozen.n_blocks
    outputs = frozen.outputs

    # ERC102: a graph nobody reads cannot produce a distance.
    if not outputs:
        report.add(
            ERC102,
            Severity.ERROR,
            "no block is marked as an output; the ADC has no tap point",
            "graph",
        )

    # ERC101: blocks driving nothing.  A dead stage is either wasted
    # silicon or — worse — a mis-wired intermediate the designer meant
    # to consume.
    consumed: Set[int] = set(frozen.in_src.tolist())
    tapped = set(int(i) for i in outputs.values())
    for i in range(n):
        if i not in consumed and i not in tapped:
            report.add(
                ERC101,
                Severity.WARNING,
                f"block {i} ({KIND_NAMES[int(frozen.kind[i])]}"
                f"{', ' + frozen.labels[i] if frozen.labels[i] else ''})"
                " feeds no downstream block and is not an output",
                f"block {i}",
            )

    # ERC107 / ERC103: timing sanity.
    tau = np.asarray(frozen.tau, dtype=np.float64)
    for i in np.nonzero(~(tau > 0.0))[0]:
        report.add(
            ERC107,
            Severity.ERROR,
            f"block {int(i)} has non-positive tau {tau[int(i)]!r}; "
            "the first-order settling model is undefined",
            f"block {int(i)}",
        )
    if window_s is not None and n > 0 and np.all(tau > 0.0):
        settle = SETTLE_TAUS * float(np.max(frozen.critical_tau))
        if settle > window_s:
            report.add(
                ERC103,
                Severity.ERROR,
                f"critical-path settling needs ~{settle:.3e} s "
                f"({SETTLE_TAUS:g} critical taus) but the transient "
                f"window is {window_s:.3e} s; outputs would be read "
                "before convergence",
                "graph",
            )

    # Per-block value rules.
    ratio_hi = float(device.r_off) / float(device.r_on)
    ratio_lo = 1.0 / ratio_hi
    for i in range(n):
        kind = int(frozen.kind[i])
        where = f"block {i} ({KIND_NAMES[kind]})"

        if kind == KIND_CONST and supply_rail is not None:
            value = float(
                frozen.const_values[
                    int(np.searchsorted(frozen.const_ids, i))
                ]
            )
            if abs(value) > supply_rail:
                report.add(
                    ERC104,
                    Severity.ERROR,
                    f"const source demands {value:.6g} V beyond the "
                    f"supply rail +/-{supply_rail:.6g} V; the DAC "
                    "cannot produce it",
                    where,
                )

        if kind == KIND_GATE:
            k = int(np.searchsorted(frozen.gate_ids, i))
            v_high = float(frozen.gate_high[k])
            v_low = float(frozen.gate_low[k])
            thr = float(frozen.gate_thr[k])
            if v_high < v_low:
                report.add(
                    ERC105,
                    Severity.ERROR,
                    f"gate rails inverted (v_high {v_high:.6g} < "
                    f"v_low {v_low:.6g}); the comparator decision is "
                    "flipped",
                    where,
                )
            if thr < 0.0 or not math.isfinite(thr):
                report.add(
                    ERC105,
                    Severity.ERROR,
                    f"gate threshold {thr!r} is negative or "
                    "non-finite; |a-b| can never undercut it "
                    "meaningfully",
                    where,
                )

        if kind == KIND_MUX:
            k = int(np.searchsorted(frozen.mux_ids, i))
            thr = float(frozen.mux_thr[k])
            if thr < 0.0 or not math.isfinite(thr):
                report.add(
                    ERC105,
                    Severity.ERROR,
                    f"mux threshold {thr!r} is negative or non-finite",
                    where,
                )

    # ERC106: weights are realised as memristor resistance ratios
    # (Section 3.2); a magnitude outside [Ron/Roff, Roff/Ron] has no
    # programmable pair.  Zero is legal (open circuit / omitted input).
    def _check_weight(index: int, weight: float, role: str) -> None:
        magnitude = abs(float(weight))
        if magnitude == 0.0:
            return
        if not math.isfinite(magnitude) or not (
            ratio_lo * (1.0 - 1e-12)
            <= magnitude
            <= ratio_hi * (1.0 + 1e-12)
        ):
            report.add(
                ERC106,
                Severity.ERROR,
                f"{role} weight {weight:.6g} needs a memristor ratio "
                f"outside [{ratio_lo:.4g}, {ratio_hi:.4g}] "
                f"(Ron {device.r_on:.4g} ohm / Roff "
                f"{device.r_off:.4g} ohm); it cannot be programmed",
                f"block {index} ({KIND_NAMES[int(frozen.kind[index])]})",
            )

    for pos, i in enumerate(frozen.lin_ids):
        lo = int(frozen.lin_ptr[pos])
        hi = (
            int(frozen.lin_ptr[pos + 1])
            if pos + 1 < frozen.lin_ptr.size
            else frozen.lin_src.size
        )
        for w in frozen.lin_w[lo:hi]:
            _check_weight(int(i), float(w), "lin")
    for pos, i in enumerate(frozen.abs_ids):
        _check_weight(int(i), float(frozen.abs_w[pos]), "absdiff")

    return report
