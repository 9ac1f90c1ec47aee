"""Simulation engine for analog block graphs.

Two analyses, mirroring :mod:`repro.spice`:

* :func:`dc_solve` — the settled operating point, found by sweeping the
  (topologically ordered) graph until a fixed point; this is the value
  an ideal infinitely-patient ADC would read.
* :func:`transient` — synchronous exponential integration of every
  block's first-order settling, producing the output waveform the
  paper's convergence-time metric is defined on ("the interval between
  the rising edge of the input and the timestamp when the output is
  within 0.1% of the final value").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from .graph import BlockGraph, FrozenGraph

#: The paper's convergence criterion: within 0.1 % of the final value.
CONVERGENCE_TOLERANCE = 1.0e-3


def _freeze(graph: Union[BlockGraph, FrozenGraph]) -> FrozenGraph:
    if isinstance(graph, BlockGraph):
        return graph.freeze()
    return graph


def dc_solve(
    graph: Union[BlockGraph, FrozenGraph],
    max_sweeps: Optional[int] = None,
    method: str = "levelized",
) -> np.ndarray:
    """Fixed point of the target map (the settled voltages).

    Because builders only reference earlier blocks, the graph is a
    feedforward DAG, so the fixed point is unique and exact — and
    reachable two ways:

    * ``method="levelized"`` (default) evaluates each topological depth
      level once, using only already-final inputs: exactly ``depth``
      subset passes (see :meth:`FrozenGraph.solve`).
    * ``method="jacobi"`` is the reference full-graph sweep, iterated
      to an exact fixed point.  Exact equality is required — an
      absolute tolerance would let sub-tolerance inputs fail to
      propagate through comparators, silently mis-deciding thresholds.

    Both are bit-identical (the per-level arithmetic is the same
    elementwise sequence of operations).  Passing ``max_sweeps``
    selects the Jacobi path, since a sweep limit only means something
    there.  When the graph's bound ``const_values`` carry leading batch
    axes the result is ``(*batch, n_blocks)`` — one vectorized settle
    for the whole batch.
    """
    g = _freeze(graph)
    if method == "levelized" and max_sweeps is None:
        return g.solve()
    if method not in ("levelized", "jacobi"):
        raise ConfigurationError(
            f"unknown dc_solve method {method!r}"
        )
    if max_sweeps is None:
        max_sweeps = g.n_blocks + 2
    v = np.zeros(g.batch_shape + (g.n_blocks,))
    for _ in range(max_sweeps):
        new = g.targets(v)
        if np.array_equal(new, v):
            return new
        v = new
    raise ConvergenceError(
        "DC sweep did not reach a fixed point; the graph may contain "
        "a comparator oscillating across its threshold"
    )


@dataclasses.dataclass
class AnalogTransientResult:
    """Waveforms and convergence measurements of one transient run."""

    time: np.ndarray
    waves: Dict[str, np.ndarray]
    final: Dict[str, float]

    def convergence_time(
        self,
        name: str,
        tolerance: float = CONVERGENCE_TOLERANCE,
    ) -> float:
        """Paper metric: first instant after which the output stays
        within ``tolerance`` (relative) of its final settled value.

        For a batched run (waves with leading axes) the worst row
        governs: the returned time is the max across the batch, since
        the ADC strobe must wait for the slowest comparison.
        """
        wave = np.asarray(self.waves[name])
        target = np.asarray(self.final[name])
        scale = np.maximum(np.abs(target), 1.0e-9)
        outside = (
            np.abs(wave - target[..., None]) > tolerance * scale[..., None]
        )
        if not np.any(outside):
            return float(self.time[0])
        last = int(np.max(np.nonzero(np.any(
            outside.reshape(-1, outside.shape[-1]), axis=0
        ))))
        if last + 1 >= self.time.size:
            raise ConvergenceError(
                f"output {name!r} did not converge within the simulated "
                f"window ({self.time[-1]:.3e} s)"
            )
        return float(self.time[last + 1])


def transient(
    graph: Union[BlockGraph, FrozenGraph],
    t_stop: float,
    dt: float,
    record: Optional[Sequence[str]] = None,
    v0: Optional[np.ndarray] = None,
) -> AnalogTransientResult:
    """Integrate ``dv/dt = (target - v)/tau`` from ``v0`` (default 0 V).

    Uses the exact exponential update for frozen inputs,
    ``v <- target + (v - target) exp(-dt/tau)``, which is
    unconditionally stable for any ``dt``; accuracy requires
    ``dt`` below the smallest interesting tau, which callers size via
    :func:`suggest_dt`.
    """
    g = _freeze(graph)
    if not g.outputs:
        raise ConvergenceError("graph has no marked outputs to record")
    if record is None:
        record = list(g.outputs)
    unknown = [name for name in record if name not in g.outputs]
    if unknown:
        raise ConvergenceError(f"unknown outputs: {unknown}")

    steps = int(np.ceil(t_stop / dt))
    time = np.linspace(0.0, steps * dt, steps + 1)
    decay = np.exp(-dt / g.tau)
    batch = g.batch_shape
    v = (
        np.zeros(batch + (g.n_blocks,))
        if v0 is None
        else np.asarray(v0, dtype=np.float64).copy()
    )

    waves = {
        name: np.zeros(v.shape[:-1] + (steps + 1,)) for name in record
    }
    taps = {name: g.outputs[name] for name in record}
    for name, tap in taps.items():
        waves[name][..., 0] = v[..., tap]

    cv = g.const_values
    for k in range(1, steps + 1):
        t = g.targets(v, cv)
        v = t + (v - t) * decay
        for name, tap in taps.items():
            waves[name][..., k] = v[..., tap]

    settled = dc_solve(g)
    final = {
        name: (
            float(settled[tap])
            if settled.ndim == 1
            else settled[..., tap]
        )
        for name, tap in taps.items()
    }
    return AnalogTransientResult(time=time, waves=waves, final=final)


def suggest_dt(graph: Union[BlockGraph, FrozenGraph]) -> float:
    """A dt resolving the median stage tau (fast stages may be treated
    as instantaneous without hurting the convergence-time estimate)."""
    g = _freeze(graph)
    slow = g.tau[g.tau > 1.0e-11]
    if slow.size == 0:
        return 1.0e-11
    return float(np.median(slow) / 20.0)


def measure_convergence(
    graph: Union[BlockGraph, FrozenGraph],
    output: str,
    safety_factor: float = 30.0,
    tolerance: float = CONVERGENCE_TOLERANCE,
) -> "tuple[float, float]":
    """Convenience: simulate long enough and return
    ``(convergence_time_s, final_value_v)`` for one output."""
    results = measure_convergence_many(
        graph,
        [output],
        safety_factor=safety_factor,
        tolerance=tolerance,
    )
    return results[output]


def measure_convergence_many(
    graph: Union[BlockGraph, FrozenGraph],
    outputs: Sequence[str],
    safety_factor: float = 30.0,
    tolerance: float = CONVERGENCE_TOLERANCE,
) -> "Dict[str, tuple[float, float]]":
    """One transient, many tap points: ``{name: (t_conv_s, final_v)}``.

    A batched settle (e.g. ``batch_pairs``) carries one candidate per
    output tap; recording them all in a single transient costs the same
    integration as recording one, so per-candidate convergence times
    come for free.

    The window is sized from the graph's total tau budget (a
    ``safety_factor`` times the max tau times a depth estimate, floored
    by the critical-path heuristic), growing geometrically on failure.
    Each retry also coarsens ``dt`` by the same factor so the total
    step count stays bounded — a fixed ``dt`` would multiply the work
    4096x across the six attempts.
    """
    g = _freeze(graph)
    dt = suggest_dt(g)
    # Cascaded first-order stages settle to 0.1 % in about
    # ln(1000) ~ 7 critical-path taus; double that for comparator
    # re-selections, floored by the per-stage heuristic.
    window = max(
        14.0 * float(np.max(g.critical_tau)),
        safety_factor * float(np.max(g.tau)) * 4.0,
    )
    attempted = window
    for _ in range(6):
        attempted = window
        try:
            result = transient(
                g, t_stop=window, dt=dt, record=list(outputs)
            )
            return {
                name: (
                    result.convergence_time(name, tolerance),
                    result.final[name],
                )
                for name in outputs
            }
        except ConvergenceError:
            window *= 4.0
            dt *= 4.0
    raise ConvergenceError(
        f"output(s) {list(outputs)!r} failed to converge even in a "
        f"{attempted:.3e} s window"
    )
