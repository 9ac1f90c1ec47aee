"""Typed analog block graph.

A :class:`BlockGraph` is a feedforward DAG of analog stages.  Each block
has one output voltage, a *target* function of its input voltages, and
a first-order settling time constant ``tau``: the output obeys
``dv/dt = (target(inputs) - v) / tau``.  This is exactly the behaviour
of the single-pole op-amp stages validated in :mod:`repro.spice`, and it
is what lets full 40x40 PE arrays simulate in milliseconds instead of
the 20 SPICE-hours the paper reports.

Block kinds
-----------
``const``    fixed source voltage (DAC output).
``lin``      weighted sum + constant:  ``sum_k w_k v_k + c``  (subtractor,
             adder, buffer, the HauD converter ``Vcc - x`` ...).
``absdiff``  ``w * |a - b|``  (the absolution module).
``max``      diode maximum of its inputs.
``min``      minimum (realised in hardware via the Vcc-complement trick
             of Eq. (8); modelled directly, with the same error knobs).
``mux``      comparator + transmission gates: ``t`` if ``|a-b| <= thr``
             else ``f`` (the LCS/EdD selecting module).
``gate``     comparator to a rail: ``v_high`` if ``|a-b| > thr`` else
             ``v_low`` (the HamD PE).

Builder methods return integer block ids; inputs must already exist, so
the graph is topologically ordered by construction.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .nonideal import (
    DEFAULT_NONIDEALITY,
    DEFAULT_TIMING,
    NonidealityModel,
    TimingModel,
)

KIND_CONST = 0
KIND_LIN = 1
KIND_ABSDIFF = 2
KIND_MAX = 3
KIND_MIN = 4
KIND_MUX = 5
KIND_GATE = 6

KIND_NAMES = {
    KIND_CONST: "const",
    KIND_LIN: "lin",
    KIND_ABSDIFF: "absdiff",
    KIND_MAX: "max",
    KIND_MIN: "min",
    KIND_MUX: "mux",
    KIND_GATE: "gate",
}


@dataclasses.dataclass
class _Block:
    kind: int
    inputs: Tuple[int, ...]
    weights: Tuple[float, ...] = ()
    constant: float = 0.0
    threshold: float = 0.0
    v_high: float = 0.0
    v_low: float = 0.0
    tau: float = 1.0e-9
    gain: float = 1.0
    offset: float = 0.0
    label: str = ""


class BlockGraph:
    """Mutable builder for an analog block DAG.

    Parameters
    ----------
    nonideality:
        Error model; per-block systematic gain/offset/threshold errors
        are drawn from it at build time (one draw per block — the same
        chip behaves the same across runs).
    timing:
        Stage time-constant model.
    ideal:
        Shortcut: ``True`` builds a mathematically exact graph.
    """

    def __init__(
        self,
        nonideality: NonidealityModel = DEFAULT_NONIDEALITY,
        timing: TimingModel = DEFAULT_TIMING,
    ) -> None:
        self.nonideality = nonideality
        self.timing = timing
        self._rng = nonideality.rng()
        self._blocks: List[_Block] = []
        self._outputs: Dict[str, int] = {}

    # -- internals ---------------------------------------------------------
    def _add(self, block: _Block) -> int:
        for src in block.inputs:
            if not 0 <= src < len(self._blocks):
                raise ConfigurationError(
                    f"block input {src} does not exist yet"
                )
        self._blocks.append(block)
        return len(self._blocks) - 1

    def _amp_errors(self, noise_gain: float) -> Tuple[float, float]:
        """Systematic (gain, offset) pair for one amplifier stage."""
        gain = self.nonideality.gain_factor(noise_gain)
        offset = float(
            self._rng.normal(0.0, self.nonideality.offset_sigma)
        )
        return gain, offset

    def _weight_error(self, w: float, precision: bool = False) -> float:
        """Apply the post-tuning memristor ratio tolerance to a weight.

        ``precision=True`` marks ratios whose error multiplies a
        supply-scale common-mode signal (the HauD Vcc-complement
        stages); the Section 3.3 tuning loop is iterated further on
        those, buying an extra 10x (bounded below by the verify
        measurement noise).
        """
        tol = self.nonideality.weight_tolerance
        if precision:
            tol = max(tol / 10.0, 1.0e-4 if tol > 0 else 0.0)
        if tol == 0.0 or w == 0.0:
            return w
        return w * (1.0 + float(self._rng.uniform(-tol, tol)))

    # -- builders ----------------------------------------------------------
    def const(self, value: float, label: str = "") -> int:
        """A source node (DAC output or reference rail)."""
        return self._add(
            _Block(
                kind=KIND_CONST,
                inputs=(),
                constant=float(value),
                tau=1.0e-12,
                label=label,
            )
        )

    def lin(
        self,
        terms: Sequence[Tuple[int, float]],
        constant: float = 0.0,
        label: str = "",
        is_adder: bool = False,
        precision: bool = False,
    ) -> int:
        """Weighted-sum amplifier stage ``sum w_k v_k + constant``.

        ``is_adder=True`` marks a row-structure summing stage whose
        virtual-ground net carries one parasitic per input (fan-in
        dependent tau); other lin stages are fixed-fan-in subtractors.
        ``precision=True`` marks stages whose ratio is tuned to the
        verify floor (see :meth:`_weight_error`).
        """
        if len(terms) == 0:
            raise ConfigurationError("lin block needs at least one term")
        inputs = tuple(t[0] for t in terms)
        weights = tuple(
            self._weight_error(float(t[1]), precision=precision)
            for t in terms
        )
        noise_gain = 1.0 + float(np.sum(np.abs(weights)))
        gain, offset = self._amp_errors(noise_gain)
        if is_adder:
            tau = self.timing.adder_tau(len(inputs), noise_gain)
        else:
            tau = self.timing.opamp_tau(noise_gain)
        return self._add(
            _Block(
                kind=KIND_LIN,
                inputs=inputs,
                weights=weights,
                constant=float(constant),
                tau=tau,
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def absdiff(
        self, a: int, b: int, weight: float = 1.0, label: str = ""
    ) -> int:
        """Absolution module: ``w |V(a) - V(b)|``.

        Hardware: two subtractors + two diodes; modelled as one stage
        with the subtractor's settling and the diode's selection error.
        """
        w = self._weight_error(float(weight))
        gain, offset = self._amp_errors(noise_gain=2.0)
        offset += self.nonideality.diode_drop
        return self._add(
            _Block(
                kind=KIND_ABSDIFF,
                inputs=(a, b),
                weights=(w,),
                tau=self.timing.opamp_tau(2.0),
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def maximum(self, inputs: Sequence[int], label: str = "") -> int:
        """Diode max selector."""
        if len(inputs) == 0:
            raise ConfigurationError("max block needs inputs")
        return self._add(
            _Block(
                kind=KIND_MAX,
                inputs=tuple(inputs),
                tau=self.timing.diode_tau(len(inputs)),
                gain=1.0,
                offset=-self.nonideality.diode_drop,
                label=label,
            )
        )

    def minimum(self, inputs: Sequence[int], label: str = "") -> int:
        """Minimum selector (Eq. (8) complement trick in hardware).

        The hardware spends two extra subtractor inversions around the
        diode stage, so the settling is op-amp-class, not diode-class.
        """
        if len(inputs) == 0:
            raise ConfigurationError("min block needs inputs")
        gain, offset = self._amp_errors(noise_gain=2.0)
        offset += self.nonideality.diode_drop
        return self._add(
            _Block(
                kind=KIND_MIN,
                inputs=tuple(inputs),
                tau=self.timing.opamp_tau(2.0),
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def mux(
        self,
        a: int,
        b: int,
        when_close: int,
        when_far: int,
        threshold: float,
        label: str = "",
    ) -> int:
        """Selecting module: comparator on ``|V(a)-V(b)|`` vs threshold
        drives two transmission gates (Fig. 2(b))."""
        thr = float(threshold) + float(
            self._rng.normal(
                0.0, self.nonideality.comparator_offset_sigma
            )
        )
        return self._add(
            _Block(
                kind=KIND_MUX,
                inputs=(a, b, when_close, when_far),
                threshold=thr,
                tau=self.timing.comparator_tau,
                label=label,
            )
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
        """HamD PE: ``v_high`` when ``|V(a)-V(b)| > threshold`` else
        ``v_low`` (Eq. (6) semantics)."""
        thr = float(threshold) + float(
            self._rng.normal(
                0.0, self.nonideality.comparator_offset_sigma
            )
        )
        return self._add(
            _Block(
                kind=KIND_GATE,
                inputs=(a, b),
                threshold=thr,
                v_high=float(v_high),
                v_low=float(v_low),
                tau=self.timing.comparator_tau,
                label=label,
            )
        )

    def buffer(self, src: int, label: str = "") -> int:
        """Unity-gain buffer stage."""
        return self.lin([(src, 1.0)], label=label)

    # -- outputs and freezing ----------------------------------------------
    def mark_output(self, name: str, block_id: int) -> None:
        """Name a block as an observable output (ADC tap point)."""
        if not 0 <= block_id < len(self._blocks):
            raise ConfigurationError(f"no block {block_id}")
        self._outputs[name] = block_id

    @property
    def outputs(self) -> Dict[str, int]:
        return dict(self._outputs)

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, block_id: int) -> _Block:
        return self._blocks[block_id]

    def freeze(self) -> "FrozenGraph":
        """Compile to the vectorised form the engine consumes."""
        return FrozenGraph(self)


def _gather_edges(
    ptr: np.ndarray, n_edges: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized CSR gather.

    Row ``r`` of an edge list owns edges ``ptr[r]:ptr[r + 1]`` (the
    last row ends at ``n_edges``).  Returns the positions of ``rows``'
    edges, row after row in edge order, and each gathered row's start
    in that result — the ``reduceat`` indices of the gathered list.
    """
    lo = ptr[rows]
    counts = np.append(ptr[1:], n_edges)[rows] - lo
    starts = np.cumsum(counts) - counts
    edges = np.arange(int(counts.sum()), dtype=np.intp) + np.repeat(
        lo - starts, counts
    )
    return edges, starts


# Raw (pre gain/offset) targets of one kind's blocks, from the current
# voltages ``v``.  Source-index arguments come first.
def _lin(v, src, w, ptr, const):
    return np.add.reduceat(v[..., src] * w, ptr, axis=-1) + const


def _absdiff(v, a, b, w):
    return w * np.abs(v[..., a] - v[..., b])


def _maximum(v, src, ptr):
    return np.maximum.reduceat(v[..., src], ptr, axis=-1)


def _minimum(v, src, ptr):
    return np.minimum.reduceat(v[..., src], ptr, axis=-1)


def _mux(v, a, b, t, f, thr):
    close = np.abs(v[..., a] - v[..., b]) <= thr
    return np.where(close, v[..., t], v[..., f])


def _gate(v, a, b, thr, high, low):
    far = np.abs(v[..., a] - v[..., b]) > thr
    return np.where(far, high, low)


#: Per non-const kind: its kernel, how many leading kernel arguments
#: are source indices, and which argument holds the ``reduceat``
#: starts of a variable-arity kind (arguments before it have one entry
#: per edge, after it one per block; ``None``: all are per block).
_KERNELS = {
    KIND_LIN: (_lin, 1, 2),
    KIND_ABSDIFF: (_absdiff, 2, None),
    KIND_MAX: (_maximum, 1, 1),
    KIND_MIN: (_minimum, 1, 1),
    KIND_MUX: (_mux, 4, None),
    KIND_GATE: (_gate, 2, None),
}


class _SubsetOps:
    """Evaluation plan for a subset of a :class:`FrozenGraph`'s blocks.

    Packs the subset's blocks by kind (each kind in ``ids`` order) into
    its kernel's arguments, so the per-step transient update touches
    only those blocks.  Source indices still address the full voltage
    vector; only the *written* positions are subset-local.
    """

    __slots__ = (
        "ids",
        "gain",
        "offset",
        "rail",
        "const_pos",
        "const_take",
        "kinds",
    )

    def __init__(self, frozen: "FrozenGraph", ids: np.ndarray) -> None:
        self.ids = ids
        self.gain = frozen.gain[ids]
        self.offset = frozen.offset[ids]
        self.rail = frozen.supply_rail
        kinds = frozen.kind[ids]
        pos = np.arange(ids.size, dtype=np.intp)

        def members(
            kind: int, kind_ids: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray]:
            """Subset positions of ``kind``'s blocks and their indices
            into that kind's packed arrays."""
            mask = kinds == kind
            return pos[mask], np.searchsorted(kind_ids, ids[mask])

        f = frozen
        self.const_pos, self.const_take = members(KIND_CONST, f.const_ids)
        lin_pos, li = members(KIND_LIN, f.lin_ids)
        lin_e, lin_ptr = _gather_edges(f.lin_ptr, f.lin_src.size, li)
        max_pos, xi = members(KIND_MAX, f.max_ids)
        max_e, max_ptr = _gather_edges(f.max_ptr, f.max_src.size, xi)
        min_pos, ni = members(KIND_MIN, f.min_ids)
        min_e, min_ptr = _gather_edges(f.min_ptr, f.min_src.size, ni)
        abs_pos, ai = members(KIND_ABSDIFF, f.abs_ids)
        mux_pos, mi = members(KIND_MUX, f.mux_ids)
        gate_pos, gi = members(KIND_GATE, f.gate_ids)
        #: kind -> (subset positions, kernel arguments)
        self.kinds = {
            KIND_LIN: (
                lin_pos,
                (f.lin_src[lin_e], f.lin_w[lin_e], lin_ptr, f.lin_const[li]),
            ),
            KIND_ABSDIFF: (
                abs_pos,
                (f.abs_a[ai], f.abs_b[ai], f.abs_w[ai]),
            ),
            KIND_MAX: (max_pos, (f.max_src[max_e], max_ptr)),
            KIND_MIN: (min_pos, (f.min_src[min_e], min_ptr)),
            KIND_MUX: (
                mux_pos,
                (
                    f.mux_a[mi],
                    f.mux_b[mi],
                    f.mux_t[mi],
                    f.mux_f[mi],
                    f.mux_thr[mi],
                ),
            ),
            KIND_GATE: (
                gate_pos,
                (
                    f.gate_a[gi],
                    f.gate_b[gi],
                    f.gate_thr[gi],
                    f.gate_high[gi],
                    f.gate_low[gi],
                ),
            ),
        }

    def eval_into(
        self, v: np.ndarray, const_values: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the subset's settled targets into ``out[..., ids]``.

        Reads input voltages from ``v``; batched when
        ``v``/``const_values`` carry leading axes.
        """
        raw = np.zeros(v.shape[:-1] + (self.ids.size,))
        if self.const_pos.size:
            raw[..., self.const_pos] = const_values[..., self.const_take]
        for kind, (pos, args) in self.kinds.items():
            if pos.size:
                raw[..., pos] = _KERNELS[kind][0](v, *args)
        raw = raw * self.gain + self.offset
        if self.rail is not None:
            np.clip(raw, -self.rail, self.rail, out=raw)
        out[..., self.ids] = raw


class _LevelProgram:
    """:meth:`FrozenGraph.solve` compiled into one slice-addressed pass.

    Blocks are renumbered by ``(depth, kind)`` — a stable sort, so each
    kind keeps id order inside its level — which makes every level, and
    every kind's run inside a level, a contiguous slice of the working
    voltage vector.  The consts come first, in id order: exactly the
    bound ``const_values``.  Each run writes its raw targets straight
    into its slice; the level then applies gain, offset and the rail
    clip in place.  Sources are renumbered too, and :attr:`rank` maps
    the result back to block order.
    """

    __slots__ = ("levels", "rank", "n_const", "rail")

    def __init__(self, frozen: "FrozenGraph") -> None:
        order = np.lexsort((frozen.kind, frozen.depth))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size, dtype=np.intp)
        self.rank = rank
        self.n_const = frozen.const_ids.size
        self.rail = frozen.supply_rail
        # Every block packed by kind in program order (one CSR gather
        # per kind), so each (level, kind) run is a consecutive range
        # of its kind's arguments.
        ops = _SubsetOps(frozen, order)
        packed = {
            k: tuple(
                rank[x] if i < _KERNELS[k][1] else x
                for i, x in enumerate(args)
            )
            for k, (_, args) in ops.kinds.items()
        }

        def run_args(k: int, c0: int, c1: int) -> tuple:
            args, ptr_at = packed[k], _KERNELS[k][2]
            if ptr_at is None:
                return tuple(x[c0:c1] for x in args)
            ptr = args[ptr_at]
            e0 = int(ptr[c0])
            e1 = int(ptr[c1]) if c1 < ptr.size else args[0].size
            return (
                *(x[e0:e1] for x in args[:ptr_at]),
                ptr[c0:c1] - e0,
                *(x[c0:c1] for x in args[ptr_at + 1 :]),
            )

        kind = frozen.kind[order]
        depth = frozen.depth[order]
        starts = np.flatnonzero(
            np.diff(kind, prepend=-1) | np.diff(depth, prepend=-1)
        ).tolist()
        cursor = dict.fromkeys(_KERNELS, 0)
        self.levels: List[tuple] = []
        runs: list = []
        lo = 0
        for a, b in zip(starts, starts[1:] + [order.size]):
            k = int(kind[a])
            if k != KIND_CONST:
                c0 = cursor[k]
                cursor[k] = c1 = c0 + b - a
                runs.append((_KERNELS[k][0], a, b, run_args(k, c0, c1)))
            if b == order.size or depth[b] != depth[a]:
                self.levels.append(
                    (lo, b, ops.gain[lo:b], ops.offset[lo:b], runs)
                )
                lo, runs = b, []

    def run(self, cv: np.ndarray) -> np.ndarray:
        """Settled voltages, in block order, for source values ``cv``
        (leading axes batch the solve)."""
        v = np.empty(cv.shape[:-1] + (self.rank.size,))
        v[..., : self.n_const] = cv
        rail = self.rail
        for lo, hi, gain, offset, runs in self.levels:
            for kernel, a, b, args in runs:
                v[..., a:b] = kernel(v, *args)
            level = v[..., lo:hi]
            level *= gain
            level += offset
            if rail is not None:
                np.clip(level, -rail, rail, out=level)
        return v[..., self.rank]


class FrozenGraph:
    """Immutable, array-packed view of a :class:`BlockGraph`.

    Blocks are grouped by kind; variable-arity kinds (lin/max/min) store
    their edges contiguously for ``reduceat``-style evaluation.

    Two execution strategies share these arrays: the reference Jacobi
    sweep (:func:`repro.analog.dc_solve` with ``method="jacobi"``) and
    the levelized pass (:meth:`solve`), which exploits the topological
    ``depth`` precomputed here to settle in exactly ``n_levels`` level
    evaluations of a program compiled on first use.  :meth:`bind`
    rebinds ``const_values`` without repacking, which is what the
    accelerator's graph-template cache builds on; a bound view with a
    ``(batch, n_const)`` matrix solves every row in one vectorized
    pass.
    """

    def __init__(self, graph: BlockGraph) -> None:
        blocks = graph._blocks
        n = len(blocks)
        self.n_blocks = n
        self.outputs = dict(graph._outputs)
        self.labels = [b.label for b in blocks]
        self.supply_rail = graph.nonideality.supply_rail

        def column(
            field: str, ids: Optional[np.ndarray] = None, dtype=np.float64
        ) -> np.ndarray:
            rows = blocks if ids is None else [blocks[i] for i in ids.tolist()]
            return np.fromiter(
                map(operator.attrgetter(field), rows), dtype, len(rows)
            )

        self.tau = column("tau")
        self.kind = column("kind", dtype=np.intp)
        self.gain = column("gain")
        self.offset = column("offset")

        def flatten(rows: list, dtype) -> Tuple[np.ndarray, np.ndarray]:
            """Concatenated per-block tuples and each block's start."""
            counts = np.fromiter(map(len, rows), np.intp, n)
            flat = np.fromiter(chain.from_iterable(rows), dtype)
            return flat, np.cumsum(counts) - counts

        # Edge lists in CSR form: block ``i`` owns inputs
        # ``in_src[in_ptr[i]:in_ptr[i + 1]]`` (weights likewise).
        inputs = [b.inputs for b in blocks]
        self.in_src, self.in_ptr = flatten(inputs, np.intp)
        w_flat, w_ptr = flatten([b.weights for b in blocks], np.float64)

        # One pass for topological depth and the critical-path settling
        # budget — the sum of taus along the slowest input chain of
        # each block.  Cascaded first-order stages settle in roughly
        # ln(1/tol) times that, which sizes the transient window
        # without trial and error.
        critical: List[float] = []
        depth: List[int] = []
        critical_of, depth_of = critical.__getitem__, depth.__getitem__
        for b, ins in zip(blocks, inputs):
            if ins:
                critical.append(b.tau + max(map(critical_of, ins)))
                depth.append(1 + max(map(depth_of, ins)))
            else:
                critical.append(b.tau + 0.0)
                depth.append(0)
        self.critical_tau = np.array(critical)
        #: Topological depth per block (0 = sources); the levelized
        #: solver settles the graph in exactly ``n_levels`` passes.
        self.depth = np.array(depth, dtype=np.intp)
        self.n_levels = int(self.depth.max()) + 1 if n else 0
        # Lazily compiled solve plans, shared (by reference) with every
        # bound view so rebinding const_values never repacks edges.
        self._ops_cache: Dict[str, object] = {}

        def ids_of(k: int) -> np.ndarray:
            return np.flatnonzero(self.kind == k)

        def first_inputs(ids: np.ndarray, arity: int) -> List[np.ndarray]:
            head = self.in_ptr[ids]
            return [self.in_src[head + j] for j in range(arity)]

        def edges_of(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            edges, starts = _gather_edges(
                self.in_ptr, self.in_src.size, ids
            )
            return self.in_src[edges], starts

        self.const_ids = ids_of(KIND_CONST)
        self.const_values = column("constant", self.const_ids)

        # lin / max / min: flat edge arrays + reduce offsets
        self.lin_ids = ids_of(KIND_LIN)
        self.lin_src, self.lin_ptr = edges_of(self.lin_ids)
        self.lin_w = w_flat[
            _gather_edges(w_ptr, w_flat.size, self.lin_ids)[0]
        ]
        self.lin_const = column("constant", self.lin_ids)
        self.max_ids = ids_of(KIND_MAX)
        self.max_src, self.max_ptr = edges_of(self.max_ids)
        self.min_ids = ids_of(KIND_MIN)
        self.min_src, self.min_ptr = edges_of(self.min_ids)

        self.abs_ids = ids_of(KIND_ABSDIFF)
        self.abs_a, self.abs_b = first_inputs(self.abs_ids, 2)
        self.abs_w = w_flat[w_ptr[self.abs_ids]]

        self.mux_ids = ids_of(KIND_MUX)
        self.mux_a, self.mux_b, self.mux_t, self.mux_f = first_inputs(
            self.mux_ids, 4
        )
        self.mux_thr = column("threshold", self.mux_ids)

        self.gate_ids = ids_of(KIND_GATE)
        self.gate_a, self.gate_b = first_inputs(self.gate_ids, 2)
        self.gate_thr = column("threshold", self.gate_ids)
        self.gate_high = column("v_high", self.gate_ids)
        self.gate_low = column("v_low", self.gate_ids)

    def stats(self) -> Dict[str, int]:
        """Block counts per kind plus depth — the analog resource view.

        ``depth`` is the longest dependency chain (stages on the
        critical path), the quantity the convergence time scales with.
        """
        from collections import Counter

        counts = Counter(KIND_NAMES[int(k)] for k in self.kind)
        out: Dict[str, int] = dict(sorted(counts.items()))
        out["total"] = self.n_blocks
        # Depth: longest dependency chain (ids are topological by
        # construction), precomputed at freeze time for the solver.
        out["depth"] = self.n_levels - 1 if self.n_blocks else 0
        return out

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """Leading axes of the bound ``const_values`` (``()`` = one
        operating point; ``(B,)`` = B vectorized solves)."""
        return tuple(self.const_values.shape[:-1])

    def bind(self, const_values: np.ndarray) -> "FrozenGraph":
        """A view of this graph with different source voltages.

        ``const_values`` replaces the packed const-block values (last
        axis must match; leading axes batch the solve).  The packed
        structure — including the lazily-built levelized plans — is
        shared by reference, so rebinding is O(1): this is the template
        re-use primitive behind the accelerator's graph cache.
        """
        cv = np.asarray(const_values, dtype=np.float64)
        if cv.shape[-1:] != (self.const_ids.size,):
            raise ConfigurationError(
                f"const_values last axis must be {self.const_ids.size}; "
                f"got shape {cv.shape}"
            )
        bound = copy.copy(self)
        bound.const_values = cv
        return bound

    def _program(self) -> _LevelProgram:
        program = self._ops_cache.get("program")
        if program is None:
            program = _LevelProgram(self)
            self._ops_cache["program"] = program
        return program  # type: ignore[return-value]

    def _nonconst_ops(self) -> "_SubsetOps":
        ops = self._ops_cache.get("nonconst")
        if ops is None:
            ops = _SubsetOps(
                self, np.flatnonzero(self.kind != KIND_CONST)
            )
            self._ops_cache["nonconst"] = ops
        return ops  # type: ignore[return-value]

    def solve(self, const_values: Optional[np.ndarray] = None) -> np.ndarray:
        """Settled voltages via one levelized pass per depth level.

        Builders only reference earlier blocks, so the graph is a
        feedforward DAG: evaluating level ``d`` after levels
        ``0..d-1`` uses only already-final inputs, making one pass per
        level an *exact* fixed point — bit-identical to the Jacobi
        reference sweep, in ``n_levels`` level evaluations instead of
        up to ``n_blocks + 2`` full-graph sweeps.  The first call
        compiles the level program (see :class:`_LevelProgram`); it is
        shared with every :meth:`bind` view.

        ``const_values`` (default: the bound values) may carry leading
        batch axes; the result then has shape ``(*batch, n_blocks)``.
        """
        cv = (
            self.const_values
            if const_values is None
            else np.asarray(const_values, dtype=np.float64)
        )
        return self._program().run(cv)

    def targets(
        self,
        v: np.ndarray,
        const_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every block's target from the current voltages.

        Batched when ``v`` is ``(*batch, n_blocks)`` (and
        ``const_values``, if given, is ``(*batch, n_const)``).
        """
        cv = self.const_values if const_values is None else const_values
        out = np.zeros(v.shape[:-1] + (self.n_blocks,))
        if self.const_ids.size:
            out[..., self.const_ids] = cv
        if self.lin_ids.size:
            contrib = v[..., self.lin_src] * self.lin_w
            sums = np.add.reduceat(contrib, self.lin_ptr, axis=-1)
            out[..., self.lin_ids] = sums + self.lin_const
        if self.abs_ids.size:
            out[..., self.abs_ids] = self.abs_w * np.abs(
                v[..., self.abs_a] - v[..., self.abs_b]
            )
        if self.max_ids.size:
            out[..., self.max_ids] = np.maximum.reduceat(
                v[..., self.max_src], self.max_ptr, axis=-1
            )
        if self.min_ids.size:
            out[..., self.min_ids] = np.minimum.reduceat(
                v[..., self.min_src], self.min_ptr, axis=-1
            )
        if self.mux_ids.size:
            close = (
                np.abs(v[..., self.mux_a] - v[..., self.mux_b])
                <= self.mux_thr
            )
            out[..., self.mux_ids] = np.where(
                close, v[..., self.mux_t], v[..., self.mux_f]
            )
        if self.gate_ids.size:
            far = (
                np.abs(v[..., self.gate_a] - v[..., self.gate_b])
                > self.gate_thr
            )
            out[..., self.gate_ids] = np.where(
                far, self.gate_high, self.gate_low
            )
        out = out * self.gain + self.offset
        if self.supply_rail is not None:
            np.clip(out, -self.supply_rail, self.supply_rail, out=out)
        return out
