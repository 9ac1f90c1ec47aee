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
from . import _native
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
    threshold_error: float = 0.0
    v_high: float = 0.0
    v_low: float = 0.0
    tau: float = 1.0e-9
    gain: float = 1.0
    offset: float = 0.0
    is_adder: bool = False
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

    def _comparator_error(self) -> float:
        """Systematic threshold error of one comparator; the frozen
        graph adds it to the nominal threshold."""
        return float(
            self._rng.normal(0.0, self.nonideality.comparator_offset_sigma)
        )

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
                is_adder=is_adder,
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
        return self._add(
            _Block(
                kind=KIND_MUX,
                inputs=(a, b, when_close, when_far),
                threshold=float(threshold),
                threshold_error=self._comparator_error(),
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
        return self._add(
            _Block(
                kind=KIND_GATE,
                inputs=(a, b),
                threshold=float(threshold),
                threshold_error=self._comparator_error(),
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
# voltages ``v``.  Index arguments (sources, then a variable-arity
# kind's ``reduceat`` starts) come first, value arguments after them.
def _lin(v, src, ptr, w, const):
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
#: are source indices, whether the kind is variable-arity (sources are
#: an edge list, followed by the ``reduceat`` starts) and how many of
#: the value arguments after that are per edge (the rest are per
#: block).
_KERNELS = {
    KIND_LIN: (_lin, 1, True, 1),
    KIND_ABSDIFF: (_absdiff, 2, False, 0),
    KIND_MAX: (_maximum, 1, True, 0),
    KIND_MIN: (_minimum, 1, True, 0),
    KIND_MUX: (_mux, 4, False, 0),
    KIND_GATE: (_gate, 2, False, 0),
}


def _kind_args(f: "FrozenGraph") -> Dict[int, tuple]:
    """Each non-const kind's packed kernel arguments, in id order."""
    return {
        KIND_LIN: (f.lin_src, f.lin_ptr, f.lin_w, f.lin_const),
        KIND_ABSDIFF: (f.abs_a, f.abs_b, f.abs_w),
        KIND_MAX: (f.max_src, f.max_ptr),
        KIND_MIN: (f.min_src, f.min_ptr),
        KIND_MUX: (f.mux_a, f.mux_b, f.mux_t, f.mux_f, f.mux_thr),
        KIND_GATE: (
            f.gate_a, f.gate_b, f.gate_thr, f.gate_high, f.gate_low
        ),
    }


class _LevelPlan:
    """The index half of a :class:`_LevelProgram`.

    Blocks are renumbered by ``(depth, kind)`` — a stable sort, so each
    kind keeps id order inside its level — which makes every level, and
    every kind's run inside a level, a contiguous slice of the working
    voltage vector.  The consts come first, in id order: exactly the
    bound ``const_values``.  Sources are renumbered too, and
    :attr:`rank` maps the result back to block order.

    Everything here depends on topology alone, so one plan serves every
    value sibling of a graph (:meth:`FrozenGraph.with_values`): each
    kind's gather into program order (``gathers``: block positions and,
    for variable-arity kinds, edge positions) and each run's kernel,
    output slice and renumbered index arguments.
    """

    __slots__ = ("order", "rank", "n_const", "gathers", "levels")

    def __init__(self, frozen: "FrozenGraph") -> None:
        order = np.lexsort((frozen.kind, frozen.depth))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size, dtype=np.intp)
        self.order = order
        self.rank = rank
        self.n_const = frozen.const_ids.size
        kind = frozen.kind[order]
        depth = frozen.depth[order]
        # Every kind's blocks in program order (one CSR gather per
        # variable-arity kind), so each (level, kind) run is a
        # consecutive range of its kind's arguments.
        self.gathers: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        index: Dict[int, tuple] = {}
        for k, args in _kind_args(frozen).items():
            _, n_src, ragged, _ = _KERNELS[k]
            take = np.searchsorted(
                np.flatnonzero(frozen.kind == k), order[kind == k]
            )
            if ragged:
                edges, ptr = _gather_edges(
                    args[n_src], args[0].size, take
                )
                index[k] = (*(rank[x[edges]] for x in args[:n_src]), ptr)
            else:
                edges = take
                index[k] = tuple(rank[x[take]] for x in args[:n_src])
            self.gathers[k] = (take, edges)

        starts = np.flatnonzero(
            np.diff(kind, prepend=-1) | np.diff(depth, prepend=-1)
        ).tolist()
        cursor = dict.fromkeys(_KERNELS, 0)
        #: ``(lo, hi, runs)`` per level; a run is ``(kernel, a, b,
        #: kind, index args, block slice, edge slice)``.
        self.levels: List[tuple] = []
        runs: list = []
        lo = 0
        for a, b in zip(starts, starts[1:] + [order.size]):
            k = int(kind[a])
            if k != KIND_CONST:
                kernel, n_src, ragged, _ = _KERNELS[k]
                c0 = cursor[k]
                cursor[k] = c1 = c0 + b - a
                blocks = slice(c0, c1)
                idx = index[k]
                if ragged:
                    ptr = idx[n_src]
                    e0 = int(ptr[c0])
                    e1 = int(ptr[c1]) if c1 < ptr.size else idx[0].size
                    edges = slice(e0, e1)
                    idx = (
                        *(x[edges] for x in idx[:n_src]),
                        ptr[blocks] - e0,
                    )
                else:
                    edges = blocks
                    idx = tuple(x[blocks] for x in idx)
                runs.append((kernel, a, b, k, idx, blocks, edges))
            if b == order.size or depth[b] != depth[a]:
                self.levels.append((lo, b, runs))
                lo, runs = b, []


class _NativeTables:
    """The index half of a native level program: one int64 table.

    The native kernel settles blocks in ``(depth, kind)`` order, as
    the NumPy program does, so it meets long runs of one kind; but it
    reads and writes each block at its own id in the output row, so it
    needs no renumbering and no final gather.  The table is
    ``[n_blocks, n_const, max fan-in, n_edges]`` followed by that
    order (the consts first, by id) and, in that order, each block's
    kind, its CSR input pointer (plus the end), the input ids and its
    offset into the value table — so a solve streams through the
    tables.  Everything depends on topology alone, so one table serves
    every value sibling; :attr:`slots` are the value-table positions
    each value field scatters into.
    """

    __slots__ = ("itab", "address", "n_values", "slots")

    def __init__(self, frozen: "FrozenGraph") -> None:
        kind = frozen.kind
        order = np.lexsort((kind, frozen.depth))
        fan_in = np.diff(frozen.in_ptr, append=frozen.in_src.size)
        edges, ptr = _gather_edges(frozen.in_ptr, frozen.in_src.size, order)
        # Value-table slots per block: gain and offset, then the kind's
        # own values (see _levelprog.c); slot 0 of the table is the rail.
        count = 2 + np.array([0, 1, 1, 0, 0, 1, 3], dtype=np.intp)[kind]
        count[frozen.lin_ids] += fan_in[frozen.lin_ids]
        voff = np.empty_like(count)
        voff[order] = 1 + np.cumsum(count[order]) - count[order]
        self.n_values = 1 + int(count.sum())
        header = [frozen.n_blocks, frozen.const_ids.size,
                  int(fan_in.max(initial=0)), edges.size]
        self.itab = np.concatenate(
            [header, order, kind[order], ptr, [edges.size],
             frozen.in_src[edges], voff[order]]
        ).astype(np.int64)
        self.address = self.itab.ctypes.data
        lin = voff[frozen.lin_ids]
        lin_w = np.repeat(
            lin + 3 - frozen.lin_ptr, fan_in[frozen.lin_ids]
        ) + np.arange(frozen.lin_src.size)
        gate = voff[frozen.gate_ids]
        self.slots = {
            "gain": voff,
            "offset": voff + 1,
            "lin_const": lin + 2,
            "lin_w": lin_w,
            "abs_w": voff[frozen.abs_ids] + 2,
            "mux_thr": voff[frozen.mux_ids] + 2,
            "gate_thr": gate + 2,
            "gate_high": gate + 3,
            "gate_low": gate + 4,
        }


class _NativeProgram:
    """A graph's values scattered into one float64 table, run by the
    native kernel: every batch row in one GIL-free call."""

    __slots__ = ("kernel", "tables", "vtab", "address", "n_blocks", "n_const")

    def __init__(self, frozen: "FrozenGraph", kernel: _native.LevelKernel) -> None:
        tables = frozen._native_tables()
        vtab = np.empty(tables.n_values)
        vtab[0] = np.inf if frozen.supply_rail is None else frozen.supply_rail
        for field, slots in tables.slots.items():
            vtab[slots] = getattr(frozen, field)
        self.kernel = kernel
        self.tables = tables
        self.vtab = vtab
        self.address = vtab.ctypes.data
        self.n_blocks = frozen.n_blocks
        self.n_const = frozen.const_ids.size

    def run(self, cv: np.ndarray) -> np.ndarray:
        """Settled voltages, in block order, for source values ``cv``
        (leading axes batch the solve)."""
        cv = np.ascontiguousarray(cv, dtype=np.float64)
        if cv.shape[-1:] != (self.n_const,):
            raise ConfigurationError(
                f"const_values last axis must be {self.n_const}; "
                f"got shape {cv.shape}"
            )
        out = np.empty(cv.shape[:-1] + (self.n_blocks,))
        self.kernel.run(self.tables.address, self.address, cv, out)
        return out


class _LevelProgram:
    """:meth:`FrozenGraph.solve` compiled into one slice-addressed pass.

    This NumPy program is the reference the native kernel reproduces,
    and the fallback where that kernel is not available.  The graph's
    :class:`_LevelPlan` (shared with its value siblings) fixes the
    block order and every run's index arguments; this adds the graph's
    own values — each run's weights, constants and thresholds, and each
    level's gain and offset — as slices of its value arrays gathered
    once into program order.  Each run writes its raw targets straight
    into its slice; the level then applies gain, offset and the rail
    clip in place.

    When the native kernel is active (:func:`repro.analog._native.active`)
    the program compiles to a :class:`_NativeProgram` instead, and
    :meth:`run` hands every solve to it.
    """

    __slots__ = ("levels", "rank", "n_const", "rail", "native")

    def __init__(self, frozen: "FrozenGraph") -> None:
        native = _native.active()
        self.native = (
            None if native is None else _NativeProgram(frozen, native)
        )
        if self.native is not None:
            return
        plan = frozen._plan()
        self.rank = plan.rank
        self.n_const = plan.n_const
        self.rail = frozen.supply_rail
        values: Dict[int, Tuple[tuple, tuple]] = {}
        for k, args in _kind_args(frozen).items():
            _, n_src, ragged, n_edge = _KERNELS[k]
            take, edges = plan.gathers[k]
            vals = args[n_src + ragged :]
            values[k] = (
                tuple(x[edges] for x in vals[:n_edge]),
                tuple(x[take] for x in vals[n_edge:]),
            )
        gain = frozen.gain[plan.order]
        offset = frozen.offset[plan.order]
        self.levels = [
            (
                lo,
                hi,
                gain[lo:hi],
                offset[lo:hi],
                [
                    (
                        kernel,
                        a,
                        b,
                        idx
                        + tuple(x[edges] for x in values[k][0])
                        + tuple(x[blocks] for x in values[k][1]),
                    )
                    for kernel, a, b, k, idx, blocks, edges in runs
                ],
            )
            for lo, hi, runs in plan.levels
        ]

    def run(self, cv: np.ndarray) -> np.ndarray:
        """Settled voltages, in block order, for source values ``cv``
        (leading axes batch the solve)."""
        if self.native is not None:
            return self.native.run(cv)
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
    pass.  :meth:`with_values` derives a sibling with other stage
    weights and comparator thresholds on the same structure, which is
    how a faulted chip re-derives its templates on each fault epoch.
    """

    def __init__(self, graph: BlockGraph) -> None:
        blocks = graph._blocks
        n = len(blocks)
        self.n_blocks = n
        self.outputs = dict(graph._outputs)
        self.labels = [b.label for b in blocks]
        self.nonideality = graph.nonideality
        self.timing = graph.timing
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

        # Topological depth per block (0 = sources); the levelized
        # solver settles the graph in exactly ``n_levels`` passes.
        depth: List[int] = []
        depth_of = depth.__getitem__
        for ins in inputs:
            depth.append(1 + max(map(depth_of, ins)) if ins else 0)
        self.depth = np.array(depth, dtype=np.intp)
        self.n_levels = int(self.depth.max()) + 1 if n else 0
        # Lazily built plans.  The structure cache (level plan, lin
        # fan-in groups) is shared by every bind view and value
        # sibling; the value cache (compiled program, per-kind target
        # runs, critical-path taus) by the bind views of one set of
        # values only.
        self._structure_cache: Dict[str, object] = {}
        self._value_cache: Dict[str, object] = {}

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

        # Every memristor-ratio weight in stage order — each lin term,
        # then each absdiff stage, by block id — which is the order a
        # fault-aware builder assigns PE sites in.
        self.stage_weights = w_flat

        # lin / max / min: flat edge arrays + reduce offsets
        self.lin_ids = ids_of(KIND_LIN)
        self.lin_src, self.lin_ptr = edges_of(self.lin_ids)
        self._lin_stage = _gather_edges(w_ptr, w_flat.size, self.lin_ids)[0]
        self.lin_w = w_flat[self._lin_stage]
        self.lin_const = column("constant", self.lin_ids)
        self.lin_adder = column("is_adder", self.lin_ids, dtype=bool)
        self.max_ids = ids_of(KIND_MAX)
        self.max_src, self.max_ptr = edges_of(self.max_ids)
        self.min_ids = ids_of(KIND_MIN)
        self.min_src, self.min_ptr = edges_of(self.min_ids)

        self.abs_ids = ids_of(KIND_ABSDIFF)
        self.abs_a, self.abs_b = first_inputs(self.abs_ids, 2)
        self._abs_stage = w_ptr[self.abs_ids]
        self.abs_w = w_flat[self._abs_stage]

        # Comparator thresholds: nominal value plus the comparator's
        # systematic error, kept apart so a sibling can shift the
        # nominal value (see with_values).
        self.mux_ids = ids_of(KIND_MUX)
        self.mux_a, self.mux_b, self.mux_t, self.mux_f = first_inputs(
            self.mux_ids, 4
        )
        self._mux_thr = (
            column("threshold", self.mux_ids),
            column("threshold_error", self.mux_ids),
        )
        self.mux_thr = self._mux_thr[0] + self._mux_thr[1]

        self.gate_ids = ids_of(KIND_GATE)
        self.gate_a, self.gate_b = first_inputs(self.gate_ids, 2)
        self._gate_thr = (
            column("threshold", self.gate_ids),
            column("threshold_error", self.gate_ids),
        )
        self.gate_thr = self._gate_thr[0] + self._gate_thr[1]
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
        structure — including the lazily compiled level program — is
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

    def _plan(self) -> _LevelPlan:
        plan = self._structure_cache.get("plan")
        if plan is None:
            plan = _LevelPlan(self)
            self._structure_cache["plan"] = plan
        return plan  # type: ignore[return-value]

    def _native_tables(self) -> _NativeTables:
        tables = self._structure_cache.get("native")
        if tables is None:
            tables = _NativeTables(self)
            self._structure_cache["native"] = tables
        return tables  # type: ignore[return-value]

    def _program(self) -> _LevelProgram:
        """The level program compiled for the active kernel: one per
        kernel, shared by every bind view."""
        key = "program" if _native.active() is None else "native"
        program = self._value_cache.get(key)
        if program is None:
            program = _LevelProgram(self)
            self._value_cache[key] = program
        return program  # type: ignore[return-value]

    def _kind_runs(self) -> List[tuple]:
        """``(kernel, block ids, kernel args)`` of each non-empty
        non-const kind, in kind order: what :meth:`targets` evaluates."""
        runs = self._value_cache.get("kinds")
        if runs is None:
            ids = {
                KIND_LIN: self.lin_ids,
                KIND_ABSDIFF: self.abs_ids,
                KIND_MAX: self.max_ids,
                KIND_MIN: self.min_ids,
                KIND_MUX: self.mux_ids,
                KIND_GATE: self.gate_ids,
            }
            runs = [
                (_KERNELS[k][0], ids[k], args)
                for k, args in _kind_args(self).items()
                if ids[k].size
            ]
            self._value_cache["kinds"] = runs
        return runs  # type: ignore[return-value]

    @property
    def critical_tau(self) -> np.ndarray:
        """Critical-path settling budget per block: the sum of taus
        along its slowest input chain.

        Cascaded first-order stages settle in roughly ``ln(1/tol)``
        times that, which sizes the transient window without trial and
        error.  Computed on first use, one depth level at a time.
        """
        critical = self._value_cache.get("critical")
        if critical is None:
            plan = self._plan()
            critical = self.tau + 0.0
            for lo, hi, _ in plan.levels[1:]:
                ids = plan.order[lo:hi]
                edges, starts = _gather_edges(
                    self.in_ptr, self.in_src.size, ids
                )
                critical[ids] = self.tau[ids] + np.maximum.reduceat(
                    critical[self.in_src[edges]], starts
                )
            self._value_cache["critical"] = critical
        return critical  # type: ignore[return-value]

    def _lin_fan_in(self) -> Tuple[np.ndarray, list]:
        """Each lin block's fan-in, and the lin blocks grouped by it:
        ``(rows, edges)`` with ``edges[r]`` the edge positions of the
        group's ``r``-th block."""
        groups = self._structure_cache.get("fan_in")
        if groups is None:
            fan_in = np.diff(self.lin_ptr, append=self.lin_src.size)
            by_fan_in = []
            for f in np.unique(fan_in).tolist():
                rows = np.flatnonzero(fan_in == f)
                by_fan_in.append(
                    (rows, self.lin_ptr[rows][:, None] + np.arange(f))
                )
            groups = (fan_in, by_fan_in)
            self._structure_cache["fan_in"] = groups
        return groups  # type: ignore[return-value]

    def with_values(
        self, stage_weights: np.ndarray, threshold_shift: float = 0.0
    ) -> "FrozenGraph":
        """A sibling graph with new stage weights and shifted thresholds.

        ``stage_weights`` replaces :attr:`stage_weights` (one entry per
        weighted stage, in stage order) and ``threshold_shift`` adds to
        every comparator's nominal threshold.  Everything that depends
        on them is re-derived as vectors, in the builder's arithmetic:
        each lin block's noise gain ``1 + sum |w|`` (summed per row of
        a fan-in group, which reduces each row exactly as the builder's
        ``np.sum`` over that block's weights does), its closed-loop
        gain and its tau, and each threshold as ``(nominal + shift) +
        error``.  So a sibling holds the same bits as a graph built
        with those weights and offsets, e.g. by
        :class:`repro.faults.graph.FaultedBlockGraph`.

        The sibling shares every structural array with this graph, as
        well as the level plan; it compiles only its value slices.
        """
        w = np.asarray(stage_weights, dtype=np.float64)
        if w.shape != self.stage_weights.shape:
            raise ConfigurationError(
                f"stage_weights must have shape {self.stage_weights.shape}"
                f"; got {w.shape}"
            )
        sibling = copy.copy(self)
        sibling._value_cache = {}
        sibling.stage_weights = w
        sibling.lin_w = w[self._lin_stage]
        sibling.abs_w = w[self._abs_stage]
        if self.lin_ids.size:
            fan_in, groups = self._lin_fan_in()
            noise_gain = np.empty(self.lin_ids.size)
            for rows, edges in groups:
                noise_gain[rows] = np.sum(
                    np.abs(sibling.lin_w[edges]), axis=1
                )
            noise_gain = 1.0 + noise_gain
            tau = self.timing.opamp_tau(noise_gain)
            adders = self.lin_adder
            tau[adders] = self.timing.adder_tau(
                fan_in[adders], noise_gain[adders]
            )
            sibling.gain = self.gain.copy()
            sibling.gain[self.lin_ids] = self.nonideality.gain_factor(
                noise_gain
            )
            sibling.tau = self.tau.copy()
            sibling.tau[self.lin_ids] = tau
        nominal, error = self._mux_thr
        sibling.mux_thr = (nominal + threshold_shift) + error
        nominal, error = self._gate_thr
        sibling.gate_thr = (nominal + threshold_shift) + error
        return sibling

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
        for kernel, ids, args in self._kind_runs():
            out[..., ids] = kernel(v, *args)
        out = out * self.gain + self.offset
        if self.supply_rail is not None:
            np.clip(out, -self.supply_rail, self.supply_rail, out=out)
        return out
