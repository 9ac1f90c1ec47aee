"""The reconfigurable distance accelerator (Fig. 1) — public API.

:class:`DistanceAccelerator` glues the four architecture modules
together: the DAC array quantising inputs, the computation module (PE
block graphs from :mod:`repro.accelerator.pe`, configured through the
configuration library), the control/configuration module (this class:
dataflow, tiling, overflow monitoring), and the ADC array reading the
result.

>>> from repro.accelerator import DistanceAccelerator
>>> acc = DistanceAccelerator()
>>> acc.compute("dtw", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).value
0.0...
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..check import CheckReport
    from ..faults.state import FaultState

from ..analog import (
    BlockGraph,
    DEFAULT_NONIDEALITY,
    DEFAULT_TIMING,
    FrozenGraph,
    NonidealityModel,
    TimingModel,
    dc_solve,
    measure_convergence,
    measure_convergence_many,
)
from ..errors import CapacityError, ConfigurationError, SequenceError
from ..validation import (
    as_sequence,
    as_weight_matrix,
    as_weight_vector,
    require_same_length,
)
from .batch import BatchResult
from .configurations import FunctionConfig, get_config
from .dac_adc import AdcArray, DacArray
from .params import AcceleratorParameters, PAPER_PARAMS
from .pe import (
    build_dtw_graph,
    build_edit_graph,
    build_hamming_graph,
    build_hausdorff_graph,
    build_lcs_graph,
    build_manhattan_graph,
)
from .tiling import Tile, plan_matrix_tiles, plan_row_segments


@dataclasses.dataclass
class AcceleratorResult:
    """Everything one accelerator invocation produces.

    Attributes
    ----------
    value:
        The decoded distance, in the same units as the software
        reference implementations.
    raw_voltage:
        Settled analog output before the ADC.
    adc_voltage:
        Output after ADC quantisation (equals ``raw_voltage`` when
        quantisation is disabled).
    convergence_time_s:
        Analog convergence time (the paper's Section 4.2 metric);
        ``None`` unless ``measure_time=True``.
    conversion_time_s:
        DAC load + ADC read latency.
    tiles:
        Number of array passes (1 = fits the array).
    overflow:
        True when any analog voltage approached the supply rail or the
        ADC clipped — the result is untrustworthy.
    n_blocks:
        Total analog stages simulated (proxy for active PE resources).
    """

    function: str
    value: float
    raw_voltage: float
    adc_voltage: float
    convergence_time_s: Optional[float]
    conversion_time_s: float
    tiles: int
    overflow: bool
    n_blocks: int

    @property
    def total_time_s(self) -> Optional[float]:
        """``convergence + conversion`` when timing was measured."""
        if self.convergence_time_s is None:
            return None
        return self.convergence_time_s + self.conversion_time_s


class StackedPairs(Sequence):
    """Same-shape ``(p, q)`` pairs held column-wise: a ``(k, n)`` stack
    of every ``p`` and a ``(k, m)`` stack of every ``q``.

    The columnar form of :meth:`DistanceAccelerator.compute_many`'s
    ``pairs``: the stacks are validated once, as a whole, instead of
    one :func:`~repro.validation.as_sequence` per row, and settle as
    given.  Indexing and iteration still yield ``(p, q)`` row pairs.
    """

    def __init__(self, p, q) -> None:
        p_stack = np.asarray(p, dtype=np.float64)
        q_stack = np.asarray(q, dtype=np.float64)
        if p_stack.ndim != 2 or q_stack.ndim != 2:
            raise SequenceError(
                "stacked pairs need (k, n) and (k, m) arrays, got "
                f"shapes {p_stack.shape} and {q_stack.shape}"
            )
        if p_stack.shape[0] != q_stack.shape[0]:
            raise SequenceError(
                f"{p_stack.shape[0]} p rows but {q_stack.shape[0]} q rows"
            )
        if p_stack.shape[0] and 0 in (p_stack.shape[1], q_stack.shape[1]):
            raise SequenceError("stacked sequences must be non-empty")
        if not (np.isfinite(p_stack).all() and np.isfinite(q_stack).all()):
            raise SequenceError("stacked pairs contain NaN or infinite values")
        self.p = np.ascontiguousarray(p_stack)
        self.q = np.ascontiguousarray(q_stack)

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, k):
        return self.p[k], self.q[k]


#: Graph structures the process keeps (see :meth:`DistanceAccelerator.
#: _structure`), least recently used first out.
STRUCTURE_STORE_CAPACITY = 256

#: The process-wide structure store: ``(params, nonideality, timing,
#: key)`` -> the healthy template of ``key`` on chips of that design.
_STRUCTURES: "OrderedDict[Hashable, _GraphTemplate]" = OrderedDict()


def clear_structure_store() -> None:
    """Forget every kept graph structure, so the next query of each
    template key builds it anew on whatever chip asks first (a true
    first build, as a chip of a design the process never saw pays)."""
    _STRUCTURES.clear()


@dataclasses.dataclass
class _GraphTemplate:
    """A frozen, reusable block graph plus its rebind metadata.

    ``slots`` maps input names (``"p"``, ``"q"``, boundary names, or
    ``"in{k}"`` for batched settles) to positions in the frozen
    graph's ``const_values`` array; a query copies ``base_const``,
    writes its encoded voltages into those positions and solves the
    rebound view — no Python graph rebuild, no repacking.  ``out`` is
    the output tap (an index array for a multi-row batch graph): it is
    checked for overflow and read by the ADC unless ``reads`` names
    other taps (a Hausdorff tile's column minima).
    """

    frozen: FrozenGraph
    n_blocks: int
    base_const: np.ndarray
    slots: Dict[str, np.ndarray]
    out: Union[int, np.ndarray]
    reads: Optional[List[int]] = None
    #: A DP tile's bottom-row and right-column cell taps.
    edges: Optional[Tuple[List[int], List[int]]] = None

    @classmethod
    def freeze(
        cls,
        graph: BlockGraph,
        slots: Dict[str, Sequence[int]],
        **taps,
    ) -> "_GraphTemplate":
        """Freeze ``graph``; ``slots`` maps input names to const ids."""
        frozen = graph.freeze()
        return cls(
            frozen=frozen,
            n_blocks=len(graph),
            base_const=frozen.const_values.copy(),
            slots={
                name: np.searchsorted(
                    frozen.const_ids, np.asarray(ids, dtype=np.intp)
                )
                for name, ids in slots.items()
            },
            **taps,
        )

    def bind(self, updates: Dict[str, np.ndarray]) -> FrozenGraph:
        """Frozen view with ``updates`` written into the input slots.

        Values may carry a leading batch axis; the bound view then
        solves the whole batch in one vectorized pass.
        """
        batch: Tuple[int, ...] = ()
        for value in updates.values():
            value = np.asarray(value)
            if value.ndim > 1:
                batch = value.shape[:-1]
        cv = np.broadcast_to(
            self.base_const, batch + self.base_const.shape
        ).copy()
        for name, value in updates.items():
            positions = self.slots[name]
            if positions.size:
                cv[..., positions] = value
        return self.frozen.bind(cv)


class DistanceAccelerator:
    """A configured accelerator chip instance.

    Parameters
    ----------
    params:
        Electrical/architectural constants (default: Table 1 values).
    nonideality:
        Analog error model; one instance = one fabricated chip.
    timing:
        Stage time-constant model.
    dac, adc:
        Converter arrays; defaults follow the Section 4.3 designs.
    quantise_io:
        Model DAC/ADC quantisation (disable for ideal-converter
        ablations).
    use_template_cache:
        Reuse frozen graph templates across queries that share a
        structure key ``(function, n, m, weights, threshold, band)``,
        rebinding only the source voltages per query.  Disable to
        rebuild every graph from scratch (the pre-cache behaviour;
        results are bit-identical either way).  Templates are
        invalidated (fault epoch bump) on
        ``inject_faults``/``clear_faults``/recalibration; a faulted
        chip then re-derives their values on the kept graph structure
        instead of rebuilding it.  An attached fault map that draws
        time-varying read disturb derives fresh values on every
        settle and stores none.
    solver:
        ``"levelized"`` (default) settles in one pass per topological
        depth level; ``"jacobi"`` is the reference full-graph sweep.
        Bit-identical results.
    validate:
        Run the static electrical rule checker (:mod:`repro.check`)
        over the parameters and the configuration library at
        construction, raising
        :class:`~repro.errors.ElectricalRuleError` on any
        error-severity diagnostic.  A mis-configured chip would not
        crash — it would return plausible wrong distances — so the
        default is fail-fast.
    """

    def __init__(
        self,
        params: AcceleratorParameters = PAPER_PARAMS,
        nonideality: NonidealityModel = DEFAULT_NONIDEALITY,
        timing: TimingModel = DEFAULT_TIMING,
        dac: Optional[DacArray] = None,
        adc: Optional[AdcArray] = None,
        quantise_io: bool = True,
        use_template_cache: bool = True,
        solver: str = "levelized",
        validate: bool = True,
    ) -> None:
        self.params = params
        self.nonideality = nonideality
        self.timing = timing
        self.dac = dac if dac is not None else DacArray()
        self.adc = adc if adc is not None else AdcArray()
        self.quantise_io = quantise_io
        if solver not in ("levelized", "jacobi"):
            raise ConfigurationError(
                f"unknown solver {solver!r}; "
                "expected 'levelized' or 'jacobi'"
            )
        self.solver = solver
        self.use_template_cache = use_template_cache
        self._templates: "OrderedDict[Hashable, _GraphTemplate]" = (
            OrderedDict()
        )
        self._template_capacity = 256
        self._template_hits = 0
        self._template_misses = 0
        self.fault_epoch = 0
        self.fault_state: "Optional[FaultState]" = None
        if validate:
            self.self_check().raise_if_errors(
                "DistanceAccelerator construction"
            )

    def self_check(self, deep: bool = False) -> "CheckReport":
        """Static ERC report for this instance (see :mod:`repro.check`).

        ``deep=True`` additionally smoke-builds every function's block
        graph and runs the graph-level rules — the same pass the
        ``repro check`` CLI performs.
        """
        from ..check import check_accelerator

        return check_accelerator(self, deep=deep)

    # -- runtime faults ----------------------------------------------------
    def inject_faults(self, state: "FaultState") -> None:
        """Attach a runtime fault map (see :mod:`repro.faults`).

        Subsequent computations carry the fault map's stage values;
        the usable array shrinks to the fault map's repacked healthy
        rows.
        Cached graph templates are invalidated: a template frozen
        before the fault map attached would silently serve fault-free
        voltages.
        """
        self.fault_state = state
        self.invalidate_templates()

    def clear_faults(self) -> None:
        """Detach the fault map (chip replaced / faults healed).

        Invalidates cached templates — they embed the faulted weights.
        """
        self.fault_state = None
        self.invalidate_templates()

    def invalidate_templates(self) -> None:
        """Drop every cached graph template and bump the fault epoch.

        Called automatically on ``inject_faults``/``clear_faults`` and
        by :func:`repro.faults.repair.recalibrate`.  Call it manually
        after mutating an attached :class:`FaultState` in place
        (``disable_site``, offset tuning, ...) outside those paths.
        The graph structures stay: a fault changes stage values, not
        topology, so the next query of each key only re-derives its
        values (see :meth:`_template`).
        """
        self._templates.clear()
        self.fault_epoch += 1

    def template_cache_info(self) -> Dict[str, object]:
        """Cache observability: hit/miss counters and the fault epoch."""
        return {
            "enabled": self.use_template_cache,
            "active": self._template_cache_active(),
            "solver": self.solver,
            "size": len(self._templates),
            "capacity": self._template_capacity,
            "hits": self._template_hits,
            "misses": self._template_misses,
            "fault_epoch": self.fault_epoch,
        }

    def value_signature(self) -> Optional[Hashable]:
        """Hashable identity of the values this chip computes.

        Chips with equal signatures return bit-identical results for
        every input.  A healthy chip's values are fixed by its frozen
        parameter dataclasses (the nonideality seed pins its systematic
        errors), so identically built chips share one signature.  A
        faulted chip adds itself and its fault epoch: re-injection and
        recalibration bump the epoch and so retire the old signature.
        ``None`` when the fault map draws read disturb — every settle
        then sees fresh noise and no two results are interchangeable.
        """
        if self._read_disturbed():
            return None
        signature = self._healthy_signature()
        if self.fault_state is not None:
            signature += (self, self.fault_epoch)
        return signature

    def _healthy_signature(self) -> Tuple[Hashable, ...]:
        """Identity of the values this chip computes with no fault map
        attached: every fault-free chip built from these fields (its
        fault-free twin) returns bit-identical results."""
        return (
            self.params,
            self.nonideality,
            self.timing,
            self.dac.spec,
            self.adc.spec,
            self.quantise_io,
            self.solver,
        )

    def vectorizes(self, function: str, n: int, m: int) -> bool:
        """True when :meth:`compute_many` settles same-shape ``(n, m)``
        pairs of ``function`` in one vectorized pass: the workload fits
        the array without tiling and no read disturb is drawn."""
        if self._read_disturbed():
            return False
        if get_config(function).structure == "row":
            return n <= self.usable_cols
        return n <= self.usable_rows and m <= self.usable_cols

    @property
    def usable_rows(self) -> int:
        """Addressable PE rows after remapping around dead sites."""
        if self.fault_state is None:
            return self.params.array_rows
        return self.fault_state.usable_rows()

    @property
    def usable_cols(self) -> int:
        """Addressable PE columns (full width; rows absorb dead sites)."""
        if self.fault_state is None:
            return self.params.array_cols
        return self.fault_state.usable_cols()

    def _read_disturbed(self) -> bool:
        """Does the attached fault map draw per-settle read noise?"""
        state = self.fault_state
        return state is not None and state.read_disturb_sigma > 0.0

    # -- helpers -----------------------------------------------------------
    def _new_graph(self) -> BlockGraph:
        if self.fault_state is not None:
            from ..faults.graph import FaultedBlockGraph

            return FaultedBlockGraph(
                self.fault_state,
                nonideality=self.nonideality,
                timing=self.timing,
            )
        return BlockGraph(
            nonideality=self.nonideality, timing=self.timing
        )

    def _encode_inputs(self, values: np.ndarray) -> np.ndarray:
        volts = self.params.encode(values)
        if self.quantise_io:
            volts = self.dac.convert(volts)
        return volts

    def _adc(self, volts: np.ndarray) -> np.ndarray:
        """ADC samples of ``volts``, the fault map's reference offset
        added (the volts themselves when quantisation is disabled)."""
        if not self.quantise_io:
            return volts
        offset = 0.0
        if self.fault_state is not None:
            offset = self.fault_state.adc_offset_v
        return self.adc.convert(volts + offset)

    def _read_out(
        self, template: _GraphTemplate, voltages: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(raw, adc, overflow)`` of one settle of ``template``.

        ``raw`` is the output tap ``voltages[..., out]``, ``adc`` the
        ADC samples of the taps the ADC reads and ``overflow`` the
        :meth:`_overflowed` flag.  ``voltages`` is one settle's 1-D
        vector or a ``(batch, n_blocks)`` stack, each row read alike.
        """
        raw = voltages[..., template.out]
        reads = raw if template.reads is None else voltages[
            ..., template.reads
        ]
        return raw, self._adc(reads), self._overflowed(voltages, raw)

    def _requantise(self, volts: np.ndarray) -> np.ndarray:
        """Model values crossing the ADC -> DAC boundary (tiling).

        Boundary cells sitting at the infinity rail are wired to the
        rail by the control module rather than converted (the ADC's
        full scale is far below the supply), so they pass through.
        """
        if not self.quantise_io:
            return volts
        sampled = self._adc(volts)
        resampled = np.where(
            np.abs(sampled) <= self.dac.spec.full_scale,
            self.dac.convert(sampled),
            sampled,
        )
        return np.where(
            volts >= self.params.infinity_rail * 0.99, volts, resampled
        )

    def _decode(self, config: FunctionConfig, voltage: float) -> float:
        if config.decode == "steps":
            return self.params.decode_steps(voltage)
        return self.params.decode(voltage)

    def _overflowed(self, voltages: np.ndarray, raw) -> np.ndarray:
        """True when the ADC clipped or any internal node ran into a
        supply rail — either rail: subtractor chains can be driven
        *below* the negative rail just as adders saturate the positive
        one, and both invalidate the settled value.  ``raw`` holds the
        output tap(s) of each settle row: a scalar (or one per row of a
        ``(batch, n_blocks)`` stack), or an array of candidate taps.
        One flag per settle row.
        """
        rail = self.params.vcc * 1.05
        clipped = (
            np.asarray(raw)
            > self.adc.spec.full_scale - self.adc.spec.lsb
        )
        if clipped.ndim == voltages.ndim:
            clipped = clipped.any(axis=-1)
        return (
            clipped
            | (np.max(voltages, axis=-1) > rail)
            | (np.min(voltages, axis=-1) < -rail)
        )

    # -- graph-template cache ----------------------------------------------
    def _template_cache_active(self) -> bool:
        """Cache usable now?  Time-varying read disturb draws fresh
        noise per settle (stateful RNG), so a stored template would
        pin one noise sample forever — store none."""
        return self.use_template_cache and not self._read_disturbed()

    def _template(
        self,
        key: Hashable,
        build: "Callable[[BlockGraph], _GraphTemplate]",
    ) -> _GraphTemplate:
        """Fetch-or-derive the template of ``key`` (LRU, per chip).

        A miss takes the key's structure (:meth:`_structure`) and, on a
        faulted chip, derives this fault epoch's values onto it
        (:meth:`_faulted`).  Under read disturb every call derives
        fresh values and nothing is stored.  With the cache disabled
        every call builds from scratch, a faulted chip through the
        reference :class:`~repro.faults.graph.FaultedBlockGraph`.
        """
        if not self.use_template_cache:
            return build(self._new_graph())
        if self._read_disturbed():
            return self._faulted(self._structure(key, build))
        cached = self._templates.get(key)
        if cached is not None:
            self._templates.move_to_end(key)
            self._template_hits += 1
            return cached
        self._template_misses += 1
        template = self._structure(key, build)
        if self.fault_state is not None:
            template = self._faulted(template)
        self._templates[key] = template
        if len(self._templates) > self._template_capacity:
            self._templates.popitem(last=False)
        return template

    def _structure(
        self,
        key: Hashable,
        build: "Callable[[BlockGraph], _GraphTemplate]",
    ) -> _GraphTemplate:
        """The healthy template of ``key``, built once per chip design.

        Built from a plain :class:`BlockGraph`: topology, fabricated
        weights and systematic errors, and (compiled on first solve)
        the level plan.  A fault never changes any of that, so the
        structure survives :meth:`invalidate_templates`.  Nor does it
        depend on anything of the chip but its frozen ``params``,
        ``nonideality`` and ``timing`` (each graph seeds its own error
        draws from ``nonideality.seed``), so every chip of one design
        shares it: a replaced shard or a BIST fault-free twin finds the
        structures a live chip built (process-wide LRU of
        ``STRUCTURE_STORE_CAPACITY``).
        """
        store_key = (self.params, self.nonideality, self.timing, key)
        structure = _STRUCTURES.get(store_key)
        if structure is None:
            structure = build(
                BlockGraph(nonideality=self.nonideality, timing=self.timing)
            )
            _STRUCTURES[store_key] = structure
            if len(_STRUCTURES) > STRUCTURE_STORE_CAPACITY:
                _STRUCTURES.popitem(last=False)
        else:
            _STRUCTURES.move_to_end(store_key)
        return structure

    def _faulted(self, structure: _GraphTemplate) -> _GraphTemplate:
        """``structure`` carrying the attached fault map's values: each
        stage weight through its PE site's faults, each comparator
        threshold shifted by the chip's offset drift."""
        state = self.fault_state
        frozen = structure.frozen
        return dataclasses.replace(
            structure,
            frozen=frozen.with_values(
                state.apply_weights(frozen.stage_weights),
                state.comparator_offset_v,
            ),
        )

    def _solve(self, frozen: FrozenGraph) -> np.ndarray:
        return dc_solve(frozen, method=self.solver)

    # -- public API ----------------------------------------------------------
    def compute(
        self,
        function: str,
        p,
        q,
        weights=None,
        threshold: float = 0.0,
        band: Optional[float] = None,
        measure_time: bool = False,
        paper_errata: bool = False,
    ) -> AcceleratorResult:
        """Run one distance computation on the accelerator.

        Parameters mirror the software reference functions; ``threshold``
        is given in sequence-value units and converted to the comparator
        voltage internally.
        """
        config = get_config(function)
        p_arr = as_sequence(p, "p")
        q_arr = as_sequence(q, "q")
        if not config.supports_unequal_lengths:
            require_same_length(p_arr, q_arr)
        (result,) = self._settle(
            config,
            p_arr,
            q_arr,
            weights,
            threshold,
            band,
            paper_errata,
            measure_time,
        )
        return result

    # -- row-structure batching ------------------------------------------------
    def batch(
        self,
        function: str,
        query,
        candidates: Sequence,
        weights=None,
        threshold: float = 0.0,
        measure_time: bool = False,
    ) -> BatchResult:
        """Distances from ``query`` to every candidate, batched by rows.

        All candidates must share the query's length (row structure).
        Up to ``array_rows`` candidates settle per pass; more
        candidates cost additional passes (counted in ``passes`` and
        the time model).  The query loads one DAC row that drives every
        comparison: this is :meth:`batch_pairs` with each pair holding
        the one query.
        """
        pairs, weight_vectors = self._query_pairs(
            function, query, candidates, weights
        )
        return self.batch_pairs(
            function, pairs, weight_vectors, threshold, measure_time
        )

    def batch_pairs(
        self,
        function: str,
        pairs: Sequence,
        weights=None,
        threshold: float = 0.0,
        measure_time: bool = False,
    ) -> BatchResult:
        """Independent ``(p, q)`` comparisons sharing one settle.

        The array rows are electrically independent for the row
        structure, so arbitrary same-function pairs — even of
        different lengths — settle together.  ``weights`` is either
        ``None`` or one weight vector per pair.  This is the primitive
        the serving layer's dynamic batcher coalesces concurrent
        queries into.  The DAC loads each distinct input array once:
        pairs holding the same array object share its DAC row.
        """
        config = self._require_row_config(function)
        template, bound, was_cached = self._batch_template(
            config, pairs, weights, threshold
        )
        _, read, overflow = self._read_out(template, self._solve(bound))
        values = np.array(
            [self._decode(config, float(v)) for v in read]
        )

        t_conv = None
        if measure_time:
            # One transient records every candidate tap; the strobe
            # waits for the slowest row, so take the max.
            times = measure_convergence_many(
                bound, [f"cand{k}" for k in range(len(pairs))]
            )
            t_conv = max(t for t, _ in times.values())
        passes = int(np.ceil(len(pairs) / self.usable_rows))
        # One input slot per distinct array: each loads the DAC once.
        dac_samples = sum(slot.size for slot in template.slots.values())
        conversion = self.dac.load_time(
            dac_samples
        ) + self.adc.read_time(len(pairs))
        return BatchResult(
            function=config.name,
            values=values,
            convergence_time_s=t_conv,
            conversion_time_s=conversion,
            passes=passes,
            overflow=bool(overflow),
            template_cached=was_cached,
        )

    def nearest(
        self,
        function: str,
        query,
        candidates: Sequence,
        **kwargs,
    ) -> int:
        """Index of the closest candidate via one batched settle."""
        result = self.batch(function, query, candidates, **kwargs)
        return int(np.argmin(result.values))

    def compute_many(
        self,
        function: str,
        pairs: Sequence,
        weights=None,
        threshold: float = 0.0,
        band: Optional[float] = None,
        paper_errata: bool = False,
    ) -> "List[AcceleratorResult]":
        """:meth:`compute` over many ``(p, q)`` pairs, one per result.

        When every pair shares one graph structure — same lengths, one
        ``weights`` argument, and the workload fits the array without
        tiling (see :meth:`vectorizes`) — all pairs solve in a single
        vectorized settle of the shared template (a ``(batch,
        n_const)`` rebind) on :meth:`compute`'s own settle path, whose
        converter glue runs once over the stacked inputs and taps.
        Each row is bit-identical to the sequential :meth:`compute`
        result.
        Heterogeneous or tiled workloads fall back to the sequential
        loop transparently, and so do chips whose fault map draws read
        disturb: every sequential build draws its own noise, which one
        shared template would collapse into a single draw.  This is
        the primitive the pool's coalesced settles (one solve for
        every same-shape request of a drain), the BIST golden/probe
        runs and the Monte-Carlo sweeps amortize their settles with.
        (Timing is never measured here; use :meth:`compute` with
        ``measure_time=True`` for that.)

        ``pairs`` may be a :class:`StackedPairs`: its stacks were
        validated as a whole and settle without a per-row pass.
        """
        config = get_config(function)
        if isinstance(pairs, StackedPairs):
            stacked = pairs
            if len(stacked) and not config.supports_unequal_lengths:
                require_same_length(stacked.p[0], stacked.q[0])
            checked: Sequence = stacked
        else:
            checked = []
            for k, (p, q) in enumerate(pairs):
                p_arr = as_sequence(p, f"pairs[{k}][0]")
                q_arr = as_sequence(q, f"pairs[{k}][1]")
                if not config.supports_unequal_lengths:
                    require_same_length(p_arr, q_arr)
                checked.append((p_arr, q_arr))
            shapes = {(p.shape[0], q.shape[0]) for p, q in checked}
            stacked = (
                StackedPairs(
                    np.stack([p for p, _ in checked]),
                    np.stack([q for _, q in checked]),
                )
                if len(shapes) == 1
                else None
            )
        if not checked:
            return []
        if stacked is None or not self.vectorizes(
            function, stacked.p.shape[1], stacked.q.shape[1]
        ):
            return [
                self.compute(
                    function,
                    p_arr,
                    q_arr,
                    weights=weights,
                    threshold=threshold,
                    band=band,
                    paper_errata=paper_errata,
                )
                for p_arr, q_arr in checked
            ]
        return self._settle(
            config,
            stacked.p,
            stacked.q,
            weights,
            threshold,
            band,
            paper_errata,
            measure_time=False,
        )

    def _require_row_config(self, function: str) -> FunctionConfig:
        config = get_config(function)
        if config.structure != "row":
            raise ConfigurationError(
                "batch mode targets the row structure "
                "(hamming/manhattan); "
                f"{config.name!r} uses the matrix structure"
            )
        return config

    def _query_pairs(
        self, function: str, query, candidates: Sequence, weights
    ) -> "Tuple[List[tuple], List[np.ndarray]]":
        """:meth:`batch`'s 1-vs-many inputs as :meth:`batch_pairs`
        pairs and weights: every pair holds the one checked query array
        and the one weight vector."""
        self._require_row_config(function)
        if len(candidates) == 0:
            raise ConfigurationError("no candidates")
        q_arr = as_sequence(query, "query")
        w = as_weight_vector(weights, q_arr.shape[0])
        return [(q_arr, c) for c in candidates], [w] * len(candidates)

    def _batch_template(
        self,
        config: FunctionConfig,
        pairs: Sequence,
        weights,
        threshold: float,
    ) -> Tuple[_GraphTemplate, FrozenGraph, bool]:
        """Check ``pairs`` and return ``(template, bound, was_cached)``:
        the multi-row template of one batched settle, its view bound to
        the pairs' inputs, and whether the template came from the cache.

        The combined multi-row graph keeps the physical semantics (one
        array row of hardware — and one run of fault sites — per pair),
        so the template key must capture everything that shapes it: the
        per-pair lengths, weights, and the input *sharing pattern* (a
        1-vs-many query loads one DAC row driving every comparison).
        Output ``cand{k}`` taps pair ``k``.
        """
        if len(pairs) == 0:
            raise ConfigurationError("no pairs")
        checked = []
        for k, (p, q) in enumerate(pairs):
            p_arr = as_sequence(p, f"pairs[{k}][0]")
            q_arr = as_sequence(q, f"pairs[{k}][1]")
            require_same_length(p_arr, q_arr)
            checked.append((p_arr, q_arr))
        if weights is None:
            weight_vectors = [
                as_weight_vector(None, p.shape[0]) for p, _ in checked
            ]
        else:
            if len(weights) != len(checked):
                raise ConfigurationError(
                    "need one weight vector per pair; got "
                    f"{len(weights)} for {len(checked)} pairs"
                )
            weight_vectors = [
                as_weight_vector(w, p.shape[0])
                for w, (p, _) in zip(weights, checked)
            ]
        threshold_v = threshold * self.params.voltage_resolution
        for p_arr, _q_arr in checked:
            if p_arr.shape[0] > self.usable_cols:
                raise ConfigurationError(
                    "batch mode requires the sequence to fit one array "
                    f"row; {p_arr.shape[0]} > {self.usable_cols} "
                    "(use DistanceAccelerator.compute, which tiles)"
                )
        # Distinct input arrays, first-seen order, and each pair's
        # (p, q) as indices into them: the DAC sharing pattern.
        slot_of: Dict[int, int] = {}
        arrays: List[np.ndarray] = []
        pair_slots: List[Tuple[int, int]] = []
        for p_arr, q_arr in checked:
            for arr in (p_arr, q_arr):
                if id(arr) not in slot_of:
                    slot_of[id(arr)] = len(arrays)
                    arrays.append(arr)
            pair_slots.append((slot_of[id(p_arr)], slot_of[id(q_arr)]))
        key = (
            "batch",
            config.name,
            threshold_v,
            tuple(pair_slots),
            tuple(arr.shape[0] for arr in arrays),
            tuple(w.tobytes() for w in weight_vectors),
        )

        def build(graph: BlockGraph) -> _GraphTemplate:
            slot_ids = [
                [graph.const(v) for v in self._encode_inputs(arr)]
                for arr in arrays
            ]
            outs: List[int] = []
            for k, (ps, qs) in enumerate(pair_slots):
                out = self._build(
                    config,
                    graph,
                    slot_ids[ps],
                    slot_ids[qs],
                    weight_vectors[k],
                    threshold_v,
                )
                graph.mark_output(f"cand{k}", out)
                outs.append(out)
            return _GraphTemplate.freeze(
                graph,
                {f"in{j}": ids for j, ids in enumerate(slot_ids)},
                out=np.array(outs, dtype=np.intp),
            )

        was_cached = (
            self._template_cache_active() and key in self._templates
        )
        template = self._template(key, build)
        bound = template.bind(
            {
                f"in{j}": self._encode_inputs(arr)
                for j, arr in enumerate(arrays)
            }
        )
        return template, bound, was_cached

    # -- the settle path -----------------------------------------------------
    def _build(
        self,
        config: FunctionConfig,
        graph: BlockGraph,
        p_ids: List[int],
        q_ids: List[int],
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float] = None,
        paper_errata: bool = False,
        **boundary,
    ) -> int:
        """Wire ``config``'s PE configuration into ``graph``; returns
        the output block.  ``boundary`` reaches the matrix builders
        (tile boundary sources, cell and column-minimum exports)."""
        name = config.name
        if name == "manhattan":
            return build_manhattan_graph(
                graph, p_ids, q_ids, w, self.params
            )
        if name == "hamming":
            return build_hamming_graph(
                graph,
                p_ids,
                q_ids,
                w,
                self.params,
                threshold_v=threshold_v,
            )
        if name == "dtw":
            return build_dtw_graph(
                graph, p_ids, q_ids, w, self.params, band=band, **boundary
            )
        if name == "lcs":
            return build_lcs_graph(
                graph,
                p_ids,
                q_ids,
                w,
                self.params,
                threshold_v=threshold_v,
                **boundary,
            )
        if name == "edit":
            return build_edit_graph(
                graph,
                p_ids,
                q_ids,
                w,
                self.params,
                threshold_v=threshold_v,
                paper_errata=paper_errata,
                **boundary,
            )
        if name == "hausdorff":
            return build_hausdorff_graph(
                graph, p_ids, q_ids, w, self.params, **boundary
            )
        raise ConfigurationError(f"no PE builder for {name!r}")

    def _tile_template(
        self,
        kind: str,
        config: FunctionConfig,
        inputs: Dict[str, np.ndarray],
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        paper_errata: bool,
    ) -> _GraphTemplate:
        """The template of one tile, keyed by everything that shapes it.

        ``kind`` is ``"row"`` (a row segment), ``"tile"`` (a matrix
        workload fitting the array), ``"dp"`` (a DP tile whose top row,
        left column and corner are rebindable boundary sources) or
        ``"haud"`` (a Hausdorff tile whose ADC reads its column
        minima).  ``inputs`` holds the encoded ``p``/``q`` (and a DP
        tile's boundary) voltages; a stacked batch builds from its
        first row.
        """
        pv, qv = inputs["p"], inputs["q"]
        n, m = pv.shape[-1], qv.shape[-1]
        corner = inputs.get("corner")
        # An LCS tile with a 0 V corner shares the zero rail instead of
        # a dedicated const — structurally a different graph, so the
        # zero-ness is part of the key (see build_lcs_graph).
        corner_shared = (
            corner is not None
            and config.name == "lcs"
            and corner[0] == 0.0
        )
        key = (
            kind,
            config.name,
            n,
            m,
            threshold_v,
            band,
            paper_errata,
            corner_shared,
            w.tobytes(),
        )

        def build(graph: BlockGraph) -> _GraphTemplate:
            p_ids = [graph.const(v) for v in pv.reshape(-1, n)[0]]
            q_ids = [graph.const(v) for v in qv.reshape(-1, m)[0]]
            cells: Dict[Tuple[int, int], int] = {}
            slots: Dict[str, list] = {"p": p_ids, "q": q_ids}
            minima: List[int] = []
            boundary: Dict[str, object] = {}
            if kind == "dp":
                # The builder adds the boundary sources to the slots.
                boundary = dict(
                    cells_out=cells,
                    boundary_ids_out=slots,
                    boundary_top=inputs["top"],
                    boundary_left=inputs["left"],
                    boundary_corner=corner[0],
                )
            elif kind == "haud":
                boundary = dict(column_minima_out=minima)
            out = self._build(
                config,
                graph,
                p_ids,
                q_ids,
                w,
                threshold_v,
                band,
                paper_errata,
                **boundary,
            )
            graph.mark_output("out", out)
            return _GraphTemplate.freeze(
                graph,
                slots,
                out=out,
                reads=minima or None,
                edges=(
                    [cells[(n, j)] for j in range(1, m + 1)],
                    [cells[(i, m)] for i in range(1, n + 1)],
                )
                if cells
                else None,
            )

        return self._template(key, build)

    def _settle(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        weights,
        threshold: float,
        band: Optional[float],
        paper_errata: bool,
        measure_time: bool,
    ) -> "List[AcceleratorResult]":
        """The settle path of :meth:`compute` and :meth:`compute_many`.

        ``p_arr``/``q_arr`` are one pair's 1-D sequences, or ``(batch,
        n)`` stacks of same-shape pairs fitting one tile (see
        :meth:`vectorizes`) that settle in one vectorized solve.  The
        workload runs as array tiles in order: row segments, one
        fitting matrix tile, or a tiled DP / Hausdorff grid.  Each tile
        binds its inputs into its template, settles and is read out;
        one accounting sums conversion and convergence time, overflow
        and block count over the tiles.  Row segments add their ADC
        reads digitally; DP tiles hand their bottom row and right
        column on through the ADC -> DAC boundary and the last tile's
        output is the result; Hausdorff tiles fold their column minima.
        Returns one result per pair.
        """
        n, m = p_arr.shape[-1], q_arr.shape[-1]
        threshold_v = float(threshold) * self.params.voltage_resolution
        if config.structure == "row":
            w = as_weight_vector(weights, n)
            tiles = [
                Tile(start, end, start, end)
                for start, end in plan_row_segments(n, self.usable_cols)
            ]
            # The row builders take neither a band nor the errata;
            # pinning them keeps one template key per structure.
            kind, band, paper_errata = "row", None, False
        else:
            w = as_weight_matrix(weights, n, m)
            tiles = plan_matrix_tiles(
                n, m, self.usable_rows, self.usable_cols
            )
            if len(tiles) == 1:
                kind = "tile"
            elif config.name == "hausdorff":
                # A Hausdorff tile takes no threshold, band or errata.
                kind, threshold_v, band, paper_errata = (
                    "haud", 0.0, None, False
                )
                col_min = np.full(m, np.inf)
            elif band is not None:
                raise CapacityError(
                    "band-constrained DTW is only supported when the "
                    "sequences fit the PE array; enlarge array_rows/cols "
                    "or drop the band"
                )
            else:
                kind = "dp"
                dp = np.zeros((n + 1, m + 1))
                if config.name == "dtw":
                    dp[0, 1:] = self.params.infinity_rail
                    dp[1:, 0] = self.params.infinity_rail
                elif config.name == "edit":
                    dp[0, :] = np.arange(m + 1) * self.params.v_step
                    dp[:, 0] = np.arange(n + 1) * self.params.v_step

        conversion = 0.0
        t_conv = 0.0 if measure_time else None
        # A NumPy bool: OR-ing a Python bool with one is slow.
        overflow = np.False_
        blocks = 0
        total = 0.0
        for tile in tiles:
            i0, i1 = tile.row_start, tile.row_end
            j0, j1 = tile.col_start, tile.col_end
            inputs = {
                "p": self._encode_inputs(p_arr[..., i0 - 1 : i1]),
                "q": self._encode_inputs(q_arr[..., j0 - 1 : j1]),
            }
            if kind == "dp":
                inputs["top"] = self._requantise(dp[i0 - 1, j0 : j1 + 1])
                inputs["left"] = self._requantise(dp[i0 : i1 + 1, j0 - 1])
                inputs["corner"] = self._requantise(
                    dp[i0 - 1, j0 - 1 : j0]
                )
            w_tile = (
                w[i0 - 1 : i1]
                if w.ndim == 1
                else w[i0 - 1 : i1, j0 - 1 : j1]
            )
            template = self._tile_template(
                kind, config, inputs, w_tile, threshold_v, band, paper_errata
            )
            bound = template.bind(inputs)
            voltages = self._solve(bound)
            raw, read, tile_overflow = self._read_out(template, voltages)
            overflow = overflow | tile_overflow
            blocks += template.n_blocks
            loads, reads = tile.n_rows + tile.n_cols, 1
            if kind == "row":
                total = total + read
            elif kind == "haud":
                col_min[j0 - 1 : j1] = np.minimum(col_min[j0 - 1 : j1], read)
                reads = tile.n_cols
            elif kind == "dp":
                # Export the bottom row and right column (what
                # neighbours and the final readout need).
                bottom, right = template.edges
                dp[i1, j0 : j1 + 1] = voltages[bottom]
                dp[i0 : i1 + 1, j1] = voltages[right]
                reads = tile.n_rows + tile.n_cols - 1
                loads += reads
            conversion += self.dac.load_time(loads) + self.adc.read_time(reads)
            if measure_time:
                t_tile, _ = measure_convergence(bound, "out")
                t_conv += t_tile
        if kind == "row":
            raw = read = total
        elif kind == "haud":
            raw = read = np.max(col_min)
        # ``tolist`` hands a stack's rows over as Python scalars in one
        # call instead of one NumPy scalar conversion per field.
        return [
            AcceleratorResult(
                config.name,
                self._decode(config, adc_v),
                float(raw_v),
                float(adc_v),
                t_conv,
                conversion,
                len(tiles),
                bool(flag),
                blocks,
            )
            for raw_v, adc_v, flag in (
                zip(raw.tolist(), read.tolist(), overflow.tolist())
                if p_arr.ndim > 1
                else [(raw, read, overflow)]
            )
        ]
