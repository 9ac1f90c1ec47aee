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
from ..errors import CapacityError, ConfigurationError
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
from .tiling import plan_matrix_tiles, plan_row_segments


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
    total_time_s:
        ``convergence + conversion`` when timing was measured.
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
    total_time_s: Optional[float]
    tiles: int
    overflow: bool
    n_blocks: int


@dataclasses.dataclass
class _GraphTemplate:
    """A frozen, reusable block graph plus its rebind metadata.

    ``slots`` maps input names (``"p"``, ``"q"``, boundary names, or
    ``"in{k}"`` for batched settles) to positions in the frozen
    graph's ``const_values`` array; a query copies ``base_const``,
    writes its encoded voltages into those positions and solves the
    rebound view — no Python graph rebuild, no repacking.
    """

    frozen: FrozenGraph
    n_blocks: int
    base_const: np.ndarray
    slots: Dict[str, np.ndarray]
    out: int = -1
    outs: Optional[np.ndarray] = None
    cells: Optional[Dict[Tuple[int, int], int]] = None
    minima: Optional[List[int]] = None

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
        self._structures: "OrderedDict[Hashable, _GraphTemplate]" = (
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
        signature: Tuple[Hashable, ...] = (
            self.params,
            self.nonideality,
            self.timing,
            self.dac.spec,
            self.adc.spec,
            self.quantise_io,
            self.solver,
        )
        if self.fault_state is not None:
            signature += (self, self.fault_epoch)
        return signature

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

    def _fault_adc_offset(self) -> float:
        """Additive ADC-reference offset of the attached fault map."""
        if self.fault_state is None:
            return 0.0
        return self.fault_state.adc_offset_v

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

    def _requantise(self, voltage: float) -> float:
        """Model a value crossing the ADC -> DAC boundary (tiling).

        Boundary cells sitting at the infinity rail are wired to the
        rail by the control module rather than converted (the ADC's
        full scale is far below the supply), so they pass through.
        """
        if not self.quantise_io:
            return voltage
        if voltage >= self.params.infinity_rail * 0.99:
            return voltage
        sampled = float(
            self.adc.convert([voltage + self._fault_adc_offset()])[0]
        )
        return float(self.dac.convert([sampled])[0]) if abs(
            sampled
        ) <= self.dac.spec.full_scale else sampled

    def _decode(self, config: FunctionConfig, voltage: float) -> float:
        if config.decode == "steps":
            return self.params.decode_steps(voltage)
        return self.params.decode(voltage)

    def _adc_read(self, voltage: float) -> float:
        if not self.quantise_io:
            return voltage
        return float(
            self.adc.convert([voltage + self._fault_adc_offset()])[0]
        )

    def _overflowed(self, voltages: np.ndarray, raw) -> bool:
        """True when the ADC clipped or any internal node ran into a
        supply rail — either rail: subtractor chains can be driven
        *below* the negative rail just as adders saturate the positive
        one, and both invalidate the settled value.  ``raw`` may be a
        scalar tap or an array of candidate taps.
        """
        return bool(np.any(self._overflow_rows(voltages, raw)))

    def _overflow_rows(self, voltages: np.ndarray, raw) -> np.ndarray:
        """Per-row :meth:`_overflowed` of a ``(batch, n_blocks)``
        settle whose output taps are ``raw`` (one per row)."""
        rail = self.params.vcc * 1.05
        clipped = (
            np.asarray(raw)
            > self.adc.spec.full_scale - self.adc.spec.lsb
        )
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
        """The healthy template of ``key``, built once per chip.

        Built from a plain :class:`BlockGraph`: topology, fabricated
        weights and systematic errors, and (compiled on first solve)
        the level plan.  A fault never changes any of that, so the
        structure survives :meth:`invalidate_templates` (its own LRU,
        same capacity).
        """
        structure = self._structures.get(key)
        if structure is None:
            structure = build(
                BlockGraph(nonideality=self.nonideality, timing=self.timing)
            )
            self._structures[key] = structure
            if len(self._structures) > self._template_capacity:
                self._structures.popitem(last=False)
        else:
            self._structures.move_to_end(key)
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

    def _const_positions(
        self, frozen: FrozenGraph, ids: Sequence[int]
    ) -> np.ndarray:
        """Positions of const block ids inside ``const_values``."""
        return np.searchsorted(
            frozen.const_ids, np.asarray(list(ids), dtype=np.intp)
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
        n, m = p_arr.shape[0], q_arr.shape[0]
        threshold_v = float(threshold) * self.params.voltage_resolution

        if config.structure == "row":
            w = as_weight_vector(weights, n)
            return self._compute_row(
                config, p_arr, q_arr, w, threshold_v, measure_time
            )
        w = as_weight_matrix(weights, n, m)
        fits = n <= self.usable_rows and m <= self.usable_cols
        if fits:
            return self._compute_single_tile(
                config,
                p_arr,
                q_arr,
                w,
                threshold_v,
                band,
                measure_time,
                paper_errata,
            )
        if config.name == "hausdorff":
            return self._compute_tiled_hausdorff(
                config, p_arr, q_arr, w, measure_time
            )
        return self._compute_tiled_dp(
            config,
            p_arr,
            q_arr,
            w,
            threshold_v,
            band,
            measure_time,
            paper_errata,
        )

    def distance(self, function: str, **fixed) -> Callable[..., float]:
        """A plain ``fn(p, q, **kw) -> float`` view of one function.

        Drop-in replacement for the :mod:`repro.distances` callables, so
        the mining layer can run on hardware by swapping one argument.
        """

        def fn(p, q, **kwargs) -> float:
            merged = dict(fixed)
            merged.update(kwargs)
            return self.compute(function, p, q, **merged).value

        fn.__name__ = f"accelerated_{function}"
        return fn

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
        the time model).
        """
        config = self._require_row_config(function)
        if len(candidates) == 0:
            raise ConfigurationError("no candidates")
        q_arr = as_sequence(query, "query")
        n = q_arr.shape[0]
        pairs = []
        for k, c in enumerate(candidates):
            arr = as_sequence(c, f"candidates[{k}]")
            require_same_length(q_arr, arr)
            pairs.append((q_arr, arr))
        w = as_weight_vector(weights, n)
        # The query loads once; every candidate loads its own row.
        dac_samples = n * (1 + len(pairs))
        return self._batch_settle(
            config,
            pairs,
            [w] * len(pairs),
            threshold,
            measure_time,
            dac_samples,
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
        queries into.
        """
        config = self._require_row_config(function)
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
        dac_samples = sum(2 * p.shape[0] for p, _ in checked)
        return self._batch_settle(
            config,
            checked,
            weight_vectors,
            threshold,
            measure_time,
            dac_samples,
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
        n_const)`` rebind), and the converter glue around it runs once
        over the stacked inputs and output taps.  Each row is
        bit-identical to the sequential :meth:`compute` result.
        Heterogeneous or tiled workloads fall back to the sequential
        loop transparently, and so do chips whose fault map draws read
        disturb: every sequential build draws its own noise, which one
        shared template would collapse into a single draw.  This is
        the primitive the pool's coalesced settles (one solve for
        every same-shape request of a drain), the BIST golden/probe
        runs and the Monte-Carlo sweeps amortize their settles with.
        (Timing is never measured here; use :meth:`compute` with
        ``measure_time=True`` for that.)
        """
        config = get_config(function)
        checked = []
        for k, (p, q) in enumerate(pairs):
            p_arr = as_sequence(p, f"pairs[{k}][0]")
            q_arr = as_sequence(q, f"pairs[{k}][1]")
            if not config.supports_unequal_lengths:
                require_same_length(p_arr, q_arr)
            checked.append((p_arr, q_arr))
        if not checked:
            return []

        shapes = {
            (p_arr.shape[0], q_arr.shape[0]) for p_arr, q_arr in checked
        }
        n, m = next(iter(shapes))
        if len(shapes) != 1 or not self.vectorizes(function, n, m):
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
        threshold_v = float(threshold) * self.params.voltage_resolution
        pvs = self._encode_inputs(np.stack([p for p, _ in checked]))
        qvs = self._encode_inputs(np.stack([q for _, q in checked]))
        if config.structure == "row":
            template = self._row_segment_template(
                config,
                pvs[0],
                qvs[0],
                as_weight_vector(weights, n),
                threshold_v,
            )
            conversion = self.dac.load_time(2 * n) + self.adc.read_time(1)
        else:
            template = self._single_tile_template(
                config,
                pvs[0],
                qvs[0],
                as_weight_matrix(weights, n, m),
                threshold_v,
                band,
                paper_errata,
            )
            conversion = self.dac.load_time(n + m) + self.adc.read_time(1)

        voltages = self._solve(template.bind({"p": pvs, "q": qvs}))
        raws = voltages[:, template.out]
        adcs = (
            self.adc.convert(raws + self._fault_adc_offset())
            if self.quantise_io
            else raws
        )
        overflows = self._overflow_rows(voltages, raws)
        # Row structure reports the post-ADC segment sum as its raw
        # voltage (mirroring _compute_row's single-segment case).
        raw_fields = adcs if config.structure == "row" else raws
        return [
            AcceleratorResult(
                function=config.name,
                value=self._decode(config, adcs[b]),
                raw_voltage=float(raw_fields[b]),
                adc_voltage=float(adcs[b]),
                convergence_time_s=None,
                conversion_time_s=conversion,
                total_time_s=None,
                tiles=1,
                overflow=bool(overflows[b]),
                n_blocks=template.n_blocks,
            )
            for b in range(len(checked))
        ]

    def _require_row_config(self, function: str) -> FunctionConfig:
        config = get_config(function)
        if config.structure != "row":
            raise ConfigurationError(
                "batch mode targets the row structure "
                "(hamming/manhattan); "
                f"{config.name!r} uses the matrix structure"
            )
        return config

    def _batch_settle(
        self,
        config: FunctionConfig,
        pairs: "List[tuple]",
        weight_vectors: "List[np.ndarray]",
        threshold: float,
        measure_time: bool,
        dac_samples: int,
    ) -> BatchResult:
        """One block graph, one settling, one result per pair.

        The combined multi-row graph keeps the physical semantics (one
        array row of hardware — and one run of fault sites — per pair),
        so the template key must capture everything that shapes it: the
        per-pair lengths, weights, and the input *sharing pattern* (a
        1-vs-many query loads one DAC row driving every comparison).
        """
        threshold_v = threshold * self.params.voltage_resolution
        for p_arr, _q_arr in pairs:
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
        for p_arr, q_arr in pairs:
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
                if config.name == "hamming":
                    out = build_hamming_graph(
                        graph,
                        slot_ids[ps],
                        slot_ids[qs],
                        weight_vectors[k],
                        self.params,
                        threshold_v=threshold_v,
                    )
                else:
                    out = build_manhattan_graph(
                        graph,
                        slot_ids[ps],
                        slot_ids[qs],
                        weight_vectors[k],
                        self.params,
                    )
                graph.mark_output(f"cand{k}", out)
                outs.append(out)
            frozen = graph.freeze()
            return _GraphTemplate(
                frozen=frozen,
                n_blocks=len(graph),
                base_const=frozen.const_values.copy(),
                slots={
                    f"in{j}": self._const_positions(frozen, ids)
                    for j, ids in enumerate(slot_ids)
                },
                outs=np.array(outs, dtype=np.intp),
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
        voltages = self._solve(bound)
        raw = voltages[template.outs]
        overflow = self._overflowed(voltages, raw)
        read = (
            self.adc.convert(raw + self._fault_adc_offset())
            if self.quantise_io
            else raw
        )
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
        conversion = self.dac.load_time(
            dac_samples
        ) + self.adc.read_time(len(pairs))
        return BatchResult(
            function=config.name,
            values=values,
            convergence_time_s=t_conv,
            conversion_time_s=conversion,
            passes=passes,
            overflow=overflow,
            template_cached=was_cached,
        )

    # -- single tile ---------------------------------------------------------
    def _build(
        self,
        config: FunctionConfig,
        graph: BlockGraph,
        p_ids: List[int],
        q_ids: List[int],
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        paper_errata: bool,
        **boundary,
    ) -> int:
        if config.name == "dtw":
            return build_dtw_graph(
                graph, p_ids, q_ids, w, self.params, band=band, **boundary
            )
        if config.name == "lcs":
            return build_lcs_graph(
                graph,
                p_ids,
                q_ids,
                w,
                self.params,
                threshold_v=threshold_v,
                **boundary,
            )
        if config.name == "edit":
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
        if config.name == "hausdorff":
            return build_hausdorff_graph(
                graph, p_ids, q_ids, w, self.params, **boundary
            )
        raise ConfigurationError(
            f"no matrix builder for {config.name!r}"
        )

    def _single_tile_template(
        self,
        config: FunctionConfig,
        pv: np.ndarray,
        qv: np.ndarray,
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        paper_errata: bool,
    ) -> _GraphTemplate:
        key = (
            "tile",
            config.name,
            pv.shape[0],
            qv.shape[0],
            threshold_v,
            band,
            paper_errata,
            w.tobytes(),
        )

        def build(graph: BlockGraph) -> _GraphTemplate:
            p_ids = [graph.const(v) for v in pv]
            q_ids = [graph.const(v) for v in qv]
            out = self._build(
                config, graph, p_ids, q_ids, w, threshold_v, band,
                paper_errata,
            )
            graph.mark_output("out", out)
            frozen = graph.freeze()
            return _GraphTemplate(
                frozen=frozen,
                n_blocks=len(graph),
                base_const=frozen.const_values.copy(),
                slots={
                    "p": self._const_positions(frozen, p_ids),
                    "q": self._const_positions(frozen, q_ids),
                },
                out=out,
            )

        return self._template(key, build)

    def _compute_single_tile(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        measure_time: bool,
        paper_errata: bool,
    ) -> AcceleratorResult:
        pv = self._encode_inputs(p_arr)
        qv = self._encode_inputs(q_arr)
        template = self._single_tile_template(
            config, pv, qv, w, threshold_v, band, paper_errata
        )
        bound = template.bind({"p": pv, "q": qv})
        voltages = self._solve(bound)
        raw = float(voltages[template.out])
        t_conv = None
        if measure_time:
            t_conv, _ = measure_convergence(bound, "out")
        adc_v = self._adc_read(raw)
        conversion = self.dac.load_time(
            p_arr.size + q_arr.size
        ) + self.adc.read_time(1)
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, adc_v),
            raw_voltage=raw,
            adc_voltage=adc_v,
            convergence_time_s=t_conv,
            conversion_time_s=conversion,
            total_time_s=(
                t_conv + conversion if t_conv is not None else None
            ),
            tiles=1,
            overflow=self._overflowed(voltages, raw),
            n_blocks=template.n_blocks,
        )

    # -- row structure ---------------------------------------------------------
    def _row_segment_template(
        self,
        config: FunctionConfig,
        pv: np.ndarray,
        qv: np.ndarray,
        w_seg: np.ndarray,
        threshold_v: float,
    ) -> _GraphTemplate:
        key = (
            "row",
            config.name,
            pv.shape[0],
            threshold_v,
            w_seg.tobytes(),
        )

        def build(graph: BlockGraph) -> _GraphTemplate:
            p_ids = [graph.const(v) for v in pv]
            q_ids = [graph.const(v) for v in qv]
            if config.name == "hamming":
                out = build_hamming_graph(
                    graph,
                    p_ids,
                    q_ids,
                    w_seg,
                    self.params,
                    threshold_v=threshold_v,
                )
            else:
                out = build_manhattan_graph(
                    graph, p_ids, q_ids, w_seg, self.params
                )
            graph.mark_output("out", out)
            frozen = graph.freeze()
            return _GraphTemplate(
                frozen=frozen,
                n_blocks=len(graph),
                base_const=frozen.const_values.copy(),
                slots={
                    "p": self._const_positions(frozen, p_ids),
                    "q": self._const_positions(frozen, q_ids),
                },
                out=out,
            )

        return self._template(key, build)

    def _compute_row(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        threshold_v: float,
        measure_time: bool,
    ) -> AcceleratorResult:
        n = p_arr.shape[0]
        segments = plan_row_segments(n, self.usable_cols)
        total_v = 0.0
        t_conv_total = 0.0 if measure_time else None
        conversion = 0.0
        overflow = False
        blocks = 0
        for start, end in segments:
            sl = slice(start - 1, end)
            pv = self._encode_inputs(p_arr[sl])
            qv = self._encode_inputs(q_arr[sl])
            template = self._row_segment_template(
                config, pv, qv, w[sl], threshold_v
            )
            bound = template.bind({"p": pv, "q": qv})
            voltages = self._solve(bound)
            raw = float(voltages[template.out])
            overflow = overflow or self._overflowed(voltages, raw)
            total_v += self._adc_read(raw)
            blocks += template.n_blocks
            conversion += self.dac.load_time(
                2 * (end - start + 1)
            ) + self.adc.read_time(1)
            if measure_time:
                t_seg, _ = measure_convergence(bound, "out")
                t_conv_total += t_seg
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, total_v),
            raw_voltage=total_v,
            adc_voltage=total_v,
            convergence_time_s=t_conv_total,
            conversion_time_s=conversion,
            total_time_s=(
                t_conv_total + conversion
                if t_conv_total is not None
                else None
            ),
            tiles=len(segments),
            overflow=overflow,
            n_blocks=blocks,
        )

    # -- tiled matrix DP ---------------------------------------------------------
    def _dp_tile_template(
        self,
        config: FunctionConfig,
        pv: np.ndarray,
        qv: np.ndarray,
        w_tile: np.ndarray,
        threshold_v: float,
        paper_errata: bool,
        top: List[float],
        left: List[float],
        corner: float,
    ) -> _GraphTemplate:
        # An LCS tile with a 0 V corner shares the zero rail instead of
        # a dedicated const — structurally a different graph, so the
        # zero-ness is part of the key (see build_lcs_graph).
        corner_shared = config.name == "lcs" and corner == 0.0
        key = (
            "dp",
            config.name,
            pv.shape[0],
            qv.shape[0],
            threshold_v,
            paper_errata,
            corner_shared,
            w_tile.tobytes(),
        )

        def build(graph: BlockGraph) -> _GraphTemplate:
            p_ids = [graph.const(v) for v in pv]
            q_ids = [graph.const(v) for v in qv]
            cells: Dict[Tuple[int, int], int] = {}
            boundary_ids: Dict[str, list] = {}
            out = self._build(
                config,
                graph,
                p_ids,
                q_ids,
                w_tile,
                threshold_v,
                None,
                paper_errata,
                cells_out=cells,
                boundary_ids_out=boundary_ids,
                boundary_top=top,
                boundary_left=left,
                boundary_corner=corner,
            )
            graph.mark_output("out", out)
            frozen = graph.freeze()
            return _GraphTemplate(
                frozen=frozen,
                n_blocks=len(graph),
                base_const=frozen.const_values.copy(),
                slots={
                    "p": self._const_positions(frozen, p_ids),
                    "q": self._const_positions(frozen, q_ids),
                    "top": self._const_positions(
                        frozen, boundary_ids.get("top", [])
                    ),
                    "left": self._const_positions(
                        frozen, boundary_ids.get("left", [])
                    ),
                    "corner": self._const_positions(
                        frozen, boundary_ids.get("corner", [])
                    ),
                },
                out=out,
                cells=cells,
            )

        return self._template(key, build)

    def _compute_tiled_dp(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        measure_time: bool,
        paper_errata: bool,
    ) -> AcceleratorResult:
        if band is not None:
            raise CapacityError(
                "band-constrained DTW is only supported when the "
                "sequences fit the PE array; enlarge array_rows/cols "
                "or drop the band"
            )
        n, m = p_arr.shape[0], q_arr.shape[0]
        dp = np.zeros((n + 1, m + 1))
        if config.name == "dtw":
            dp[0, 1:] = self.params.infinity_rail
            dp[1:, 0] = self.params.infinity_rail
        elif config.name == "edit":
            dp[0, :] = np.arange(m + 1) * self.params.v_step
            dp[:, 0] = np.arange(n + 1) * self.params.v_step

        tiles = plan_matrix_tiles(
            n, m, self.usable_rows, self.usable_cols
        )
        t_conv_total = 0.0 if measure_time else None
        conversion = 0.0
        overflow = False
        blocks = 0
        for tile in tiles:
            i0, i1 = tile.row_start, tile.row_end
            j0, j1 = tile.col_start, tile.col_end
            pv = self._encode_inputs(p_arr[i0 - 1 : i1])
            qv = self._encode_inputs(q_arr[j0 - 1 : j1])
            top = [
                self._requantise(dp[i0 - 1, j]) for j in range(j0, j1 + 1)
            ]
            left = [
                self._requantise(dp[i, j0 - 1]) for i in range(i0, i1 + 1)
            ]
            corner = self._requantise(dp[i0 - 1, j0 - 1])
            w_tile = w[i0 - 1 : i1, j0 - 1 : j1]
            template = self._dp_tile_template(
                config,
                pv,
                qv,
                w_tile,
                threshold_v,
                paper_errata,
                top,
                left,
                corner,
            )
            updates = {
                "p": pv,
                "q": qv,
                "top": np.asarray(top),
                "left": np.asarray(left),
                "corner": np.asarray([corner]),
            }
            bound = template.bind(updates)
            voltages = self._solve(bound)
            cells = template.cells or {}
            raw_tile = float(voltages[template.out])
            overflow = overflow or self._overflowed(voltages, raw_tile)
            blocks += template.n_blocks
            # Export the bottom row and right column (what neighbours
            # and the final readout need).
            for j in range(1, tile.n_cols + 1):
                dp[i1, j0 + j - 1] = voltages[cells[(tile.n_rows, j)]]
            for i in range(1, tile.n_rows + 1):
                dp[i0 + i - 1, j1] = voltages[cells[(i, tile.n_cols)]]
            exported = tile.n_rows + tile.n_cols - 1
            conversion += self.dac.load_time(
                tile.n_rows + tile.n_cols + exported
            ) + self.adc.read_time(exported)
            if measure_time:
                t_tile, _ = measure_convergence(bound, "out")
                t_conv_total += t_tile
        raw = float(dp[n, m])
        adc_v = self._adc_read(raw)
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, adc_v),
            raw_voltage=raw,
            adc_voltage=adc_v,
            convergence_time_s=t_conv_total,
            conversion_time_s=conversion,
            total_time_s=(
                t_conv_total + conversion
                if t_conv_total is not None
                else None
            ),
            tiles=len(tiles),
            overflow=overflow,
            n_blocks=blocks,
        )

    # -- tiled Hausdorff ---------------------------------------------------------
    def _compute_tiled_hausdorff(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        measure_time: bool,
    ) -> AcceleratorResult:
        n, m = p_arr.shape[0], q_arr.shape[0]
        tiles = plan_matrix_tiles(
            n, m, self.usable_rows, self.usable_cols
        )
        col_min = np.full(m, np.inf)
        t_conv_total = 0.0 if measure_time else None
        conversion = 0.0
        overflow = False
        blocks = 0
        for tile in tiles:
            i0, i1 = tile.row_start, tile.row_end
            j0, j1 = tile.col_start, tile.col_end
            pv = self._encode_inputs(p_arr[i0 - 1 : i1])
            qv = self._encode_inputs(q_arr[j0 - 1 : j1])
            w_tile = w[i0 - 1 : i1, j0 - 1 : j1]
            key = (
                "haud",
                pv.shape[0],
                qv.shape[0],
                w_tile.tobytes(),
            )

            def build(
                graph: BlockGraph,
                pv: np.ndarray = pv,
                qv: np.ndarray = qv,
                w_tile: np.ndarray = w_tile,
            ) -> _GraphTemplate:
                p_ids = [graph.const(v) for v in pv]
                q_ids = [graph.const(v) for v in qv]
                minima_ids: List[int] = []
                out = build_hausdorff_graph(
                    graph,
                    p_ids,
                    q_ids,
                    w_tile,
                    self.params,
                    column_minima_out=minima_ids,
                )
                graph.mark_output("out", out)
                frozen = graph.freeze()
                return _GraphTemplate(
                    frozen=frozen,
                    n_blocks=len(graph),
                    base_const=frozen.const_values.copy(),
                    slots={
                        "p": self._const_positions(frozen, p_ids),
                        "q": self._const_positions(frozen, q_ids),
                    },
                    out=out,
                    minima=minima_ids,
                )

            template = self._template(key, build)
            bound = template.bind({"p": pv, "q": qv})
            voltages = self._solve(bound)
            overflow = overflow or self._overflowed(
                voltages, float(voltages[template.out])
            )
            blocks += template.n_blocks
            for k, block_id in enumerate(template.minima or []):
                measured = self._adc_read(float(voltages[block_id]))
                j = j0 - 1 + k
                col_min[j] = min(col_min[j], measured)
            conversion += self.dac.load_time(
                tile.n_rows + tile.n_cols
            ) + self.adc.read_time(tile.n_cols)
            if measure_time:
                t_tile, _ = measure_convergence(bound, "out")
                t_conv_total += t_tile
        raw = float(np.max(col_min))
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, raw),
            raw_voltage=raw,
            adc_voltage=raw,
            convergence_time_s=t_conv_total,
            conversion_time_s=conversion,
            total_time_s=(
                t_conv_total + conversion
                if t_conv_total is not None
                else None
            ),
            tiles=len(tiles),
            overflow=overflow,
            n_blocks=blocks,
        )
