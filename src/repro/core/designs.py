"""Design points: the two dense CIM baselines and the hybrid sparse design.

These classes turn a :class:`~repro.core.workload.Workload` into the area,
inference-power and continual-learning-EDP numbers behind the paper's
Fig. 7 and Fig. 8:

* :class:`DenseCIMDesign` ``kind='sram'`` — the ISSCC'21-class all-digital
  SRAM CIM [29]: whole dense model resident in SRAM, all arrays compute in
  parallel (8 bit-serial cycles per activation vector), large leakage.
* :class:`DenseCIMDesign` ``kind='mram'`` — the ISCAS'23-class digital
  STT-MRAM CIM [30]: near-memory row-sequential compute (rows x 8 cycles
  per vector), negligible array leakage, expensive writes.
* :class:`HybridSparseDesign` — this paper: N:M-compressed backbone in
  sparse MRAM PEs, learnable Rep-Net path in a small set of sparse SRAM PEs
  (plus transposed buffers); training writes touch SRAM only.

All latency/energy formulas mirror the functional PE simulators'
cycle-charging rules (see :mod:`repro.core.sram_pe` / ``mram_pe``), applied
analytically so paper-scale (26 MB, GMAC) workloads are tractable.

Each formula is a numpy expression over the workload's
:class:`~repro.core.workload.LayerTable` columns.  Integer quantities stay
int64, each per-layer float term is computed with the operands in the
order of the scalar formula, and every float total is accumulated left to
right in layer order (:func:`_ltr_sum`), so the results are bit-identical
to a per-layer ``total += term`` loop.  :class:`HybridBatch` evaluates
many hybrid designs at once, one row each; a single
:class:`HybridSparseDesign` is a batch of one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..energy.area import AreaModel, AreaReport, hybrid_area_components
from ..energy.cost import CostModel, EnergyBreakdown, leakage_mw, write_cycles
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..sparsity.nm import NMPattern
from .mram_pe import PIPELINE_DEPTH
from .workload import LayerTable, Workload, nm_compressed_bits


def _ltr_sum(terms: np.ndarray):
    """Totals of ``terms`` along the layer (last) axis, each added strictly
    left to right from 0.0: a float for 1-D ``terms``, else one total per
    row as a ``(C, 1)`` column.

    ``np.sum`` adds pairwise and builtin ``sum()`` of floats is compensated
    from Python 3.12 on; either would move last bits relative to a
    ``total += term`` loop.  ``np.add.accumulate`` is sequential.
    """
    if not terms.shape[-1]:
        totals = np.zeros(terms.shape[:-1])
    else:
        totals = np.add.accumulate(terms, axis=-1, dtype=np.float64)[..., -1]
    return float(totals) if terms.ndim == 1 else totals[:, np.newaxis]


def _ceil(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.ceil`` of a float column, as int64."""
    return np.ceil(x).astype(np.int64)


def avg_power_mw(energy_j: float, latency_s: float) -> float:
    """Mean power (mW) of ``energy_j`` spent over ``latency_s``."""
    if latency_s <= 0:
        return 0.0
    return energy_j / latency_s * 1e3


@dataclasses.dataclass
class PerfReport:
    """Latency + energy of one workload execution on one design."""

    design: str
    phase: str                 # 'inference' | 'training_step'
    latency_s: float
    energy: EnergyBreakdown

    @property
    def energy_j(self) -> float:
        return self.energy.total_pj * 1e-12

    @property
    def avg_power_mw(self) -> float:
        return avg_power_mw(self.energy_j, self.latency_s)

    @property
    def edp_js(self) -> float:
        """Energy-delay product (J*s) — the Fig. 8 metric."""
        return self.energy_j * self.latency_s

    def as_dict(self) -> Dict[str, float]:
        d = {"design": self.design, "phase": self.phase,
             "latency_s": self.latency_s, "avg_power_mw": self.avg_power_mw,
             "edp_js": self.edp_js}
        d.update(self.energy.as_dict())
        return d


class DenseCIMDesign:
    """A dense (no sparsity support) CIM design in one memory technology.

    ``update_scope`` controls the training study: ``'all'`` fine-tunes every
    weight (the paper's "Finetune All Weight" bars); ``'learnable'`` trains
    only the Rep-Net path ("RepNet without Sparsity") but still stores and
    updates it in this design's memory.
    """

    #: Dense weights per SRAM PIM array (128 rows x 8 weight columns).
    SRAM_ARRAY_WEIGHTS = 128 * 8
    #: Dense weights per MRAM sub-array (1024 rows x 64 INT8 words).
    MRAM_ARRAY_WEIGHTS = 1024 * 64
    MRAM_WEIGHTS_PER_ROW = 64
    #: Activation-broadcast bandwidth cap: how many arrays the shared buses
    #: and the global buffer can feed simultaneously (same cap for every
    #: design, so relative results are bandwidth-fair).
    PARALLEL_ARRAY_CAP = 256
    #: Shared activation-bus width (bits/cycle).  Every design must deliver a
    #: layer's input vector (in_dim x 8 bits) over this bus; in-memory
    #: compute can be no faster than its inputs arrive.  Sparse index-phase
    #: processing reuses each delivered vector for m phases, so it hides the
    #: bus latency that bounds the dense designs.
    ACTIVATION_BUS_BITS = 128

    def __init__(self, kind: str, update_scope: str = "all",
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        if kind not in ("sram", "mram"):
            raise ValueError(f"unknown memory kind {kind!r}")
        if update_scope not in ("all", "learnable"):
            raise ValueError(f"unknown update scope {update_scope!r}")
        self.kind = kind
        self.update_scope = update_scope
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"dense-{kind}"
        #: Per-instance activation-bus width; defaults to the class-level
        #: ACTIVATION_BUS_BITS so subclass overrides keep working.
        self.bus_bits = (self.ACTIVATION_BUS_BITS if bus_bits is None
                         else int(bus_bits))
        if self.bus_bits <= 0:
            raise ValueError(f"bus_bits must be positive, got {bus_bits}")

    # ------------------------------------------------------------------ area
    def provisioned_arrays(self, workload: Workload) -> int:
        per_array = (self.SRAM_ARRAY_WEIGHTS if self.kind == "sram"
                     else self.MRAM_ARRAY_WEIGHTS)
        return math.ceil(workload.total_weights / per_array)

    def area(self, workload: Workload) -> AreaReport:
        bits = workload.total_weights * 8
        return self.area_model.dense_design_area(bits, self.kind)

    # ------------------------------------------------------------- inference
    def _layer_vector_cycles(self, table: LayerTable) -> np.ndarray:
        """Cycles to stream one activation vector through each layer."""
        bus_cycles = table.in_dim * 8.0 / self.bus_bits
        weights = table.weights
        if self.kind == "sram":
            tiles = np.maximum(1, _ceil(weights / self.SRAM_ARRAY_WEIGHTS))
            serialization = _ceil(tiles / self.PARALLEL_ARRAY_CAP)
            return np.maximum(serialization * 8.0, bus_cycles)
        arrays = np.maximum(1, _ceil(weights / self.MRAM_ARRAY_WEIGHTS))
        rows = _ceil(weights / (arrays * self.MRAM_WEIGHTS_PER_ROW))
        return np.maximum((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _leakage_power_mw(self, workload: Workload) -> float:
        if self.kind == "sram":
            return self.cost.leakage_power_mw(
                sram_bytes=workload.total_weights, mram_arrays=0)
        return self.cost.leakage_power_mw(
            sram_bytes=0, mram_arrays=self.provisioned_arrays(workload))

    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        table = workload.table
        vectors = table.positions * batch
        cycles = _ltr_sum(vectors * self._layer_vector_cycles(table))
        compute = _ltr_sum(self.cost.mac_energy_pj(
            table.weights * table.positions * batch, self.kind))
        buffer_bits = _ltr_sum(vectors * (table.in_dim + table.out_dim) * 8)

        latency = self.cost.cycles_to_s(cycles)
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=self.cost.buffer_energy_pj(buffer_bits))
        return PerfReport(self.name, "inference", latency, energy)

    # -------------------------------------------------------------- training
    def training_step(self, workload: Workload, batch: int = 32,
                      include_forward: bool = False) -> PerfReport:
        """The learning phase of one SGD step: backward pass + weight update.

        By default the (design-independent, inference-identical) forward pass
        is excluded: the paper attributes the Fig. 8 EDP differences to "the
        volume of weight updates" and the backward machinery, and charging
        every design its own forward cost would double-count what Fig. 7
        already compares.  Pass ``include_forward=True`` for the full step.
        """
        table = workload.table
        scope = (slice(None) if self.update_scope == "all"
                 else table.learnable_idx)
        weights = table.weights[scope]
        positions = table.positions[scope]
        vectors = positions * batch

        # Error propagation + gradient: two transposed matmuls of the
        # layer's MAC volume each.
        bwd_cycles = _ltr_sum(
            2 * vectors * self._layer_vector_cycles(table)[scope])
        bwd_compute = _ltr_sum(2 * self.cost.mac_energy_pj(
            weights * positions * batch, self.kind))
        # Errors staged through the global buffer.
        buffer_bits = _ltr_sum(2 * vectors * table.out_dim[scope] * 8)
        update_bits = _ltr_sum(weights * 8)
        # Gradient computation (G = a^T delta) needs the transposed
        # activation matrix written into the compute arrays.
        grad_operand_bits = _ltr_sum(vectors * table.in_dim[scope] * 8)

        arrays = max(1, min(self.provisioned_arrays(workload),
                            self.PARALLEL_ARRAY_CAP))
        # Transposed weights + transposed activations re-written each step.
        transpose_bits = update_bits + grad_operand_bits
        write_cycles = self.cost.write_latency_cycles(
            update_bits + transpose_bits, self.kind, parallel_arrays=arrays)

        latency = self.cost.cycles_to_s(bwd_cycles + write_cycles)
        compute = bwd_compute
        buffer = self.cost.buffer_energy_pj(buffer_bits)
        if include_forward:
            fwd = self.inference(workload, batch=batch)
            latency += fwd.latency_s
            compute += fwd.energy.compute_pj
            buffer += fwd.energy.buffer_pj
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj,
            compute_pj=compute,
            write_pj=self.cost.write_energy_pj(
                update_bits + transpose_bits, self.kind),
            buffer_pj=buffer)
        return PerfReport(self.name, "training_step", latency, energy)


def check_hybrid_levers(tech: TechnologyModel, bus_bits: int) -> None:
    """Raise ``ValueError`` unless a hybrid can be built at these levers."""
    if bus_bits <= 0:
        raise ValueError(f"bus_bits must be positive, got {bus_bits}")
    mram = tech.mram
    if mram.row_bits // (mram.weight_bits + mram.index_bits) < 1:
        raise ValueError(
            f"MRAM row ({mram.row_bits} bits) cannot hold one "
            f"(weight, index) pair at {mram.weight_bits}+"
            f"{mram.index_bits} bits")


def _tech_levers(tech: TechnologyModel) -> Tuple[tuple, tuple]:
    """The (int, float) scalars of one technology the hybrid reads."""
    sram, mram, gb = tech.sram, tech.mram, tech.global_blocks
    cost = CostModel(tech)
    pairs_per_row = mram.row_bits // (mram.weight_bits + mram.index_bits)
    ints = (sram.weight_bits, sram.index_bits, sram.storage_bytes,
            *cost.write_row("sram"), mram.weight_bits, mram.index_bits,
            pairs_per_row)
    # The MRAM array capacity only ever divides, and a config may name
    # more rows than int64 holds, so it rides with the floats.
    floats = (mram.rows * pairs_per_row,
              cost.mac_pj("sram", sparse=True),
              cost.mac_pj("mram", sparse=True),
              cost.e_write_sram_pj_per_bit, cost.e_buffer_pj_per_bit,
              tech.cycle_s, sram.leakage_mw_per_mb,
              mram.periphery_leakage_mw, sram.total_area,
              gb.control_overhead_fraction, gb.buffer_area, gb.relu_area)
    return ints, floats


class HybridBatch:
    """The hybrid's area, inference and training formulas for C designs
    on one workload.

    Each per-design lever is a ``(C, 1)`` column and each workload column
    a ``(1, L)`` row, so element ``[c, l]`` of a per-layer term has the
    operands, in the order, that design ``c`` alone would use; row totals
    add left to right (:func:`_ltr_sum`) into ``(C, 1)`` results.  Bus
    widths are float64: they only ever divide a float, and a config may
    name one beyond int64.  One design keeps scalar levers and results.
    The sizing that inference and training share (layer pairs, storage
    bits, MRAM arrays, leakage) is computed once, at construction.
    Callers validate the levers (:func:`check_hybrid_levers`).
    """

    SRAM_PE_PAIRS = 128 * 8
    #: The compute-PE pool is sized once at design time for the *sparsest*
    #: supported pattern (the hardware's N:16-class lower bound on density);
    #: denser runtime patterns time-multiplex extra passes through it.
    REFERENCE_DENSITY = 1.0 / 8.0

    def __init__(self, workload: Workload, patterns: Sequence[NMPattern],
                 techs: Sequence[TechnologyModel], bus_bits: Sequence[int]):
        self.workload = workload
        if len(techs) == 1:
            # One design keeps plain scalars, so its layer terms are 1-D
            # and its totals floats: the elementwise operations are the
            # same, and scalar arithmetic is several times cheaper than on
            # (1, 1) arrays (serve evaluates one config per cache miss).
            (pattern,), (bus,) = patterns, bus_bits
            ints, floats = _tech_levers(techs[0])
            self.density, self.m = pattern.density, pattern.m
            self.bus_bits = bus
        else:
            self.density = np.array([p.density for p in patterns])[:, None]
            self.m = np.array([p.m for p in patterns],
                              dtype=np.int64)[:, None]
            self.bus_bits = np.array(bus_bits, dtype=np.float64)[:, None]
            # A batch names few distinct techs: derive their scalars once.
            distinct: Dict[int, Tuple[int, TechnologyModel]] = {}
            rows = [distinct.setdefault(id(t), (len(distinct), t))[0]
                    for t in techs]
            levers = [_tech_levers(t) for _, t in distinct.values()]
            ints = np.array([i for i, _ in levers],
                            dtype=np.int64)[rows].T[:, :, None]
            floats = np.array([f for _, f in levers],
                              dtype=np.float64)[rows].T[:, :, None]
        (self.sram_weight_bits, self.sram_index_bits, sram_pe_bytes,
         self.sram_write_row_bits, self.sram_write_cycles,
         mram_weight_bits, mram_index_bits, self.mram_pairs_per_row) = ints
        (self.mram_array_pairs, self.e_mac_sram, self.e_mac_mram,
         self.e_write_sram, self.e_buffer, self.cycle_s,
         sram_leak_mw_per_mb, mram_leak_mw, self.sram_pe_area,
         self.control_fraction, self.buffer_area, self.relu_area) = floats

        # ------------------------------------------------------- sizing
        table = workload.table
        #: Compressed (weight, index) pairs of each design's layers.
        self.layer_pairs = _ceil(table.weights * self.density)
        self.fwd_pes = self.sram_fwd_pe_count(workload)
        self.compute_pes = self.sram_compute_pe_count(workload)
        #: Compressed Rep-Net weight storage resident in SRAM.
        self.sram_storage_bits = nm_compressed_bits(
            workload.learnable_weights, self.density, self.sram_weight_bits,
            self.sram_index_bits)
        self.backbone_compressed_bits = nm_compressed_bits(
            workload.frozen_weights, self.density, mram_weight_bits,
            mram_index_bits)
        frozen_pairs = self.layer_pairs[..., table.frozen_idx].sum(
            axis=-1, keepdims=self.layer_pairs.ndim > 1)
        self.mram_arrays = np.maximum(
            1, _ceil(frozen_pairs / self.mram_array_pairs))
        sram_bytes = (self.sram_storage_bits // 8
                      + self.compute_pes * sram_pe_bytes)
        self.leakage_power_mw = leakage_mw(
            sram_leak_mw_per_mb, sram_bytes, mram_leak_mw, self.mram_arrays)

    @classmethod
    def sram_fwd_pe_count(cls, workload: Workload) -> int:
        """Forward-direction SRAM compute PEs (paper Sec. 4: bounded by the
        maximum learnable layer, at the design's reference density).  The
        reference density is fixed, so the count depends on the workload
        alone."""
        table = workload.table
        if not table.learnable_idx.size:
            return 1
        # The PE count never decreases as a layer grows, so the largest
        # learnable layer sets it.
        return math.ceil(
            math.ceil(table.max_learnable_weights * cls.REFERENCE_DENSITY)
            / cls.SRAM_PE_PAIRS)

    @classmethod
    def sram_compute_pe_count(cls, workload: Workload) -> int:
        """Total SRAM compute PEs: forward pool + equal transposed pool."""
        return 2 * cls.sram_fwd_pe_count(workload)

    def area(self) -> Dict[str, np.ndarray]:
        """Per-component mm² columns (:func:`hybrid_area_components`)."""
        return hybrid_area_components(
            self.backbone_compressed_bits, self.compute_pes,
            self.sram_storage_bits, self.sram_pe_area,
            self.control_fraction, self.buffer_area, self.relu_area)

    # ------------------------------------------------------------- inference
    def _frozen_vector_cycles(self, bus_cycles: np.ndarray,
                              pairs: np.ndarray) -> np.ndarray:
        """Per-vector cycles of layers in the MRAM backbone."""
        arrays = np.maximum(1, _ceil(pairs / self.mram_array_pairs))
        rows = _ceil(pairs / (arrays * self.mram_pairs_per_row))
        return np.maximum((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _learnable_vector_cycles(self, bus_cycles: np.ndarray,
                                 pairs: np.ndarray) -> np.ndarray:
        """Per-vector cycles of layers time-multiplexed through the SRAM
        compute-PE pool."""
        tiles = np.maximum(1, _ceil(pairs / self.SRAM_PE_PAIRS))
        serialization = _ceil(tiles / max(1, self.fwd_pes))
        return np.maximum(serialization * self.m * 8.0, bus_cycles)

    def inference(self, batch: int = 1) -> PerfReport:
        table = self.workload.table
        vectors = table.positions * batch
        nnz = self.layer_pairs
        learnable = table.learnable
        bus_cycles = table.in_dim * 8.0 / self.bus_bits
        vector_cycles = np.where(
            learnable,
            self._learnable_vector_cycles(bus_cycles, nnz),
            self._frozen_vector_cycles(bus_cycles, nnz))
        macs = nnz * vectors
        cycles = _ltr_sum(vectors * vector_cycles)
        compute = _ltr_sum(np.where(
            learnable, macs * self.e_mac_sram, macs * self.e_mac_mram))
        buffer_bits = _ltr_sum(vectors * (table.in_dim + table.out_dim) * 8)

        latency = cycles * self.cycle_s
        leak_pj = self.leakage_power_mw * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=buffer_bits * self.e_buffer)
        return PerfReport("hybrid", "inference", latency, energy)

    # -------------------------------------------------------------- training
    def training_step(self, batch: int = 32,
                      include_forward: bool = False) -> PerfReport:
        """Learning phase of one continual-learning step.

        Backward runs only over the learnable (Rep-Net) layers on the SRAM
        sparse compute PEs; weight updates and transposed-buffer rewrites
        touch SRAM only — the MRAM backbone is never written.  Forward is
        excluded by default for the same reason as in
        :meth:`DenseCIMDesign.training_step`.
        """
        table = self.workload.table
        idx = table.learnable_idx
        in_dim = table.in_dim[idx]
        vectors = table.positions[idx] * batch
        nnz = self.layer_pairs[..., idx]
        bus_cycles = in_dim * 8.0 / self.bus_bits

        bwd_cycles = _ltr_sum(
            2 * vectors * self._learnable_vector_cycles(bus_cycles, nnz))
        bwd_compute = _ltr_sum(2 * (nnz * vectors * self.e_mac_sram))
        buffer_bits = _ltr_sum(2 * vectors * table.out_dim[idx] * 8)
        update_bits = _ltr_sum(nnz * self.sram_weight_bits)
        # Per layer, W^T is re-written into the transpose PEs, then a^T for
        # the masked gradient: only the activation rows feeding surviving
        # (N:M-kept) weights are needed.  The two terms alternate in the
        # running total.
        transpose_bits = _ltr_sum(np.stack(
            (nnz * (self.sram_weight_bits + self.sram_index_bits),
             vectors * in_dim * 8 * self.density),
            axis=-1).reshape(nnz.shape[:-1] + (2 * nnz.shape[-1],)))

        write_bits = update_bits + transpose_bits
        rewrite_cycles = write_cycles(
            write_bits, self.sram_write_row_bits, self.sram_write_cycles,
            self.compute_pes)

        latency = (bwd_cycles + rewrite_cycles) * self.cycle_s
        compute = bwd_compute
        buffer = buffer_bits * self.e_buffer
        if include_forward:
            fwd = self.inference(batch=batch)
            latency = latency + fwd.latency_s
            compute = compute + fwd.energy.compute_pj
            buffer = buffer + fwd.energy.buffer_pj
        leak_pj = self.leakage_power_mw * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj,
            compute_pj=compute,
            write_pj=write_bits * self.e_write_sram,
            buffer_pj=buffer)
        return PerfReport("hybrid", "training_step", latency, energy)


class HybridSparseDesign:
    """The paper's hybrid: sparse MRAM backbone + sparse SRAM learnable path.

    Provisioning (paper Secs. 4/5.2): the compressed backbone fills MRAM
    sub-arrays; the compressed Rep-Net weights are "proportionately reserved"
    in SRAM, plus a small *fixed* set of SRAM sparse compute PEs — half for
    the forward direction and half as transposed buffers for
    backpropagation — through which learnable layers are time-multiplexed.

    A :class:`HybridBatch` of one, read back as plain numbers: alone or
    inside a sweep, a design's numbers agree to the bit.
    """

    SRAM_PE_PAIRS = HybridBatch.SRAM_PE_PAIRS
    REFERENCE_DENSITY = HybridBatch.REFERENCE_DENSITY

    def __init__(self, pattern: NMPattern,
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        self.pattern = pattern
        self.tech = tech
        self.cost = CostModel(tech)
        self.name = name or f"hybrid-{pattern}"
        #: Shared activation-bus width; the hybrid competes on the same bus
        #: as the dense baselines unless a sweep overrides it per point.
        self.bus_bits = (DenseCIMDesign.ACTIVATION_BUS_BITS if bus_bits is None
                         else int(bus_bits))
        check_hybrid_levers(tech, self.bus_bits)

    def _batch(self, workload: Workload) -> HybridBatch:
        return HybridBatch(workload, [self.pattern], [self.tech],
                           [self.bus_bits])

    def sram_storage_bits(self, workload: Workload) -> int:
        """Compressed Rep-Net weight storage resident in SRAM."""
        return int(self._batch(workload).sram_storage_bits)

    def backbone_compressed_bits(self, workload: Workload) -> int:
        return int(self._batch(workload).backbone_compressed_bits)

    def sram_fwd_pe_count(self, workload: Workload) -> int:
        return HybridBatch.sram_fwd_pe_count(workload)

    def sram_compute_pe_count(self, workload: Workload) -> int:
        return HybridBatch.sram_compute_pe_count(workload)

    def mram_array_count(self, workload: Workload) -> int:
        return int(self._batch(workload).mram_arrays)

    def area(self, workload: Workload) -> AreaReport:
        return AreaReport({part: float(mm2) for part, mm2
                           in self._batch(workload).area().items()})

    def _named(self, report: PerfReport) -> PerfReport:
        energy = report.energy
        return PerfReport(self.name, report.phase, float(report.latency_s),
                          EnergyBreakdown(float(energy.leakage_pj),
                                          float(energy.compute_pj),
                                          float(energy.write_pj),
                                          float(energy.buffer_pj)))

    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        return self._named(self._batch(workload).inference(batch=batch))

    def training_step(self, workload: Workload, batch: int = 32,
                      include_forward: bool = False) -> PerfReport:
        return self._named(self._batch(workload).training_step(
            batch=batch, include_forward=include_forward))
