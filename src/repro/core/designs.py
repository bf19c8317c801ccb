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
to a per-layer ``total += term`` loop.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

import numpy as np

from ..energy.area import AreaModel, AreaReport
from ..energy.cost import CostModel, EnergyBreakdown
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..sparsity.nm import NMPattern
from .mram_pe import PIPELINE_DEPTH
from .workload import LayerTable, Workload


def _ltr_sum(terms: np.ndarray) -> float:
    """Float total of ``terms`` added strictly left to right from 0.0.

    ``np.sum`` adds pairwise and builtin ``sum()`` of floats is compensated
    from Python 3.12 on; either would move last bits relative to a
    ``total += term`` loop.  ``np.add.accumulate`` is sequential.
    """
    if not terms.size:
        return 0.0
    return float(np.add.accumulate(terms, dtype=np.float64)[-1])


def _ceil(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.ceil`` of a float column, as int64."""
    return np.ceil(x).astype(np.int64)


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
        if self.latency_s <= 0:
            return 0.0
        return self.energy_j / self.latency_s * 1e3

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


class HybridSparseDesign:
    """The paper's hybrid: sparse MRAM backbone + sparse SRAM learnable path.

    Provisioning (paper Secs. 4/5.2): the compressed backbone fills MRAM
    sub-arrays; the compressed Rep-Net weights are "proportionately reserved"
    in SRAM, plus a small *fixed* set of SRAM sparse compute PEs — half for
    the forward direction and half as transposed buffers for
    backpropagation — through which learnable layers are time-multiplexed.
    """

    SRAM_PE_PAIRS = 128 * 8
    #: The compute-PE pool is sized once at design time for the *sparsest*
    #: supported pattern (the hardware's N:16-class lower bound on density);
    #: denser runtime patterns time-multiplex extra passes through it.
    REFERENCE_DENSITY = 1.0 / 8.0

    def __init__(self, pattern: NMPattern,
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        self.pattern = pattern
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"hybrid-{pattern}"
        #: Shared activation-bus width; the hybrid competes on the same bus
        #: as the dense baselines unless a sweep overrides it per point.
        self.bus_bits = (DenseCIMDesign.ACTIVATION_BUS_BITS if bus_bits is None
                         else int(bus_bits))
        if self.bus_bits <= 0:
            raise ValueError(f"bus_bits must be positive, got {bus_bits}")
        self._mram_pairs_per_row = tech.mram.row_bits // (
            tech.mram.weight_bits + tech.mram.index_bits)
        if self._mram_pairs_per_row < 1:
            raise ValueError(
                f"MRAM row ({tech.mram.row_bits} bits) cannot hold one "
                f"(weight, index) pair at {tech.mram.weight_bits}+"
                f"{tech.mram.index_bits} bits")
        self._mram_array_pairs = tech.mram.rows * self._mram_pairs_per_row

    # --------------------------------------------------------------- sizing
    def _layer_pairs(self, table: LayerTable) -> np.ndarray:
        """Compressed (weight, index) pairs of each layer."""
        return _ceil(table.weights * self.pattern.density)

    def sram_storage_bits(self, workload: Workload) -> int:
        """Compressed Rep-Net weight storage resident in SRAM."""
        return workload.compressed_bits(
            self.pattern, weight_bits=self.tech.sram.weight_bits,
            index_bits=self.tech.sram.index_bits, scope="learnable")

    def sram_fwd_pe_count(self, workload: Workload) -> int:
        """Forward-direction SRAM compute PEs (paper Sec. 4: bounded by the
        maximum learnable layer, at the design's reference density)."""
        table = workload.table
        if not table.learnable_idx.size:
            return 1
        # The PE count never decreases as a layer grows, so the largest
        # learnable layer sets it.
        return math.ceil(
            math.ceil(table.max_learnable_weights * self.REFERENCE_DENSITY)
            / self.SRAM_PE_PAIRS)

    def sram_compute_pe_count(self, workload: Workload) -> int:
        """Total SRAM compute PEs: forward pool + equal transposed-buffer pool."""
        return 2 * self.sram_fwd_pe_count(workload)

    def mram_array_count(self, workload: Workload) -> int:
        table = workload.table
        frozen_pairs = int(self._layer_pairs(table)[table.frozen_idx].sum())
        return max(1, math.ceil(frozen_pairs / self._mram_array_pairs))

    def backbone_compressed_bits(self, workload: Workload) -> int:
        return workload.compressed_bits(
            self.pattern, weight_bits=self.tech.mram.weight_bits,
            index_bits=self.tech.mram.index_bits, scope="frozen")

    def area(self, workload: Workload) -> AreaReport:
        return self.area_model.hybrid_design_area(
            self.backbone_compressed_bits(workload),
            self.sram_compute_pe_count(workload),
            sram_storage_bits=self.sram_storage_bits(workload))

    # ------------------------------------------------------------- inference
    def _frozen_vector_cycles(self, in_dim: np.ndarray,
                              pairs: np.ndarray) -> np.ndarray:
        """Per-vector cycles of layers in the MRAM backbone."""
        bus_cycles = in_dim * 8.0 / self.bus_bits
        arrays = np.maximum(1, _ceil(pairs / self._mram_array_pairs))
        rows = _ceil(pairs / (arrays * self._mram_pairs_per_row))
        return np.maximum((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _learnable_vector_cycles(self, in_dim: np.ndarray, pairs: np.ndarray,
                                 fwd_pes: int) -> np.ndarray:
        """Per-vector cycles of layers time-multiplexed through the SRAM
        compute-PE pool."""
        bus_cycles = in_dim * 8.0 / self.bus_bits
        tiles = np.maximum(1, _ceil(pairs / self.SRAM_PE_PAIRS))
        serialization = _ceil(tiles / max(1, fwd_pes))
        return np.maximum(serialization * self.pattern.m * 8.0, bus_cycles)

    def _leakage_power_mw(self, workload: Workload) -> float:
        sram_bytes = (self.sram_storage_bits(workload) // 8
                      + self.sram_compute_pe_count(workload)
                      * self.tech.sram.storage_bytes)
        return self.cost.leakage_power_mw(
            sram_bytes=sram_bytes,
            mram_arrays=self.mram_array_count(workload))

    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        table = workload.table
        fwd_pes = self.sram_fwd_pe_count(workload)
        vectors = table.positions * batch
        nnz = self._layer_pairs(table)
        learnable = table.learnable
        vector_cycles = np.where(
            learnable,
            self._learnable_vector_cycles(table.in_dim, nnz, fwd_pes),
            self._frozen_vector_cycles(table.in_dim, nnz))
        macs = nnz * vectors
        cycles = _ltr_sum(vectors * vector_cycles)
        compute = _ltr_sum(np.where(
            learnable,
            self.cost.mac_energy_pj(macs, "sram", sparse=True),
            self.cost.mac_energy_pj(macs, "mram", sparse=True)))
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
        """Learning phase of one continual-learning step.

        Backward runs only over the learnable (Rep-Net) layers on the SRAM
        sparse compute PEs; weight updates and transposed-buffer rewrites
        touch SRAM only — the MRAM backbone is never written.  Forward is
        excluded by default for the same reason as in
        :meth:`DenseCIMDesign.training_step`.
        """
        table = workload.table
        idx = table.learnable_idx
        fwd_pes = self.sram_fwd_pe_count(workload)
        in_dim = table.in_dim[idx]
        vectors = table.positions[idx] * batch
        nnz = self._layer_pairs(table)[idx]
        sram = self.tech.sram

        bwd_cycles = _ltr_sum(
            2 * vectors * self._learnable_vector_cycles(in_dim, nnz, fwd_pes))
        bwd_compute = _ltr_sum(2 * self.cost.mac_energy_pj(
            nnz * vectors, "sram", sparse=True))
        buffer_bits = _ltr_sum(2 * vectors * table.out_dim[idx] * 8)
        update_bits = _ltr_sum(nnz * sram.weight_bits)
        # Per layer, W^T is re-written into the transpose PEs, then a^T for
        # the masked gradient: only the activation rows feeding surviving
        # (N:M-kept) weights are needed.  The two terms alternate in the
        # running total.
        transpose_bits = _ltr_sum(np.stack(
            (nnz * (sram.weight_bits + sram.index_bits),
             vectors * in_dim * 8 * self.pattern.density), axis=1).ravel())

        write_cycles = self.cost.write_latency_cycles(
            update_bits + transpose_bits, "sram",
            parallel_arrays=self.sram_compute_pe_count(workload))

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
                update_bits + transpose_bits, "sram"),
            buffer_pj=buffer)
        return PerfReport(self.name, "training_step", latency, energy)
