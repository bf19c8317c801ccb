"""Differential suite: the column-form design models against per-layer loops.

``DenseCIMDesign`` and ``HybridSparseDesign`` evaluate a workload as numpy
expressions over its :class:`~repro.core.workload.LayerTable`, and
``HybridBatch`` evaluates many hybrid designs at once as one
``(designs x layers)`` program.  The oracle classes below keep the
per-layer Python loops those expressions replaced, formula for formula,
and every comparison is exact ``==``: the column form promises
bit-identical floats, not approximately equal ones.
"""

import math

import numpy as np
import pytest

from repro.core.designs import (DenseCIMDesign, HybridBatch,
                                HybridSparseDesign, PerfReport)
from repro.core.mram_pe import PIPELINE_DEPTH
from repro.core.workload import (LayerWorkload, Workload,
                                 extract_repnet_workload, paper_workload)
from repro.dse.evaluate import build_tech
from repro.dse.spec import FULL_SPEC, normalize_config
from repro.energy.area import (MRAM_MACRO_UM2_PER_BIT,
                               MRAM_SPARSE_PERIPHERY_FACTOR,
                               SRAM_MACRO_UM2_PER_BIT, AreaModel, AreaReport)
from repro.energy.cost import CostModel, EnergyBreakdown
from repro.energy.tech import DEFAULT_TECH
from repro.energy.units import MM2_PER_UM2
from repro.repnet.model import build_repnet_model
from repro.sparsity.nm import NMPattern


# ----------------------------------------------------------------- oracle
def _loop_weights(workload, learnable=None):
    return sum(l.weights for l in workload.layers
               if learnable is None or l.learnable == learnable)


def _loop_compressed_bits(workload, pattern, weight_bits, index_bits,
                          learnable):
    kept = int(_loop_weights(workload, learnable) * pattern.density)
    return kept * (weight_bits + index_bits)


class LoopDenseCIMDesign(DenseCIMDesign):
    """``DenseCIMDesign`` with its per-layer loop formulas."""

    def provisioned_arrays(self, workload):
        per_array = (self.SRAM_ARRAY_WEIGHTS if self.kind == "sram"
                     else self.MRAM_ARRAY_WEIGHTS)
        return math.ceil(_loop_weights(workload) / per_array)

    def area(self, workload):
        return self.area_model.dense_design_area(
            _loop_weights(workload) * 8, self.kind)

    def _layer_vector_cycles(self, layer):
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        if self.kind == "sram":
            tiles = max(1, math.ceil(layer.weights / self.SRAM_ARRAY_WEIGHTS))
            serialization = math.ceil(tiles / self.PARALLEL_ARRAY_CAP)
            return max(serialization * 8.0, bus_cycles)
        arrays = max(1, math.ceil(layer.weights / self.MRAM_ARRAY_WEIGHTS))
        rows = math.ceil(layer.weights / (arrays * self.MRAM_WEIGHTS_PER_ROW))
        return max((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _leakage_power_mw(self, workload):
        if self.kind == "sram":
            return self.cost.leakage_power_mw(
                sram_bytes=_loop_weights(workload), mram_arrays=0)
        return self.cost.leakage_power_mw(
            sram_bytes=0, mram_arrays=self.provisioned_arrays(workload))

    def inference(self, workload, batch=1):
        cycles = 0.0
        compute = 0.0
        buffer_bits = 0.0
        for layer in workload.layers:
            vectors = layer.positions * batch
            cycles += vectors * self._layer_vector_cycles(layer)
            compute += self.cost.mac_energy_pj(layer.macs * batch, self.kind)
            buffer_bits += vectors * (layer.in_dim + layer.out_dim) * 8

        latency = self.cost.cycles_to_s(cycles)
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=self.cost.buffer_energy_pj(buffer_bits))
        return PerfReport(self.name, "inference", latency, energy)

    def training_step(self, workload, batch=32, include_forward=False):
        scope = (workload.layers if self.update_scope == "all"
                 else [l for l in workload.layers if l.learnable])

        bwd_cycles = 0.0
        bwd_compute = 0.0
        buffer_bits = 0.0
        update_bits = 0.0
        grad_operand_bits = 0.0
        for layer in scope:
            vectors = layer.positions * batch
            bwd_cycles += 2 * vectors * self._layer_vector_cycles(layer)
            bwd_compute += 2 * self.cost.mac_energy_pj(
                layer.macs * batch, self.kind)
            buffer_bits += 2 * vectors * layer.out_dim * 8
            update_bits += layer.weights * 8
            grad_operand_bits += vectors * layer.in_dim * 8

        arrays = max(1, min(self.provisioned_arrays(workload),
                            self.PARALLEL_ARRAY_CAP))
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


class LoopHybridSparseDesign(HybridSparseDesign):
    """``HybridSparseDesign`` with its per-layer loop formulas."""

    def __init__(self, pattern, tech=DEFAULT_TECH, name="", bus_bits=None):
        self.pattern = pattern
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"hybrid-{pattern}"
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

    def _layer_pairs(self, layer):
        return math.ceil(layer.weights * self.pattern.density)

    def sram_storage_bits(self, workload):
        return _loop_compressed_bits(
            workload, self.pattern, self.tech.sram.weight_bits,
            self.tech.sram.index_bits, learnable=True)

    def backbone_compressed_bits(self, workload):
        return _loop_compressed_bits(
            workload, self.pattern, self.tech.mram.weight_bits,
            self.tech.mram.index_bits, learnable=False)

    def sram_fwd_pe_count(self, workload):
        learnable = [l for l in workload.layers if l.learnable]
        if not learnable:
            return 1
        return max(math.ceil(math.ceil(l.weights * self.REFERENCE_DENSITY)
                             / self.SRAM_PE_PAIRS) for l in learnable)

    def sram_compute_pe_count(self, workload):
        return 2 * self.sram_fwd_pe_count(workload)

    def mram_array_count(self, workload):
        frozen_pairs = sum(self._layer_pairs(l) for l in workload.layers
                           if not l.learnable)
        return max(1, math.ceil(frozen_pairs / self._mram_array_pairs))

    def area(self, workload):
        gb = self.tech.global_blocks
        mram_storage = (self.backbone_compressed_bits(workload)
                        * MRAM_MACRO_UM2_PER_BIT * MM2_PER_UM2)
        mram_periphery = mram_storage * MRAM_SPARSE_PERIPHERY_FACTOR
        sram_storage = (self.sram_storage_bits(workload)
                        * SRAM_MACRO_UM2_PER_BIT * MM2_PER_UM2)
        sram_pes = self.sram_compute_pe_count(workload) \
            * self.tech.sram.total_area
        control = (mram_storage + mram_periphery + sram_storage + sram_pes) \
            * gb.control_overhead_fraction
        return AreaReport({
            "mram_storage": mram_storage,
            "mram_sparse_periphery": mram_periphery,
            "sram_storage": sram_storage,
            "sram_pes": sram_pes,
            "control": control,
            "global_buffer": gb.buffer_area,
            "global_relu": gb.relu_area,
        })

    def _leakage_power_mw(self, workload):
        sram_bytes = (self.sram_storage_bits(workload) // 8
                      + self.sram_compute_pe_count(workload)
                      * self.tech.sram.storage_bytes)
        return self.cost.leakage_power_mw(
            sram_bytes=sram_bytes,
            mram_arrays=self.mram_array_count(workload))

    def _frozen_vector_cycles(self, layer):
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        pairs = self._layer_pairs(layer)
        arrays = max(1, math.ceil(pairs / self._mram_array_pairs))
        rows = math.ceil(pairs / (arrays * self._mram_pairs_per_row))
        return max((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _learnable_vector_cycles(self, layer, fwd_pes):
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        tiles = max(1, math.ceil(self._layer_pairs(layer) / self.SRAM_PE_PAIRS))
        serialization = math.ceil(tiles / max(1, fwd_pes))
        return max(serialization * self.pattern.m * 8.0, bus_cycles)

    def inference(self, workload, batch=1):
        fwd_pes = self.sram_fwd_pe_count(workload)
        cycles = 0.0
        compute = 0.0
        buffer_bits = 0.0
        for layer in workload.layers:
            vectors = layer.positions * batch
            nnz = self._layer_pairs(layer)
            if layer.learnable:
                cycles += vectors * self._learnable_vector_cycles(layer, fwd_pes)
                compute += self.cost.mac_energy_pj(
                    nnz * vectors, "sram", sparse=True)
            else:
                cycles += vectors * self._frozen_vector_cycles(layer)
                compute += self.cost.mac_energy_pj(
                    nnz * vectors, "mram", sparse=True)
            buffer_bits += vectors * (layer.in_dim + layer.out_dim) * 8

        latency = self.cost.cycles_to_s(cycles)
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=self.cost.buffer_energy_pj(buffer_bits))
        return PerfReport(self.name, "inference", latency, energy)

    def training_step(self, workload, batch=32, include_forward=False):
        learnable = [l for l in workload.layers if l.learnable]
        fwd_pes = self.sram_fwd_pe_count(workload)

        bwd_cycles = 0.0
        bwd_compute = 0.0
        buffer_bits = 0.0
        update_bits = 0.0
        transpose_bits = 0.0
        for layer in learnable:
            vectors = layer.positions * batch
            nnz = self._layer_pairs(layer)
            bwd_cycles += 2 * vectors * self._learnable_vector_cycles(layer, fwd_pes)
            bwd_compute += 2 * self.cost.mac_energy_pj(
                nnz * vectors, "sram", sparse=True)
            buffer_bits += 2 * vectors * layer.out_dim * 8
            pair_bits = nnz * (self.tech.sram.weight_bits
                               + self.tech.sram.index_bits)
            update_bits += nnz * self.tech.sram.weight_bits
            transpose_bits += pair_bits
            transpose_bits += vectors * layer.in_dim * 8 * self.pattern.density

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


# -------------------------------------------------------------- workloads
def _edge_workloads():
    paper = paper_workload()
    small = build_repnet_model(widths=(8, 16), strides=(1, 2),
                               repnet_width=4, seed=0)
    return {
        "paper": paper,
        "no-learnable": paper.subset(learnable=False),
        "all-learnable": paper.subset(learnable=True),
        "single-learnable": Workload(
            "single-learnable", [LayerWorkload("only", 1152, 128, 49, True)]),
        "single-frozen": Workload(
            "single-frozen", [LayerWorkload("only", 147, 64, 12544, False)]),
        "small-repnet": extract_repnet_workload(small, 16),
    }


EDGE_WORKLOADS = _edge_workloads()
PAPER = EDGE_WORKLOADS["paper"]

#: A spread of FULL_SPEC tech variants for the edge-workload matrix.
TECH_CONFIGS = (
    {"mram_rows": 1024, "weight_bits": 8, "device": "nominal"},
    {"mram_rows": 512, "weight_bits": 4, "device": "mram-fast-write"},
    {"mram_rows": 2048, "weight_bits": 6, "device": "sram-low-leak"},
)
TECHS = [build_tech(cfg) for cfg in TECH_CONFIGS]


def _assert_hybrid_equal(new, old, workload, batches=(1,),
                         training_batches=(32,), include_forward=(False,)):
    area_new, area_old = new.area(workload), old.area(workload)
    assert area_new.components == area_old.components
    assert area_new.total_mm2 == area_old.total_mm2
    for method in ("sram_storage_bits", "sram_fwd_pe_count",
                   "sram_compute_pe_count", "mram_array_count",
                   "backbone_compressed_bits"):
        assert getattr(new, method)(workload) == \
            getattr(old, method)(workload), method
    for batch in batches:
        assert new.inference(workload, batch=batch).as_dict() == \
            old.inference(workload, batch=batch).as_dict(), batch
    for batch in training_batches:
        for fwd in include_forward:
            assert new.training_step(
                workload, batch=batch, include_forward=fwd).as_dict() == \
                old.training_step(
                    workload, batch=batch, include_forward=fwd).as_dict(), \
                (batch, fwd)


# ------------------------------------------------------------------ tests
class TestFullSpec:
    """Every FULL_SPEC config, as ``evaluate_config`` builds its design."""

    @pytest.mark.parametrize("pattern", FULL_SPEC.patterns)
    def test_every_config_of_pattern(self, pattern):
        configs = [normalize_config(c) for c in FULL_SPEC.configs()
                   if c["pattern"] == pattern]
        assert configs
        nm = NMPattern.parse(pattern)
        for cfg in configs:
            tech = build_tech(cfg)
            bus = int(cfg["bus_bits"])
            _assert_hybrid_equal(
                HybridSparseDesign(nm, tech=tech, bus_bits=bus),
                LoopHybridSparseDesign(nm, tech=tech, bus_bits=bus), PAPER)


class TestEdgeWorkloadsHybrid:
    @pytest.mark.parametrize("name", sorted(EDGE_WORKLOADS))
    # FULL_SPEC densities are all dyadic, so products with them are exact;
    # 1:3, 2:5, 3:7 and 5:12 round, which makes operand order observable.
    @pytest.mark.parametrize("pattern", ["1:16", "3:16", "1:4", "2:4",
                                         "1:3", "2:5", "3:7", "5:12"])
    def test_matches_loop(self, name, pattern):
        nm = NMPattern.parse(pattern)
        for tech in TECHS:
            for bus in (32, 128, 512):
                _assert_hybrid_equal(
                    HybridSparseDesign(nm, tech=tech, bus_bits=bus),
                    LoopHybridSparseDesign(nm, tech=tech, bus_bits=bus),
                    EDGE_WORKLOADS[name], batches=(1, 32),
                    training_batches=(1, 32), include_forward=(False, True))


class TestEdgeWorkloadsDense:
    @pytest.mark.parametrize("name", sorted(EDGE_WORKLOADS))
    @pytest.mark.parametrize("kind", ["sram", "mram"])
    @pytest.mark.parametrize("scope", ["all", "learnable"])
    def test_matches_loop(self, name, kind, scope):
        workload = EDGE_WORKLOADS[name]
        for tech in (DEFAULT_TECH, TECHS[1]):
            for bus in (None, 64, 1024):
                new = DenseCIMDesign(kind, scope, tech=tech, bus_bits=bus)
                old = LoopDenseCIMDesign(kind, scope, tech=tech, bus_bits=bus)
                assert new.provisioned_arrays(workload) == \
                    old.provisioned_arrays(workload)
                assert new.area(workload).components == \
                    old.area(workload).components
                for batch in (1, 32):
                    assert new.inference(workload, batch).as_dict() == \
                        old.inference(workload, batch).as_dict()
                    for fwd in (False, True):
                        assert new.training_step(
                            workload, batch, include_forward=fwd).as_dict() \
                            == old.training_step(
                                workload, batch, include_forward=fwd).as_dict()


class TestLayerTable:
    @pytest.mark.parametrize("name", sorted(EDGE_WORKLOADS))
    def test_aggregates_match_layer_sums(self, name):
        workload = EDGE_WORKLOADS[name]
        table = workload.table
        assert table.total_weights == _loop_weights(workload)
        assert table.learnable_weights == _loop_weights(workload, True)
        assert table.frozen_weights == _loop_weights(workload, False)
        assert [int(w) for w in table.weights] == \
            [l.weights for l in workload.layers]
        assert [bool(b) for b in table.learnable] == \
            [l.learnable for l in workload.layers]

    def test_workload_is_immutable(self):
        workload = Workload("w", [LayerWorkload("a", 4, 2, 3, True)])
        assert isinstance(workload.layers, tuple)
        with pytest.raises(AttributeError):
            workload.layers = ()
        with pytest.raises(ValueError):
            workload.table.weights[0] = 1

    def test_empty_workload(self):
        empty = Workload("empty", [])
        assert empty.total_weights == 0
        design = HybridSparseDesign(NMPattern(1, 4))
        assert design.sram_fwd_pe_count(empty) == 1
        assert design.mram_array_count(empty) == 1
        assert design.inference(empty).latency_s == 0.0
        assert design.training_step(empty).latency_s == 0.0


# ---------------------------------------------------------- batched rows
#: The non-dyadic patterns (rounding products make operand order
#: observable), every tech variant, three bus widths: 36 mixed designs.
BATCH_DESIGNS = [(NMPattern.parse(p), tech, bus)
                 for p in ("1:3", "2:5", "3:7", "5:12")
                 for tech in TECHS for bus in (32, 128, 512)]


def _row(columns, c):
    """Row ``c`` of a ``(C, 1)`` column; a plain scalar is every row's."""
    value = np.asarray(columns)
    return (value[c] if value.ndim else value).item()


def _batch_report_row(report, c):
    energy = report.energy
    return PerfReport(report.design, report.phase,
                      _row(report.latency_s, c),
                      EnergyBreakdown(leakage_pj=_row(energy.leakage_pj, c),
                                      compute_pj=_row(energy.compute_pj, c),
                                      write_pj=_row(energy.write_pj, c),
                                      buffer_pj=_row(energy.buffer_pj, c)))


def _assert_batch_rows_equal(designs, workload):
    batch = HybridBatch(workload, *zip(*designs))
    area = batch.area()
    sizing = {method: getattr(batch, attr) for attr, method in (
        ("sram_storage_bits", "sram_storage_bits"),
        ("backbone_compressed_bits", "backbone_compressed_bits"),
        ("mram_arrays", "mram_array_count"),
        ("compute_pes", "sram_compute_pe_count"))}
    reports = {("inference", b, False): batch.inference(batch=b)
               for b in (1, 32)}
    reports.update({("training_step", b, fwd): batch.training_step(
        batch=b, include_forward=fwd)
        for b in (1, 32) for fwd in (False, True)})
    for c, (pattern, tech, bus) in enumerate(designs):
        old = LoopHybridSparseDesign(pattern, tech=tech, bus_bits=bus)
        assert {name: _row(mm2, c) for name, mm2 in area.items()} == \
            old.area(workload).components, c
        for method, column in sizing.items():
            assert _row(column, c) == getattr(old, method)(workload), method
        for (phase, b, fwd), report in reports.items():
            expect = (old.inference(workload, batch=b) if phase == "inference"
                      else old.training_step(workload, batch=b,
                                             include_forward=fwd))
            got = _batch_report_row(report, c).as_dict()
            got["design"] = expect.design
            assert got == expect.as_dict(), (c, phase, b, fwd)


class TestBatchedRows:
    """Every row of a mixed :class:`HybridBatch` equals the loop oracle."""

    @pytest.mark.parametrize("name", sorted(EDGE_WORKLOADS))
    def test_mixed_batch_matches_loop(self, name):
        _assert_batch_rows_equal(BATCH_DESIGNS, EDGE_WORKLOADS[name])

    @pytest.mark.parametrize("name", ["paper", "no-learnable"])
    def test_rows_do_not_depend_on_batch_boundaries(self, name):
        """Slices of 7 cut the mixed batch mid-pattern and mid-tech; each
        slice's rows equal the same rows of the whole batch."""
        workload = EDGE_WORKLOADS[name]
        whole = HybridBatch(workload, *zip(*BATCH_DESIGNS)).training_step(
            include_forward=True)
        for start in range(0, len(BATCH_DESIGNS), 7):
            part = HybridBatch(workload, *zip(*BATCH_DESIGNS[start:start + 7]))
            sliced = part.training_step(include_forward=True)
            for c in range(len(BATCH_DESIGNS[start:start + 7])):
                assert _batch_report_row(sliced, c).as_dict() == \
                    _batch_report_row(whole, start + c).as_dict()
        _assert_batch_rows_equal(BATCH_DESIGNS[5:12], workload)
