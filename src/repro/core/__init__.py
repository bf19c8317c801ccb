"""The paper's primary contribution: the hybrid MRAM-SRAM sparse PIM model.

Functional layer (bit-exact integer execution):
:class:`SRAMSparsePE`, :class:`MRAMSparsePE`, :class:`TransposedSRAMPE`,
:class:`HybridAccelerator`.

Analytical layer (paper-scale area/power/EDP):
:class:`DenseCIMDesign`, :class:`HybridSparseDesign`, with
:func:`paper_workload` describing the evaluation target.
"""

from .accelerator import HybridAccelerator, MappedGemm
from .concurrency import guarded_by, holds_no_locks
from .effects import effects, reentrant
from .bitcell_array import BitCellArray, BitLevelSparsePE
from .bitserial import from_partials, plane_weight, to_bit_planes
from .fault_injection import gemm_error_study, inject_weight_bit_flips
from .csc import CSCColumn, CSCMatrix
from .kernels import KernelPlan, spmm_bitserial, spmm_gather
from .designs import (DenseCIMDesign, HybridBatch, HybridSparseDesign,
                      PerfReport)
from .mapper import (CoreConfig, HybridMapper, MappingPlan, Tile,
                     dense_core_requirement, tile_layer_shapes)
from .mram_pe import (PIPELINE_DEPTH, MRAMDensePE, MRAMPEConfig,
                      MRAMSparsePE)
from .sram_pe import DenseDigitalPE, SRAMPEConfig, SRAMSparsePE
from .stats import PEStats
from .transpose_pe import BackpropEngine, TransposedSRAMPE
from .write_verify import WriteReport, WriteVerifyController
from .workload import (LayerWorkload, Workload, extract_repnet_workload,
                       paper_workload)

__all__ = [
    "CSCMatrix", "CSCColumn",
    "KernelPlan", "spmm_gather", "spmm_bitserial",
    "to_bit_planes", "from_partials", "plane_weight",
    "SRAMPEConfig", "SRAMSparsePE", "DenseDigitalPE",
    "MRAMPEConfig", "MRAMSparsePE", "MRAMDensePE", "PIPELINE_DEPTH",
    "TransposedSRAMPE", "BackpropEngine",
    "PEStats",
    "LayerWorkload", "Workload", "extract_repnet_workload", "paper_workload",
    "CoreConfig", "HybridMapper", "MappingPlan", "Tile", "tile_layer_shapes",
    "dense_core_requirement",
    "DenseCIMDesign", "HybridSparseDesign", "HybridBatch", "PerfReport",
    "HybridAccelerator", "MappedGemm",
    "WriteVerifyController", "WriteReport",
    "BitCellArray", "BitLevelSparsePE",
    "inject_weight_bit_flips", "gemm_error_study",
    "reentrant", "effects",
    "guarded_by", "holds_no_locks",
]
