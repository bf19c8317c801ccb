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
from .bus import BusConfig, SharedBus, broadcast_vs_unicast
from .fault_injection import (classification_flip_rate, gemm_error_study,
                              inject_weight_bit_flips)
from .csc import CSCColumn, CSCMatrix, tile_matrix
from .kernels import (DEFAULT_KERNEL, KERNEL_ENV_VAR, KERNEL_IMPLEMENTATIONS,
                      KernelPlan, resolve_kernel, spmm_bitserial, spmm_gather)
from .designs import (DenseCIMDesign, HybridBatch, HybridSparseDesign,
                      PerfReport)
from .mapper import (CoreConfig, HybridMapper, MappingPlan, Tile,
                     dense_core_requirement, tile_layer_shapes)
from .mram_pe import (PIPELINE_DEPTH, MRAMDensePE, MRAMPEConfig,
                      MRAMSparsePE)
from .scheduler import LayerSchedule, ScheduleResult, SIMTScheduler
from .sram_pe import DenseDigitalPE, SRAMPEConfig, SRAMSparsePE
from .stats import PEStats
from .transpose_pe import BackpropEngine, TransposedSRAMPE
from .write_verify import (WriteReport, WriteVerifyController,
                           deployment_write_study)
from .workload import (LayerWorkload, Workload, extract_repnet_workload,
                       paper_workload)

__all__ = [
    "CSCMatrix", "CSCColumn", "tile_matrix",
    "KernelPlan", "spmm_gather", "spmm_bitserial", "resolve_kernel",
    "DEFAULT_KERNEL", "KERNEL_ENV_VAR", "KERNEL_IMPLEMENTATIONS",
    "to_bit_planes", "from_partials", "plane_weight",
    "SRAMPEConfig", "SRAMSparsePE", "DenseDigitalPE",
    "MRAMPEConfig", "MRAMSparsePE", "MRAMDensePE", "PIPELINE_DEPTH",
    "TransposedSRAMPE", "BackpropEngine",
    "PEStats",
    "LayerWorkload", "Workload", "extract_repnet_workload", "paper_workload",
    "CoreConfig", "HybridMapper", "MappingPlan", "Tile", "tile_layer_shapes",
    "dense_core_requirement",
    "SIMTScheduler", "ScheduleResult", "LayerSchedule",
    "DenseCIMDesign", "HybridSparseDesign", "HybridBatch", "PerfReport",
    "HybridAccelerator", "MappedGemm",
    "WriteVerifyController", "WriteReport", "deployment_write_study",
    "BitCellArray", "BitLevelSparsePE",
    "inject_weight_bit_flips", "gemm_error_study", "classification_flip_rate",
    "BusConfig", "SharedBus", "broadcast_vs_unicast",
    "reentrant", "effects",
    "guarded_by", "holds_no_locks",
]
