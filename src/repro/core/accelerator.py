"""Top-level functional model of the hybrid MRAM-SRAM sparse accelerator.

:class:`HybridAccelerator` is the bit-true execution path: integer weight
matrices are N:M-pruned, CSC-encoded, tiled and loaded into actual
:class:`~repro.core.sram_pe.SRAMSparsePE` / :class:`~repro.core.mram_pe.MRAMSparsePE`
instances (frozen layers -> MRAM, learnable layers -> SRAM, per the paper's
mapping), and GEMMs run through the simulated PEs with exact integer
results.  Event counters feed the :class:`~repro.energy.cost.CostModel` for
energy accounting, so small end-to-end runs produce both *numbers that match
a numpy reference bit-for-bit* and *hardware cost estimates*.

For paper-scale studies use the analytical :mod:`repro.core.designs` path;
this class is meant for functional verification and the examples.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..energy.cost import CostModel, EnergyBreakdown
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..obs import counter_delta, flatten_stats, get_tracer, nonzero
from ..quant.int8 import QuantParams, quantize_weight_int
from ..sparsity.nm import NMPattern, compute_nm_mask, verify_nm
from .mapper import tile_layer_shapes
from .mram_pe import MRAMPEConfig, MRAMSparsePE
from .sram_pe import SRAMPEConfig, SRAMSparsePE, check_weight_range
from .stats import PEStats
from .transpose_pe import BackpropEngine, TransposedSRAMPE
from .widths import width_contract


@dataclasses.dataclass
class MappedGemm:
    """One weight matrix resident on the accelerator."""

    name: str
    in_dim: int
    out_dim: int
    learnable: bool
    kind: str
    # (row_off, col_off, PE) per tile
    tiles: List[Tuple[int, int, Union[SRAMSparsePE, MRAMSparsePE]]]
    weight_params: Optional[QuantParams] = None
    # The resident W^T of a learnable GEMM: one buffer while W^T fits one,
    # else one per forward tile.  Made by the first propagate_error and
    # rewritten by every later one until that choice changes.
    error_buffers: List[TransposedSRAMPE] = dataclasses.field(
        default_factory=list)

    @property
    def pe_count(self) -> int:
        return len(self.tiles)


class HybridAccelerator:
    """Functional hybrid accelerator: load layers, run exact integer GEMMs."""

    def __init__(self, pattern: NMPattern,
                 sram_config: Optional[SRAMPEConfig] = None,
                 mram_config: Optional[MRAMPEConfig] = None,
                 tech: TechnologyModel = DEFAULT_TECH):
        self.pattern = pattern
        self.sram_config = sram_config or SRAMPEConfig()
        self.mram_config = mram_config or MRAMPEConfig()
        self.cost = CostModel(tech)
        self.gemms: Dict[str, MappedGemm] = {}
        self.backprop = BackpropEngine(self.sram_config)

    # ------------------------------------------------------------------ load
    def load_gemm(self, name: str, weight_int: np.ndarray,
                  learnable: bool, auto_prune: bool = False) -> MappedGemm:
        """Tile and load an integer ``(in_dim, out_dim)`` matrix.

        ``auto_prune=True`` applies magnitude N:M pruning along the reduction
        dimension first; otherwise the matrix must already satisfy the
        pattern (checked by the PEs on load).
        """
        weight_int = np.asarray(weight_int)
        if weight_int.ndim != 2:
            raise ValueError(f"expected a 2-D GEMM matrix, got {weight_int.shape}")
        if not np.issubdtype(weight_int.dtype, np.integer):
            raise TypeError("load_gemm expects integer (quantized) weights; "
                            "use load_float_gemm for float matrices")
        if name in self.gemms:
            raise ValueError(f"GEMM {name!r} already loaded")
        if auto_prune:
            mask = compute_nm_mask(np.abs(weight_int).astype(np.float64),
                                   self.pattern, axis=0)
            weight_int = (weight_int * mask).astype(weight_int.dtype)
        elif not verify_nm(weight_int, self.pattern, axis=0):
            raise ValueError(
                f"matrix {name!r} violates {self.pattern} along the "
                "reduction dimension; prune first or pass auto_prune=True")

        kind = "sram" if learnable else "mram"
        pe_pairs = (self.sram_config.pair_capacity if kind == "sram"
                    else self.mram_config.pair_capacity)
        max_rows = (self.sram_config.rows if kind == "sram"
                    else self.mram_config.rows)
        in_dim, out_dim = weight_int.shape

        tiles: List[Tuple[int, int, object]] = []
        with get_tracer().span("accel.load_gemm", gemm=name, kind=kind) as sp:
            for r, c, rows, cols in tile_layer_shapes(
                    in_dim, out_dim, self.pattern, pe_pairs, max_rows=max_rows):
                block = weight_int[r:r + rows, c:c + cols]
                pe = (SRAMSparsePE(self.sram_config) if kind == "sram"
                      else MRAMSparsePE(self.mram_config))
                pe.load(block, self.pattern)
                tiles.append((r, c, pe))
            sp.count(tiles=len(tiles), weights=int(in_dim) * int(out_dim))

        mapped = MappedGemm(name=name, in_dim=in_dim, out_dim=out_dim,
                            learnable=learnable, kind=kind, tiles=tiles)
        self.gemms[name] = mapped
        return mapped

    def load_float_gemm(self, name: str, weight: np.ndarray,
                        learnable: bool) -> Tuple[MappedGemm, QuantParams]:
        """Quantize a float matrix to INT8, magnitude-prune to N:M, load it."""
        weight = np.asarray(weight, dtype=np.float64)
        mask = compute_nm_mask(np.abs(weight), self.pattern, axis=0)
        weight_int, params = quantize_weight_int(weight * mask)
        mapped = self.load_gemm(name, weight_int * mask.astype(np.int64),
                                learnable)
        mapped.weight_params = params
        return mapped, params

    # ------------------------------------------------------------------- run
    @width_contract(inputs="i8", weights="i8", accum="i64",
                    depth="MAX_ROW_TILES",
                    returns="_run_tiles",
                    params={"activations": "inputs"})
    def gemm(self, name: str, activations: np.ndarray) -> np.ndarray:
        """Exact integer GEMM ``activations @ W`` through the mapped tiles."""
        mapped = self._get(name)
        activations = np.atleast_2d(np.asarray(activations))
        if activations.shape[1] != mapped.in_dim:
            raise ValueError(
                f"activation dim {activations.shape[1]} != GEMM in_dim "
                f"{mapped.in_dim}")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("accel.gemm", gemm=name, kind=mapped.kind,
                             tiles=mapped.pe_count,
                             batch=activations.shape[0]) as sp:
                before = self._probe_counters()
                out = self._run_tiles(mapped, activations)
                sp.count(**nonzero(counter_delta(before,
                                                 self._probe_counters())))
            return out
        return self._run_tiles(mapped, activations)

    @width_contract(inputs="i8", weights="i8", accum="i64",
                    depth="MAX_ROW_TILES",
                    returns="MAX_ROW_TILES"
                            " * (SRAMSparsePE.matmul | MRAMSparsePE.matmul)",
                    params={"activations": "inputs"})
    def _run_tiles(self, mapped: MappedGemm,
                   activations: np.ndarray) -> np.ndarray:
        out = np.zeros((activations.shape[0], mapped.out_dim), dtype=np.int64)
        for r, c, pe in mapped.tiles:
            rows = pe.csc.shape[0]
            cols = pe.csc.shape[1]
            out[:, c:c + cols] += pe.matmul(activations[:, r:r + rows])
        return out

    def _probe_counters(self) -> Dict[str, float]:
        """Tracing probe: PEStats counters + energy totals, flattened.

        Only evaluated while the tracer is enabled — walks every PE, so the
        disabled path never pays for it.
        """
        counters = flatten_stats(self.stats())
        for kind, breakdown in self.energy_report().items():
            counters[f"{kind}.energy_pj"] = breakdown.total_pj
        return counters

    def linear(self, name: str, x: np.ndarray,
               input_params: Optional[QuantParams] = None) -> np.ndarray:
        """Float-in/float-out linear layer via INT8 PE execution.

        Activations are symmetrically quantized (per call unless
        ``input_params`` pins the scale), multiplied on the PEs, then
        dequantized with the product of scales.
        """
        mapped = self._get(name)
        if mapped.weight_params is None:
            raise RuntimeError(
                f"GEMM {name!r} was loaded as raw integers; use gemm()")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        params = input_params or QuantParams.from_tensor(x)
        x_int = params.quantize(x)
        y_int = self.gemm(name, x_int)
        return y_int * (params.scale * mapped.weight_params.scale)

    # -------------------------------------------------------------- training
    def update_gemm(self, name: str, weight_int: np.ndarray) -> None:
        """Rewrite a learnable GEMM in place (a weight-update step)."""
        mapped = self._get(name)
        if not mapped.learnable:
            raise RuntimeError(
                f"GEMM {name!r} is frozen backbone state on MRAM; the hybrid "
                "design never rewrites it during learning")
        weight_int = np.asarray(weight_int)
        if weight_int.shape != (mapped.in_dim, mapped.out_dim):
            raise ValueError("update shape mismatch")
        if not verify_nm(weight_int, self.pattern, axis=0):
            raise ValueError("update violates the N:M pattern")
        # Reject before any tile is rewritten, so a failed update leaves the
        # GEMM and its write counters untouched.
        if not np.issubdtype(weight_int.dtype, np.integer):
            raise TypeError("update_gemm expects integer (quantized) weights "
                            f"(got dtype {weight_int.dtype})")
        check_weight_range(weight_int, self.sram_config.weight_bits)
        for r, c, pe in mapped.tiles:
            rows, cols = pe.csc.shape
            pe.update_weights(weight_int[r:r + rows, c:c + cols], self.pattern)

    def propagate_error(self, name: str, delta_int: np.ndarray) -> np.ndarray:
        """Error propagation ``delta @ W^T`` via the GEMM's transposed SRAM
        buffers, kept and rewritten across steps.

        ``W^T`` goes into one buffer when its non-zeros fit one PE.
        Otherwise each forward tile ``W[r:r+rows, c:c+cols]`` gets its own
        buffer holding ``block.T``, which fits because the block does, and
        adds ``delta[:, c:c+cols] @ block.T`` into ``out[:, r:r+rows]``.
        """
        mapped = self._get(name)
        if not mapped.learnable:
            raise RuntimeError("backprop only runs through learnable layers")
        nnz = sum(pe.csc.nnz for _, _, pe in mapped.tiles)
        count = 1 if nnz <= self.sram_config.pair_capacity else mapped.pe_count
        if len(mapped.error_buffers) != count:
            mapped.error_buffers = [TransposedSRAMPE(self.sram_config)
                                    for _ in range(count)]
        if count == 1:
            return self.backprop.propagate_error(
                self.dense_weight(name), delta_int, self.pattern,
                buffer=mapped.error_buffers[0])
        delta = np.atleast_2d(np.asarray(delta_int))
        if delta.shape[1] != mapped.out_dim:
            raise ValueError(f"error dim {delta.shape[1]} != GEMM out_dim "
                             f"{mapped.out_dim}")
        out = np.zeros((delta.shape[0], mapped.in_dim), dtype=np.int64)
        for (r, c, pe), buf in zip(mapped.tiles, mapped.error_buffers):
            rows, cols = pe.csc.shape
            out[:, r:r + rows] += self.backprop.propagate_error(
                pe.dense_weight(), delta[:, c:c + cols], self.pattern,
                buffer=buf)
        return out

    def weight_gradient(self, name: str, activations_int: np.ndarray,
                        delta_int: np.ndarray) -> np.ndarray:
        """Gradient ``a^T @ delta`` via transposed SRAM buffers."""
        mapped = self._get(name)
        if not mapped.learnable:
            raise RuntimeError("backprop only runs through learnable layers")
        return self.backprop.weight_gradient(activations_int, delta_int,
                                             self.pattern)

    # ------------------------------------------------------------- inspection
    def _get(self, name: str) -> MappedGemm:
        if name not in self.gemms:
            raise KeyError(f"no GEMM named {name!r}; loaded: {sorted(self.gemms)}")
        return self.gemms[name]

    def dense_weight(self, name: str) -> np.ndarray:
        """Reassembled dense matrix from the tiles (for verification)."""
        mapped = self._get(name)
        out = np.zeros((mapped.in_dim, mapped.out_dim), dtype=np.int64)
        for r, c, pe in mapped.tiles:
            rows, cols = pe.csc.shape
            out[r:r + rows, c:c + cols] = pe.dense_weight()
        return out

    def stats(self) -> Dict[str, PEStats]:
        """Aggregate PE statistics by memory kind (plus transposed buffers)."""
        agg = {"sram": PEStats(), "mram": PEStats()}
        for mapped in self.gemms.values():
            for _, _, pe in mapped.tiles:
                agg[mapped.kind].merge(pe.stats)
        agg["sram"].merge(self.backprop.stats)
        return agg

    def energy_report(self) -> Dict[str, EnergyBreakdown]:
        """Energy of everything executed so far, from the event counters."""
        stats = self.stats()
        return {kind: self.cost.pe_stats_energy(s, kind)
                for kind, s in stats.items()}
