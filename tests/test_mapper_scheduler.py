"""Unit tests for the mapper, the core hierarchy and the workload model."""

import math

import numpy as np
import pytest

from repro.core.mapper import (CoreConfig, HybridMapper, dense_core_requirement,
                               tile_layer_shapes)
from repro.core.workload import (LayerWorkload, extract_repnet_workload,
                                 paper_workload)
from repro.repnet import build_repnet_model
from repro.sparsity import NMPattern


@pytest.fixture
def small_workload():
    model = build_repnet_model(widths=(8, 16), strides=(1, 2),
                               repnet_width=4, seed=0)
    return extract_repnet_workload(model, 16)


class TestCoreConfig:
    def test_paper_capacity(self):
        """4x4 banks x 4x4 sub-arrays of 1024x512 bits = 16 MB per core."""
        core = CoreConfig()
        assert core.mram_pes == 256
        assert core.mram_capacity_bytes == 16 * 1024 * 1024

    def test_dense_dual_core(self):
        """The paper's ~26 MB dense model needs two 16 MB cores."""
        assert dense_core_requirement(paper_workload()) == 2


class TestTiling:
    def test_tiles_cover_matrix(self):
        pattern = NMPattern(1, 4)
        blocks = tile_layer_shapes(300, 70, pattern, pe_pairs=1024,
                                   max_rows=128)
        covered = np.zeros((300, 70), dtype=int)
        for r, c, rows, cols in blocks:
            covered[r:r + rows, c:c + cols] += 1
        assert (covered == 1).all()

    def test_row_blocks_group_aligned(self):
        pattern = NMPattern(1, 8)
        blocks = tile_layer_shapes(256, 16, pattern, pe_pairs=1024,
                                   max_rows=128)
        for r, _c, _rows, _cols in blocks:
            assert r % pattern.m == 0

    def test_tile_fits_pe(self):
        pattern = NMPattern(2, 4)  # density 0.5
        for _r, _c, rows, cols in tile_layer_shapes(512, 100, pattern,
                                                  pe_pairs=1024,
                                                  max_rows=128):
            assert math.ceil(rows * pattern.density) * cols <= 1024

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            tile_layer_shapes(0, 4, NMPattern(1, 4), 1024)

    @pytest.mark.parametrize("in_dim,out_dim,n,m,pe_pairs,max_rows", [
        (300, 70, 1, 4, 1024, 128), (1152, 64, 1, 4, 1024, 1024),
        (256, 32, 1, 4, 1024, 1024), (513, 17, 2, 4, 1024, 256),
        (96, 200, 1, 8, 256, 1024), (2048, 9, 2, 8, 512, 512),
        (40, 3, 1, 16, 64, 1024), (4, 1, 1, 4, 1, 1024)])
    def test_exact_partition_within_pe(self, in_dim, out_dim, n, m,
                                       pe_pairs, max_rows):
        pattern = NMPattern(n, m)
        blocks = tile_layer_shapes(in_dim, out_dim, pattern,
                                   pe_pairs=pe_pairs, max_rows=max_rows)
        covered = np.zeros((in_dim, out_dim), dtype=int)
        for r, c, rows, cols in blocks:
            assert rows > 0 and cols > 0
            assert r % m == 0
            covered[r:r + rows, c:c + cols] += 1
            assert math.ceil(rows * pattern.density) * cols <= pe_pairs
        assert (covered == 1).all()

    @pytest.mark.parametrize("in_dim,out_dim", [(5, 0), (-4, 3), (0, 0)])
    def test_nonpositive_dims_rejected(self, in_dim, out_dim):
        with pytest.raises(ValueError):
            tile_layer_shapes(in_dim, out_dim, NMPattern(1, 4), 1024)


class TestHybridMapper:
    def test_residence_split(self, small_workload):
        plan = HybridMapper(NMPattern(1, 4)).map_workload(small_workload)
        by_layer = {}
        for t in plan.tiles:
            by_layer.setdefault(t.layer, set()).add(t.kind)
        for layer in small_workload.layers:
            kinds = by_layer[layer.name]
            assert kinds == ({"sram"} if layer.learnable else {"mram"})

    def test_storage_report_compression(self, small_workload):
        mapper = HybridMapper(NMPattern(1, 4))
        report = mapper.storage_report(small_workload)
        # 1:4 with 12-bit pairs: <= 0.375 of dense plus padding slack
        assert report["compression_ratio"] <= 0.40
        assert report["sram_bytes"] < report["mram_bytes"]

    def test_sparser_pattern_needs_fewer_pes(self, small_workload):
        p14 = HybridMapper(NMPattern(1, 4)).map_workload(small_workload)
        p18 = HybridMapper(NMPattern(1, 8)).map_workload(small_workload)
        assert p18.total_pairs < p14.total_pairs

    def test_paper_scale_fits_single_core(self):
        """Compressed (1:4) 26 MB model fits one 16 MB core — the hybrid's
        headline storage win over the dual-core dense baselines."""
        w = paper_workload()
        mapper = HybridMapper(NMPattern(1, 4))
        report = mapper.storage_report(w)
        assert report["cores_used"] == 1
        assert report["mram_bytes"] < CoreConfig().mram_capacity_bytes


class TestWorkload:
    def test_paper_workload_matches_claims(self):
        w = paper_workload()
        # "around 26MB" dense INT8 storage
        assert 25.0 < w.dense_bytes() / 2**20 < 27.0
        # Rep-Net path ~5% of total weights
        assert 0.03 < w.learnable_fraction < 0.09
        # ResNet-50-scale compute
        assert w.total_macs > 4e9

    def test_compressed_bits_scopes(self):
        w = paper_workload()
        p = NMPattern(1, 4)
        total = w.compressed_bits(p, scope="all")
        frozen = w.compressed_bits(p, scope="frozen")
        learnable = w.compressed_bits(p, scope="learnable")
        assert abs(total - frozen - learnable) <= 24  # rounding slack
        with pytest.raises(ValueError):
            w.compressed_bits(p, scope="everything")

    def test_compressed_vs_dense(self):
        w = paper_workload()
        p = NMPattern(1, 4)
        assert w.compressed_bits(p) < w.compressed_bits(None)
        # 1:4 with 12-bit pairs = 0.375x dense
        assert w.compressed_bits(p) / w.compressed_bits(None) == \
            pytest.approx(0.375, abs=0.01)

    def test_extracted_workload_counts_parameters(self):
        model = build_repnet_model(seed=0)
        w = extract_repnet_workload(model, 16)
        # extraction counts conv/linear weights (biases and BN excluded)
        conv_linear = 0
        for _, mod in model.named_modules():
            if hasattr(mod, "weight") and mod.weight is not None \
                    and mod.weight.ndim >= 2:
                conv_linear += mod.weight.size
        assert w.total_weights == pytest.approx(conv_linear, rel=0.05)

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            LayerWorkload("bad", in_dim=0, out_dim=4)
