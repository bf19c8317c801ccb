"""The timed layer entry points, and where their callers look them up.

Each :class:`Layer` names one public function by its ``repro.`` module
path and lists the ``(module[:Class], attribute)`` lookups to wrap.  A
module-level function is wrapped in every module that imported it by
name (that module's global is what its callers read); a method is wrapped
on its class.  :func:`install` wraps them all, so a traced run of any
workload records every layer it reaches and zero calls for the rest.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .spans import After, Before, Recorder, Span, SpanStore, aggregate


class Layer:
    """One timed function: metric name, lookup sites, optional hooks."""

    def __init__(self, name: str, sites: Sequence[Tuple[str, str]],
                 moves: str):
        self.name = name
        self.sites = tuple(sites)
        #: The end-to-end metric (and workload) this layer should move.
        self.moves = moves


LAYERS: Tuple[Layer, ...] = (
    # dse.spec
    Layer("repro.dse.spec.normalize_config",
          [("repro.dse.engine", "normalize_config"),
           ("repro.dse.evaluate", "normalize_config"),
           ("repro.serve.schemas", "normalize_config")],
          "op_p50_ms on dse-null, dse-cold, dse-warm (warm most)"),
    Layer("repro.dse.spec.config_key",
          [("repro.dse.engine", "config_key"),
           ("repro.dse.evaluate", "config_key"),
           ("repro.serve.api", "config_key")],
          "op_p50_ms on dse-null, dse-cold, dse-warm (warm most)"),
    # dse.evaluate + core.designs
    Layer("repro.dse.evaluate.evaluate_config",
          [("repro.dse.engine", "evaluate_config")],
          "op_p50_ms on dse-null and dse-cold; ~0 on serve"),
    Layer("repro.core.designs.HybridSparseDesign.area",
          [("repro.core.designs:HybridSparseDesign", "area")],
          "op_p50_ms on dse-null and dse-cold"),
    Layer("repro.core.designs.HybridSparseDesign.inference",
          [("repro.core.designs:HybridSparseDesign", "inference")],
          "op_p50_ms on dse-null and dse-cold"),
    Layer("repro.core.designs.HybridSparseDesign.training_step",
          [("repro.core.designs:HybridSparseDesign", "training_step")],
          "op_p50_ms on dse-null and dse-cold"),
    # dse.cache
    Layer("repro.dse.cache.DiskCache.lookup",
          [("repro.dse.cache:DiskCache", "lookup")],
          "op_p50_ms on dse-warm; op_p50_ms on serve"),
    Layer("repro.dse.cache.DiskCache.store",
          [("repro.dse.cache:DiskCache", "store")],
          "op_p50_ms on dse-cold; op_p50_ms on serve"),
    # dse.pareto
    Layer("repro.dse.pareto.pareto_reduce",
          [("repro.dse.engine", "pareto_reduce")],
          "op_p50_ms on every dse workload equally"),
    # dse.engine (the cache-through core shared by sweeps and serve)
    Layer("repro.dse.engine.evaluate_batch",
          [("repro.dse.engine", "evaluate_batch"),
           ("repro.serve.batching", "evaluate_batch")],
          "op_p50_ms, op_tail_ms, ops_per_s on serve"),
    # serve.api / serve.schemas / serve.batching
    Layer("repro.serve.api.ServeApp.dispatch",
          [("repro.serve.api:ServeApp", "dispatch")],
          "op_p50_ms, ops_per_s on serve"),
    Layer("repro.serve.schemas.validate_evaluate_request",
          [("repro.serve.api", "validate_evaluate_request")],
          "op_p50_ms, ops_per_s on serve"),
    Layer("repro.serve.batching.BatchingQueue.submit",
          [("repro.serve.batching:BatchingQueue", "submit")],
          "op_p50_ms, op_tail_ms, ops_per_s on serve"),
    # nn.functional
    Layer("repro.nn.functional.conv2d",
          [("repro.nn.functional", "conv2d")], "op_p50_ms on train-table1"),
    Layer("repro.nn.functional.im2col",
          [("repro.nn.functional", "im2col")], "op_p50_ms on train-table1"),
    Layer("repro.nn.functional.col2im",
          [("repro.nn.functional", "col2im")], "op_p50_ms on train-table1"),
    Layer("repro.nn.functional.max_pool2d",
          [("repro.nn.functional", "max_pool2d")],
          "op_p50_ms on train-table1"),
    Layer("repro.nn.functional.linear",
          [("repro.nn.functional", "linear")], "op_p50_ms on train-table1"),
    Layer("repro.nn.functional.cross_entropy",
          [("repro.nn.functional", "cross_entropy")],
          "op_p50_ms on train-table1"),
    # nn.tensor / nn.optim / repnet.continual
    Layer("repro.nn.tensor.Tensor.backward",
          [("repro.nn.tensor:Tensor", "backward")],
          "op_p50_ms on train-table1"),
    Layer("repro.nn.optim.Adam.step",
          [("repro.nn.optim:Adam", "step")], "op_p50_ms on train-table1"),
    Layer("repro.repnet.continual.evaluate",
          [("repro.repnet.continual", "evaluate"),
           ("repro.harness.table1", "evaluate")],
          "op_p50_ms on train-table1"),
    # core.accelerator / core.transpose_pe
    Layer("repro.core.accelerator.HybridAccelerator.load_gemm",
          [("repro.core.accelerator:HybridAccelerator", "load_gemm")],
          "setup_s on sim-step"),
    Layer("repro.core.accelerator.HybridAccelerator.gemm",
          [("repro.core.accelerator:HybridAccelerator", "gemm")],
          "op_p50_ms on sim-step"),
    Layer("repro.core.accelerator.HybridAccelerator.propagate_error",
          [("repro.core.accelerator:HybridAccelerator", "propagate_error")],
          "op_p50_ms on sim-step"),
    Layer("repro.core.accelerator.HybridAccelerator.weight_gradient",
          [("repro.core.accelerator:HybridAccelerator", "weight_gradient")],
          "op_p50_ms on sim-step"),
    Layer("repro.core.accelerator.HybridAccelerator.update_gemm",
          [("repro.core.accelerator:HybridAccelerator", "update_gemm")],
          "op_p50_ms on sim-step"),
    # core.kernels / PEs
    Layer("repro.core.kernels.spmm_gather",
          [("repro.core.mram_pe", "spmm_gather")], "op_p50_ms on sim-step"),
    Layer("repro.core.kernels.spmm_bitserial",
          [("repro.core.sram_pe", "spmm_bitserial")],
          "op_p50_ms on sim-step"),
    Layer("repro.core.sram_pe.SRAMSparsePE.load",
          [("repro.core.sram_pe:SRAMSparsePE", "load")],
          "op_p50_ms and setup_s on sim-step"),
    Layer("repro.core.mram_pe.MRAMSparsePE.load",
          [("repro.core.mram_pe:MRAMSparsePE", "load")],
          "setup_s on sim-step"),
)


def _rid_from_path(args: tuple, kwargs: dict, store: SpanStore
                   ) -> Tuple[object, Optional[int]]:
    """``ServeApp.dispatch(self, method, path, body)``: the client put its
    request's run id in the query string; parent the span under it."""
    path = kwargs.get("path", args[2] if len(args) > 2 else "")
    values = parse_qs(urlsplit(path).query).get("rid")
    if not values:
        return None, None
    rid = int(values[0])
    return rid, store.op_index(rid)


def _batch_index(span: Span, result: object) -> None:
    """``BatchingQueue.submit`` returns ``(record, served, batch_info)``."""
    span.attrs["batch"] = result[2].get("index")


def _resolve(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(store: SpanStore) -> Recorder:
    """Wrap every layer; returns the recorder whose ``uninstall`` undoes it."""
    recorder = Recorder(store)
    for layer in LAYERS:
        before: Optional[Before] = None
        after: Optional[After] = None
        if layer.name == "repro.serve.api.ServeApp.dispatch":
            def before(args, kwargs):
                return _rid_from_path(args, kwargs, store)
        if layer.name == "repro.serve.batching.BatchingQueue.submit":
            after = _batch_index
        for site, attr in layer.sites:
            recorder.wrap(_resolve(site), attr, layer.name, before=before,
                          after=after)
    return recorder


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``calls`` and total ``self_ms`` for every layer (zeros when the
    workload never reached it)."""
    seen = aggregate(spans)
    return {layer.name: {key: seen.get(layer.name, {}).get(key, 0)
                         for key in ("calls", "self_ms")}
            for layer in LAYERS}


def queue_wait_ms(spans: Sequence[Span]) -> float:
    """Total time requests waited in the batching queue: each submit's
    duration minus the ``evaluate_batch`` call of the batch it joined.

    The batching worker runs batches one at a time, so the ``k``-th
    ``evaluate_batch`` span is batch index ``k`` of the submit replies.
    """
    batches = sorted((s for s in spans
                      if s.name == "repro.dse.engine.evaluate_batch"),
                     key=lambda s: s.start)
    total = 0
    for s in spans:
        index = s.attrs.get("batch")
        if s.name == "repro.serve.batching.BatchingQueue.submit" and index:
            total += s.duration - batches[index - 1].duration
    return total / 1e6
