"""Datapath bit-width constants and the ``@width_contract`` declaration.

This module is the *single source of truth* for the integer widths the
functional simulator implements and the energy model charges for:

* INT8 weights and activations (paper Sec. 3.1: "8-bit weight, 4-bit
  index" pairs, bit-serial INT8 activations);
* 1-bit comparator-gated partial products (the 8T AND / MUX-select
  output that the all-digital sense path resolves);
* 64-bit numpy accumulators in the kernel layer, whose headroom against
  worst-case ``bits x lanes x column-height`` growth is *proved* by the
  flow-sensitive verifier in :mod:`repro.lint.dataflow` (rule R6) and
  cross-checked against :mod:`repro.energy.sensing` / to
  :mod:`repro.energy.cost` (rule R7).

:func:`width_contract` is a no-op at runtime beyond attaching metadata;
the lint dataflow pass reads the same declaration from the AST.  Keeping
the decorator in ``repro.core`` (not ``repro.lint``) means the datapath
modules never import the analysis that checks them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

#: Signed activation width the PEs consume (INT8, two's complement).
ACTIVATION_BITS = 8

#: Signed stored-weight width (INT8, two's complement).
WEIGHT_BITS = 8

#: Unsigned intra-group index width (N:M patterns up to m=16).
INDEX_BITS = 4

#: Signed accumulator width of the functional kernels (numpy int64).
ACCUM_BITS = 64

#: Width of one comparator-gated partial product (the in-array AND output
#: that the all-digital sense amplifiers resolve — 1 bit, no ADC).
PARTIAL_PRODUCT_BITS = 1

#: Bit-serial plane decomposition is exercised (and proven exact) for
#: every signed width in [BITSERIAL_MIN_BITS, BITSERIAL_MAX_BITS].
BITSERIAL_MIN_BITS = 2
BITSERIAL_MAX_BITS = 16

#: Global bound on the fan-in of any single reduction the kernel layer
#: performs (worst-case CSC column height after spill; every plan the
#: mapper emits is orders of magnitude below this).
MAX_REDUCTION_DEPTH = 1 << 20

#: Bound on how many row tiles one logical GEMM accumulates across
#: (:meth:`repro.core.accelerator.HybridAccelerator.gemm`).
MAX_ROW_TILES = 1 << 12

#: Attribute name the decorator stores its metadata under.
WIDTH_CONTRACT_ATTR = "__width_contract__"

#: Keyword arguments :func:`width_contract` accepts.
CONTRACT_FIELDS = ("inputs", "weights", "accum", "depth", "returns",
                   "bounds", "params")


def width_contract(inputs: Optional[str] = None,
                   weights: Optional[str] = None,
                   accum: Optional[str] = None,
                   depth: Optional[str] = None,
                   returns: Optional[str] = None,
                   bounds: Optional[Mapping[str, int]] = None,
                   params: Optional[Mapping[str, str]] = None):
    """Declare the bit-width contract of a datapath entry point.

    ``inputs`` / ``weights`` / ``accum``
        Width specs (``"i8"`` signed 8-bit, ``"u1"`` unsigned 1-bit, ...)
        for the activation operand, the stored operand and the
        accumulator the function's reductions must fit in.
    ``depth``
        Worst-case reduction fan-in as an expression over named bounds
        and :mod:`repro.core.widths` constants (e.g.
        ``"MAX_ROW_TILES * BITSERIAL_MAX_BITS"``).
    ``returns``
        Worst-case magnitude of the return value: a width spec, an
        expression, or the name of another contracted function whose
        declared return range this one inherits.
    ``bounds``
        Upper bounds for free names used in expressions and seeded into
        the abstract environment (``{"bits": BITSERIAL_MAX_BITS}``).
    ``params``
        Environment declarations: variable names (dotted allowed, e.g.
        ``"plan.gather_values"``) pinned to a role (``"inputs"`` /
        ``"weights"``) or a direct width spec.  The verifier treats these
        as trusted range assertions — they are exactly what the runtime
        guards (``require_integer_activations`` et al.) enforce.

    The decorated function is returned unchanged apart from a metadata
    attribute; ``repro.lint.dataflow`` re-reads the declaration from the
    source AST, so the contract is checkable without importing the code.
    """
    spec: Dict[str, Union[str, Mapping]] = {}
    for key, value in (("inputs", inputs), ("weights", weights),
                       ("accum", accum), ("depth", depth),
                       ("returns", returns)):
        if value is not None:
            if not isinstance(value, str):
                raise TypeError(f"width_contract {key}= must be a string")
            spec[key] = value
    if bounds is not None:
        if not all(isinstance(k, str) and isinstance(v, int)
                   and not isinstance(v, bool)
                   for k, v in dict(bounds).items()):
            raise TypeError("width_contract bounds= maps names to ints")
        spec["bounds"] = dict(bounds)
    if params is not None:
        if not all(isinstance(k, str) and isinstance(v, str)
                   for k, v in dict(params).items()):
            raise TypeError("width_contract params= maps names to specs")
        spec["params"] = dict(params)

    def decorate(fn):
        setattr(fn, WIDTH_CONTRACT_ATTR, spec)
        return fn

    return decorate
