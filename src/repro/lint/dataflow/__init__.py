"""Flow-sensitive bit-width & value-range verification (rules R6/R7).

An intra-procedural abstract interpreter over the lint engine's ASTs:
``@width_contract`` declarations (:mod:`repro.core.widths`) give entry
points declared operand/accumulator widths and worst-case reduction
depths; :mod:`.analysis` propagates an interval lattice (:mod:`.intervals`)
through each function's CFG (:mod:`.cfg`) using numpy-aware transfer
functions (:mod:`.transfer`) and cross-function summaries
(:mod:`.summaries`); :mod:`.rules` turns the stabilised facts into R6
(bit-growth) and R7 (width-consistency) findings.
"""

from .analysis import Problem, analyze_function
from .cfg import CFG, Block, build_cfg
from .contracts import (ContractError, WidthContract, extract_contracts,
                        module_int_constants, widths_constants)
from .intervals import BOTTOM, TOP, Interval, const, from_width_spec
from .summaries import SummaryDB
from .transfer import Transfer

__all__ = [
    "BOTTOM", "Block", "CFG", "ContractError", "Interval", "Problem",
    "SummaryDB", "TOP", "Transfer", "WidthContract", "analyze_function",
    "build_cfg", "const", "extract_contracts", "from_width_spec",
    "module_int_constants", "widths_constants",
]
