"""Rules R6 (bit-growth) and R7 (width-consistency).

Both are *opt-in* project rules: ``python -m repro.lint --dataflow``
(or an explicit ``--rules R6,R7``) enables them; the default rule set
is unchanged so the base linter's behaviour is stable.

R6 — bit-growth
    Extracts every ``@width_contract`` declaration in the linted tree,
    builds the summary database, and abstract-interprets each contracted
    function: every reduction's worst-case range must fit the declared
    accumulator, operands must fit callee parameter declarations, and
    returns must fit declared summaries.  Findings carry the concrete
    witness expression and the interval arithmetic behind the bound.

R7 — width-consistency
    Cross-checks the declared contract widths against the resolutions
    the energy model charges for: ``energy/sensing.py`` (stored weight /
    index bits, 1-bit sense-amp resolution) and ``energy/cost.py``
    (per-MAC operand and accumulator widths) must mirror the
    ``repro.core.widths`` constants, and the datapath entry-point
    contracts must declare exactly those widths.  Widening the datapath
    without re-deriving the energy numbers is a lint error.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..astutil import module_assignments
from ..findings import Finding
from ..registry import Rule, register
from .analysis import analyze_function
from .contracts import (WidthContract, extract_contracts,
                        load_project_text, module_int_constants,
                        widths_constants)
from .intervals import spec_bits
from .summaries import SummaryDB

#: Entry-point functions whose contracts must match the widths constants
#: (these are the surfaces the energy model charges for).
ENTRY_POINTS = ("spmm_gather", "spmm_bitserial", "gemm", "matmul")

#: (energy constant, widths constant) pairs per energy module.
SENSING_SUFFIX = "energy/sensing.py"
SENSING_PAIRS = (
    ("SENSED_WEIGHT_BITS", "WEIGHT_BITS"),
    ("SENSED_INDEX_BITS", "INDEX_BITS"),
    ("SENSE_AMP_RESOLUTION_BITS", "PARTIAL_PRODUCT_BITS"),
)
COST_SUFFIX = "energy/cost.py"
COST_PAIRS = (
    ("MAC_WEIGHT_BITS", "WEIGHT_BITS"),
    ("MAC_ACTIVATION_BITS", "ACTIVATION_BITS"),
    ("MAC_ACCUMULATOR_BITS", "ACCUM_BITS"),
)

#: Contract role -> the widths constant an entry point must declare.
ENTRY_ROLE_CONSTANTS = (
    ("inputs", "ACTIVATION_BITS"),
    ("weights", "WEIGHT_BITS"),
    ("accum", "ACCUM_BITS"),
)


def _project_contracts(project) -> Tuple[List[Tuple[WidthContract, object,
                                                    Dict[str, int]]],
                                         List[Finding], Dict[str, int]]:
    """Contracts of every linted file, with their module contexts.

    Returns ``(contract, ctx, module constants)`` triples, extraction-error
    findings (as bare tuples for the caller to stamp), and the widths
    constant table (empty when ``core/widths.py`` is unavailable).
    """
    consts = widths_constants(project) or {}
    pairs: List[Tuple[WidthContract, object, Dict[str, int]]] = []
    errors: List[Tuple[str, int, str]] = []
    for ctx in project.files:
        module_env = dict(consts)
        module_env.update(module_int_constants(ctx.tree))
        contracts, extraction_errors = extract_contracts(
            ctx.tree, ctx.path, module_env)
        pairs.extend((c, ctx, module_env) for c in contracts)
        errors.extend((e.path, e.line, e.message)
                      for e in extraction_errors)
    return pairs, errors, consts


@register
class BitGrowthRule(Rule):
    code = "R6"
    name = "bit-growth"
    severity = "error"
    scope = "project"
    optin = True
    group = "dataflow"
    description = ("every reduction's worst-case range must fit the "
                   "@width_contract accumulator (flow-sensitive interval "
                   "analysis with function summaries)")

    def check_project(self, project) -> Iterator[Finding]:
        pairs, errors, consts = _project_contracts(project)
        for path, line, message in errors:
            yield self.finding(path, line, 0, message)
        if not pairs:
            return
        db = SummaryDB([c for c, _, _ in pairs], consts, project.call_graph)
        for contract, ctx, env in pairs:
            for problem in analyze_function(contract, db, env, ctx.tree,
                                            ctx.source):
                yield self.finding(contract.path, problem.line,
                                   problem.col, problem.message)
        for error in db.errors:
            yield self.finding(error.path, error.line, 0, error.message)


@register
class WidthConsistencyRule(Rule):
    code = "R7"
    name = "width-consistency"
    severity = "error"
    scope = "project"
    optin = True
    group = "dataflow"
    description = ("@width_contract widths on datapath entry points must "
                   "match repro.core.widths, which the energy model "
                   "(energy/sensing.py, energy/cost.py) must mirror")

    def check_project(self, project) -> Iterator[Finding]:
        widths = widths_constants(project)
        if widths is None:
            return   # nothing checkable without the constants module
        yield from self._energy_checks(project, SENSING_SUFFIX,
                                       SENSING_PAIRS, widths)
        yield from self._energy_checks(project, COST_SUFFIX,
                                       COST_PAIRS, widths)
        yield from self._entry_point_checks(project, widths)

    # --------------------------------------------------------- energy side
    def _energy_checks(self, project, suffix: str, checked_pairs,
                       widths: Dict[str, int]) -> Iterator[Finding]:
        located = self._locate(project, suffix)
        if located is None:
            return
        path, tree = located
        declared = module_int_constants(tree)
        lines = {name: stmt.lineno
                 for name, _, stmt in module_assignments(tree.body)}
        for energy_name, widths_name in checked_pairs:
            expected = widths.get(widths_name)
            if expected is None:
                continue
            actual = declared.get(energy_name)
            if actual is None:
                yield self.finding(
                    path, 1, 0,
                    f"{suffix} declares no {energy_name} (must mirror "
                    f"widths.{widths_name} = {expected} so the energy "
                    "model charges for the datapath it simulates)")
            elif actual != expected:
                yield self.finding(
                    path, lines.get(energy_name, 1), 0,
                    f"{energy_name} = {actual} disagrees with "
                    f"widths.{widths_name} = {expected}; the per-op "
                    "energies were derived for the declared datapath "
                    "width — re-derive them or fix the constant")

    def _locate(self, project, suffix: str
                ) -> Optional[Tuple[str, ast.Module]]:
        ctx = project.find(suffix)
        if ctx is not None:
            return ctx.path, ctx.tree
        text = load_project_text(project, suffix)
        if text is None:
            return None
        try:
            return suffix, ast.parse(text)
        except SyntaxError:
            return None

    # ------------------------------------------------------- datapath side
    def _entry_point_checks(self, project, widths: Dict[str, int]
                            ) -> Iterator[Finding]:
        pairs, _, _ = _project_contracts(project)
        for contract, _, _ in pairs:
            if contract.name not in ENTRY_POINTS:
                continue
            for role, widths_name in ENTRY_ROLE_CONSTANTS:
                declared = getattr(contract, role)
                expected = widths.get(widths_name)
                if declared is None or expected is None:
                    continue
                bits = spec_bits(declared)
                if bits is None or bits == expected:
                    continue
                yield self.finding(
                    contract.path, contract.line, 0,
                    f"entry point {contract.qualname!r} declares "
                    f"{role}={declared!r} but widths.{widths_name} = "
                    f"{expected}, which is the resolution the energy "
                    f"model charges for ({SENSING_SUFFIX}, {COST_SUFFIX})"
                    " — update repro.core.widths and re-derive the "
                    "energy constants together")

