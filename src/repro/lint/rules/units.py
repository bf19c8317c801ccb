"""R2 — unit discipline: every energy/time/power figure declares its unit.

The whole :mod:`repro.energy` package speaks picojoules and nanoseconds by
convention; a single mis-scaled constant corrupts every EDP comparison
downstream (Fig. 7/8).  R2 enforces two habits:

* a public function/property whose name says it yields an energy, delay,
  latency, power, current or area either carries a unit suffix
  (``_pj``, ``_ns``, ``_mw``, …) or states the unit in its docstring;
* bare magnitude literals (``1e-9``-style unit conversions) do not appear
  inline — they belong in :mod:`repro.energy.units` /
  :mod:`repro.energy.tech` as *named* constants.  Named module constants
  (UPPER_CASE assignments) and dataclass field defaults are exempt: the
  name is the declaration.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..astutil import is_numeric_constant, module_constant_nodes
from ..findings import Finding
from ..registry import Rule, register

#: Function-name stems that promise a unit-bearing return value.
UNIT_BEARING_STEMS = ("energy", "latency", "delay", "power", "current",
                      "leakage", "area")

#: Name suffix tokens accepted as unit declarations.
UNIT_SUFFIX_TOKENS = frozenset({
    "pj", "fj", "nj", "uj", "j", "ns", "us", "ms", "s", "cycles", "cycle",
    "hz", "mhz", "ghz", "mw", "uw", "w", "ua", "ma", "a", "v", "mv", "ohm",
    "mm2", "um2", "bit", "bits", "bytes", "years", "ratio", "fraction",
})

#: Docstring tokens accepted as unit declarations.
_UNIT_DOC_RE = re.compile(
    r"(?:\b(?:pJ|fJ|nJ|µJ|uJ|ns|µs|us|ms|mW|µW|uW|µA|uA|mA|mV|ohm|Ω|GHz|MHz|"
    r"cycles?|seconds?|years?|pico[jJ]oules?|nano[sJ])\b"
    r"|mm\^?2|µm\^?2|um\^?2|mm²|µm²|um²)")

#: Files that *define* the named constants and are exempt from the
#: magnitude-literal check.
CONSTANT_HOMES = ("repro/energy/tech.py", "repro/energy/units.py")

#: |value| at or beyond these magnitudes reads as a unit conversion.
MAGNITUDE_HI = 1e6
MAGNITUDE_LO = 1e-6


def _has_unit_suffix(name: str) -> bool:
    tokens = name.lower().split("_")
    return any(tok in UNIT_SUFFIX_TOKENS for tok in tokens)


def _is_unit_bearing(name: str) -> bool:
    lowered = name.lower()
    return any(stem in lowered for stem in UNIT_BEARING_STEMS)


@register
class UnitDisciplineRule(Rule):
    code = "R2"
    name = "unit-discipline"
    severity = "warning"
    scope = "file"
    description = ("energy/delay functions declare pJ/ns units; no inline "
                   "magnitude-conversion literals in repro/energy")

    def applies_to(self, path: str) -> bool:
        return "repro/energy/" in path or path.startswith("repro/energy/")

    def check_file(self, ctx) -> Iterator[Finding]:
        yield from self._check_docstrings(ctx)
        if not any(ctx.path == home or ctx.path.endswith("/" + home)
                   for home in CONSTANT_HOMES):
            yield from self._check_literals(ctx)

    # ------------------------------------------------------- docstring check
    def _check_docstrings(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_"):
                continue
            if not _is_unit_bearing(name):
                continue
            if _has_unit_suffix(name):
                continue
            doc = ast.get_docstring(node) or ""
            if _UNIT_DOC_RE.search(doc):
                continue
            yield self.finding(
                ctx.path, node.lineno, node.col_offset,
                f"`{name}` returns a unit-bearing quantity but neither its "
                f"name (e.g. `{name}_pj`) nor its docstring declares the "
                f"unit (pJ/ns/mW/mm^2/...)")

    # --------------------------------------------------------- literal check
    def _check_literals(self, ctx) -> Iterator[Finding]:
        allowed = module_constant_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not is_numeric_constant(node) or id(node) in allowed:
                continue
            value = abs(float(node.value))
            if value >= MAGNITUDE_HI or 0.0 < value <= MAGNITUDE_LO:
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"magnitude literal {node.value!r} looks like an inline "
                    f"unit conversion — use a named constant from "
                    f"repro.energy.units / repro.energy.tech")
