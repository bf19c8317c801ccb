"""Rules R8 (reentrancy) and R9 (cache-key completeness).

Both are project rules and run on every ``python -m repro.lint``; they
share one call graph and one effect fixpoint per run
(:func:`~.analysis.analyze_project` caches it on the project context).

R8 — reentrancy
    Every ``@reentrant``-contracted function must be transitively free of
    ``WRITES_GLOBAL``, ``AMBIENT_RNG`` and ``NONDETERMINISTIC_ORDER``.
    Findings carry the concrete witness call chain down to the line that
    introduces the banned effect.  Malformed ``@effects``/``@reentrant``
    declarations are findings too — a broken trust statement must not
    silently disable checking.

R9 — cache-key completeness
    Every config field the DSE evaluate path reads (``config["..."]`` /
    ``cfg["..."]`` subscripts in functions reachable from
    ``evaluate_config``) must appear in ``CONFIG_KEYS`` — the canonical
    cache-key document in ``dse/spec.py`` — and ``normalize_config``'s
    returned dict must carry exactly those keys.  A field read but not
    keyed means two configs differing only in that field share a cache
    entry: silent wrong results, the worst failure mode a cache has.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..astutil import dotted_name
from ..findings import Finding
from ..registry import Rule, register
from .analysis import EffectAnalysis, analyze_project
from .lattice import ALL_EFFECTS, REENTRANT_BANNED, describe

#: Parameter names R9 treats as the sweep-config document.
CONFIG_PARAM_NAMES = frozenset({"config", "cfg"})

#: Where the canonical cache-key tuple lives.
SPEC_SUFFIX = "dse/spec.py"
CONFIG_KEYS_NAME = "CONFIG_KEYS"


@register
class ReentrancyRule(Rule):
    code = "R8"
    name = "reentrancy"
    severity = "error"
    scope = "project"
    description = ("@reentrant functions must be transitively free of "
                   "global writes, ambient RNG and hash-order-dependent "
                   "iteration (interprocedural effect analysis with "
                   "witness chains)")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_project(project)
        for path, line, message in analysis.declaration_errors():
            yield self.finding(path, line, 0, message)
        for summary in analysis.reentrant_functions():
            info = summary.info
            banned = summary.effects & REENTRANT_BANNED
            for effect in (e for e in ALL_EFFECTS if e in banned):
                chain = analysis.format_witness(info.qualname, effect)
                yield self.finding(
                    info.path, summary.facts.reentrant_line or info.line, 0,
                    f"@reentrant {info.qualname!r} has {effect} "
                    f"(summary {describe(summary.effects)}); witness: "
                    f"{chain} — make the leaf explicit-state, or declare "
                    "a trusted @effects(...) summary with a reason")


@register
class CacheKeyCompletenessRule(Rule):
    code = "R9"
    name = "cache-key-completeness"
    severity = "error"
    scope = "project"
    description = ("config fields read by the DSE evaluate path must all "
                   "appear in CONFIG_KEYS (dse/spec.py), and "
                   "normalize_config must emit exactly those keys — else "
                   "distinct configs share a cache entry")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_project(project)
        entries = [q for q in sorted(analysis.summaries)
                   if q.endswith(".evaluate_config")]
        if not entries:
            return
        keys = self._config_keys(project, analysis)
        if keys is None:
            return    # no canonical key document visible: nothing to check
        key_set, spec_path = keys
        reachable = self._reachable(analysis, entries)
        for qualname in sorted(reachable):
            info = analysis.summaries[qualname].info
            for key, line in self._config_reads(info.node):
                if key not in key_set:
                    yield self.finding(
                        info.path, line, 0,
                        f"{info.qualname} reads config[{key!r}] but "
                        f"{CONFIG_KEYS_NAME} in {spec_path} omits it — "
                        "two configs differing only in that field would "
                        "share a cache entry; add the field to "
                        f"{CONFIG_KEYS_NAME} (and normalize_config)")
        yield from self._normalize_checks(project, analysis, key_set,
                                          spec_path)

    # ------------------------------------------------------------- plumbing
    def _reachable(self, analysis: EffectAnalysis,
                   entries: List[str]) -> Set[str]:
        seen: Set[str] = set()
        frontier = list(entries)
        while frontier:
            qualname = frontier.pop()
            if qualname in seen or qualname not in analysis.summaries:
                continue
            seen.add(qualname)
            for edge in analysis.summaries[qualname].facts.edges:
                frontier.append(edge.callee)
        return seen

    def _config_reads(self, fn_node) -> List[Tuple[str, int]]:
        """(key, line) for each config-document field read in the body.

        A config document is a parameter named ``config``/``cfg`` or a
        local assigned from ``normalize_config(...)``; field reads are
        string-literal subscripts and ``.get("literal", ...)`` calls.
        """
        tracked = set()
        args = fn_node.args
        for a in (list(getattr(args, "posonlyargs", [])) + list(args.args)
                  + list(args.kwonlyargs)):
            if a.arg in CONFIG_PARAM_NAMES:
                tracked.add(a.arg)
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee is not None \
                        and callee.split(".")[-1] == "normalize_config":
                    tracked.add(node.targets[0].id)
        if not tracked:
            return []
        reads = []
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in tracked \
                    and isinstance(node.ctx, ast.Load):
                sl = node.slice
                if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                    reads.append((sl.value, node.lineno))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in tracked \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                reads.append((node.args[0].value, node.lineno))
        return reads

    def _config_keys(self, project, analysis: EffectAnalysis
                     ) -> Optional[Tuple[Set[str], str]]:
        """The CONFIG_KEYS tuple, from the linted set or the disk copy."""
        for name in sorted(analysis.graph.modules):
            mod = analysis.graph.modules[name]
            keys = _string_tuple(mod.tree, CONFIG_KEYS_NAME)
            if keys is not None:
                return set(keys), mod.path
        from ..dataflow.contracts import load_project_text
        text = load_project_text(project, SPEC_SUFFIX)
        if text is None:
            return None
        try:
            tree = ast.parse(text)
        except SyntaxError:
            return None
        keys = _string_tuple(tree, CONFIG_KEYS_NAME)
        if keys is None:
            return None
        return set(keys), SPEC_SUFFIX

    def _normalize_checks(self, project, analysis: EffectAnalysis,
                          key_set: Set[str],
                          spec_path: str) -> Iterator[Finding]:
        """normalize_config's dict literal must emit exactly CONFIG_KEYS."""
        for qualname in sorted(analysis.summaries):
            if not qualname.endswith(".normalize_config"):
                continue
            info = analysis.summaries[qualname].info
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Return)
                        and isinstance(node.value, ast.Dict)):
                    continue
                emitted = {k.value for k in node.value.keys
                           if isinstance(k, ast.Constant)
                           and isinstance(k.value, str)}
                for missing in sorted(key_set - emitted):
                    yield self.finding(
                        info.path, node.lineno, 0,
                        f"{info.qualname} omits {missing!r} from its "
                        f"returned dict but {CONFIG_KEYS_NAME} "
                        f"({spec_path}) declares it — the canonical "
                        "cache-key document and the normalizer disagree")
                for extra in sorted(emitted - key_set):
                    yield self.finding(
                        info.path, node.lineno, 0,
                        f"{info.qualname} emits {extra!r} but "
                        f"{CONFIG_KEYS_NAME} ({spec_path}) does not "
                        "declare it — add it to the key document or drop "
                        "it from the normalizer")


def _string_tuple(tree: ast.Module, name: str) -> Optional[List[str]]:
    """The string elements of a top-level ``name = ("a", "b", ...)``."""
    for stmt in tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            target = stmt.target.id
            value = stmt.value
        if target != name:
            continue
        if isinstance(value, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts):
            return [e.value for e in value.elts]
        return None
    return None
