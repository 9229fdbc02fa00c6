"""DPA104: designated packages import the standard library only.

``repro.telemetry`` must load in every context — CI containers before
dependencies are installed, minimal installs — so it may
not import numpy, scipy, or anything else third-party.  The same contract
applies to this analysis framework itself (``repro.analysis.static``): the
dependency-free CI check bootstraps it by file path before ``pip install``
runs.  For each covered package the rule allows relative imports, the
standard library, and absolute imports within the package (plus the exact
facade import, e.g. ``from repro import telemetry``).
"""

from __future__ import annotations

import ast
import sys

from ..registry import Rule, register_rule

#: logical-path prefix -> absolute-import prefixes legal inside it.
_DEFAULT_PACKAGES = {
    "telemetry/": ("repro.telemetry",),
    "analysis/static/": ("repro.analysis.static",),
}


def _allowed(full: str, prefixes: tuple[str, ...]) -> bool:
    """``full`` is within a prefix, or an ancestor package of one.

    Ancestors cover facade imports: ``from repro import telemetry`` resolves
    to ``repro.telemetry`` which *is* the prefix, and a bare ``import repro``
    binds only the ancestor package name.
    """
    for prefix in prefixes:
        if full == prefix or full.startswith(prefix + "."):
            return True
        if prefix.startswith(full + "."):
            return True
    return False


@register_rule
class StdlibOnlyRule(Rule):
    code = "DPA104"
    name = "stdlib-only"
    summary = "telemetry/ and analysis/static/ import nothing outside the stdlib"
    node_types = (ast.Import, ast.ImportFrom)

    def __init__(self, packages: dict[str, tuple[str, ...]] | None = None):
        self._packages = dict(_DEFAULT_PACKAGES if packages is None else packages)
        self._prefixes: tuple[str, ...] = ()

    def applies(self, ctx) -> bool:
        for dir_prefix in self._packages:
            if ctx.logical.startswith(dir_prefix):
                return True
        return False

    def start_module(self, ctx):
        for dir_prefix, import_prefixes in self._packages.items():
            if ctx.logical.startswith(dir_prefix):
                self._prefixes = import_prefixes
                break
        return ()

    def check_node(self, node, ctx):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from self._check(ctx, node.lineno, alias.name)
            return
        if node.level:  # relative import — inside the package by definition
            return
        module = node.module or ""
        if _allowed(module, self._prefixes) and not self._within(module):
            # Ancestor package: each imported name must resolve into the
            # covered package (``from repro import telemetry`` yes,
            # ``from repro import queries`` no).
            for alias in node.names:
                yield from self._check(ctx, node.lineno, f"{module}.{alias.name}")
        else:
            yield from self._check(ctx, node.lineno, module)

    def _within(self, full: str) -> bool:
        return any(
            full == prefix or full.startswith(prefix + ".") for prefix in self._prefixes
        )

    def _check(self, ctx, lineno, full):
        top = full.partition(".")[0]
        if top in sys.stdlib_module_names:
            return
        if _allowed(full, self._prefixes):
            return
        yield ctx.finding(
            self.code,
            lineno,
            f"non-stdlib import '{full}' — this package must load with zero "
            "third-party dependencies (stdlib + its own modules only)",
        )
