"""DPA103: histogram backing storage is private to ``src/repro/queries/``.

Callers drive a histogram session through its op protocol (``answers`` /
``scale_support`` / ``scale`` / ``fill`` / ``total`` / ``accumulate`` /
``averaged_slices`` / ``close``), so the session alone decides how the
histogram is stored.  Any access outside the queries package to an
attribute in :data:`SESSION_STORAGE_ATTRS` — the session's scale, cells,
accumulator and flushed weights, or a bare ``.array`` / ``._array`` —
would re-couple callers to that storage.  ``np.array(...)`` /
``numpy.array(...)`` constructor calls are exempt — the rule targets
attribute reads on session-like objects, not the numpy API.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register_rule

#: The storage attribute names of ``HistogramSession`` (``h = c·g`` is
#: ``_scale`` times ``_cells``), plus the generic array names.  A test
#: checks that every storage attribute of an open session is listed here.
SESSION_STORAGE_ATTRS = frozenset(
    {"array", "_array", "_cells", "_scale", "_accumulator", "_flushed"}
)


@register_rule
class SessionEncapsulationRule(Rule):
    code = "DPA103"
    name = "session-encapsulation"
    summary = "histogram backing storage stays private to queries/ (session ops only)"
    node_types = (ast.Attribute,)

    def __init__(
        self,
        exempt_prefixes: tuple[str, ...] = ("queries/",),
        forbidden_attrs: frozenset = SESSION_STORAGE_ATTRS,
        numpy_aliases: frozenset = frozenset({"np", "numpy"}),
    ):
        self._exempt_prefixes = exempt_prefixes
        self._forbidden_attrs = forbidden_attrs
        self._numpy_aliases = numpy_aliases

    def applies(self, ctx) -> bool:
        return not ctx.logical.startswith(self._exempt_prefixes)

    def check_node(self, node, ctx):
        if node.attr not in self._forbidden_attrs:
            return
        if isinstance(node.value, ast.Name) and node.value.id in self._numpy_aliases:
            return
        yield ctx.finding(
            self.code,
            node.lineno,
            f".{node.attr} attribute access outside src/repro/queries/ — use the "
            "HistogramSession ops (answers/scale_support/scale/fill/total/"
            "accumulate/averaged_slices) instead of the backing storage",
        )
