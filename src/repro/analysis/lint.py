"""The DP lint: five AST rules for the code invariants the guarantees rest on.

Each rule is a function of a file's path relative to the ``repro`` package
(``core/pmw.py``) and the file's AST nodes that yields ``(line, message)``
per violation; :data:`RULES` maps each code to its rule.  :func:`check`
parses and walks each file once and hands every rule the same node list.

Tier-1 runs :func:`check` over ``src/repro`` (``tests/analysis/static/``).
``tests/telemetry/check_stdlib_only.py`` loads this file by path and runs
it where nothing third-party is installed, so it imports only the standard
library (DPA104 covers it).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

#: Constructors that mint new generator streams when imported directly.
_CONSTRUCTORS = {"default_rng", "Generator", "RandomState", "SeedSequence"}

#: Generator methods that draw calibrated-noise-shaped samples.
_NOISE_METHODS = {
    "laplace",
    "normal",
    "standard_normal",
    "gumbel",
    "exponential",
    "standard_exponential",
}

#: The storage attribute names of ``HistogramSession`` (``h = c·g`` is
#: ``_scale`` times ``_cells``), plus the generic array names.  A test
#: checks that every storage attribute of an open session is listed here.
SESSION_STORAGE_ATTRS = frozenset(
    {"array", "_array", "_cells", "_scale", "_accumulator", "_flushed"}
)

_BROAD = {"Exception", "BaseException"}


def _dotted_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``, else ``[]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    return parts[::-1]


def rng_discipline(path: str, nodes: list[ast.AST]) -> Iterator[tuple[int, str]]:
    """DPA101: randomness enters only through ``mechanisms/rng.py``.

    Every run replays bitwise from its seed because each generator descends
    from one seeded root via ``resolve_rng``/``spawn_rngs``; a stray stream
    breaks that.  Flags calls through ``numpy.random`` under any alias,
    generator constructors imported from it (and their calls), and the
    stdlib ``random`` module.  The experiments' seeded entry points are exempt.
    """
    if path == "mechanisms/rng.py" or path.startswith("experiments/"):
        return
    numpy_aliases = {"np", "numpy"}
    module_aliases: set[str] = set()  # names bound to numpy.random or stdlib random
    constructor_aliases: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    module_aliases.add(alias.asname)
                elif alias.name == "random":
                    module_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "numpy" and alias.name == "random":
                    module_aliases.add(bound)
                elif node.module == "random" or (
                    node.module == "numpy.random" and alias.name in _CONSTRUCTORS
                ):
                    constructor_aliases.add(bound)

    route = (
        " — route randomness through repro.mechanisms.rng.resolve_rng/spawn_rngs "
        "so every stream descends from the run's seed"
    )
    stdlib = "the stdlib random module is process-global state" + route
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node.lineno, stdlib
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                yield node.lineno, stdlib
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name in _CONSTRUCTORS:
                        yield node.lineno, (
                            f"importing numpy.random.{alias.name} constructs "
                            "generators outside the seed tree" + route
                        )
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in constructor_aliases:
                yield node.lineno, (
                    f"{node.func.id}(...) was imported from a banned randomness module"
                    + route
                )
            chain = _dotted_chain(node.func)
            if (len(chain) >= 3 and chain[0] in numpy_aliases and chain[1] == "random") or (
                len(chain) >= 2 and chain[0] in module_aliases
            ):
                yield node.lineno, f"call through {'.'.join(chain)}" + route


def noise_locality(path: str, nodes: list[ast.AST]) -> Iterator[tuple[int, str]]:
    """DPA102: noise is drawn only inside ``mechanisms/``.

    Flags calls of a generator's noise methods (``rng.laplace(...)``,
    ``.normal``, ``.gumbel``, ...) anywhere else: other code calls a
    mechanism (``laplace_mechanism``, ``sample_laplace``, ...), so every
    draw sits where the Lemma 3.2 budget split can account for it.
    """
    if path.startswith("mechanisms/"):
        return
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _NOISE_METHODS
        ):
            yield node.lineno, (
                f".{node.func.attr}(...) samples noise outside src/repro/mechanisms/ "
                "— noise is drawn only inside mechanisms/; call a mechanism API"
            )


def session_encapsulation(path: str, nodes: list[ast.AST]) -> Iterator[tuple[int, str]]:
    """DPA103: histogram storage is private to ``queries/``.

    Callers drive a session through its ops, so the session alone decides
    how the histogram is stored.  Flags any read of an attribute in
    :data:`SESSION_STORAGE_ATTRS` elsewhere; ``np.array``/``numpy.array``
    are the numpy API, not session storage.
    """
    if path.startswith("queries/"):
        return
    for node in nodes:
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SESSION_STORAGE_ATTRS
            and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        ):
            yield node.lineno, (
                f".{node.attr} attribute access outside src/repro/queries/ — use the "
                "HistogramSession ops (answers/scale_support/scale/fill/total/"
                "accumulate/averaged_slices) instead of the backing storage"
            )


def _inside(module: str, package: str) -> bool:
    """``module`` is ``package`` or one of its submodules."""
    return module == package or module.startswith(package + ".")


def stdlib_only(path: str, nodes: list[ast.AST]) -> Iterator[tuple[int, str]]:
    """DPA104: ``telemetry/`` and this module import only the standard library.

    Both must load where nothing third-party is installed.  Allowed besides
    the standard library: relative imports, the covered package's own
    modules, and its ancestor packages (``import repro``, ``from repro
    import telemetry``; but not ``from repro import queries``).
    """
    own = {"telemetry/": "repro.telemetry", "analysis/lint.py": "repro.analysis.lint"}
    package = next((name for scope, name in own.items() if path.startswith(scope)), None)
    if package is None:
        return
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if package.startswith(node.module + "."):
                # An ancestor package: each imported name must resolve inside.
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                modules = [node.module]
        else:
            continue
        for module in modules:
            if module.partition(".")[0] in sys.stdlib_module_names:
                continue
            if _inside(module, package) or _inside(package, module):
                continue
            yield node.lineno, (
                f"non-stdlib import '{module}' — this package must load with zero "
                "third-party dependencies (stdlib + its own modules only)"
            )


def _is_broad(node: ast.AST | None) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BROAD
    if isinstance(node, ast.Attribute):
        return node.attr in _BROAD
    if isinstance(node, ast.Tuple):
        return any(_is_broad(element) for element in node.elts)
    return False


def exception_hygiene(path: str, nodes: list[ast.AST]) -> Iterator[tuple[int, str]]:
    """DPA106: no bare ``except:`` and no blanket-swallowed exceptions.

    A broad handler is fine when it does something (re-raise, record,
    return a fallback); rejected is a broad type with a body of only
    ``pass``, ``...`` or a docstring, and ``contextlib.suppress(Exception)``.
    """
    for node in nodes:
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, (
                    "bare except: catches KeyboardInterrupt/SystemExit — name "
                    "the exceptions this handler expects"
                )
            elif _is_broad(node.type) and all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in node.body
            ):
                yield node.lineno, (
                    "except Exception: pass swallows every failure — narrow "
                    "the exception type or handle the error"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "suppress" and any(_is_broad(arg) for arg in node.args):
                yield node.lineno, (
                    "contextlib.suppress(Exception) swallows every failure — "
                    "suppress only the exceptions this site expects"
                )


RULES = {
    "DPA101": rng_discipline,
    "DPA102": noise_locality,
    "DPA103": session_encapsulation,
    "DPA104": stdlib_only,
    "DPA106": exception_hygiene,
}


class Finding(NamedTuple):
    """One violation; ``path`` is relative to the package root."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def check(root: Path | str) -> tuple[list[Finding], int]:
    """Run every rule over each ``.py`` file under the package directory ``root``.

    Returns the findings, sorted by path, line and code, and the number of
    files scanned.  A file that does not parse raises ``SyntaxError``.
    """
    root = Path(root)
    files = sorted(root.rglob("*.py"))
    findings: list[Finding] = []
    for file in files:
        path = file.relative_to(root).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        nodes = list(ast.walk(tree))
        for code, rule in RULES.items():
            findings += [Finding(path, line, code, text) for line, text in rule(path, nodes)]
    findings.sort(key=lambda finding: finding[:3])
    return findings, len(files)
