"""Every public definition in ``src/repro`` is read by the product, not only by tests.

Product files are ``src/repro/**``, ``examples/*.py`` and ``perfbench/*.py``
(``perfbench/tests/`` is tests).  A public top-level function, class or
module constant (such as the experiment registry's ``EXPERIMENTS``)
passes when its name is read — as a loaded name or attribute, or an import
— in a product file.  An import in an ``__init__.py`` is a re-export and
does not count, but code there does (``repro.telemetry``'s API calls
``repro.telemetry.spans``).  Neither does a definition or an assignment to
the name (an alias).  The rule matches names, not calls, so it is a cheap
guard against code that only its own tests reach, not a trace of what the
product runs.

A subpackage's ``__init__.py`` holds its docstring and imports nothing,
apart from the experiment registry and the telemetry API: import a name
from ``repro`` or from the module that defines it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"

PRODUCT_FILES = (
    *sorted(SOURCE.rglob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
)

#: Definitions, as ``module.name``, that no product file reads, each with the reason it stays.
ALLOWED = {
    "repro.mechanisms.laplace.laplace_mechanism": (
        "a charging mechanism API: the privacy accounting adopts or deletes it (ROADMAP item 1)"
    ),
    "repro.mechanisms.composition.advanced_composition": (
        "the privacy accounting adopts or deletes it (ROADMAP item 1)"
    ),
    "repro.telemetry.span_dicts": (
        "the spans' parent links, which the tests check and the run report's span tree "
        "is to read (ROADMAP)"
    ),
    "repro.analysis.lint.check": (
        "CI's stdlib-only step runs it (tests/telemetry/check_stdlib_only.py)"
    ),
}

#: Subpackages whose ``__init__.py`` holds code, not re-exports.
API_PACKAGES = ("experiments", "telemetry")

SUBPACKAGES = tuple(sorted(path.parent.name for path in SOURCE.glob("*/__init__.py")))



def _read_names(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            names.update(node.name.split("."))
    return names


_READ = set().union(*(_read_names(path) for path in PRODUCT_FILES))


def _module(path: Path) -> str:
    parts = path.relative_to(SOURCE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(package: str) -> dict[str, str]:
    """``module.name`` -> name of every public top-level definition in ``package``.

    ``"repro"`` stands for the modules directly under ``src/repro``.
    """
    paths = SOURCE.glob("*.py") if package == "repro" else (SOURCE / package).rglob("*.py")
    definitions = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(node):
                if not name.startswith("_"):
                    definitions[f"{_module(path)}.{name}"] = name
    return definitions


def _unread(package: str) -> set[str]:
    return {key for key, name in _definitions(package).items() if name not in _READ}


@pytest.mark.parametrize("package", ("repro",) + SUBPACKAGES)
def test_every_definition_is_read_by_the_product(package):
    unread = sorted(_unread(package) - set(ALLOWED))
    assert not unread, f"{package} defines names no product file reads: {unread}"


def test_every_allowed_definition_is_still_unread():
    unread = set().union(*(_unread(package) for package in ("repro",) + SUBPACKAGES))
    assert sorted(set(ALLOWED) - unread) == []


@pytest.mark.parametrize(
    "package", [package for package in SUBPACKAGES if package not in API_PACKAGES]
)
def test_subpackage_init_imports_nothing(package):
    path = SOURCE / package / "__init__.py"
    imports = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"{path.relative_to(ROOT)} imports on lines {imports}"
