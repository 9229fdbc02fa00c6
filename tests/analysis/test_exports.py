"""Every name a package exports is used by the product, not only by tests.

Product files are ``src/repro/**``, ``examples/*.py`` and ``perfbench/*.py``
(``perfbench/tests/`` is tests).  An exported name passes when it is read —
as a loaded name or attribute, or an import — in a product file that is not
an ``__init__.py``: a re-export by another package does not count, and
neither does a definition or an assignment to the name (an alias).  The
rule matches names, not calls, so it is a cheap guard against exports that
only their own tests reach, not a trace of what the product runs.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]

PRODUCT_FILES = (
    *sorted((ROOT / "src" / "repro").rglob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
)

#: Exports that no product file uses yet, each with the reason it stays.
ALLOWED = {
    "laplace_mechanism": "a charging mechanism API for the privacy accounting to adopt (ROADMAP)",
    "advanced_composition": "the privacy accounting adopts or deletes it (ROADMAP)",
    "span_dicts": "the spans' parent links, which the tests check and the run report's span tree is to read (ROADMAP)",
}

PACKAGES = ("repro",) + tuple(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
    and hasattr(importlib.import_module(f"repro.{info.name}"), "__all__")
)


def _used_names(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


_USED = set().union(
    *(_used_names(path) for path in PRODUCT_FILES if path.name != "__init__.py")
)


def _unused_exports(package: str) -> set[str]:
    return set(importlib.import_module(package).__all__) - _USED


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_used_by_the_product(package):
    unused = sorted(_unused_exports(package) - set(ALLOWED))
    assert not unused, f"{package} exports names no product file uses: {unused}"


def test_every_allowed_export_is_still_unused():
    unused = set().union(*(_unused_exports(package) for package in PACKAGES))
    assert sorted(set(ALLOWED) - unused) == []
