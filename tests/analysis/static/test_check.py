"""``check``: one parse and one walk per file, ordering, unparseable files."""

from __future__ import annotations

import ast

import pytest


def test_one_parse_and_one_walk_shared_across_rules(scan, monkeypatch):
    parses, walks = [], []
    real_parse, real_walk = ast.parse, ast.walk

    def counting_parse(source, *args, **kwargs):
        parses.append(kwargs.get("filename") or (args[0] if args else None))
        return real_parse(source, *args, **kwargs)

    def counting_walk(node):
        walks.append(node)
        return real_walk(node)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(ast, "walk", counting_walk)
    findings = scan(
        {"core/foo.py": "def f(session, rng):\n    return session._array, rng.laplace(0.0, 1.0)\n"}
    )
    assert [finding.code for finding in findings] == ["DPA102", "DPA103"]
    assert len(parses) == 1
    assert len(walks) == 1


def test_findings_sorted_by_path_line_code(scan):
    findings = scan(
        {
            "queries/z.py": "try:\n    pass\nexcept Exception:\n    pass\n",
            "core/a.py": (
                "def f(session, rng):\n"
                "    x = rng.laplace(0.0, 1.0)\n"
                "    return session._array, x\n"
            ),
        }
    )
    keys = [(f.path, f.line, f.code) for f in findings]
    assert keys == sorted(keys)
    assert [f.code for f in findings] == ["DPA102", "DPA103", "DPA106"]


def test_unparseable_file_raises_syntax_error(scan):
    with pytest.raises(SyntaxError):
        scan({"core/broken.py": "def f(:\n"})
