"""The package exports only what the engine uses or the README documents.

A name belongs in ``regcap/__init__.py`` when some module of the package
reads it (an AST ``Name`` or ``Attribute`` load outside ``__init__``) or
when ``README.md`` names it. Anything else is a helper only tests call.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

import regcap

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regcap"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _names_read_by_modules() -> set[str]:
    read: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_export_is_used_or_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    read = _names_read_by_modules()
    unused = [
        name
        for name in _exported_names()
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == [], f"exported but neither used nor documented: {unused}"


def test_every_lower_layer_the_readme_names_is_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(
        r"Lower layers are importable on their own: (.*?)\.\s", readme, re.S
    )
    assert sentence is not None, "README no longer lists the lower layers"
    named = re.findall(r"`(\w+)`", sentence.group(1))
    assert named, "the README sentence names no lower layer"
    missing = [name for name in named if not hasattr(regcap, name)]
    assert missing == [], f"README names lower layers regcap lacks: {missing}"


def test_perfbench_span_targets_resolve(monkeypatch):
    # The benchmark's tracer looks these functions up on regcap's modules by
    # name; a refactor that drops one would crash every traced run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    _, targets = spans.regcap_targets()
    named = set(targets.values())
    wanted = (
        "standardized.rwa_portfolio",
        "irb.params_for_exposure",
        "irb.evaluate_weight",
        "irb.rwa_irb",
        "irb.risk_weight_function",
        "aggregation.compliance",
        "reporting.render_compute_text",
        "reporting.compute_document",
        "reporting.render_json",
    )
    assert [name for name in wanted if name not in named] == []
