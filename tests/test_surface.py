"""The package exports exactly the names the README lists, and its
documented example runs.

``README.md``'s Library section says "The package exports exactly the names
listed below", followed by bullets, each opening with its names in
backticks before a colon. Those names and the ones ``regcap/__init__.py``
imports must be the same set: the first two tests check one direction each.
"""

from __future__ import annotations

import ast
import importlib
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regcap"
DATA = Path(__file__).resolve().parent / "data"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)^## ", readme, re.S | re.M)
    assert section is not None, "README has no Library section"
    return section.group(1)


def _readme_export_list() -> list[str]:
    section = _library_section()
    _, found, listed = section.partition("The package exports exactly")
    assert found, "the Library section no longer states the export list"
    heads = re.findall(r"^- (.+?):", listed, re.M)
    return [name for head in heads for name in re.findall(r"`(\w+)`", head)]


def test_every_export_is_used_or_documented():
    # Documented means listed in the README export list; being read by some
    # package module is no longer enough.
    exported, listed = _exported_names(), _readme_export_list()
    assert len(set(listed)) == len(listed), "the README lists a name twice"
    assert sorted(set(exported) - set(listed)) == [], "exported but not in the README"


def test_every_lower_layer_the_readme_names_is_exported():
    # Every name the export list gives, its "Lower layers" bullets included,
    # is imported by ``__init__`` and resolves on the package.
    bullets = r"^Lower layers\b.*?:\n\n((?:- .*\n(?:  .*\n)*)+)"
    lower = re.search(bullets, _library_section(), re.M)
    assert lower is not None, "the export list has no Lower layers bullets"
    assert re.findall(r"^- `(\w+)`", lower.group(1), re.M), "no lower layer is listed"
    exported, listed = _exported_names(), _readme_export_list()
    assert sorted(set(listed) - set(exported)) == [], "in the README but not exported"
    regcap = importlib.import_module("regcap")
    assert [name for name in listed if not hasattr(regcap, name)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", _library_section(), re.S | re.M)
    assert len(blocks) == 1, "the Library section should hold one python example"
    shutil.copy(DATA / "worked_example.csv", tmp_path / "book.csv")
    shutil.copy(DATA / "income_3yr.csv", tmp_path / "income.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("648/8015\n")
    assert "status:            COMPLIANT" in out


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


# Imported only so that perfbench's tracer finds them on the importing module.
TRACED_IMPORTS = {("engine.py", "rwa_irb"), ("fileio.py", "validate_portfolio")}


def test_no_module_imports_a_name_it_never_uses():
    # The unused-import rule of a linter (F401), without the linter. The
    # traced imports are the only exceptions, and each keeps its marker.
    unused, marked = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # it imports to export
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in used:
                    unused.add((path.name, name))
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    marked.add((path.name, name))
    assert sorted(unused - TRACED_IMPORTS) == []
    assert marked == TRACED_IMPORTS
    assert unused >= TRACED_IMPORTS
