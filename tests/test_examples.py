"""The demos and README's Python example use only names the package has."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def _python_source(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


def _missing_names(source: str) -> list[str]:
    """``from crossmodal... import name`` and ``alias.name`` on an imported
    crossmodal module, where the module has no such name."""
    tree = ast.parse(source)
    aliases = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "crossmodal":
            module = importlib.import_module(node.module)
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                try:
                    aliases[alias.asname or alias.name] = importlib.import_module(submodule)
                except ModuleNotFoundError:
                    if not hasattr(module, alias.name):
                        missing.append(submodule)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and not hasattr(aliases[node.value.id], node.attr):
            missing.append(f"{aliases[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_names_exist(path):
    source = _python_source(path)
    assert "crossmodal" in source
    assert _missing_names(source) == []


def test_drift_is_caught():
    source = "from crossmodal import evaluation as ev\nev.retrieval_between(1)\n"
    assert _missing_names(source) == ["crossmodal.evaluation.retrieval_between"]
