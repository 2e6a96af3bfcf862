"""Rules the library's source keeps: no ``except`` broader than the errors it expects."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pixelinv").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _names(node) -> set:
    """The names ``node`` refers to: a name, an attribute, or a tuple of them."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(item, "id", getattr(item, "attr", None)) for item in items}


def broad_catches(source: str) -> list[int]:
    """Lines of a bare ``except:``, an ``except`` naming ``Exception`` or
    ``BaseException`` (alone or in a tuple) and a ``suppress`` of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and (node.type is None or _names(node.type) & BROAD):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "suppress" in _names(node.func):
            if any(_names(arg) & BROAD for arg in node.args):
                lines.append(node.lineno)
    return lines


def test_rule_finds_every_broad_form():
    source = """
try:
    f()
except:
    pass
try:
    f()
except Exception:
    pass
try:
    f()
except (ValueError, builtins.BaseException) as err:
    pass
with contextlib.suppress(KeyError, Exception):
    f()
with suppress(BaseException):
    f()
try:
    f()
except (np.linalg.LinAlgError, ValueError):
    pass
with contextlib.suppress(KeyError):
    f()
"""
    assert broad_catches(source) == [4, 8, 12, 14, 16]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_broad_except(path):
    assert broad_catches(path.read_text(encoding="utf-8")) == []
