"""Every public name earns its place: something in the package reads it, or
the README names it in a workflow."""

import ast
import re
from pathlib import Path

import jensenlab

PACKAGE = Path(jensenlab.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _read_names():
    """Names loaded, and attributes taken, anywhere in the package outside __init__."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_export_is_read_in_the_package_or_named_in_the_readme():
    exports, read = _exports(), _read_names()
    readme = README.read_text(encoding="utf-8")
    assert len(exports) > 50
    unused = [n for n in exports if n not in read and not re.search(rf"\b{n}\b", readme)]
    assert unused == []
