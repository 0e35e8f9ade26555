"""Every public name earns its place: something in the package reads it, or
the README names it in a workflow; and the one exception class is the one
for refused input."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import jensenlab
from jensenlab import models, spaces

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


def test_config_error_is_the_one_exception_class():
    """Every refusal is a ConfigError, the one exception class the package
    defines, exported at the top and from experiments."""
    classes = [node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and any(
                   isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
                   for b in node.bases)]
    assert classes == ["ConfigError"]
    assert jensenlab.ConfigError is jensenlab.experiments.ConfigError is jensenlab.spaces.ConfigError


def test_internal_contracts_raise_a_plain_value_error():
    """A broken internal contract is a bug, not a refused input: it raises
    ValueError itself, which the CLI does not turn into exit 2."""
    E2, E3 = spaces.euclidean_space(2), spaces.euclidean_space(3)
    f = models.FunctionModel(domain=E2, codomain=E2, linear=np.eye(2))
    many = models.FunctionModel(domain=E2, codomain=E2, linear=np.stack([np.eye(2)] * 2))
    g = models.FunctionModel(domain=E2, codomain=E3, linear=np.zeros((3, 2)))
    rel = spaces.OrthogonalityRelation(kind="birkhoff_james")
    broken = [
        lambda: spaces.as_batch(np.zeros((4, 3)), 2),
        lambda: spaces.as_point([1.0, 2.0, 3.0], 2),
        lambda: spaces.bj_margin_many(E2, np.ones((2, 2)), np.ones((3, 2))),
        lambda: spaces.is_orthogonal_many(rel, E2, np.ones((2, 2)), np.ones((3, 2))),
        lambda: spaces._quarter_turns(np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 2))),
        lambda: many.eval_many(np.ones((2, 2))),
        lambda: models.jensen_defect_many(f, f, g, models.JensenParams(1, 1, 1),
                                          np.ones((1, 2)), np.ones((1, 2))),
        lambda: models.OddPart(models.ScaledModel(f, 2.0)),
        lambda: models.FunctionModel(domain=E2, codomain=E2, linear=np.zeros((3, 2))),
        lambda: models.RadialTable(knots=[1.0, 0.5], values=[[1.0], [1.0]]),
    ]
    for call in broken:
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError, info.value
