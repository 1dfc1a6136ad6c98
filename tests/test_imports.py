"""Every name a package module binds with ``import`` is used there.

No linter ships with the project, so this test walks each module's syntax
tree: an ``import x`` or ``from ... import`` that no expression, annotation
or ``__all__`` entry reads is dead weight and fails the suite.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kleincode"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    src = ("from a import used, unused\n"
           "from b import annotated\n"
           "from . import mod\n"
           "import operator\n"
           "import numpy as np\n"
           "import os.path\n"
           "def f(x: annotated):\n"
           "    return used(mod.attr, np.zeros(1), os.path.sep)\n")
    assert unused_imports(src) == [(1, "unused"), (4, "operator")]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []
