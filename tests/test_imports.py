"""Every name a module of the package imports is used in that module.

No linter runs on the package, so this walks each module's syntax tree.
``__init__.py`` is left out: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

import stereoqa

_MODULES = sorted(p for p in pathlib.Path(stereoqa.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .errors import IoError, ParamError\n" \
             "np.zeros(1)\nraise ParamError()\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: IoError"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []
