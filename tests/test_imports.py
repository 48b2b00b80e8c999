"""Every name a module of the package imports is used in that module, and
the package runs its filters and DCTs without loading scipy's subpackages.

No linter runs on the package, so this walks each module's syntax tree.
``__init__.py`` is left out: its imports are the public re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


_IMPORT_SET_CHILD = """
import sys
import numpy as np
import stereoqa.cli
from stereoqa.kernels import convolve2d, dct2_stack, gaussian_kernel, gaussian_smooth

image = np.arange(64.0 * 64).reshape(64, 64)
gaussian_smooth(image, 5, 1.0)
convolve2d(image, gaussian_kernel(3, 0.8))
dct2_stack(image.reshape(64, 8, 8))
print(" ".join(sorted(sys.modules)))
"""


def test_filters_and_dcts_load_no_scipy_subpackage():
    """The kernels call scipy's compiled modules directly: scipy.ndimage and
    scipy.fft, and what their __init__s pull in, are never imported, and no
    module under them is left in sys.modules."""
    src = os.path.dirname(os.path.dirname(stereoqa.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_SET_CHILD],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "scipy" in loaded
    forbidden = {"scipy.ndimage", "scipy.fft", "scipy.special", "scipy._lib._array_api",
                 "numpy.f2py"}
    bad = sorted(m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden))
    assert not bad, bad
