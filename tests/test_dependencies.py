"""The package depends on numpy alone: every module of src/bimodal
imports only the standard library, numpy and bimodal itself."""

import ast
import glob
import os
import sys

import bimodal

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bimodal"}


def _imports(path):
    """Top-level package names of the absolute imports in a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(bimodal.__file__),
                                          "*.py")))
    assert len(paths) > 1
    outside = {(os.path.basename(p), name) for p in paths
               for name in _imports(p) if name not in ALLOWED}
    assert not outside
    # scipy is a common neighbour of numpy, and not a dependency
    assert "scipy" not in ALLOWED
