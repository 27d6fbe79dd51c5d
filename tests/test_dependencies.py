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


def _siblings(path):
    """The bimodal modules a module imports, relative or absolute."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("bimodal."))
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                yield node.module.split(".")[0]
            elif node.level:
                yield from (a.name for a in node.names)
            elif node.module.startswith("bimodal."):
                yield node.module.split(".")[1]
            elif node.module == "bimodal":
                yield from (a.name for a in node.names)


def test_layers_import_downwards():
    # graphs is the bottom layer; synth builds encoders, which verify,
    # io and spectra read or precede without importing it
    root = os.path.dirname(bimodal.__file__)
    imports = {name: set(_siblings(os.path.join(root, name + ".py")))
               for name in ("graphs", "spectra", "verify", "io", "synth")}
    assert imports["graphs"] == set()
    assert not {name for name, got in imports.items() if "synth" in got}
    # synth builds and verify alone judges what it built
    assert imports["synth"] == {"graphs", "spectra"}
    # the guard reads every import form
    assert imports["verify"] >= {"graphs", "spectra"}


def test_only_the_cli_touches_the_collector():
    # main pauses the cyclic collector around a command; library calls
    # never touch it, so the pause has one home
    paths = glob.glob(os.path.join(os.path.dirname(bimodal.__file__),
                                   "*.py"))
    users = {os.path.basename(p) for p in paths if "gc" in _imports(p)}
    assert users == {"cli.py"}
