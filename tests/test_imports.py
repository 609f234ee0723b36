"""Module boundaries of the package: no module imports another's private
(underscore) names."""

import ast
import pathlib

import relembed

PACKAGE = pathlib.Path(relembed.__file__).parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name a relembed import pulls in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "relembed":
            continue
        found.extend(
            f"{'.' * node.level}{module}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_detector_sees_relative_and_absolute_private_imports():
    source = (
        "from .data import _err, fmt_reals\n"
        "from relembed.model import _REUSED\n"
        "from __future__ import annotations\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [".data._err", "relembed.model._REUSED"]


def test_no_module_imports_private_names_of_another():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}
