"""Tests of the package namespace, which loads each module on first use."""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import ribbonfold
from ribbonfold.errors import InvalidInputError
from ribbonfold.fold_core import ExactAngle
from ribbonfold.formulas import significant
from ribbonfold.render import render_table_figure

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
SUBMODULES = ("errors", "fold_core", "constructions", "formulas", "render")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# heads of the dotted names in README.md that are no part of the package
FOREIGN_HEADS = {"dataclasses", "json", "self", "lay", "pyproject"}


@pytest.mark.parametrize("name", ribbonfold.__all__)
def test_public_name_is_its_home_module_object(name):
    home = ribbonfold._HOME.get(name)
    module = importlib.import_module("ribbonfold." + home) if home else ribbonfold
    assert getattr(ribbonfold, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ribbonfold import *", namespace)
    assert set(ribbonfold.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(ribbonfold.__all__) <= set(dir(ribbonfold))


def test_build_is_the_only_public_builder():
    from ribbonfold import constructions

    for names in (ribbonfold.__all__, constructions.__all__, ribbonfold._EXPORTS["constructions"]):
        assert [name for name in names if name.startswith("build")] == ["build"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ribbonfold.no_such_name
    assert not hasattr(ribbonfold, "no_such_name")


def test_bare_import_loads_no_submodule(tmp_path):
    # in a fresh interpreter, so each access below is the one that loads
    code = (
        "import json, sys, ribbonfold\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ribbonfold.'))\n"
        "resolved = [getattr(ribbonfold, name) is sys.modules['ribbonfold.' + name]\n"
        "            for name in %r]\n"
        "print(json.dumps([loaded, resolved]))\n" % (SUBMODULES,))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded, resolved = json.loads(result.stdout)
    assert loaded == []
    assert resolved == [True] * len(SUBMODULES)


def test_commands_import_neither_dataclasses_nor_inspect():
    # -S keeps site out, so only the package's own imports are counted
    code = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from ribbonfold import braid, cli, constructions, determinant, formulas, knot_id, render\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n" % SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# each once raised a bare TypeError, OverflowError or AttributeError, or,
# for a negative or NaN tolerance, failed only once no angle lay within it
@pytest.mark.parametrize("call,message", [
    (lambda: ExactAngle.from_float(None), "^angle must be a number, got NoneType$"),
    (lambda: ExactAngle.from_float(True), "^angle must be a number, got bool$"),
    (lambda: ExactAngle.from_float(10**400), "^angle must be finite$"),
    (lambda: ExactAngle.from_float(1.0, tolerance="x"), "^tolerance must be a number, got str$"),
    (lambda: ExactAngle.from_float(1.0, tolerance=False), "^tolerance must be a number, got bool$"),
    (lambda: ExactAngle.from_float(1.0, tolerance=-1.0),
     "^tolerance must be finite and nonnegative$"),
    (lambda: ExactAngle.from_float(1.0, tolerance=math.nan),
     "^tolerance must be finite and nonnegative$"),
    (lambda: significant("x"), "^expected a number, got str$"),
    (lambda: significant(True), "^expected a number, got bool$"),
    (lambda: significant(10**400), "^number must lie within the float range$"),
    (lambda: significant(1.0, digits="x"), "^digits must be an int from 1 to 99$"),
    (lambda: significant(1.0, digits=True), "^digits must be an int from 1 to 99$"),
    (lambda: significant(1.0, digits=2**31), "^digits must be an int from 1 to 99$"),
    (lambda: render_table_figure([1]), "^expected a RatioReport, got int$"),
    (lambda: render_table_figure(None), "^expected a list of RatioReport, got NoneType$"),
], ids=["from_float-None", "from_float-bool", "from_float-10**400", "tolerance-str",
        "tolerance-bool", "tolerance-negative", "tolerance-nan", "significant-str",
        "significant-bool", "significant-10**400", "digits-str", "digits-bool",
        "digits-2**31", "table_figure-int", "table_figure-None"])
def test_malformed_public_input_raises_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def readme_dotted_names():
    """Each dotted name inside a backticked span of README.md; a name after
    a slash is a file path's tail, as in ``demos/certify_knots.py``."""
    with open(README, encoding="utf-8") as handle:
        spans = re.findall(r"`([^`\n]+)`", handle.read())
    return sorted({name for span in spans
                   for name in re.findall(r"(?<![\w/.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)})


def _readme_head(head):
    """The package, the submodule or the object of a submodule that a
    name's head names, or None."""
    if head == "ribbonfold":
        return ribbonfold
    modules = sorted(info.name for info in pkgutil.iter_modules(ribbonfold.__path__))
    if head in modules:
        return importlib.import_module("ribbonfold." + head)
    for name in modules:
        namespace = vars(importlib.import_module("ribbonfold." + name))
        if head in namespace and not isinstance(namespace[head], type(ribbonfold)):
            return namespace[head]
    return None


def _resolves(dotted):
    """Whether a name leads to an attribute, or to a field that its class
    annotates, as ``KnotDiagram.crossings`` is one."""
    head, *path, last = dotted.split(".")
    obj = _readme_head(head)
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None and (hasattr(obj, last) or any(
        last in vars(cls).get("__annotations__", {}) for cls in getattr(obj, "__mro__", ())))


def test_readme_dotted_names_resolve():
    names = readme_dotted_names()
    assert "ExactAngle.radians" in names and "KnotDiagram.crossings" in names
    unresolved = [name for name in names
                  if name.split(".")[0] not in FOREIGN_HEADS and not _resolves(name)]
    assert unresolved == []
