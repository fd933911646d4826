"""Tests of the package namespace, which loads each module on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ribbonfold

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
SUBMODULES = ("errors", "fold_core", "constructions", "formulas", "render")


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
