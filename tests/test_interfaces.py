"""The package interfaces that the benchmark and the demos call.

bench/tracing.py wraps named functions of each layer module from outside
the package, and the demos call the public API as scripts. No other test
runs either, so a renamed function or a changed signature would otherwise
surface only when the benchmark or a demo broke.
"""

import importlib
import importlib.util
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thzpatch

ROOT = Path(__file__).parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load_by_path(ROOT / "bench" / "tracing.py")
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"thzpatch.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"thzpatch.{layer}.{name}"


@pytest.mark.parametrize("name", ["graphene_resonance", "ConductorSpec"])
def test_circuit_binds_the_patch_definition(name):
    # bench/tracing.py wraps a function in every module that binds the same
    # object, so a second definition in circuit would escape traced runs.
    patch = importlib.import_module("thzpatch.patch")
    circuit = importlib.import_module("thzpatch.circuit")
    assert getattr(circuit, name) is getattr(patch, name)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from thzpatch import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(thzpatch.__all__)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


def test_exported_names_are_their_definitions():
    # bench/tracing.py wraps functions by identity, so each exported class
    # and function must be the object its defining module binds.
    exported = [getattr(thzpatch, name) for name in thzpatch.__all__]
    assert [obj for obj in exported if callable(obj) and (
        not obj.__module__.startswith("thzpatch.")
        or getattr(sys.modules[obj.__module__], obj.__name__) is not obj)] \
        == []


def _in_fresh_interpreter(code):
    """What code prints, run by an interpreter that has loaded no layer."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    return run.stdout


# The package root binds its names on first use, so a fresh interpreter has
# none of them bound yet when dir() or pydoc looks.
def test_dir_lists_every_exported_name():
    listed = _in_fresh_interpreter("import thzpatch; print(dir(thzpatch))")
    assert set(thzpatch.__all__) <= set(eval(listed))


def test_pydoc_lists_the_exported_names():
    text = _in_fresh_interpreter(
        "import pydoc, thzpatch\n"
        "print(pydoc.render_doc(thzpatch, renderer=pydoc.plaintext))")
    assert "\n    class GrapheneSheet(" in text
    assert "\n    evaluate(" in text


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        thzpatch.no_such_name
    assert not hasattr(thzpatch, "no_such_name")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out
