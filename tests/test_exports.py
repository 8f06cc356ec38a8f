"""The package exports its names lazily: each resolves on first access to
the object its module defines, and a bare `import counternet` loads no
submodule."""

import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import counternet

SUBMODULES = ("core", "constructions", "analysis", "vas", "zoo", "fileformat", "cli")


def test_every_exported_name_is_its_defining_modules_object():
    assert len(counternet.__all__) == len(set(counternet.__all__)) == 80
    for name in counternet.__all__:
        module = import_module(f"counternet.{counternet._ORIGIN[name]}")
        value = getattr(counternet, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from counternet import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(counternet.__all__)
    assert all(namespace[name] is getattr(counternet, name) for name in counternet.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'counternet' has no attribute 'nope'"):
        counternet.nope
    assert not hasattr(counternet, "_private")
    with pytest.raises(ImportError):
        exec("from counternet import nope", {})


def test_dir_lists_every_name_before_it_is_resolved(monkeypatch):
    # a name resolves into the module's globals on first access: unbind one
    # export and one submodule so only the module's own __dir__ lists them
    for name in ("accepts", "vas"):
        monkeypatch.delitem(vars(counternet), name, raising=False)
    listed = dir(counternet)
    assert listed == sorted(listed)
    assert {*counternet.__all__, *SUBMODULES} <= set(listed)


def test_bare_import_loads_no_submodule_until_one_is_named():
    # a fresh interpreter: this one has imported every module already
    script = ("import sys, counternet\n"
              "print(sorted(m for m in sys.modules if m.startswith('counternet.')))\n"
              f"for name in {SUBMODULES!r}:\n"
              "    assert getattr(counternet, name) is sys.modules['counternet.' + name], name\n"
              "    assert name in dir(counternet), name\n"
              "print(counternet.__version__)\n")
    src = str(Path(counternet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0.1.0"]


@pytest.mark.parametrize("module, function, removed, constants", [
    ("core", "accepts_naive", {"cap"}, {"_NAIVE_NODES": 1_000_000}),
    ("analysis", "compare_nets_walk", {"node_cap"}, {"_WALK_NODES": 500_000}),
    ("vas", "check_gating", {"max_depth", "node_cap"}, {"_GATING_DEPTH": 12, "_GATING_NODES": 20000}),
    ("vas", "verify_pipeline", {"flat_len"}, {"_FLAT_LEN": 7}),
])
def test_fixed_limits_are_module_constants(module, function, removed, constants):
    # no caller varies these limits, so they are constants, not parameters
    mod = import_module(f"counternet.{module}")
    assert removed.isdisjoint(inspect.signature(getattr(mod, function)).parameters)
    assert {name: getattr(mod, name) for name in constants} == constants
