"""Every library name the benchmark's tracer wraps by string exists.

``perfbench/spans.py`` looks functions and methods up by name when a
traced run (``python3 perfbench/run.py --trace 1``) starts; a renamed or
deleted one would stop that run with AttributeError or KeyError.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))      # spans imports checks
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", PERFBENCH / "spans.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_functions_resolve(spans):
    for mod_name, fn_name, _ in spans.FUNCTIONS:
        module = importlib.import_module("qburau." + mod_name)
        assert callable(getattr(module, fn_name)), (mod_name, fn_name)


def test_methods_resolve(spans):
    for mod_name, cls_name, meth, _ in spans.METHODS:
        cls = getattr(importlib.import_module("qburau." + mod_name), cls_name)
        assert callable(cls.__dict__[meth]), (cls_name, meth)
