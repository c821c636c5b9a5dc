"""Every name the benchmark tracer wraps still exists in the package.

perfbench/tracing.py binds package functions and methods by name when
`perfbench/run.py --trace 1` installs it; a name the package no longer has
would only fail there.  The tracer module is loaded from its file, read-only,
and each entry is looked up the way Tracer.install looks it up.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import levispherical.cli  # noqa: F401  (loads every levispherical module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(modname):
    return sys.modules[f"levispherical.{modname}"]


def test_traced_functions_resolve():
    tracing = load_tracing()
    for _, modname, attr in tracing.FUNCTIONS:
        assert callable(getattr(package_module(modname), attr)), (modname, attr)
    for _, modname, attr in tracing.GENERATORS:
        fn = getattr(package_module(modname), attr)
        assert inspect.isgeneratorfunction(fn), (modname, attr)


def test_traced_methods_resolve():
    tracing = load_tracing()
    for _, modname, clsname, attr in tracing.METHODS:
        cls = getattr(package_module(modname), clsname)
        # Tracer.install reads the class __dict__, not inherited attributes.
        assert attr in cls.__dict__, (modname, clsname, attr)
