"""The benchmark's bindings and smoke workloads, run against the package.

perfbench/tracing.py binds package functions and methods by name when
`perfbench/run.py --trace 1` installs it, and perfbench/workloads.py checks
each workload's output against pinned digests; a name the package no longer
has, or a census whose bytes drift, would otherwise only fail there.  Both
modules are loaded from their files, read-only: the tracer entries are
looked up the way Tracer.install looks them up, and every smoke workload
runs its setup, run and check steps with seed 0.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import levispherical.cli  # noqa: F401  (loads every levispherical module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(filename):
    name = f"perfbench_{Path(filename).stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their class's module up in sys.modules.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads.py")


def package_module(modname):
    return sys.modules[f"levispherical.{modname}"]


def test_traced_functions_resolve():
    tracing = load("tracing.py")
    for _, modname, attr in tracing.FUNCTIONS:
        assert callable(getattr(package_module(modname), attr)), (modname, attr)
    for _, modname, attr in tracing.GENERATORS:
        fn = getattr(package_module(modname), attr)
        assert inspect.isgeneratorfunction(fn), (modname, attr)


def test_traced_methods_resolve():
    tracing = load("tracing.py")
    for _, modname, clsname, attr in tracing.METHODS:
        cls = getattr(package_module(modname), clsname)
        # Tracer.install reads the class __dict__, not inherited attributes.
        assert attr in cls.__dict__, (modname, clsname, attr)


@pytest.mark.parametrize("name", sorted(WORKLOADS.CONFIGS["smoke"]))
def test_smoke_workload_passes_its_checks(name):
    workload = WORKLOADS.CONFIGS["smoke"][name]
    inputs = workload.setup(0)
    verdict = workload.check(0, inputs, workload.run(inputs))
    assert verdict.attempted > 0
    assert verdict.failed == 0 and verdict.problems == [], verdict.problems
