"""The benchmark's view of the package: every workload item and traced span.

``perfbench/`` drives ``fpeps`` through module attributes and checks every
result.  Running each workload here at its tiny sizes, in this process,
makes an API change that breaks the benchmark fail the test suite.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import fpeps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_items_pass_their_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, tiny=True, root=tmp_path)
    try:
        assert workload.items
        for item in [workload.warmup, *workload.items]:
            item.check(item.call())
    finally:
        workload.close()


def test_traced_spans_resolve_on_the_package():
    for spec in tracing.SPANS:
        owner = getattr(fpeps, spec.module)
        for part in spec.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), spec.name
