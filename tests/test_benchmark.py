"""The benchmark's contract with the package: the in-process workloads of
``perfbench/`` answer ``ok`` on their first inputs, run plain and under the
benchmark's tracing wrappers, so that a change to the package cannot leave
the benchmark broken unseen.  The modules are loaded by path and not
changed."""
from __future__ import annotations

import importlib.util

import pytest

from test_acceptance import ROOT

FIRST = 20


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("workloads"), _load("spans")


@pytest.mark.parametrize("name, layer", [
    ("binary-verify", "oracle.ic_chain"),
    ("uniform-verify", "oracle.solve_general_grid"),
    ("design", "oracle.monte_carlo"),
])
def test_first_inputs_are_ok_plain_and_traced(perfbench, name, layer):
    workloads, spans = perfbench
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(1001)[:FIRST]
    ctx = workloads.Context()
    assert [workload.op(item, ctx) for item in inputs] == [workloads.OK] * FIRST
    tracer = spans.Tracer()
    with spans.patched(tracer):
        ctx = workloads.Context(tracer)
        assert [workload.op(item, ctx) for item in inputs] == [workloads.OK] * FIRST
    assert sum(span[spans.NAME] == layer for span in tracer.spans) >= FIRST
