"""The tracer's spans, self times and rebinding, and the metric table."""

import json
import os
import sys
import time
import types

import pytest

import run
import workload
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
            with tracer.span("leaf"):
                time.sleep(0.01)
    totals = tracer.totals()
    outer, inner, leaf = totals["outer"], totals["inner"], totals["leaf"]
    assert outer["s"] >= inner["s"] >= leaf["s"] > 0
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-12)
    assert inner["self_s"] == pytest.approx(inner["s"] - leaf["s"], abs=1e-12)
    assert leaf["self_s"] == leaf["s"]


def test_rebinding_counts_calls_and_restores():
    module = types.ModuleType("fake_layer")
    module.solve = lambda cost: sum(cost)
    module.outer = lambda cost: module.solve(cost)
    sys.modules["fake_layer"] = module
    try:
        original = module.solve
        tracer = Tracer()
        tracer.install([
            ("fake_layer", "outer", "layer.assign", lambda a, r: len(a[0])),
            ("fake_layer", "solve", "layer.assign", lambda a, r: len(a[0])),
            ("fake_layer", "gone", "layer.gone", None),
        ])
        assert module.outer([1, 2, 3]) == 6
        assert module.solve([4]) == 4
        tracer.restore()
        assert module.solve is original
        totals = tracer.totals()
        # the nested call through the second name is not counted twice
        assert totals["layer.assign"]["calls"] == 2
        assert totals["layer.assign"]["count"] == 4
        assert tracer.untraced == ["layer.gone"]
    finally:
        del sys.modules["fake_layer"]


def test_failed_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    traced = tracer.wrap(boom, "layer.boom")
    with pytest.raises(ValueError):
        traced()
    with tracer.span("after"):
        pass
    spans = tracer.totals()
    assert spans["layer.boom"]["calls"] == 1
    assert spans["after"]["calls"] == 1


def test_every_binding_exists_in_the_program():
    tracer = Tracer()
    tracer.install(workload.BINDINGS)
    tracer.restore()
    assert tracer.untraced == []


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workload.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workload.per_layer_units()
