"""Span arithmetic, namespace coverage and restoration of the tracer."""

import json
from array import array
from pathlib import Path

import pytest

import child
import run
import workloads
from cohomolab import ansatz, cli, cocycles, operators, poly, report, symbols
from tracer import Tracer, span_stats


def test_self_time_on_a_synthetic_nested_span_set():
    # a [0,100] contains b [10,40] (which contains a nested a [15,25]) and c [50,90]
    names = array("i", [0, 1, 0, 2])
    parents = array("i", [-1, 0, 1, 0])
    starts = array("q", [0, 10, 15, 50])
    ends = array("q", [100, 40, 25, 90])
    stats = span_stats(names, parents, starts, ends)
    assert stats[0] == (2, 100, (100 - 30 - 40) + 10)  # recursion not counted twice
    assert stats[1] == (1, 30, 30 - 10)
    assert stats[2] == (1, 40, 40)


def bindings(target, namespaces):
    if isinstance(target.owner, type):
        return {(target.owner, target.attr): target.owner.__dict__[target.attr]}
    original = getattr(target.owner, target.attr)
    return {(ns, attr): value for ns in namespaces
            for attr, value in vars(ns).items() if value is original}


def test_traced_run_covers_every_binding_and_restores_the_originals():
    namespaces = child.package_namespaces()
    before = {}
    for target in child.TARGETS:
        before.update(bindings(target, namespaces))
    original_mul = poly.Poly.__mul__
    jobs = [workloads.identity_job("gamma1", workloads.SWEEP_COCYCLES["gamma1"], 2)]
    with Tracer(child.TARGETS, namespaces) as tracer:
        assert poly.Poly.__mul__ is not original_mul
        for ns in (ansatz, report):
            assert ns.schouten_bracket.__wrapped__ is symbols.schouten_bracket.__wrapped__
        assert operators.check_term_budget.__wrapped__ is poly.check_term_budget.__wrapped__
        for ns in (report, cli):
            assert ns.cocycle_check.__wrapped__ is cocycles.cocycle_check.__wrapped__
        records = child.run_jobs(jobs, child.load_references(), tracer)
    assert records[0]["error"] is None
    stats = tracer.stats()
    # cocycle_check imports schouten_bracket inside its body
    assert stats["symbols.schouten_bracket"]["calls"] > 0
    assert stats["poly.check_term_budget"]["calls"] > 0
    assert stats["cocycles.cocycle_check"]["pairs"] == 435
    assert poly.Poly.__mul__ is original_mul
    for (owner, attr), value in before.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is value


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    layer = {f"{name}.{stat}" for name, stats in child.LAYER_STATS.items() for stat in stats}
    assert {m["name"] for m in spec["per_layer"]} == layer | {"trace.overhead_s"}
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert spec["workloads"] == [{"name": w, "why": spec["workloads"][i]["why"]}
                                 for i, w in enumerate(run.WORKLOADS)]


def test_tail_is_the_highest_rank_with_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 31)]) == (20.0, 66)
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90)


def test_times_are_scaled_by_the_probes_next_to_them():
    ref = run.PROBE_REF_S
    record = {"setup_s": 0.2, "probe0_s": 2 * ref,
              "jobs": [{"seconds": 1.0, "probe_s": 2 * ref},
                       {"seconds": 3.0, "probe_s": ref}]}
    jobs, wall, setup = run.adjusted(record)
    assert jobs == pytest.approx([0.5, 2.0])
    assert wall == pytest.approx(2.5)
    assert setup == pytest.approx(0.1)
    assert run.speed(record) == pytest.approx(3 / 5)
