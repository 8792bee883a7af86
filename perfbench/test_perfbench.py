"""Tests of the benchmark itself.

They run shrunken workloads, so the whole file takes seconds:

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import pickle
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from posid import (assembly, baselines, estimator, experiments,  # noqa: E402
                   extensions, kernels, qp, signals, tuning)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def shrunk(name: str):
    """The workload at a size that runs in about a second."""
    workload = workloads.WORKLOADS[name]
    if name == "identify_n800":
        return dataclasses.replace(workload, n=60, horizon=120)
    return dataclasses.replace(
        workload, mc=dataclasses.replace(workload.mc, runs=2),
        tune=dataclasses.replace(workload.tune, n=80, budget=4),
        variants=dataclasses.replace(workload.variants, pairs=1))


def _bindings() -> dict:
    """Every attribute of every package module and traced class."""
    owners = (assembly, baselines, estimator, experiments, extensions,
              kernels, qp, signals, tuning, signals.TimeSeriesData,
              qp.ConvexQP)
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_workloads_match_benchmark_json():
    assert NAMES == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_equal_seeds(name):
    workload = workloads.WORKLOADS[name]
    first = pickle.dumps(workload.make_inputs(7))
    assert first == pickle.dumps(workload.make_inputs(7))
    assert first != pickle.dumps(workload.make_inputs(8))


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    workload = shrunk("small_problems")
    values, units = run.per_layer(workload, workload.make_inputs(1))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # 2 Monte Carlo runs, 4 tune candidates and 1 record pair (2 records)
    assert values["estimator.identify.calls"] == 2 + 4 + 2
    assert values["qp.solve.calls"] >= 6


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.span("inner")(lambda: sum(range(20000)))
    outer = tracer.span("outer")(lambda: inner())
    outer()
    totals = tracer.totals()
    assert totals["outer.calls"] == totals["inner.calls"] == 1
    assert totals["outer.self_s"] == pytest.approx(
        totals["outer.busy_s"] - totals["inner.busy_s"])
    assert totals["inner.self_s"] == totals["inner.busy_s"]


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_and_answers_pass(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    workload = shrunk(name)
    inputs = workload.make_inputs(3)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, inputs, seed=3, seconds=0.0,
                             trace=trace)
        assert result["correct"], result
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = result["metrics"]
        assert list(emitted) == [m["name"] for m in SPEC[kind]]
        for spec in SPEC[kind]:
            assert emitted[spec["name"]]["unit"] == spec["unit"]
        if not trace:
            assert all(m["value"] > 0 for m in emitted.values()), emitted


def test_tail_keeps_ten_operations_beyond_it():
    assert run.tail([float(i) for i in range(40)]) == 29.0
    assert run.tail([1.0, 2.0]) == 2.0


def test_timings_are_means_over_repeats():
    def unit(wall, *seconds):
        return workloads.Unit(wall, [workloads.Op(s) for s in seconds])
    units = [unit(1.0, 0.4, 0.6), unit(3.0, 0.1, 2.9), unit(2.0, 0.4, 1.5)]
    values = run.end_to_end(units, setup_s=1.0)
    assert values["wall_s"] == 2.0
    # the operations' means are 0.3 and 5 / 3
    assert values["op_s.p50"] == pytest.approx((0.3 + 5.0 / 3) / 2)
    assert values["op_s.tail"] == pytest.approx(5.0 / 3)
    assert values["ops_per_s"] == 1.0


def test_check_fit_rejects_bad_answers():
    workload = shrunk("identify_n800")
    (data, sigma2), _ = workload.make_inputs(1)
    config = estimator.PositiveIdConfig(
        kernel=kernels.KernelSpec.dc(0.9, 0.9), rho=0.98, lam=10 * sigma2)
    model = estimator.identify(config, data)
    assert workloads.check_fit(model) is None
    model.a -= 10.0  # pushes the reconstruction below zero
    assert "negative response" in workloads.check_fit(model)
    model.diagnostics.forced_accept = True
    assert workloads.check_fit(model) is None
    model.diagnostics.qp_status = "max_iterations"
    assert "qp status" in workloads.check_fit(model)
