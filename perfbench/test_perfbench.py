"""Tests of the benchmark itself: inputs, reference check, names, smoke runs.

Run with the tier-1 suite (``PYTHONPATH=src python -m pytest``) or alone:
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    OptimizerConfig,
    SamplingParams,
    SearchParams,
    WeightParams,
)
from repro.core.parallel import make_evaluator

import run
from layers import Tracer, layer_metrics
from workloads import (
    PLAIN_EXECUTION,
    WORKLOADS,
    OptimizeTable2,
    PeakMemory,
    ScenarioSweeps,
    check_arm,
    run_workload,
    settings_trace,
    sweeps_match,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

TINY = OptimizerConfig(
    weights=WeightParams(w_min=1, w_max=12, q=0.7),
    search=SearchParams(
        phase1_diversification_interval=2,
        phase1_diversifications=1,
        phase2_diversification_interval=2,
        phase2_diversifications=1,
        improvement_cutoff=0.01,
        arcs_per_iteration_fraction=0.3,
        round_iteration_cap_factor=2,
        max_iterations=6,
    ),
    sampling=SamplingParams(
        tau=1, min_samples_per_link=2, max_extra_samples=40
    ),
    critical_fraction=0.2,
    keep_acceptable_settings=3,
)
TINY_ARMS = [("rand", 10, 4.0), ("isp", 16, 4.375)]


def tiny_table2(seed: int = 0) -> OptimizeTable2:
    return OptimizeTable2(seed, 1.0, config=TINY, arms=TINY_ARMS)


def _nudge(cost):
    """The same cost pair one ulp up in Phi."""
    return dataclasses.replace(cost, phi=float(np.nextafter(cost.phi, np.inf)))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_same_seed_same_trace_and_no_repeats():
    params = WeightParams()
    a_start, a = settings_trace(12, params, np.random.default_rng(5), 300)
    b_start, b = settings_trace(12, params, np.random.default_rng(5), 300)
    assert a_start == b_start
    assert all(x == y for x, y in zip(a, b))
    keys = [s.key() for s in [a_start, *a]]
    assert len(set(keys)) == len(keys)
    _, c = settings_trace(12, params, np.random.default_rng(6), 300)
    assert any(x != y for x, y in zip(a, c))


def test_trace_candidates_are_single_arc_moves():
    start, trace = settings_trace(
        30, WeightParams(), np.random.default_rng(1), 50
    )
    known = [start]
    for candidate in trace:
        changed = [
            np.count_nonzero(
                (candidate.delay != s.delay) | (candidate.tput != s.tput)
            )
            for s in known
        ]
        assert 1 in changed
        known.append(candidate)


def test_sweep_workload_inputs_depend_on_seed_only():
    a = ScenarioSweeps("sweep-trace", 3, 2.0, jobs=1, nodes=16)
    b = ScenarioSweeps("sweep-trace", 3, 2.0, jobs=1, nodes=16)
    a.setup()
    b.setup()
    try:
        assert a.check_steps == b.check_steps
        assert all(x == y for x, y in zip(a.settings, b.settings))
    finally:
        a.teardown()
        b.teardown()


# ----------------------------------------------------------------------
# reference check
# ----------------------------------------------------------------------
def test_reference_check_flags_perturbed_arm_costs():
    workload = tiny_table2()
    workload.setup()
    steps = workload.body().steps
    workload.teardown()
    kind, instance, _ = workload.optimizers[0]
    plain = make_evaluator(
        instance.network,
        instance.traffic,
        TINY.replace(execution=PLAIN_EXECUTION),
    )
    result = workload.results[kind]
    assert check_arm(plain, result) == []
    bad_phase1 = dataclasses.replace(
        result,
        phase1=dataclasses.replace(
            result.phase1, best_cost=_nudge(result.phase1.best_cost)
        ),
    )
    assert check_arm(plain, bad_phase1) == ["phase1.best_cost"]
    workload.results[kind] = dataclasses.replace(
        result,
        phase2=dataclasses.replace(
            result.phase2, best_kfail=_nudge(result.phase2.best_kfail)
        ),
    )
    workload.check(steps)
    assert steps[0].error == "reference mismatch: best_kfail"
    assert steps[1].error is None


def test_reference_check_flags_perturbed_sweep_cost():
    workload = ScenarioSweeps("sweep-trace", 0, 4.0, jobs=1, nodes=16)
    workload.setup()
    steps = workload.body().steps
    workload.teardown()
    first, second = workload.check_steps
    costs = workload.checked[first]
    evaluations = list(costs.evaluations)
    evaluations[3] = dataclasses.replace(
        evaluations[3], cost=_nudge(evaluations[3].cost)
    )
    perturbed = dataclasses.replace(costs, evaluations=tuple(evaluations))
    assert not sweeps_match(perturbed, costs)
    workload.checked[first] = perturbed
    workload.check(steps)
    assert steps[first].error == "reference mismatch"
    assert steps[second].error is None


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
MIB = 1 << 20


def _hold(go, ready, done, private_mib):
    go.wait()
    block = np.ones(private_mib * MIB // 8)
    ready.set()
    done.wait()
    del block


def test_peak_memory_counts_pages_inherited_at_fork_once():
    inherited = np.ones(64 * MIB // 8)
    ctx = multiprocessing.get_context("fork")
    go, ready, done = ctx.Event(), ctx.Event(), ctx.Event()
    child = ctx.Process(target=_hold, args=(go, ready, done, 16))
    child.start()
    try:
        memory = PeakMemory()
        memory.start()
        go.set()
        assert ready.wait(30)
        parent_only = PeakMemory()
        parent_only.children = []
        child_extra = memory.peak_mb() - parent_only.peak_mb()
    finally:
        done.set()
        child.join(30)
    assert inherited.sum() == inherited.size
    assert 16 <= child_extra < 40


# ----------------------------------------------------------------------
# names and the contract file
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_match_the_code():
    for name in WORKLOADS:
        assert NAME.fullmatch(name)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"])
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def test_smoke_optimize_table2_is_order_independent():
    records = []
    for seed in (0, 1):
        record = run_workload(tiny_table2(seed), setup_repeats=1)
        assert record["failed"] == []
        records.append(record["body"])
    assert records[0].evaluations == records[1].evaluations > 0
    assert records[0].detail["digest"] == records[1].detail["digest"]


@pytest.mark.parametrize(
    "name,jobs", [("sweep-trace", 1), ("sweep-fresh-jobs2", 2)]
)
def test_smoke_sweeps_complete_without_failures(name, jobs):
    workload = ScenarioSweeps(name, 2, 3.0, jobs=jobs, nodes=16)
    record = run_workload(workload, setup_repeats=1)
    body = record["body"]
    assert record["failed"] == []
    assert len(body.steps) == len(body.sweep_s) == workload.steps
    assert body.evaluations == workload.steps * (1 + len(workload.failures))


def test_traced_run_reports_every_per_layer_metric_with_exact_counts():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        record = run_workload(tiny_table2(), tracer, setup_repeats=1)
        assert record["failed"] == []
        values = layer_metrics(
            tracer, record["body"].counters, record["setup_parts"]
        )
        values["trace.evals_per_s"] = 1.0
        assert set(values) == {m["name"] for m in SPEC["per_layer"]}
        counts.append(
            {k: v for k, v in values.items() if run.layer_unit(k) == "count"}
        )
        assert values["phase1.moves"] > 0
        assert values["phase2.bounded_sweeps"] > 0
    assert counts[0] == counts[1]


def test_cli_prints_contract_line(tmp_path, capsys):
    assert (
        run.main(
            [
                "--workload",
                "sweep-fresh-jobs2",
                "--seed",
                "4",
                "--seconds",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
