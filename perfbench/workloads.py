"""The benchmark's three workloads, driven through the public API.

Each workload has the same life cycle, run by :func:`run_workload`:

1. ``setup()`` builds instances, evaluators (and pools) and inputs and
   runs any untimed warm-up; it is repeated and timed (``setup_s``).
2. ``body()`` is the timed part; it returns one :class:`Step` per
   operation (an optimizer arm or a scenario sweep).
3. ``check()`` runs outside the timed body and compares the program's
   outputs bitwise against the plain seed-path evaluator
   (``routing_cache=False``, ``incremental_routing=False``).

Workloads:

* ``optimize-table2`` — one seeded :class:`RobustDtrOptimizer` run per
  quick Table II instance (rand, near, pl, ISP), serial default
  execution.  The instances and search seeds are the experiment's seed
  0, so every run does identical work; the workload seed only rotates
  the order the four arms run in.
* ``sweep-trace`` — a seeded phase-2-style trace of distinct settings
  (incumbent plus single-arc moves) swept over every single-link
  failure of a 60-node PLTopo, serial default evaluator.
* ``sweep-fresh-jobs2`` — independent random settings swept on the same
  instance through ``ExecutionParams(n_jobs=2)``.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import ExecutionParams, OptimizerConfig
from repro.core import phase2
from repro.core.optimizer import RobustDtrOptimizer
from repro.core.parallel import make_evaluator
from repro.core.perturbation import random_phase2_move
from repro.core.resilience import global_stats
from repro.core.weights import WeightSetting
from repro.exp.common import _SEARCH_STREAM, instance_rng, make_instance
from repro.exp.presets import get_preset
from repro.exp.table1 import TABLE1_TOPOLOGIES
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures
from repro.topology import powerlaw_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

#: Seed of the Table II instances and searches (``repro-exp table2
#: --seed 0``).
TABLE2_SEED = 0
#: The 60-node PLTopo of ``benchmarks/bench_sweep.py`` (its default seed),
#: rebuilt here (:func:`build_sweep_instance`) so that later edits to that
#: script cannot change this benchmark's input.
SWEEP_NODES = 60
SWEEP_INSTANCE_SEED = 7
PL_ATTACHMENTS = 3
#: Share of trace candidates that become the new incumbent.
ACCEPT_RATE = 0.2
#: Nominal seconds per sweep step on the reference host (2-vCPU
#: container); ``--seconds`` divided by this fixes the step count, so the
#: work of a run depends on its arguments only, never on host speed.
STEP_S = 0.5
#: Sweeps per run re-checked against the plain evaluator.
CHECKED_SWEEPS = 2

#: The plain seed-path evaluator the reference check compares against.
PLAIN_EXECUTION = ExecutionParams(
    routing_cache=False, incremental_routing=False
)


@dataclass
class Step:
    """One operation of the timed body."""

    label: str
    error: str | None = None
    degraded: bool = False


@dataclass
class BodyResult:
    steps: list[Step]
    body_s: float
    evaluations: int
    sweep_s: list[float]
    counters: dict
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# program counters and resources
# ----------------------------------------------------------------------
def program_counters(evaluators) -> dict:
    """The program's own counters, summed over ``evaluators``."""
    out = {
        "evaluations": 0,
        "cache_lookups": 0,
        "cache_hits": 0,
        "cache_entries": 0,
        "memo_hits": 0,
        "memo_misses": 0,
        "tasks": 0,
        "task_bytes": 0,
        "busy_s": 0.0,
        "retries": 0,
        "jobs": 1,
    }
    for ev in evaluators:
        out["evaluations"] += ev.num_evaluations
        cache_stats = getattr(ev, "cache_stats", None)
        if cache_stats is not None:
            out["cache_lookups"] += cache_stats.lookups
            out["cache_hits"] += cache_stats.hits
        cache = getattr(ev, "cache", None)
        if cache is not None:
            out["cache_entries"] = max(out["cache_entries"], len(cache))
        memo = ev.sweep_memo_stats
        out["memo_hits"] += memo.hits
        out["memo_misses"] += memo.misses
        transport = getattr(ev, "transport_stats", None)
        if transport is not None:
            out["tasks"] += transport.tasks
            out["task_bytes"] += transport.task_bytes
            out["busy_s"] += transport.busy_seconds
            out["jobs"] = max(out["jobs"], ev.n_jobs)
        out["retries"] += ev.resilience_stats.retries
    return out


def counter_delta(after: dict, before: dict) -> dict:
    """``after - before`` for running counters (gauges keep ``after``)."""
    return {
        k: (v if k in ("cache_entries", "jobs") else v - before[k])
        for k, v in after.items()
    }


def _proc_kb(pid, name: str, fields: tuple) -> int:
    """Sum of the kB ``fields`` of ``/proc/<pid>/<name>``."""
    total = 0
    for line in Path(f"/proc/{pid}/{name}").read_text().splitlines():
        key, _, rest = line.partition(":")
        if key in fields:
            total += int(rest.split()[0])
    return total


class PeakMemory:
    """Peak resident memory of this process and its live child processes
    (pool workers) from :meth:`start` on.

    ``start`` resets every process's high-water mark (``VmHWM``, through
    ``/proc/<pid>/clear_refs``) and notes the pages each child shares at
    that moment: those it inherited from this process at fork, plus
    library pages.  The reading is this process's peak plus each child's
    peak less those shared pages, so shared memory is counted once.
    """

    def start(self) -> None:
        self.children = [p.pid for p in multiprocessing.active_children()]
        for pid in ("self", *self.children):
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        self.shared_kb = {
            pid: _proc_kb(
                pid, "smaps_rollup", ("Shared_Clean", "Shared_Dirty")
            )
            for pid in self.children
        }

    def peak_mb(self) -> float:
        total = _proc_kb("self", "status", ("VmHWM",))
        for pid in self.children:
            peak = _proc_kb(pid, "status", ("VmHWM",))
            total += max(0, peak - self.shared_kb[pid])
        return total / 1024.0


def _degraded(before, after) -> bool:
    return (
        after.quarantined_tasks > before.quarantined_tasks
        or after.deadline_degraded_tasks > before.deadline_degraded_tasks
    )


def same_costs(a, b) -> bool:
    """Bitwise equality of two cost pairs."""
    return a.lam == b.lam and a.phi == b.phi


# ----------------------------------------------------------------------
# optimize-table2
# ----------------------------------------------------------------------
def table2_arms():
    """``(kind, nodes, degree)`` of the quick Table II instances."""
    preset = get_preset("quick")
    return [
        (kind, nodes if kind == "isp" else preset.scaled_nodes(nodes), degree)
        for kind, nodes, degree in TABLE1_TOPOLOGIES
    ]


def check_arm(plain, result) -> list[str]:
    """Mismatches of one optimizer result against the plain evaluator."""
    problems = []
    if not same_costs(
        plain.evaluate_normal(result.regular_setting).cost,
        result.phase1.best_cost,
    ):
        problems.append("phase1.best_cost")
    if not same_costs(
        plain.evaluate_normal(result.robust_setting).cost,
        result.phase2.normal_cost,
    ):
        problems.append("phase2.normal_cost")
    if not same_costs(
        plain.evaluate_scenarios(
            result.robust_setting, result.critical_failures
        ).total_cost,
        result.phase2.best_kfail,
    ):
        problems.append("best_kfail")
    return problems


class OptimizeTable2:
    """Seeded robust optimization of the four quick Table II instances."""

    name = "optimize-table2"
    #: Set-ups timed before the body, and again after it (about 15 ms each).
    setup_repeats = 20

    def __init__(self, seed: int, seconds: float, config=None, arms=None):
        del seconds  # fixed work: one full optimizer run per arm
        self.config = config or get_preset("quick").config
        arms = arms or table2_arms()
        shift = seed % len(arms)
        self.arms = arms[shift:] + arms[:shift]
        self.optimizers: list = []
        self.results: dict = {}

    def setup(self) -> dict:
        instance_s = evaluator_s = 0.0
        self.optimizers = []
        for kind, nodes, degree in self.arms:
            t0 = time.perf_counter()
            instance = make_instance(kind, nodes, degree, seed=TABLE2_SEED)
            t1 = time.perf_counter()
            optimizer = RobustDtrOptimizer(
                instance.network,
                instance.traffic,
                self.config,
                failure_model=FailureModel.LINK,
                rng=instance_rng(TABLE2_SEED, _SEARCH_STREAM),
            )
            t2 = time.perf_counter()
            instance_s += t1 - t0
            evaluator_s += t2 - t1
            self.optimizers.append((kind, instance, optimizer))
        return {
            "instance_s": instance_s,
            "evaluator_s": evaluator_s,
            "trace_s": 0.0,
        }

    def teardown(self) -> None:
        for _, _, optimizer in self.optimizers:
            optimizer.close()

    def body(self) -> BodyResult:
        sweep_s: list[float] = []
        original = phase2.bounded_failure_cost

        def timed_bounded(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sweep_s.append(time.perf_counter() - start)

        steps = []
        evaluators = []
        phase2.bounded_failure_cost = timed_bounded
        start = time.perf_counter()
        try:
            for kind, _, optimizer in self.optimizers:
                step = Step(kind)
                before = global_stats()
                try:
                    self.results[kind] = optimizer.run()
                except Exception as exc:  # one failed arm, keep going
                    step.error = f"{type(exc).__name__}: {exc}"
                step.degraded = _degraded(before, global_stats())
                evaluators.append(optimizer.evaluator)
                steps.append(step)
            body_s = time.perf_counter() - start
        finally:
            phase2.bounded_failure_cost = original
        counters = program_counters(evaluators)
        return BodyResult(
            steps=steps,
            body_s=body_s,
            evaluations=counters["evaluations"],
            sweep_s=sweep_s,
            counters=counters,
            detail={"digest": self.digest(counters["evaluations"])},
        )

    def digest(self, evaluations: int) -> str:
        """sha256 over every arm's final weights and the evaluation count."""
        h = hashlib.sha256(str(evaluations).encode())
        for kind in sorted(self.results):
            result = self.results[kind]
            h.update(kind.encode())
            for setting in (result.regular_setting, result.robust_setting):
                h.update(setting.delay.tobytes())
                h.update(setting.tput.tobytes())
        return h.hexdigest()

    def check(self, steps: list[Step]) -> None:
        for step, (kind, instance, _) in zip(steps, self.optimizers):
            if step.error is not None:
                continue
            plain = make_evaluator(
                instance.network,
                instance.traffic,
                self.config.replace(execution=PLAIN_EXECUTION),
            )
            problems = check_arm(plain, self.results[kind])
            if problems:
                step.error = "reference mismatch: " + ", ".join(problems)


# ----------------------------------------------------------------------
# scenario-sweep workloads
# ----------------------------------------------------------------------
def build_sweep_instance(num_nodes: int = SWEEP_NODES):
    """The seeded, delay- and utilization-scaled PLTopo sweep instance."""
    rng = np.random.default_rng(SWEEP_INSTANCE_SEED)
    network = scale_to_diameter(
        powerlaw_topology(num_nodes, PL_ATTACHMENTS, rng), 0.025
    )
    traffic = scale_to_utilization(
        network, dtr_traffic(network.num_nodes, rng, 1.0), 0.43, "mean"
    )
    return network, traffic


def settings_trace(
    num_arcs: int, params, rng: np.random.Generator, steps: int
) -> tuple[WeightSetting, list[WeightSetting]]:
    """A phase-2-style trace: the start incumbent and ``steps`` candidates.

    Each candidate is the current incumbent with one
    :func:`~repro.core.perturbation.random_phase2_move` applied; the
    incumbent advances to the candidate at ``ACCEPT_RATE``.  No setting
    (the start included) ever appears twice.
    """
    incumbent = WeightSetting.random(num_arcs, params, rng)
    start = incumbent
    seen = {incumbent.key()}
    out: list[WeightSetting] = []
    while len(out) < steps:
        candidate = incumbent.copy()
        move = random_phase2_move(
            candidate, int(rng.integers(num_arcs)), params, rng
        )
        move.apply(candidate)
        if candidate.key() in seen:
            continue
        seen.add(candidate.key())
        out.append(candidate)
        if rng.random() < ACCEPT_RATE:
            incumbent = candidate
    return start, out


def fresh_settings(
    num_arcs: int, params, rng: np.random.Generator, count: int
) -> list[WeightSetting]:
    """``count`` independent random settings, all distinct."""
    seen: set = set()
    out: list[WeightSetting] = []
    while len(out) < count:
        setting = WeightSetting.random(num_arcs, params, rng)
        if setting.key() not in seen:
            seen.add(setting.key())
            out.append(setting)
    return out


def sweeps_match(timed, reference) -> bool:
    """Bitwise per-scenario equality of two costs-only sweeps."""
    if len(timed) != len(reference):
        return False
    return all(
        same_costs(a.cost, b.cost)
        and a.sla.violations == b.sla.violations
        for a, b in zip(timed.evaluations, reference.evaluations)
    )


class ScenarioSweeps:
    """Timed ``evaluate_scenario_costs`` sweeps over all single-link
    failures, one distinct setting per step."""

    #: Set-ups timed before the body, and again after it (about 0.6 s each).
    setup_repeats = 3

    def __init__(
        self,
        name: str,
        seed: int,
        seconds: float,
        jobs: int,
        nodes: int = SWEEP_NODES,
    ):
        self.name = name
        self.seed = seed
        self.nodes = nodes
        self.steps = max(1, round(seconds / STEP_S))
        self.config = OptimizerConfig(execution=ExecutionParams(n_jobs=jobs))
        self.evaluator = None
        self.checked: dict[int, object] = {}

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.network, self.traffic = build_sweep_instance(self.nodes)
        self.failures = legacy_failures(self.network, FailureModel.LINK)
        t1 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0)))
        params = self.config.weights
        num_arcs = self.network.num_arcs
        if self.name == "sweep-trace":
            warm, self.settings = settings_trace(
                num_arcs, params, rng, self.steps
            )
        else:
            warm, *self.settings = fresh_settings(
                num_arcs, params, rng, self.steps + 1
            )
        check_rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 1))
        )
        self.check_steps = sorted(
            int(i)
            for i in check_rng.choice(
                self.steps, size=min(CHECKED_SWEEPS, self.steps), replace=False
            )
        )
        t2 = time.perf_counter()
        self.evaluator = make_evaluator(
            self.network, self.traffic, self.config
        )
        # Untimed warm-up: routers, plans and (at jobs 2) the worker pool.
        self.evaluator.evaluate_scenario_costs(
            warm, self.failures, reuse=self.evaluator.evaluate_normal(warm)
        )
        t3 = time.perf_counter()
        return {
            "instance_s": t1 - t0,
            "evaluator_s": t3 - t2,
            "trace_s": t2 - t1,
        }

    def teardown(self) -> None:
        if self.evaluator is not None:
            self.evaluator.close()
            self.evaluator = None

    def body(self) -> BodyResult:
        ev = self.evaluator
        before = program_counters([ev])
        steps: list[Step] = []
        sweep_s: list[float] = []
        hit_steps = 0
        self.checked = {}
        start = time.perf_counter()
        for index, setting in enumerate(self.settings):
            step = Step(f"sweep{index}")
            stats_before = global_stats()
            cache_before = ev.cache_stats.hits
            try:
                reuse = ev.evaluate_normal(setting)
                t0 = time.perf_counter()
                costs = ev.evaluate_scenario_costs(
                    setting, self.failures, reuse=reuse
                )
                sweep_s.append(time.perf_counter() - t0)
                if index in self.check_steps:
                    self.checked[index] = costs
            except Exception as exc:  # one failed sweep, keep going
                step.error = f"{type(exc).__name__}: {exc}"
            step.degraded = _degraded(stats_before, global_stats())
            hit_steps += ev.cache_stats.hits > cache_before
            steps.append(step)
        body_s = time.perf_counter() - start
        counters = counter_delta(program_counters([ev]), before)
        workers = getattr(ev, "worker_busy_seconds", {})
        memo_lookups = counters["memo_hits"] + counters["memo_misses"]
        return BodyResult(
            steps=steps,
            body_s=body_s,
            evaluations=counters["evaluations"],
            sweep_s=sweep_s,
            counters=counters,
            detail={
                "workers": len(workers),
                "cache_hit_rate": (
                    counters["cache_hits"] / counters["cache_lookups"]
                    if counters["cache_lookups"]
                    else 0.0
                ),
                "steps_with_cache_hit": hit_steps / len(self.settings),
                "memo_hit_rate": (
                    counters["memo_hits"] / memo_lookups
                    if memo_lookups
                    else 0.0
                ),
            },
        )

    def check(self, steps: list[Step]) -> None:
        plain = make_evaluator(
            self.network,
            self.traffic,
            self.config.replace(execution=PLAIN_EXECUTION),
        )
        for index in self.check_steps:
            if steps[index].error is not None:
                continue
            reference = plain.evaluate_scenarios(
                self.settings[index], self.failures
            )
            if not sweeps_match(self.checked[index], reference):
                steps[index].error = "reference mismatch"


WORKLOADS = {
    "optimize-table2": lambda seed, seconds: OptimizeTable2(seed, seconds),
    "sweep-trace": lambda seed, seconds: ScenarioSweeps(
        "sweep-trace", seed, seconds, jobs=1
    ),
    "sweep-fresh-jobs2": lambda seed, seconds: ScenarioSweeps(
        "sweep-fresh-jobs2", seed, seconds, jobs=2
    ),
}

def tail_percentile(count: int) -> int:
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank); 100 (the maximum) when fewer than 20 samples."""
    for p in range(99, 49, -1):
        if count - int(np.ceil(p * count / 100)) >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(p * len(ordered) / 100)))
    return ordered[rank - 1]


def timed_setups(workload, repeats: int) -> list[tuple[float, dict]]:
    """Set ``workload`` up ``repeats`` times; the last set-up stays live."""
    out = []
    for rep in range(repeats):
        if rep:
            workload.teardown()
        gc.collect()
        start = time.perf_counter()
        parts = workload.setup()
        out.append((time.perf_counter() - start, parts))
    return out


def run_workload(workload, tracer=None, setup_repeats: "int | None" = None):
    """Set up, run the timed body, check, set up again; return a record.

    ``setup_s`` is the median of ``setup_repeats`` set-ups before the body
    and as many after the check, so that it samples the host over the
    whole run rather than over its first seconds.  ``peak_rss_mb`` covers
    the timed body only.
    """
    repeats = setup_repeats or workload.setup_repeats
    setups = timed_setups(workload, repeats)
    gc.collect()
    memory = PeakMemory()
    memory.start()
    if tracer is not None:
        tracer.install()
    try:
        body = workload.body()
    finally:
        if tracer is not None:
            tracer.uninstall()
        peak_rss = memory.peak_mb()
        workload.teardown()
    workload.check(body.steps)
    setups += timed_setups(workload, repeats)
    workload.teardown()
    failed = [s for s in body.steps if s.error is not None or s.degraded]
    times = [t for t, _ in setups]
    return {
        "setup_s": statistics.median(times),
        "setup_runs_s": times,
        "setup_parts": {
            key: statistics.median(parts[key] for _, parts in setups)
            for key in setups[0][1]
        },
        "peak_rss_mb": peak_rss,
        "body": body,
        "failed": failed,
    }
