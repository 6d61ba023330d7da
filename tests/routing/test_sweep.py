"""Tests for the scenario-axis batch sweep engine (routing layer).

The contract is strict bit-identity: every routing produced by
``route_scenario_batch`` must equal the per-scenario
``route_scenario`` result exactly, the cross-scenario delay kernels
must replay the per-scenario columns exactly, and the planner must
partition every scenario into exactly one bucket.
"""

import numpy as np
import pytest

from repro.config import OptimizerConfig
from repro.core.weights import WeightSetting
from repro.routing.fastpath import PropagationPlan, fast_propagate_worst_delay
from repro.routing.incremental import IncrementalRouter
from repro.routing.engine import RoutingEngine
from repro.routing.sweep import (
    DelayBase,
    flush_delay_batch,
    group_scenario_budget,
    kernel_cell_budget,
    plan_sweep,
    route_scenario_batch,
    split_delay_columns,
)
from repro.routing.vectorized import (
    BatchPlan,
    batch_propagate_worst_delay,
    build_schedule,
)
from repro.scenarios import (
    GaussianSurge,
    Scenario,
    cross,
    k_link_failures,
    node_failures,
    srlg_failures,
)
from repro.routing.failures import NORMAL, single_link_failures
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization


@pytest.fixture(scope="module")
def instance():
    gen = np.random.default_rng(3)
    network = scale_to_diameter(rand_topology(14, 4.0, gen), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(14, gen, 1.0), 0.4, "mean"
    )
    return network, traffic


def fresh_router(network, traffic, weights):
    return IncrementalRouter(network, traffic.delay.values, weights)


class TestPlanner:
    def test_every_index_in_exactly_one_bucket(self, instance):
        network, _ = instance
        scenarios = list(
            srlg_failures(network, num_groups=2, group_size=2, seed=1)
            + node_failures(network, nodes=[0, 2])
            + cross(
                k_link_failures(network, k=2, max_scenarios=2, seed=1),
                [GaussianSurge(seed=5)],
            )
        ) + [NORMAL, Scenario()]
        plan = plan_sweep(scenarios, network.num_nodes)
        seen = sorted(
            [i for group in plan.batch_groups for i in group]
            + [i for _, ids in plan.variant_groups for i in ids]
            + list(plan.legacy)
        )
        assert seen == list(range(len(scenarios)))
        assert plan.num_scenarios == len(scenarios)
        # node failures and the normal scenarios stay on the legacy path
        assert len(plan.legacy) == 4
        # the cross product groups under one variant digest
        assert len(plan.variant_groups) == 1
        assert len(plan.variant_groups[0][1]) == 2

    def test_group_budget_bounds_group_size(self, instance):
        network, _ = instance
        failures = list(single_link_failures(network))
        budget = group_scenario_budget(network.num_nodes)
        plan = plan_sweep(failures, network.num_nodes)
        assert all(len(g) <= budget for g in plan.batch_groups)
        # small instance: the whole sweep fits one group
        assert len(plan.batch_groups) == 1

    def test_budgets_scale_down_with_size(self):
        assert group_scenario_budget(1000) < group_scenario_budget(30)
        assert kernel_cell_budget(5000) < kernel_cell_budget(100)
        assert kernel_cell_budget(10**9) >= 64


class TestBatchRoutingParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_per_scenario(self, instance, seed):
        network, traffic = instance
        rng = np.random.default_rng(seed)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        scenarios = [
            s.failure
            for s in (
                srlg_failures(network, num_groups=3, group_size=2, seed=seed)
                + k_link_failures(
                    network, k=2, max_scenarios=4, seed=seed
                )
            )
        ]
        reference = fresh_router(network, traffic, weights)
        expected = [reference.route_scenario(s).routing for s in scenarios]
        batched = fresh_router(network, traffic, weights)
        got, handoffs = route_scenario_batch(batched, scenarios)
        assert len(got) == len(expected)
        for exp, act in zip(expected, got):
            assert np.array_equal(exp.loads, act.loads)
            assert np.array_equal(exp.dist, act.dist)
            assert np.array_equal(exp.masks, act.masks)
            assert exp.undelivered == act.undelivered
        # handoff columns name real (scenario, destination) cells
        for handoff in handoffs:
            for i, t in handoff.cells:
                assert 0 <= i < len(scenarios)
                assert 0 <= t < network.num_nodes

    def test_memo_warm_batch_still_identical(self, instance):
        network, traffic = instance
        rng = np.random.default_rng(9)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        scenarios = [
            s.failure
            for s in srlg_failures(
                network, num_groups=4, group_size=2, seed=9
            )
        ]
        router = fresh_router(network, traffic, weights)
        first, _ = route_scenario_batch(router, scenarios)
        second, handoffs = route_scenario_batch(router, scenarios)
        for a, b in zip(first, second):
            assert np.array_equal(a.loads, b.loads)
            assert a.undelivered == b.undelivered
        # warm pass is served from the memo: no kernel batches needed
        assert handoffs == []


class TestDelayRowsKernel:
    def test_per_column_rows_match_python_kernel(self, instance):
        """Columns of different scenarios (distinct arc-delay vectors)
        sharing one batched DP equal the per-scenario python kernel."""
        network, traffic = instance
        rng = np.random.default_rng(4)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        router = fresh_router(network, traffic, weights)
        routing = router.routing
        plan = PropagationPlan.for_network(network)
        batch_plan = BatchPlan.for_network(network)
        num_scenarios = 3
        delays = rng.uniform(0.001, 0.01, (num_scenarios, network.num_arcs))
        dests = routing.destinations
        # every (scenario, destination) pair is one batch column
        rows = np.tile(np.arange(len(dests)), num_scenarios)
        delay_rows = np.repeat(
            np.arange(num_scenarios, dtype=np.intp), len(dests)
        )
        masks = routing.masks[rows]
        dist_cols = routing.dist[:, dests[rows]]
        columns = batch_propagate_worst_delay(
            batch_plan,
            masks,
            dist_cols,
            delays,
            dests[rows],
            delay_rows=delay_rows,
        )
        for j in range(len(rows)):
            t = int(dests[rows[j]])
            expected = fast_propagate_worst_delay(
                plan,
                routing.masks[rows[j]],
                routing.dist[:, t],
                delays[delay_rows[j]].tolist(),
                t,
            )
            assert np.array_equal(columns[:, j], np.asarray(expected))

    def test_schedule_replay_matches_fresh_build(self, instance):
        """A prebuilt schedule (masks/dist omitted) replays identical
        bits — the handed-schedule path of the delay flush."""
        network, traffic = instance
        rng = np.random.default_rng(6)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        router = fresh_router(network, traffic, weights)
        routing = router.routing
        batch_plan = BatchPlan.for_network(network)
        dests = routing.destinations
        delays = rng.uniform(0.001, 0.01, network.num_arcs)
        schedule = build_schedule(
            batch_plan, routing.masks, routing.dist[:, dests]
        )
        fresh = batch_propagate_worst_delay(
            batch_plan, routing.masks, routing.dist[:, dests], delays, dests
        )
        replayed = batch_propagate_worst_delay(
            batch_plan, None, None, delays, dests, schedule=schedule
        )
        assert np.array_equal(fresh, replayed)


class TestFlushDelayBatch:
    @staticmethod
    def _routed(instance, seed, scenarios):
        network, traffic = instance
        rng = np.random.default_rng(seed)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        router = fresh_router(network, traffic, weights)
        routings, _ = route_scenario_batch(router, scenarios)
        return router, routings, rng

    def test_flush_fills_pending_and_leaves_memo(self, instance):
        """flush_delay_batch equals per-scenario path_delays columns."""
        network, _ = instance
        scenarios = [
            s.failure
            for s in srlg_failures(
                network, num_groups=3, group_size=2, seed=8
            )
        ]
        _, routings, rng = self._routed(instance, 8, scenarios)
        engine = RoutingEngine(network)
        n = network.num_nodes
        tasks = []
        expected = []
        for routing in routings:
            delays = rng.uniform(0.001, 0.01, network.num_arcs)
            out = np.full((n, n), np.nan)
            replay, pending = split_delay_columns(None, routing, delays, out)
            assert replay.size == 0
            assert len(pending) == routing.destinations.size
            tasks.append((routing, delays, out, replay, pending))
            expected.append(
                RoutingEngine(network).path_delays(routing, delays)
            )
        flush_delay_batch(engine, "worst", tasks)
        for (_, _, out, _, _), exp in zip(tasks, expected):
            assert np.array_equal(out, exp, equal_nan=True)
        # the batched path neither probes nor fills the delay memo
        assert len(engine.delay_memo) == 0
        assert engine.delay_memo.hits == engine.delay_memo.misses == 0

    @pytest.mark.parametrize("mode", ["worst", "mean"])
    def test_base_equal_columns_replay_base_schedule(
        self, instance, mode, monkeypatch
    ):
        """Copied, base-replayed and rerouted columns all equal the
        per-scenario DP, also when the replay DP runs in chunks."""
        import repro.routing.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "kernel_cell_budget", lambda a: 5)
        network, _ = instance
        scenarios = [s for s in single_link_failures(network)]
        router, routings, rng = self._routed(instance, 9, scenarios)
        engine = RoutingEngine(network)
        base_routing = router.routing
        base_delays = rng.uniform(0.001, 0.01, network.num_arcs)
        base = DelayBase(
            routing=base_routing,
            pair_delays=engine.path_delays(base_routing, base_delays, mode),
            arc_delays=base_delays,
        )
        n = network.num_nodes
        tasks = []
        expected = []
        copied = replayed = rerouted = 0
        for i, routing in enumerate(routings + [base_routing]):
            delays = base_delays.copy()
            # a few arcs change delay; every third scenario none
            if i % 3:
                arcs = rng.integers(0, network.num_arcs, 3)
                delays[arcs] = rng.uniform(0.001, 0.01, 3)
            out = np.full((n, n), np.nan)
            replay, pending = split_delay_columns(base, routing, delays, out)
            copied += routing.destinations.size - replay.size - len(pending)
            replayed += replay.size
            rerouted += len(pending)
            tasks.append((routing, delays, out, replay, pending))
            expected.append(
                RoutingEngine(network).path_delays(routing, delays, mode)
            )
        assert copied and replayed > 5 and rerouted
        flush_delay_batch(engine, mode, tasks, base=base)
        for (_, _, out, _, _), exp in zip(tasks, expected):
            assert np.array_equal(out, exp, equal_nan=True)
        assert len(engine.delay_memo) == 0
