"""Evaluator integration of the scenario-axis batch sweep engine.

Pins the PR's acceptance criteria:

* batched sweeps are bit-identical to the serial per-scenario path on
  integer-weight instances, randomized across every scenario family
  (srlg / multi2 / regional / node / surge / cross);
* the ``sweep_batching`` knob defaults on under ``auto``, can be
  disabled, requires incremental routing, and validates its values;
* parallel results (process + shared memory, threads) are invariant to
  ``n_jobs`` and ``chunk_size`` and bit-identical to serial;
* the shared-memory publication round-trips payloads zero-copy.
"""

import numpy as np
import pytest

from repro.config import ExecutionParams
from repro.core.evaluation import DtrEvaluator, ScenarioCosts
from repro.core.parallel import (
    CachingDtrEvaluator,
    ParallelDtrEvaluator,
    SharedSweepState,
)
from repro.core.weights import WeightSetting
from repro.routing.backend import (
    SWEEP_BATCH_MIN_SCENARIOS,
    resolve_sweep_batching,
    validate_sweep_batching,
)
from repro.routing.failures import single_link_failures
from repro.scenarios import (
    GaussianSurge,
    GravityRescale,
    ScenarioSet,
    cross,
    gaussian_surges,
    k_link_failures,
    node_failures,
    regional_failures,
    srlg_failures,
)


def _mixed_scenarios(network, seed=0):
    """A set spanning every family shape (multi-arc + variants)."""
    return (
        srlg_failures(network, num_groups=3, group_size=2, seed=seed)
        + k_link_failures(network, k=2, max_scenarios=3, seed=seed)
        + regional_failures(network, num_regions=2, seed=seed)
        + node_failures(network, nodes=[0, 3])
        + gaussian_surges(count=2, seed=seed)
        + cross(
            srlg_failures(network, num_groups=2, group_size=2, seed=seed),
            [GaussianSurge(seed=seed + 7), GravityRescale(1.3)],
        )
    )


def assert_sweeps_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a.evaluations, b.evaluations):
        assert x.scenario == y.scenario
        assert x.kind == y.kind
        assert x.variant == y.variant
        assert x.cost.lam == y.cost.lam
        assert x.cost.phi == y.cost.phi
        assert x.sla.violations == y.sla.violations
        assert x.sla.disconnected == y.sla.disconnected
        assert np.array_equal(x.loads_delay, y.loads_delay)
        assert np.array_equal(x.loads_tput, y.loads_tput)
        assert np.array_equal(x.arc_delay, y.arc_delay)
        assert np.array_equal(x.pair_delays, y.pair_delays, equal_nan=True)
        assert np.array_equal(x.utilization, y.utilization)


def _evaluator(network, traffic, config, mode, **kwargs):
    execution = ExecutionParams(sweep_batching=mode, **kwargs)
    return DtrEvaluator(
        network, traffic, config.replace(execution=execution)
    )


class TestKnob:
    def test_validation(self):
        assert validate_sweep_batching("auto") == "auto"
        with pytest.raises(ValueError):
            validate_sweep_batching("maybe")
        with pytest.raises(ValueError):
            ExecutionParams(sweep_batching="sometimes")

    def test_resolution(self):
        assert not resolve_sweep_batching("off", 100)
        assert resolve_sweep_batching("on", 1)
        assert not resolve_sweep_batching("on", 0)
        assert resolve_sweep_batching("auto", SWEEP_BATCH_MIN_SCENARIOS)
        assert not resolve_sweep_batching(
            "auto", SWEEP_BATCH_MIN_SCENARIOS - 1
        )

    def test_default_resolves_on_and_requires_incremental(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        default = DtrEvaluator(network, traffic, tiny_config)
        assert default._use_sweep_batching(10)
        off = _evaluator(network, traffic, tiny_config, "off")
        assert not off._use_sweep_batching(10)
        # auto quietly falls back without the routers it rides on ...
        no_inc = _evaluator(
            network, traffic, tiny_config, "auto",
            incremental_routing=False,
        )
        assert not no_inc._use_sweep_batching(10)
        # ... but forcing it on without them is a config error
        with pytest.raises(ValueError):
            ExecutionParams(
                sweep_batching="on", incremental_routing=False
            )
        # a forced python backend keeps its A/B isolation: auto falls
        # back to the per-scenario path, forcing both is an error
        py = _evaluator(
            network, traffic, tiny_config, "auto",
            routing_backend="python",
        )
        assert not py._use_sweep_batching(10)
        with pytest.raises(ValueError):
            ExecutionParams(
                sweep_batching="on", routing_backend="python"
            )


class TestSerialParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batched_equals_per_scenario_on_all_families(
        self, small_instance, tiny_config, seed
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=seed)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(seed + 100),
        )
        legacy = _evaluator(network, traffic, tiny_config, "off")
        batched = _evaluator(network, traffic, tiny_config, "on")
        reference = legacy.evaluate_scenarios(setting, scenarios)
        candidate = batched.evaluate_scenarios(setting, scenarios)
        assert_sweeps_identical(reference, candidate)
        assert legacy.num_evaluations == batched.num_evaluations

    def test_repeat_and_second_setting_stay_identical(
        self, small_instance, tiny_config
    ):
        """Warm memos/routers (second sweep, then a one-move-away
        setting) replay identical bits through the batch engine."""
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=5)
        rng = np.random.default_rng(55)
        setting = WeightSetting.random(
            network.num_arcs, tiny_config.weights, rng
        )
        moved = setting.copy()
        moved.delay[3] = max(1, int(moved.delay[3]) - 1)
        legacy = _evaluator(network, traffic, tiny_config, "off")
        batched = _evaluator(network, traffic, tiny_config, "on")
        for s in (setting, setting, moved):
            assert_sweeps_identical(
                legacy.evaluate_scenarios(s, scenarios),
                batched.evaluate_scenarios(s, scenarios),
            )

    def test_caching_evaluator_batched_parity_and_cache_use(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        failures = single_link_failures(network)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(77),
        )
        serial = DtrEvaluator(network, traffic, tiny_config)
        reference = serial.evaluate_failures(setting, failures)
        caching = CachingDtrEvaluator(network, traffic, tiny_config)
        first = caching.evaluate_failures(setting, failures)
        assert_sweeps_identical(reference, first)
        before = caching.cache_stats
        second = caching.evaluate_failures(setting, failures)
        assert_sweeps_identical(reference, second)
        # the repeat sweep answers routed scenarios from the cache
        assert caching.cache_stats.hits_exact > before.hits_exact

    def test_duplicate_scenarios_share_one_evaluation(
        self, small_evaluator, random_setting
    ):
        scenarios = list(
            srlg_failures(
                small_evaluator.network, num_groups=2, group_size=2, seed=2
            )
        )
        doubled = scenarios + scenarios
        sweep = small_evaluator.evaluate_scenarios(random_setting, doubled)
        half = len(scenarios)
        for i in range(half):
            assert (
                sweep.evaluations[i].cost == sweep.evaluations[half + i].cost
            )
        assert small_evaluator.num_evaluations == len(doubled) + 1


def _per_scenario(evaluator, setting, scenarios):
    """The reference: one ``evaluate()`` call per scenario."""
    normal = evaluator.evaluate_normal(setting)
    return ScenarioCosts(
        tuple(evaluator.evaluate(setting, s, reuse=normal) for s in scenarios)
    )


class TestBaseReplayParity:
    """Delay columns priced on the base routing's schedule, bit for bit.

    Each case drives a different source of base-equal columns through
    the batched sweep and compares ``pair_delays`` and costs with
    per-scenario :meth:`DtrEvaluator.evaluate` calls.
    """

    @staticmethod
    def _setting(network, config, seed):
        return WeightSetting.random(
            network.num_arcs, config.weights, np.random.default_rng(seed)
        )

    def test_routing_cache_hits(self, small_instance, tiny_config):
        network, traffic = small_instance
        failures = list(single_link_failures(network))
        setting = self._setting(network, tiny_config, 21)
        reference = _per_scenario(
            _evaluator(network, traffic, tiny_config, "off"),
            setting,
            failures,
        )
        caching = CachingDtrEvaluator(
            network,
            traffic,
            tiny_config.replace(
                execution=ExecutionParams(sweep_batching="on")
            ),
        )
        assert_sweeps_identical(
            reference, caching.evaluate_scenarios(setting, failures)
        )
        before = caching.cache_stats
        # the repeat sweep routes from cache hits, which carry no
        # reusable-destination hint
        assert_sweeps_identical(
            reference, caching.evaluate_scenarios(setting, failures)
        )
        assert caching.cache_stats.hits > before.hits

    def test_delay_class_shortcut(self, small_instance, tiny_config):
        """Failures off the delay DAGs but on the throughput DAGs keep
        the NORMAL delay routing: every column is base-equal."""
        network, traffic = small_instance
        for seed in range(30, 60):
            setting = self._setting(network, tiny_config, seed)
            normal = _evaluator(
                network, traffic, tiny_config, "on"
            ).evaluate_normal(setting)
            used_d = normal.routing_delay.used_arcs()
            used_t = normal.routing_tput.used_arcs()
            shortcut = [
                f
                for f in single_link_failures(network)
                if not used_d[list(f.failed_arcs)].any()
                and used_t[list(f.failed_arcs)].any()
            ]
            if shortcut:
                break
        assert shortcut
        batched = _evaluator(network, traffic, tiny_config, "on")
        normal = batched.evaluate_normal(setting)
        candidate = batched.evaluate_scenarios(
            setting, shortcut, reuse=normal
        )
        assert all(
            e.routing_delay is normal.routing_delay
            for e in candidate.evaluations
        )
        reference = _per_scenario(
            _evaluator(network, traffic, tiny_config, "off"),
            setting,
            shortcut,
        )
        assert_sweeps_identical(reference, candidate)

    def test_mean_delay_mode(self, small_instance, tiny_config):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=4)
        setting = self._setting(network, tiny_config, 44)
        configs = {
            mode: tiny_config.replace(
                execution=ExecutionParams(sweep_batching=mode)
            )
            for mode in ("off", "on")
        }
        reference = _per_scenario(
            DtrEvaluator(network, traffic, configs["off"], delay_mode="mean"),
            setting,
            scenarios,
        )
        batched = DtrEvaluator(
            network, traffic, configs["on"], delay_mode="mean"
        )
        assert_sweeps_identical(
            reference, batched.evaluate_scenarios(setting, scenarios)
        )

    def test_small_budget_chunks_the_replay(
        self, small_instance, tiny_config, monkeypatch
    ):
        import repro.routing.sweep as sweep_mod

        calls = []
        real_replay = sweep_mod.replay_delay_columns

        def counting_replay(plan, schedule, arc_delays, dests, mean):
            calls.append(arc_delays.shape[0] * len(dests))
            return real_replay(plan, schedule, arc_delays, dests, mean=mean)

        # one scenario's columns per replay call
        monkeypatch.setattr(sweep_mod, "kernel_cell_budget", lambda a: 3)
        monkeypatch.setattr(
            sweep_mod, "replay_delay_columns", counting_replay
        )
        network, traffic = small_instance
        failures = list(single_link_failures(network))
        setting = self._setting(network, tiny_config, 55)
        reference = _per_scenario(
            _evaluator(network, traffic, tiny_config, "off"),
            setting,
            failures,
        )
        batched = _evaluator(network, traffic, tiny_config, "on")
        assert_sweeps_identical(
            reference, batched.evaluate_scenarios(setting, failures)
        )
        assert len(calls) > 1
        assert max(calls) == network.num_nodes

    def test_variant_groups(self, small_instance, tiny_config):
        network, traffic = small_instance
        scenarios = cross(
            ScenarioSet.from_failures(single_link_failures(network)),
            [GaussianSurge(seed=3), GravityRescale(1.2)],
        )
        setting = self._setting(network, tiny_config, 66)
        reference = _per_scenario(
            _evaluator(network, traffic, tiny_config, "off"),
            setting,
            scenarios,
        )
        batched = _evaluator(network, traffic, tiny_config, "on")
        assert_sweeps_identical(
            reference, batched.evaluate_scenarios(setting, scenarios)
        )

    def test_batched_sweep_leaves_delay_memo_untouched(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        failures = list(single_link_failures(network))
        setting = self._setting(network, tiny_config, 77)
        evaluator = _evaluator(network, traffic, tiny_config, "on")
        memo = evaluator.engine.delay_memo
        normal = evaluator.evaluate_normal(setting)
        probes = memo.hits + memo.misses
        entries = len(memo)
        evaluator.evaluate_scenarios(setting, failures, reuse=normal)
        assert memo.hits + memo.misses == probes
        assert len(memo) == entries
        # the per-scenario path still probes and fills it
        for failure in failures:
            evaluator.evaluate(setting, failure, reuse=normal)
        assert memo.misses > 0 and len(memo) > entries
        hits = memo.hits
        for failure in failures:
            evaluator.evaluate(setting, failure, reuse=normal)
        assert memo.hits > hits


@pytest.mark.parallel
class TestParallelParity:
    def test_process_shm_matches_serial(self, small_instance, tiny_config):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=1)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(11),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_scenarios(setting, scenarios)
        config = tiny_config.replace(
            execution=ExecutionParams(n_jobs=2, sweep_batching="auto")
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, scenarios)
            repeat = parallel.evaluate_scenarios(setting, scenarios)
            assert parallel.num_evaluations == 2 * len(scenarios) + 2
        assert_sweeps_identical(reference, candidate)
        assert_sweeps_identical(reference, repeat)

    def test_thread_executor_matches_serial(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=2)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(12),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_scenarios(setting, scenarios)
        config = tiny_config.replace(
            execution=ExecutionParams(
                n_jobs=2, executor="thread", sweep_batching="auto"
            )
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, scenarios)
            assert parallel.num_evaluations == len(scenarios) + 1
        assert_sweeps_identical(reference, candidate)

    @pytest.mark.parametrize(
        "n_jobs,chunk_size", [(2, None), (3, None), (2, 1), (2, 5)]
    )
    def test_invariant_to_jobs_and_chunks(
        self, small_instance, tiny_config, n_jobs, chunk_size
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=3)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(13),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_scenarios(setting, scenarios)
        config = tiny_config.replace(
            execution=ExecutionParams(
                n_jobs=n_jobs,
                chunk_size=chunk_size,
                sweep_batching="auto",
            )
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, scenarios)
        assert_sweeps_identical(reference, candidate)

    def test_sweep_batching_off_keeps_legacy_transport(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        failures = single_link_failures(network)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(14),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_failures(setting, failures)
        config = tiny_config.replace(
            execution=ExecutionParams(n_jobs=2, sweep_batching="off")
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_failures(setting, failures)
        assert_sweeps_identical(reference, candidate)


class TestSharedSweepState:
    def test_roundtrip_is_zero_copy_and_read_only(self):
        arrays = {
            "a": np.arange(12.0).reshape(3, 4),
            "b": np.arange(7, dtype=np.int64),
        }
        payload = (arrays, "meta", 42)
        state = SharedSweepState(payload)
        try:
            loaded, shm = SharedSweepState.attach(state.name)
            got, tag, num = loaded
            assert tag == "meta" and num == 42
            assert np.array_equal(got["a"], arrays["a"])
            assert np.array_equal(got["b"], arrays["b"])
            # reconstructed arrays are views over the block, not copies
            assert not got["a"].flags.writeable
            assert not got["b"].flags.owndata
            del loaded, got
            shm.close()
        finally:
            state.dispose()
            state.dispose()  # idempotent

    def test_empty_buffer_payload(self):
        state = SharedSweepState(("no arrays here", 1))
        try:
            loaded, shm = SharedSweepState.attach(state.name)
            assert loaded == ("no arrays here", 1)
            shm.close()
        finally:
            state.dispose()
