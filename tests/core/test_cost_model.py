"""Bit-parity of :class:`CostModel` with the free cost functions.

The evaluator prices every routing through one :class:`CostModel`; the
free functions :func:`arc_delays`, :func:`fortz_cost` and
:func:`sla_outcome` stay the reference definitions.  Assertions use
exact equality.
"""

import numpy as np
import pytest

from repro.config import DelayModelParams, ExecutionParams, SlaParams
from repro.core.cost_model import CostModel
from repro.core.delay import arc_delays
from repro.core.evaluation import DtrEvaluator
from repro.core.fortz import FORTZ_BREAKPOINTS, fortz_cost
from repro.core.sla import sla_outcome
from repro.core.weights import WeightSetting
from repro.routing.arcs import Arc
from repro.routing.failures import (
    NORMAL,
    single_link_failures,
    single_node_failures,
)
from repro.routing.network import Network

#: A power-of-two capacity keeps ``utilization * capacity / capacity``
#: exact, so loads land precisely on the breakpoints below.
CAPACITY = float(2**27)

DELAY = DelayModelParams()

#: Every Fortz breakpoint, points above 1.1, the Eq. 1 linearization
#: point and the low-load threshold, each with its float neighbours.
UTILIZATIONS = sorted(
    {
        float(x)
        for point in (
            *FORTZ_BREAKPOINTS,
            1.5,
            3.0,
            DELAY.linearization_utilization,
            DELAY.low_load_threshold,
            0.5,
            0.97,
        )
        for x in (
            np.nextafter(point, -np.inf),
            point,
            np.nextafter(point, np.inf),
        )
        if x >= 0.0
    }
)


@pytest.fixture
def ring():
    """A bidirectional ring with enough arcs for every utilization."""
    n = (len(UTILIZATIONS) + 1) // 2 + 1
    arcs = []
    for u in range(n):
        v = (u + 1) % n
        arcs.append(Arc(u, v, CAPACITY, 0.001 * (u + 1)))
        arcs.append(Arc(v, u, CAPACITY, 0.002))
    return Network(n, arcs)


def _demands(n, gen):
    demands = gen.uniform(0.0, 3.0, size=(n, n))
    demands[gen.uniform(size=(n, n)) < 0.3] = 0.0
    np.fill_diagonal(demands, 0.0)
    return demands


def _loads(network, gen):
    util = np.resize(np.asarray(UTILIZATIONS), network.num_arcs)
    return gen.permutation(util) * CAPACITY


@pytest.mark.parametrize("seed", range(4))
def test_delays_and_fortz_match_free_functions(ring, seed):
    gen = np.random.default_rng(seed)
    demands = _demands(ring.num_nodes, gen)
    model = CostModel(ring, demands, DELAY, SlaParams())
    total = _loads(ring, gen)
    utilization = model.utilization(total)
    assert np.array_equal(utilization, total / ring.capacity)
    expected = arc_delays(total, ring.capacity, ring.prop_delay, DELAY)
    assert np.array_equal(model.arc_delays(utilization), expected)
    for include in (
        np.ones(ring.num_arcs, dtype=bool),
        gen.uniform(size=ring.num_arcs) < 0.5,
        np.zeros(ring.num_arcs, dtype=bool),
    ):
        assert model.fortz(utilization, include) == fortz_cost(
            total, ring.capacity, include=include
        )


def test_all_low_load_delays_are_propagation(ring):
    model = CostModel(
        ring, np.zeros((ring.num_nodes,) * 2), DELAY, SlaParams()
    )
    utilization = np.full(ring.num_arcs, DELAY.low_load_threshold)
    delays = model.arc_delays(utilization)
    assert np.array_equal(delays, ring.prop_delay)
    assert delays is not ring.prop_delay


@pytest.mark.parametrize("seed", range(4))
def test_sla_matches_free_function(ring, seed):
    """Finite, over-bound and disconnected pairs; base and node-removal
    demand matrices."""
    gen = np.random.default_rng(seed)
    n = ring.num_nodes
    sla = SlaParams(theta=0.02)
    demands = _demands(n, gen)
    model = CostModel(ring, demands, DELAY, sla)
    delays = gen.uniform(0.0, 0.06, size=(n, n))
    delays[gen.uniform(size=(n, n)) < 0.15] = np.inf
    delays[demands == 0.0] = np.nan  # unrouted pairs carry no demand
    removed = demands.copy()
    node = int(gen.integers(0, n))
    removed[node, :] = 0.0
    removed[:, node] = 0.0
    for matrix in (demands, removed):
        assert model.sla(delays, matrix) == sla_outcome(delays, matrix, sla)
    # the base matrix by value, not identity, takes the same result
    assert model.sla(delays, demands.copy()) == sla_outcome(
        delays, demands, sla
    )


def test_sla_all_connected_and_all_within_bound(ring):
    n = ring.num_nodes
    demands = np.ones((n, n)) - np.eye(n)
    model = CostModel(ring, demands, DELAY, SlaParams())
    delays = np.full((n, n), 0.001)
    outcome = model.sla(delays, demands)
    assert outcome == sla_outcome(delays, demands, SlaParams())
    assert outcome.cost == 0.0 and outcome.violations == 0


def test_sla_rejects_unrouted_demand_pair(ring):
    n = ring.num_nodes
    demands = np.ones((n, n)) - np.eye(n)
    model = CostModel(ring, demands, DELAY, SlaParams())
    delays = np.full((n, n), 0.001)
    delays[0, 1] = np.nan
    with pytest.raises(ValueError, match="no routed delay"):
        model.sla(delays, demands)
    with pytest.raises(ValueError, match="no routed delay"):
        sla_outcome(delays, demands, SlaParams())


@pytest.mark.parametrize("incremental", [True, False])
def test_evaluations_price_like_free_functions(
    small_instance, tiny_config, incremental
):
    """Evaluator outcomes re-priced by the free functions agree, on the
    normal scenario, link failures and node removals."""
    network, traffic = small_instance
    config = tiny_config.replace(
        execution=ExecutionParams(incremental_routing=incremental)
    )
    evaluator = DtrEvaluator(network, traffic, config)
    setting = WeightSetting.random(
        network.num_arcs, config.weights, np.random.default_rng(3)
    )
    normal = evaluator.evaluate(setting, NORMAL)
    scenarios = list(single_link_failures(network))[:4]
    scenarios += list(single_node_failures(network))[:3]
    for outcome in [normal] + [
        evaluator.evaluate(setting, s, reuse=normal) for s in scenarios
    ]:
        total = outcome.loads_delay + outcome.loads_tput
        assert np.array_equal(outcome.utilization, total / network.capacity)
        assert np.array_equal(
            outcome.arc_delay,
            arc_delays(
                total, network.capacity, network.prop_delay, config.delay
            ),
        )
        assert outcome.cost.phi == fortz_cost(
            total, network.capacity, include=outcome.loads_tput > 0.0
        )
        demands = traffic.delay.values.copy()
        removed = list(outcome.scenario.removed_nodes)
        demands[removed, :] = 0.0
        demands[:, removed] = 0.0
        assert outcome.sla == sla_outcome(
            outcome.pair_delays, demands, config.sla
        )
