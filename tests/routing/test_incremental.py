"""Parity tests for the incremental delta-rerouting core.

The contract is strict: after any sequence of single-arc weight moves,
reverts, and failure scenarios, :class:`IncrementalRouter` must produce
``dist`` / ``masks`` / ``loads`` / ``undelivered`` **bit-identical** to a
from-scratch :meth:`RoutingEngine.route_class` call.  Assertions use
exact equality throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.arcs import Arc
from repro.routing.engine import RoutingEngine
from repro.routing.failures import (
    FailureScenario,
    single_link_failures,
    single_node_failures,
)
from repro.routing.incremental import SYNC_DELTA_LIMIT, IncrementalRouter
from repro.routing.network import Network
from repro.routing.spf import _dijkstra_to, _reverse_adjacency
from repro.topology import rand_topology


def assert_routing_identical(incremental, scratch):
    """Exact equality of every array of two ClassRoutings."""
    np.testing.assert_array_equal(
        incremental.destinations, scratch.destinations
    )
    assert np.array_equal(incremental.dist, scratch.dist)
    assert np.array_equal(incremental.masks, scratch.masks)
    assert np.array_equal(incremental.loads, scratch.loads)
    assert np.array_equal(incremental.demands, scratch.demands)
    assert incremental.undelivered == scratch.undelivered


def assert_router_matches_fresh(router, network, demands):
    """The router's held state equals a fresh router's at its weights."""
    fresh = IncrementalRouter(network, demands, np.array(router.weights))
    assert np.array_equal(router._dist_cols, fresh._dist_cols)
    assert np.array_equal(router._masks, fresh._masks)
    assert np.array_equal(router._contribs, fresh._contribs)
    assert np.array_equal(router._und, fresh._und)
    assert_routing_identical(router.routing, fresh.routing)


@st.composite
def router_cases(draw):
    """Random (network, weights, demands) instances."""
    seed = draw(st.integers(0, 2**31 - 1))
    num_nodes = draw(st.integers(8, 16))
    degree = draw(st.sampled_from([3.0, 4.0, 5.0]))
    gen = np.random.default_rng(seed)
    network = rand_topology(
        num_nodes, degree, gen, two_edge_connected=False
    )
    weights = gen.integers(1, 18, network.num_arcs).astype(np.float64)
    demands = gen.uniform(0.0, 5.0, size=(num_nodes, num_nodes))
    np.fill_diagonal(demands, 0.0)
    demands[gen.uniform(size=demands.shape) < 0.3] = 0.0
    return network, weights, demands, seed


@settings(max_examples=20, deadline=None)
@given(case=router_cases())
def test_move_sequences_bit_identical(case):
    """Long random move/revert sequences match route_class exactly."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 1)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    for _ in range(30):
        arc = int(gen.integers(0, network.num_arcs))
        old = current[arc]
        new = float(gen.integers(1, 18))
        current[arc] = new
        router.set_arc_weight(arc, new)
        if gen.uniform() < 0.3:  # revert, like a rejected move
            current[arc] = old
            router.set_arc_weight(arc, old)
        assert_routing_identical(
            router.routing, engine.route_class(current, demands)
        )


@settings(max_examples=20, deadline=None)
@given(case=router_cases())
def test_failure_scenarios_bit_identical(case):
    """Arc, link and node failures match a scratch scenario routing."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 2)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    scenarios = list(single_link_failures(network))
    scenarios += [
        FailureScenario(failed_arcs=(int(a),), label=f"arc:{a}")
        for a in gen.choice(
            network.num_arcs, size=min(6, network.num_arcs), replace=False
        )
    ]
    scenarios += list(
        single_node_failures(
            network, nodes=gen.choice(network.num_nodes, 4, replace=False)
        )
    )
    for scenario in scenarios:
        got = router.route_scenario(scenario).routing
        expected = engine.route_class(weights, demands, scenario)
        assert_routing_identical(got, expected)
    # scenario routing never mutates the base state
    assert_routing_identical(
        router.routing, engine.route_class(weights, demands)
    )


@settings(max_examples=10, deadline=None)
@given(case=router_cases())
def test_interleaved_moves_and_failures(case):
    """Moves, reverts and failure sweeps interleaved stay exact."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 3)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    failures = list(single_link_failures(network))
    for step in range(8):
        arc = int(gen.integers(0, network.num_arcs))
        new = float(gen.integers(1, 18))
        current[arc] = new
        router.set_arc_weight(arc, new)
        for scenario in failures[:: max(1, len(failures) // 5)]:
            got = router.route_scenario(scenario).routing
            expected = engine.route_class(current, demands, scenario)
            assert_routing_identical(got, expected)


class TestSyncAndReuse:
    @pytest.fixture
    def instance(self):
        gen = np.random.default_rng(3)
        network = rand_topology(12, 4.0, gen)
        weights = gen.integers(1, 15, network.num_arcs).astype(np.float64)
        demands = gen.uniform(0.0, 5.0, size=(12, 12))
        np.fill_diagonal(demands, 0.0)
        return network, weights, demands

    def test_sync_rebuild_on_large_diff(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        other = np.maximum(1.0, weights[::-1].copy())
        router.sync(other)
        assert router.stats.rebuilds == 2  # constructor + oversized sync
        expected = RoutingEngine(network).route_class(other, demands)
        assert_routing_identical(router.routing, expected)

    def test_sync_small_diff_uses_deltas(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        moved = weights.copy()
        moved[0] = moved[0] + 1
        moved[3] = max(1.0, moved[3] - 1)
        router.sync(moved)
        assert router.stats.rebuilds == 1
        assert router.stats.deltas == 2
        expected = RoutingEngine(network).route_class(moved, demands)
        assert_routing_identical(router.routing, expected)

    def test_unused_arc_increase_touches_nothing(self, instance):
        """The classic unused-arc shortcut is the trivial delta case."""
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        used = router.routing.used_arcs()
        unused = np.flatnonzero(~used)
        if unused.size == 0:
            pytest.skip("every arc used under this weight draw")
        before = router.stats.destinations_recomputed
        routing_before = router.routing
        touched = router.set_arc_weight(int(unused[0]), 20.0)
        assert touched == 0
        assert router.stats.destinations_recomputed == before
        # the assembled routing is still valid (and still cached)
        assert router.routing is routing_before

    def test_matching_destinations_exact(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        base = router.routing
        all_dests = frozenset(int(t) for t in router.destinations)
        assert router.matching_destinations(base) == all_dests
        assert router.matching_destinations(None) is None
        # a delta shrinks the matching set by exactly the touched rows
        arc = int(np.flatnonzero(base.used_arcs())[0])
        router.set_arc_weight(arc, 20.0)
        matching = router.matching_destinations(base)
        expected = frozenset(
            int(t)
            for row, t in enumerate(router.destinations)
            if np.array_equal(base.masks[row], router.routing.masks[row])
            and np.array_equal(
                base.dist[:, int(t)], router.routing.dist[:, int(t)]
            )
        )
        assert matching == expected

    def test_non_integral_weights_rejected_from_fast_dijkstra(
        self, instance
    ):
        """Float weights still route correctly (scipy fallback)."""
        network, weights, demands = instance
        w = weights + 0.5
        router = IncrementalRouter(network, demands, w)
        expected = RoutingEngine(network).route_class(w, demands)
        assert_routing_identical(router.routing, expected)

    def test_weight_below_one_rejected(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        with pytest.raises(ValueError, match=">= 1"):
            router.set_arc_weight(0, 0.0)

    def test_bad_demand_shape_rejected(self, instance):
        network, weights, _ = instance
        with pytest.raises(ValueError, match="shape"):
            IncrementalRouter(network, np.zeros((3, 3)), weights)


@settings(max_examples=15, deadline=None)
@given(case=router_cases())
def test_journalled_reverts_with_drift(case):
    """Moves and journal reverts interleaved with every kind of drift.

    Scenario routes leave a journal valid; syncs to unrelated weights,
    rebuilds and later moves make it stale, and a stale journal must be
    refused, leaving the router as it was.  After every step the held
    state equals a fresh router's.
    """
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 4)
    router = IncrementalRouter(network, demands, weights)
    failures = list(single_link_failures(network))
    journals = []  # (journal, mutation count when it was taken)
    mutations = 0
    for _ in range(40):
        action = gen.uniform()
        if action < 0.45 or not journals:
            arc = int(gen.integers(0, network.num_arcs))
            new = float(gen.integers(1, 18))
            if router.weight_of(arc) == new:
                router.set_arc_weight(arc, new)
                assert router.last_journal is None
                continue
            router.set_arc_weight(arc, new)
            mutations += 1
            journals.append((router.last_journal, mutations))
        elif action < 0.7:
            # revert the latest journal, or a stale older one
            pick = -1 if gen.uniform() < 0.7 else int(
                gen.integers(0, len(journals))
            )
            journal, taken = journals.pop(pick)
            fresh = taken == mutations
            version = router.version
            assert router.revert(journal) == fresh
            if fresh:
                mutations += 1
                assert router.weight_of(journal.arc) == journal.old_weight
            else:
                assert router.version == version
        elif action < 0.8:
            for scenario in failures[:: max(1, len(failures) // 3)]:
                router.route_scenario(scenario)
        elif action < 0.92:
            other = np.array(router.weights)
            arcs = gen.choice(network.num_arcs, size=2, replace=False)
            other[arcs] = gen.integers(1, 18, size=2)
            if router.sync(other):
                mutations += 1
        else:
            other = gen.integers(1, 18, network.num_arcs).astype(float)
            changed = router.sync(other)
            if changed > SYNC_DELTA_LIMIT:
                assert router.stats.rebuilds >= 2
            if changed:
                mutations += 1
        assert_router_matches_fresh(router, network, demands)


def test_revert_restores_without_recompute():
    """A fresh journal restores the exact rows and cached routing."""
    gen = np.random.default_rng(5)
    network = rand_topology(12, 4.0, gen)
    weights = gen.integers(1, 15, network.num_arcs).astype(np.float64)
    demands = gen.uniform(0.0, 5.0, size=(12, 12))
    np.fill_diagonal(demands, 0.0)
    router = IncrementalRouter(network, demands, weights)
    before = router.routing
    arc = int(np.flatnonzero(before.used_arcs())[0])
    router.set_arc_weight(arc, 30.0)
    journal = router.last_journal
    assert journal.rows.size
    recomputed = router.stats.destinations_recomputed
    version = router.version
    assert router.revert(journal)
    assert router.version == version + 1
    assert router.stats.reverts == 1
    assert router.stats.destinations_recomputed == recomputed
    assert router.routing is before
    assert router.weight_of(arc) == weights[arc]
    assert_router_matches_fresh(router, network, demands)
    # a journal applies once
    assert not router.revert(journal)


def _random_digraph(gen, num_nodes):
    """A sparse random digraph with a sink-only and a source-only node.

    Node 0 has no in-arcs and the last node no out-arcs, so some
    distances are infinite whatever the weights.
    """
    arcs = [
        Arc(u, v, 1e8, 0.001)
        for u in range(num_nodes - 1)
        for v in range(1, num_nodes)
        if u != v and gen.uniform() < 0.3
    ]
    return Network(num_nodes, arcs)


def _dijkstra_columns(network, weights, dests):
    n = network.num_nodes
    rev = _reverse_adjacency(network)
    src = [int(u) for u in network.arc_src]
    return np.stack(
        [
            np.asarray(_dijkstra_to(n, rev, src, weights.tolist(), None, t))
            for t in dests
        ],
        axis=1,
    )


class TestClosedFormDecrease:
    def test_matches_dijkstra(self, monkeypatch):
        """Decreases update columns in closed form, equal to Dijkstra.

        Every node carries demand, so every arc's tail has a held column
        and no decrease may fall back to a Dijkstra.  Half the decreases
        land exactly on a tie, exercising joins-only rows.
        """
        seen = {"joins": 0, "improves": 0, "unreachable": 0}
        for seed in range(12):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(6, 13))
            network = _random_digraph(gen, n)
            weights = gen.integers(4, 18, network.num_arcs).astype(float)
            demands = gen.uniform(0.5, 5.0, size=(n, n))
            np.fill_diagonal(demands, 0.0)
            router = IncrementalRouter(network, demands, weights)
            monkeypatch.setattr(
                router,
                "_columns_for",
                lambda *a, **k: pytest.fail("decrease ran a Dijkstra"),
            )
            dests = router.destinations
            for arc in gen.permutation(network.num_arcs)[:10]:
                arc = int(arc)
                u, v = int(network.arc_src[arc]), int(network.arc_dst[arc])
                du = router._dist_cols[u]
                dv = router._dist_cols[v]
                with np.errstate(invalid="ignore"):
                    gaps = du - dv
                ties = gaps[
                    np.isfinite(gaps) & (gaps >= 1) & (gaps < weights[arc])
                ]
                if ties.size and gen.uniform() < 0.5:
                    new = float(ties[int(gen.integers(0, ties.size))])
                elif weights[arc] > 1:
                    new = float(gen.integers(1, weights[arc]))
                else:
                    continue
                target = new + dv
                seen["joins"] += int(np.sum(du == target))
                seen["improves"] += int(np.sum(du > target))
                weights[arc] = new
                router.set_arc_weight(arc, new)
                expected = _dijkstra_columns(network, weights, dests)
                seen["unreachable"] += int(np.isinf(expected).sum())
                assert np.array_equal(router._dist_cols, expected)
                assert_router_matches_fresh(router, network, demands)
        assert all(count > 0 for count in seen.values()), seen

    @pytest.mark.parametrize("fallback", ["sparse-demand", "non-integral"])
    def test_fallbacks_run_dijkstra(self, fallback, monkeypatch):
        """Tails without a held column, and non-integral weights, keep
        the Dijkstra path — and stay exact."""
        gen = np.random.default_rng(21)
        network = rand_topology(12, 4.0, gen)
        weights = gen.integers(8, 18, network.num_arcs).astype(np.float64)
        demands = np.zeros((12, 12))
        if fallback == "sparse-demand":
            demands[:, :4] = gen.uniform(1.0, 5.0, size=(12, 4))
        else:
            demands = gen.uniform(1.0, 5.0, size=(12, 12))
            weights += 0.5
        np.fill_diagonal(demands, 0.0)
        router = IncrementalRouter(network, demands, weights)
        dijkstra_rows = []
        recompute = router._recompute_rows

        def spy(rows, repair_failed=None):
            if repair_failed is None:
                dijkstra_rows.append(rows.size)
            return recompute(rows, repair_failed)

        monkeypatch.setattr(router, "_recompute_rows", spy)
        arcs = [
            a
            for a in range(network.num_arcs)
            if fallback == "non-integral" or network.arc_src[a] >= 4
        ]
        for arc in arcs:
            router.set_arc_weight(arc, 1.0)
            assert_router_matches_fresh(router, network, demands)
        assert dijkstra_rows
