"""Bounded-decision campaigns: rows folded with a ``bound``.

Campaigns are planned by ``plan_campaign`` with the bound as the cap,
evaluated on the shard executor against one route index and folded by
``fold_campaign`` (the ``index_campaign`` fixture); multi-size sweeps run
through the scenario suite.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import RouteIndex, kernel_routing
from repro.faults import DecisionCampaignResult
from repro.faults.adversary import random_fault_sets
from repro.graphs import generators
from repro.scenarios import run_scenario_suite


@pytest.fixture(scope="module")
def workload():
    graph = generators.cycle_graph(16)
    result = kernel_routing(graph)
    return graph, result.routing


class TestDecisionCampaigns:
    def test_returns_decision_result(self, workload, index_campaign):
        graph, routing = workload
        row = index_campaign(graph, routing, 2, samples=15, seed=3, bound=4)
        assert isinstance(row, DecisionCampaignResult)
        assert row.bound == 4
        assert row.samples == 15
        assert row.violations + round(row.pass_fraction * row.samples) == row.samples
        assert row.bfs_strategy == "batched"

    def test_decisions_agree_with_exact_evaluation(self, workload, index_campaign):
        """A set is a violation iff its exact surviving diameter exceeds the bound."""
        graph, routing = workload
        index = RouteIndex(graph, routing)
        battery = list(random_fault_sets(graph.nodes(), 3, 25, seed=7))
        bound = 4
        row = index_campaign(
            graph, routing, 3, fault_sets=battery, bound=bound, index=index
        )
        exact = [index.surviving_diameter(fault_set) for fault_set in battery]
        expected_violations = sum(1 for diam in exact if diam > bound)
        assert row.violations == expected_violations
        if expected_violations:
            first = next(
                fault_set
                for fault_set, diam in zip(battery, exact)
                if diam > bound
            )
            assert row.first_violation == first
        assert row.holds == (expected_violations == 0)

    def test_worst_diameter_exact_while_bound_holds(self, workload, index_campaign):
        graph, routing = workload
        row = index_campaign(graph, routing, 1, samples=20, seed=2, bound=10)
        assert row.holds
        # With a generous bound every capped outcome is exact, so the worst
        # matches the exact campaign's max over the same battery.
        exact_row = index_campaign(graph, routing, 1, samples=20, seed=2)
        assert row.worst_diameter == exact_row.max_diameter

    def test_rows_identical_for_1_vs_4_workers(self):
        spec = "cycle:n=16/kernel/sizes:1,2,3"
        a = [
            row.as_row()
            for row in run_scenario_suite([spec], samples=18, seed=4, bound=4)
        ]
        b = [
            row.as_row()
            for row in run_scenario_suite(
                [spec], samples=18, seed=4, bound=4, workers=4
            )
        ]
        assert a == b

    def test_module_level_run_campaign_bound(self):
        (row,) = run_scenario_suite(
            ["cycle:n=16/kernel/sizes:2"], samples=10, seed=1, bound=5
        )
        assert isinstance(row.campaign, DecisionCampaignResult)

    def test_decision_row_rendering(self, workload, index_campaign):
        graph, routing = workload
        row = index_campaign(graph, routing, 2, samples=10, seed=1, bound=2)
        flat = row.as_row()
        assert flat["bound"] == 2
        assert flat["holds"] in ("yes", "NO")
        assert 0.0 <= flat["pass"] <= 1.0


class TestSlimIndex:
    def test_slim_index_evaluates_identically(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        slim = index.slim()
        assert slim.graph is None and slim.routing is None
        for fault_set in random_fault_sets(graph.nodes(), 2, 10, seed=5):
            assert slim.surviving_diameter(fault_set) == index.surviving_diameter(
                fault_set
            )
            assert slim.surviving_diameter_at_most(fault_set, 4) == (
                index.surviving_diameter(fault_set) <= 4
            )

    def test_slim_payload_is_smaller(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        full = len(pickle.dumps(index))
        slim = len(pickle.dumps(index.slim()))
        assert slim < full

    def test_slim_survives_pickling(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        restored = pickle.loads(pickle.dumps(index.slim()))
        fault_set = next(iter(random_fault_sets(graph.nodes(), 2, 1, seed=9)))
        assert restored.surviving_diameter(fault_set) == index.surviving_diameter(
            fault_set
        )
        assert restored.node_pool == index.node_pool

    def test_slim_does_not_match_originals(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        assert not index.slim().matches(graph, routing)
