"""Unit tests for Monte-Carlo fault-injection campaigns.

Campaign rows are folded by :func:`repro.scenarios.suite.fold_campaign`
over outcomes the shard executor evaluates against one route index (the
``index_campaign`` fixture); fault-size sweeps run through the scenario
suite.
"""

import functools

import pytest

from repro.core import kernel_routing
from repro.faults import FaultSet
from repro.graphs import generators
from repro.scenarios import run_scenario_suite

#: The scenario spelling of ``routing_under_test``, for suite sweeps.
SWEEP = "circulant:n=12,offsets=1+2/kernel/sizes:0,1,2"


@pytest.fixture(scope="module")
def routing_under_test():
    graph = generators.circulant_graph(12, [1, 2])
    return graph, kernel_routing(graph)


@pytest.fixture
def run(routing_under_test, index_campaign):
    """Fold one campaign on ``routing_under_test``."""
    graph, result = routing_under_test
    return functools.partial(index_campaign, graph, result.routing)


class TestRunCampaign:
    def test_basic_statistics(self, run):
        campaign = run(2, samples=20, seed=0)
        assert campaign.samples == 20
        assert campaign.fault_size == 2
        assert campaign.min_diameter <= campaign.mean_diameter <= campaign.max_diameter
        assert 0.0 <= campaign.disconnected_fraction <= 1.0

    def test_reproducible(self, run):
        first = run(2, samples=10, seed=7)
        second = run(2, samples=10, seed=7)
        assert first.mean_diameter == second.mean_diameter
        assert first.max_diameter == second.max_diameter

    def test_zero_faults_matches_fault_free_diameter(self, routing_under_test, run):
        graph, result = routing_under_test
        from repro.core import surviving_diameter

        campaign = run(0, samples=3, seed=1)
        assert campaign.max_diameter == surviving_diameter(graph, result.routing, ())
        assert campaign.disconnected_fraction == 0.0

    def test_explicit_fault_sets(self, run):
        campaign = run(1, fault_sets=[FaultSet({0}), FaultSet({5})])
        assert campaign.samples == 2

    def test_empty_fault_sets_rejected(self, run):
        with pytest.raises(ValueError):
            run(1, fault_sets=[])

    def test_as_row(self, run):
        campaign = run(1, samples=5, seed=2)
        row = campaign.as_row()
        assert row["faults"] == 1
        assert row["samples"] == 5
        assert "mean_diam" in row

    def test_worst_fault_set_recorded(self, run):
        campaign = run(2, samples=10, seed=3)
        assert campaign.worst_fault_set is not None
        assert len(campaign.worst_fault_set) <= 2

    def test_disconnecting_fault_set_dominates_worst(self, routing_under_test, run):
        """Regression: a disconnecting set must win even when seen *after* a
        finite-diameter set (previously it only won when it came first)."""
        graph, result = routing_under_test
        from repro.core import surviving_diameter

        finite = FaultSet({0})
        isolating = FaultSet(set(graph.neighbors(3)), description="isolates 3")
        assert surviving_diameter(graph, result.routing, finite) < float("inf")
        assert surviving_diameter(graph, result.routing, isolating) == float("inf")
        campaign = run(fault_size=4, fault_sets=[finite, isolating])
        assert campaign.disconnected_fraction == 0.5
        assert campaign.worst_fault_set == isolating

    def test_first_of_equal_worst_diameters_wins(self, run):
        first = FaultSet({0}, description="first")
        second = FaultSet({6}, description="second")
        campaign = run(fault_size=1, fault_sets=[first, second])
        assert campaign.worst_fault_set.description == "first"


class TestRealisedFaultSizes:
    def test_fixed_size_battery_records_constant_sizes(self, run):
        campaign = run(2, samples=10, seed=1)
        assert campaign.faults_min == campaign.faults_max == 2
        assert campaign.faults_mean == 2.0
        assert not campaign.variable_fault_sizes

    def test_variable_battery_surfaces_min_mean_max(self, run):
        campaign = run(
            fault_size=0,
            fault_sets=[FaultSet(()), FaultSet({0}), FaultSet({1, 5, 7})],
        )
        assert campaign.faults_min == 0
        assert campaign.faults_max == 3
        assert campaign.faults_mean == pytest.approx(4 / 3)
        assert campaign.variable_fault_sizes
        row = campaign.as_row()
        assert row["faults"] == "0..3"
        assert row["mean_faults"] == round(campaign.faults_mean, 2)


class TestRecordRoundTrip:
    def test_campaign_result_round_trips(self, run):
        campaign = run(2, samples=10, seed=3)
        from repro.faults import CampaignResult

        record = campaign.record()
        assert record["kind"] == "exact"
        restored = CampaignResult.from_record(record)
        assert restored == campaign

    def test_decision_result_round_trips(self, run):
        campaign = run(2, samples=10, seed=3, bound=4)
        from repro.faults import DecisionCampaignResult

        record = campaign.record()
        assert record["kind"] == "decision"
        assert record["pass_rate"] == campaign.pass_fraction
        restored = DecisionCampaignResult.from_record(record)
        assert restored == campaign

    def test_worst_fault_set_survives_the_round_trip(self, run):
        campaign = run(2, samples=10, seed=5)
        from repro.faults import CampaignResult

        restored = CampaignResult.from_record(campaign.record())
        assert restored.worst_fault_set == campaign.worst_fault_set

    def test_disconnection_marks_worst_diam_infinite(self, routing_under_test, run):
        graph, result = routing_under_test
        isolating = FaultSet(set(graph.neighbors(3)))
        campaign = run(4, fault_sets=[FaultSet({0}), isolating])
        assert campaign.record()["worst_diam"] == float("inf")

    def test_run_campaign_emits_into_frame(self, run):
        from repro.results import result_frame

        frame = result_frame()
        campaign = run(1, samples=5, seed=2)
        frame.append(campaign.record())
        assert len(frame) == 1
        assert frame.row(0)["samples"] == campaign.samples
        assert frame.row(0)["source"] == "campaign"

    def test_sweep_emits_one_record_per_size(self):
        from repro.results import result_frame

        frame = result_frame()
        for row in run_scenario_suite([SWEEP], samples=5, seed=0):
            frame.append(row.record())
        assert frame.column("faults") == (0, 1, 2)


class TestSweep:
    def test_sweep_sizes(self):
        rows = run_scenario_suite([SWEEP], samples=5, seed=0)
        assert [row.campaign.fault_size for row in rows] == [0, 1, 2]

    def test_disconnection_appears_beyond_connectivity(self, run):
        # With far more faults than the connectivity the graph often
        # disconnects; the campaign must report it rather than crash.
        campaign = run(8, samples=20, seed=5)
        assert campaign.samples == 20
        assert campaign.disconnected_fraction >= 0.0
