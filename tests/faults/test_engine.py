"""Unit tests for the shard executor and the campaigns and scans built on it.

The central contract under test is determinism: the same integer seed must
produce byte-identical campaign rows and tolerance answers no matter how
many worker processes evaluate the battery, because sharding and per-shard
seeding depend only on the battery and chunk size — never on the pool.
Campaign rows are folded over outcomes the executor evaluates against one
route index (the ``index_campaign`` fixture) or come from the scenario
suite; early-exit scans are the tolerance functions.
"""

import math

import pytest

from repro.core import (
    RouteIndex,
    check_tolerance,
    kernel_routing,
    worst_case_diameter,
)
from repro.faults import (
    FaultSet,
    all_fault_sets,
    combined_fault_sets,
    shard_seed,
)
from repro.faults.engine import (
    DEFAULT_CHUNK_SIZE,
    ShardExecutor,
    evaluate_on_index,
    workload_key,
)
from repro.graphs import generators
from repro.scenarios import run_scenario_suite
from repro.scenarios.suite import fold_campaign, plan_campaign

#: The scenario spelling of ``workload``, for suite sweeps.
SPEC = "circulant:n=14,offsets=1+2/kernel"


@pytest.fixture(scope="module")
def workload():
    graph = generators.circulant_graph(14, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing


def _rows(campaigns):
    return [
        (campaign.as_row(), campaign.worst_fault_set and campaign.worst_fault_set.nodes())
        for campaign in campaigns
    ]


def _explicit(battery, chunk_size=DEFAULT_CHUNK_SIZE, cap=None):
    return plan_campaign("explicit", 0, chunk_size, cap, fault_sets=battery)


def _sweep(sizes, **kwargs):
    spec = f"{SPEC}/sizes:{','.join(map(str, sizes))}"
    return [row.campaign for row in run_scenario_suite([spec], **kwargs)]


class TestShardSeed:
    def test_stable_across_calls(self):
        assert shard_seed(7, "size=3", 2) == shard_seed(7, "size=3", 2)

    def test_distinct_per_shard_and_tag(self):
        seeds = {shard_seed(7, tag, shard) for tag in ("a", "b") for shard in range(4)}
        assert len(seeds) == 8


class TestEngineDeterminism:
    def test_run_campaign_same_rows_for_any_worker_count(self, workload, index_campaign):
        graph, routing = workload
        first = index_campaign(graph, routing, 2, samples=40, seed=11)
        second = index_campaign(graph, routing, 2, samples=40, seed=11, workers=3)
        assert first == second
        assert first.worst_fault_set.nodes() == second.worst_fault_set.nodes()

    def test_sweep_same_rows_for_any_worker_count(self):
        assert _rows(_sweep([0, 1, 2, 3], samples=15, seed=5)) == _rows(
            _sweep([0, 1, 2, 3], samples=15, seed=5, workers=2)
        )

    def test_module_level_wrappers_forward_workers(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=20, seed=3)
        assert worst_case_diameter(graph, routing, battery) == worst_case_diameter(
            graph, routing, battery, workers=2
        )
        sequential = check_tolerance(graph, routing, 3, 2)
        parallel = check_tolerance(graph, routing, 3, 2, workers=2)
        assert repr(sequential) == repr(parallel)
        assert sequential.worst_fault_set == parallel.worst_fault_set

    def test_explicit_battery_same_for_any_worker_count(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=20, seed=0)
        index = RouteIndex(graph, routing)
        assert list(evaluate_on_index(index, _explicit(battery))) == list(
            evaluate_on_index(index, _explicit(battery), workers=2)
        )

    def test_chunk_size_does_not_change_explicit_outcomes(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=20, seed=1)
        index = RouteIndex(graph, routing)
        small = evaluate_on_index(index, _explicit(battery, chunk_size=3))
        large = evaluate_on_index(index, _explicit(battery, chunk_size=500))
        assert list(small) == list(large)

    def test_duplicate_sweep_sizes_draw_independent_batteries(self):
        """Repeating a size in a sweep must sample fresh fault sets, not
        replay the first campaign (seeds hash the plan position)."""
        first, second = _sweep([3, 3], samples=8, seed=0)
        assert first.worst_fault_set.nodes() != second.worst_fault_set.nodes()

    def test_pool_reused_across_campaigns_and_closeable(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        battery = [FaultSet({0}), FaultSet({1, 2})]
        executor = ShardExecutor(
            {workload_key(None, None): (index, None)}, workers=2
        )
        try:
            list(executor.run(_explicit(battery)))
            pool = executor._pool
            assert pool is not None
            list(executor.run(_explicit(battery)))
            assert executor._pool is pool
            executor.close()
            assert executor._pool is None
            # The executor remains usable after close (a fresh pool starts).
            results = list(executor.run(_explicit(battery)))
            assert [len(outcomes) for _task, (_fp, outcomes) in results] == [2]
        finally:
            executor.close()


def _exhaustive_plan(graph, max_faults, chunk_size):
    n = graph.number_of_nodes()
    return [
        shard
        for size in range(max_faults + 1)
        for shard in plan_campaign(
            "exhaustive", size, chunk_size, total=math.comb(n, size)
        )
    ]


class TestExhaustiveShards:
    def test_shards_reproduce_all_fault_sets_order(self, workload):
        graph, _routing = workload
        sharded = [
            fault_set.nodes()
            for shard in _exhaustive_plan(graph, 2, 7)
            for fault_set in shard.materialise(graph)
        ]
        reference = [fs.nodes() for fs in all_fault_sets(graph.nodes(), 2)]
        assert sharded == reference

    def test_combinations_slice_matches_islice_reference(self):
        import itertools

        from repro.faults.engine import _combinations_slice

        pool = list(range(9))
        for size in range(0, 5):
            reference = list(itertools.combinations(pool, size))
            for start in range(0, len(reference) + 2):
                for count in (1, 3, len(reference) + 5):
                    expected = reference[start : start + count]
                    assert list(_combinations_slice(pool, size, start, count)) == expected

    def test_shard_boundaries_deterministic(self, workload):
        graph, _routing = workload
        first = [
            (shard.mode, shard.fault_size, shard.start, shard.count)
            for shard in _exhaustive_plan(graph, 2, 5)
        ]
        second = [
            (shard.mode, shard.fault_size, shard.start, shard.count)
            for shard in _exhaustive_plan(graph, 2, 5)
        ]
        assert first == second
        assert all(mode == "exhaustive" for mode, _, _, _ in first)

    def test_exhaustive_worst_case_matches_explicit_battery(self, workload):
        graph, routing = workload
        battery = list(all_fault_sets(graph.nodes(), 2))
        exact, exact_set, exact_count = worst_case_diameter(graph, routing, battery)
        report = check_tolerance(graph, routing, float("inf"), 2)
        assert report.exhaustive and report.holds
        assert report.evaluated == exact_count == len(battery)
        assert report.worst_diameter == exact
        assert report.worst_fault_set.nodes() == exact_set.nodes()

    def test_exhaustive_parallel_matches_sequential(self, workload):
        graph, routing = workload
        seq = check_tolerance(graph, routing, float("inf"), 2)
        par = check_tolerance(graph, routing, float("inf"), 2, workers=2)
        assert seq.worst_diameter == par.worst_diameter
        assert seq.worst_fault_set.nodes() == par.worst_fault_set.nodes()
        assert (seq.evaluated, seq.holds) == (par.evaluated, par.holds)


class TestBoundedScan:
    def test_holding_bound_evaluates_everything_exactly(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=10, seed=4)
        exact, exact_set, count = worst_case_diameter(graph, routing, battery)
        report = check_tolerance(graph, routing, exact, 2, fault_sets=battery)
        assert report.holds
        assert report.evaluated == count
        assert report.worst_diameter == exact
        assert report.worst_fault_set.nodes() == exact_set.nodes()

    def test_violation_stops_at_first_witness(self):
        from repro.core import Routing
        from repro.graphs import generators as _generators

        # Edge-routed C_8: diameter 4 fault-free, 6 after any single fault.
        graph = _generators.cycle_graph(8)
        routing = Routing(graph, name="edges-only")
        routing.add_all_edge_routes()
        battery = [FaultSet(()), FaultSet({0}), FaultSet({1}), FaultSet({2})]
        report = check_tolerance(graph, routing, 4, 1, fault_sets=battery)
        assert not report.holds
        assert report.worst_fault_set.nodes() == frozenset({0})
        assert report.evaluated == 2  # empty set + the first violating set
        assert report.worst_diameter == 6  # exact witness diameter, not "> bound"

    def test_parallel_scan_matches_sequential(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=12, seed=8)
        for bound in [2, 3, float("inf")]:
            seq = check_tolerance(graph, routing, bound, 2, fault_sets=battery)
            par = check_tolerance(
                graph, routing, bound, 2, fault_sets=battery, workers=2
            )
            assert seq.worst_diameter == par.worst_diameter
            assert seq.worst_fault_set == par.worst_fault_set
            assert (seq.evaluated, seq.holds) == (par.evaluated, par.holds)


class TestIndexShipping:
    def test_prebuilt_index_is_shipped_to_workers(self, workload):
        """The executor's initializer must receive the slim index."""
        graph, routing = workload
        from repro.faults import engine as engine_module

        index = RouteIndex(graph, routing)
        executor = ShardExecutor(
            {workload_key(None, None): (index, None)}, workers=2
        )
        recorded = {}

        class _FakePool:
            def imap(self, func, iterable):
                return iter(())

            def terminate(self):
                pass

            def join(self):
                pass

        def fake_pool_factory(workers, initializer=None, initargs=()):
            recorded["initargs"] = initargs
            initializer(*initargs)
            return _FakePool()

        import multiprocessing

        original = multiprocessing.Pool
        multiprocessing.Pool = fake_pool_factory
        try:
            executor._ensure_pool()
        finally:
            multiprocessing.Pool = original
            executor.close()
        assert len(recorded["initargs"]) == 1
        ((key, (shipped, fingerprint)),) = recorded["initargs"][0].items()
        assert fingerprint is None
        # The slim payload shares the index's bitset structures but drops
        # the graph and routing objects (they never cross the boundary).
        assert shipped is not index
        assert shipped.graph is None and shipped.routing is None
        assert shipped._base_rows is index._base_rows
        assert shipped._kill_rows is index._kill_rows
        assert shipped.node_pool == index.node_pool
        assert engine_module._WORKLOADS[key][0] is shipped
        engine_module._WORKLOADS.clear()

    def test_parallel_results_with_prebuilt_index(self, workload, index_campaign):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        sequential = index_campaign(graph, routing, 2, samples=20, seed=3, index=index)
        parallel = index_campaign(
            graph, routing, 2, samples=20, seed=3, index=index, workers=2
        )
        assert sequential == parallel


class TestEngineSemantics:
    def test_worst_case_matches_tolerance_helper(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=15, seed=2)
        index = RouteIndex(graph, routing)
        worst, worst_set = -1.0, None
        for fault_set in battery:
            diameter = index.surviving_diameter(fault_set)
            if diameter > worst:
                worst, worst_set = diameter, fault_set
        assert worst_case_diameter(graph, routing, battery) == (
            worst,
            worst_set,
            len(battery),
        )

    def test_parallel_worst_case_matches_sequential(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=15, seed=2)
        assert worst_case_diameter(graph, routing, battery) == worst_case_diameter(
            graph, routing, battery, workers=2
        )

    def test_empty_battery_rejected(self, workload, index_campaign):
        graph, routing = workload
        with pytest.raises(ValueError):
            index_campaign(graph, routing, 1, fault_sets=[])

    def test_oversized_fault_size_rejected(self):
        with pytest.raises(ValueError, match="fault size 15 exceeds the graph's 14"):
            _sweep([15], samples=5, seed=0)

    def test_invalid_parameters_rejected(self, workload):
        graph, routing = workload
        with pytest.raises(ValueError, match="workers must be at least 1"):
            worst_case_diameter(graph, routing, [FaultSet({0})], workers=0)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            check_tolerance(graph, routing, 3, 1, workers=0)
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            _explicit([FaultSet({0})], chunk_size=0)

    def test_mismatched_index_rejected(self, workload):
        graph, routing = workload
        other = generators.cycle_graph(10)
        other_index = RouteIndex(other, kernel_routing(other).routing)
        with pytest.raises(ValueError, match="different graph or routing"):
            check_tolerance(graph, routing, 3, 1, index=other_index)
        with pytest.raises(ValueError, match="different graph or routing"):
            worst_case_diameter(graph, routing, [FaultSet({0})], index=other_index)

    def test_index_reuse_across_calls(self, workload, monkeypatch):
        graph, routing = workload
        from repro.core import tolerance

        index = RouteIndex(graph, routing)
        monkeypatch.setattr(
            tolerance,
            "RouteIndex",
            lambda *args, **kwargs: pytest.fail("a supplied index was rebuilt"),
        )
        first = check_tolerance(graph, routing, 3, 1, index=index)
        second = check_tolerance(graph, routing, 3, 1, index=index)
        assert repr(first) == repr(second)

    def test_evaluate_preserves_battery_order(self, workload):
        graph, routing = workload
        battery = [FaultSet({0}), FaultSet({1}), FaultSet({2})]
        index = RouteIndex(graph, routing)
        profile = list(evaluate_on_index(index, _explicit(battery)))
        assert [fault_set.nodes() for fault_set, _ in profile] == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]
        assert all(diameter >= 1 for _, diameter in profile)


class TestGreedyAugmentation:
    @staticmethod
    def _greedy_tasks(samples, seed, chunk_size=DEFAULT_CHUNK_SIZE, limit=40):
        return plan_campaign(
            "random",
            2,
            chunk_size,
            total=samples,
            seed=seed,
            tag="size=2",
            greedy_seed=shard_seed(seed, "greedy:size=2", 0),
            candidate_limit=limit,
        )

    def test_greedy_probe_is_planned_as_a_trailing_pool_task(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        tasks = list(self._greedy_tasks(10, 6, chunk_size=4, limit=7))
        assert [task.mode for task in tasks] == ["random"] * 3 + ["greedy"]
        outcomes = list(evaluate_on_index(index, tasks))
        assert len(outcomes) == 11
        fault_set, diameter = outcomes[-1]
        assert fault_set.description == "greedy adversarial"
        assert len(fault_set) == 2
        assert diameter == index.surviving_diameter(fault_set.nodes())

    def test_pooled_greedy_probe_is_grown_by_a_worker(
        self, workload, index_campaign, monkeypatch
    ):
        from repro.faults import adversary

        graph, routing = workload
        expected = index_campaign(graph, routing, 2, samples=6, seed=3, greedy=True)
        index = RouteIndex(graph, routing)
        executor = ShardExecutor(
            {workload_key(None, None): (index, None)}, workers=2
        )
        try:
            list(executor.run(_explicit([FaultSet({0})])))  # start the pool
            # Workers forked above keep the real search; the parent must
            # never grow a greedy set itself.
            monkeypatch.setattr(
                adversary,
                "greedy_fault_set_from_index",
                lambda *args, **kwargs: pytest.fail("greedy grown in the parent"),
            )
            outcomes = [
                outcome
                for _task, (_fp, shard) in executor.run(self._greedy_tasks(6, 3))
                for outcome in shard
            ]
        finally:
            executor.close()
        pooled = fold_campaign(2, outcomes, None, index.eval_backend, 40)
        assert pooled == expected

    def test_greedy_campaign_adds_one_battery_member(self, workload, index_campaign):
        graph, routing = workload
        plain = index_campaign(graph, routing, 2, samples=8, seed=4)
        augmented = index_campaign(graph, routing, 2, samples=8, seed=4, greedy=True)
        assert plain.samples == 8
        assert augmented.samples == 9
        # The adversarial probe can only worsen (or match) the worst case.
        assert augmented.max_diameter >= plain.max_diameter

    def test_greedy_campaign_stamps_provenance_columns(self, workload, index_campaign):
        graph, routing = workload
        augmented = index_campaign(
            graph, routing, 2, samples=5, seed=1, greedy=True, candidate_limit=7
        )
        plain = index_campaign(graph, routing, 2, samples=5, seed=1)
        backend = RouteIndex(graph, routing).eval_backend
        assert augmented.candidate_limit == 7
        assert plain.candidate_limit is None
        assert augmented.eval_backend == backend
        record = augmented.record()
        assert record["candidate_limit"] == 7
        assert record["backend"] == backend

    def test_greedy_campaign_deterministic_across_workers(
        self, workload, index_campaign
    ):
        graph, routing = workload
        sequential = index_campaign(graph, routing, 2, samples=10, seed=6, greedy=True)
        parallel = index_campaign(
            graph, routing, 2, samples=10, seed=6, greedy=True, workers=2
        )
        assert sequential.as_row() == parallel.as_row()
        assert sequential.worst_fault_set == parallel.worst_fault_set

    def test_greedy_sweep_passthrough(self):
        campaigns = _sweep([0, 2], samples=5, seed=3, greedy=True, candidate_limit=5)
        # Size 0 has no greedy probe (nothing to grow); size 2 does.
        assert campaigns[0].samples == 5
        assert campaigns[0].candidate_limit is None
        assert campaigns[1].samples == 6
        assert campaigns[1].candidate_limit == 5

    def test_greedy_round_trips_through_record(self, workload, index_campaign):
        graph, routing = workload
        from repro.faults import CampaignResult

        campaign = index_campaign(graph, routing, 2, samples=5, seed=2, greedy=True)
        restored = CampaignResult.from_record(campaign.record())
        assert restored == campaign
        assert restored.candidate_limit == campaign.candidate_limit
        assert restored.eval_backend == campaign.eval_backend
