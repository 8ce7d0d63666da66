"""Backend selection, numpy fallback, worker shipping, and cursor memoisation.

Covers the plumbing around the packed-uint64 numpy backend rather than its
arithmetic (that is the hypothesis suite's job): how ``backend=`` / the
``REPRO_EVAL_BACKEND`` env var / ``REPRO_NO_NUMPY`` resolve, that the
resolved tunables survive pickling and ``slim()`` shipping unchanged (so
workers never re-read the environment), and the ``EvalCursor`` lower-bound
memoisation added alongside the backend (a failed ``diameter(cap=...)``
must not be forgotten).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.core import RouteIndex, kernel_routing
from repro.core.np_kernel import numpy_available
from repro.core.route_index import (
    EVAL_BACKEND_BITSET,
    EVAL_BACKEND_NUMPY,
)
from repro.faults.adversary import random_fault_sets
from repro.graphs import generators
from repro.graphs.traversal import INFINITY

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)


@pytest.fixture(scope="module")
def workload():
    graph = generators.circulant_graph(20, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing


class TestBackendResolution:
    def test_default_is_bitset(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        assert index.backend == EVAL_BACKEND_BITSET
        assert index.eval_backend == EVAL_BACKEND_BITSET

    def test_constructor_argument_wins_over_env(self, workload, monkeypatch):
        graph, routing = workload
        monkeypatch.setenv("REPRO_EVAL_BACKEND", "numpy")
        index = RouteIndex(graph, routing, backend="bitset")
        assert index.backend == EVAL_BACKEND_BITSET

    def test_env_override(self, workload, monkeypatch):
        graph, routing = workload
        monkeypatch.setenv("REPRO_EVAL_BACKEND", "numpy")
        assert RouteIndex(graph, routing).backend == EVAL_BACKEND_NUMPY

    def test_invalid_backend_rejected(self, workload, monkeypatch):
        graph, routing = workload
        with pytest.raises(ValueError, match="unknown eval backend"):
            RouteIndex(graph, routing, backend="cuda")
        monkeypatch.setenv("REPRO_EVAL_BACKEND", "cuda")
        with pytest.raises(ValueError, match="unknown eval backend"):
            RouteIndex(graph, routing)

    def test_auto_resolves_at_construction(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="auto")
        expected = EVAL_BACKEND_NUMPY if numpy_available() else EVAL_BACKEND_BITSET
        # "auto" never survives resolution: the stored backend is concrete.
        assert index.backend == expected

    def test_kill_switch_forces_bitset_evaluation(self, workload, monkeypatch):
        """REPRO_NO_NUMPY downgrades evaluation without changing values."""
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        baseline = [
            index.surviving_diameter(faults)
            for faults in random_fault_sets(graph.nodes(), 2, 5, seed=11)
        ]
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert not numpy_available()
        # The construction-time choice is preserved; only this process's
        # effective kernel degrades.
        assert index.backend == EVAL_BACKEND_NUMPY
        assert index.eval_backend == EVAL_BACKEND_BITSET
        degraded = [
            index.surviving_diameter(faults)
            for faults in random_fault_sets(graph.nodes(), 2, 5, seed=11)
        ]
        assert degraded == baseline

    def test_explicit_numpy_kernel_unavailable_raises(self, workload, monkeypatch):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        with pytest.raises(ValueError, match="numpy"):
            index.surviving_diameter((), kernel="numpy")


@requires_numpy
class TestNumpyShipping:
    """The numpy kernel is process-local; shipped indexes rebuild it lazily."""

    def test_pickle_drops_np_kernel(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        faults = frozenset(list(graph.nodes())[:2])
        before = index.surviving_diameter(faults)
        assert index._np_kernel is not None  # warmed by the evaluation
        clone = pickle.loads(pickle.dumps(index))
        assert clone._np_kernel is None
        assert clone.backend == EVAL_BACKEND_NUMPY
        assert clone.surviving_diameter(faults) == before

    def test_slim_drops_np_kernel_and_keeps_tunables(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, density_threshold=7, backend="numpy")
        faults = frozenset(list(graph.nodes())[:2])
        before = index.surviving_diameter(faults)
        slim = pickle.loads(pickle.dumps(index.slim()))
        assert slim.graph is None and slim.routing is None
        assert slim._np_kernel is None
        assert slim.density_threshold == 7
        assert slim.backend == EVAL_BACKEND_NUMPY
        assert slim.surviving_diameter(faults) == before

    def test_batch_api_matches_per_set(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        battery = list(random_fault_sets(graph.nodes(), 3, 12, seed=5))
        assert index.surviving_diameters(battery) == [
            index.surviving_diameter(faults) for faults in battery
        ]
        capped = index.surviving_diameters(battery, cap=2)
        for value, faults in zip(capped, battery):
            exact = index.surviving_diameter(faults)
            assert value == exact if exact <= 2 else value > 2


class TestTunablesResolveOnceInParent:
    """Workers must inherit parent-resolved tunables, never re-read the env."""

    def test_shipped_threshold_survives_divergent_worker_env(
        self, workload, tmp_path
    ):
        """Regression: a worker env override used to re-resolve the threshold.

        The parent resolves ``density_threshold`` at construction; a
        subprocess with a conflicting ``REPRO_BFS_DENSITY_THRESHOLD`` must
        still see the parent's value on the unpickled slim index.
        """
        graph, routing = workload
        index = RouteIndex(graph, routing, density_threshold=7, backend="bitset")
        payload = tmp_path / "index.pickle"
        payload.write_bytes(pickle.dumps(index.slim()))
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        env["REPRO_BFS_DENSITY_THRESHOLD"] = "999"
        env["REPRO_EVAL_BACKEND"] = "numpy"
        script = textwrap.dedent(
            f"""
            import pickle
            index = pickle.loads(open({str(payload)!r}, "rb").read())
            print(index.density_threshold, index.backend)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["7", "bitset"]

    def test_suite_task_tunables_override_worker_env(self, monkeypatch):
        """Worker-side rebuilds honour stamped task tunables over the env."""
        from repro.faults.engine import ShardTask, _workload

        monkeypatch.setenv("REPRO_BFS_DENSITY_THRESHOLD", "999")
        spec = "circulant:n=12,offsets=1+2/kernel"
        stamped = ShardTask(
            mode="random", spec=spec, density_threshold=5, backend="bitset"
        )
        index, _ = _workload(stamped, {})
        assert index.density_threshold == 5
        assert index.backend == EVAL_BACKEND_BITSET
        # Historical path: no stamped tunables -> the worker env applies.
        legacy, _ = _workload(ShardTask(mode="random", spec=spec), {})
        assert legacy.density_threshold == 999


class TestCursorLowerBoundMemoisation:
    """A failed diameter(cap=...) must inform later queries on the cursor."""

    @pytest.fixture(scope="class")
    def deep_cursor(self):
        """A cursor whose surviving diameter is at least 3.

        A cycle's kernel routing is total, so the fault-free route graph is
        complete; knocking out consecutive nodes forces long route detours.
        """
        graph = generators.circulant_graph(16, [1])
        result = kernel_routing(graph)
        index = RouteIndex(graph, result.routing)
        nodes = sorted(graph.nodes(), key=repr)
        faults = nodes[:3]
        exact = index.surviving_diameter(faults)
        assert exact >= 3, "fixture workload must have a deep surviving diameter"
        return index, faults, exact

    def test_failed_cap_is_memoised(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._lower_bound >= 2

    def test_bound_short_circuits_without_bfs(self, deep_cursor, monkeypatch):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=2) == INFINITY
        # Any further evaluation attempt would be a regression: the memoised
        # lower bound already decides bounds below it.  EvalCursor uses
        # __slots__, so the trap goes on the class.
        from repro.core.route_index import EvalCursor

        monkeypatch.setattr(
            EvalCursor,
            "_evaluate",
            lambda *a, **k: pytest.fail("bound query re-ran the BFS"),
        )
        assert cursor.diameter_at_most(1) is False
        assert cursor.diameter_at_most(2) is False
        assert cursor.diameter(cap=2) == INFINITY

    def test_exact_diameter_still_obtainable_after_failed_cap(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor.diameter() == exact
        assert cursor.diameter(cap=1) == INFINITY  # memo survives exact eval

    def test_lower_bound_propagates_to_derived_cursors(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._capped_unreached is not None
        source_bit, unreached, lb = cursor._capped_unreached
        # Pick a node that is neither the witness source nor its last
        # unreached node: removing more nodes only lengthens routes, so the
        # bound transfers.
        pool = index.node_pool
        fault_set = set(faults)
        for node in pool:
            bit = 1 << index._id_of[node]
            if node in fault_set or bit == source_bit or unreached == bit:
                continue
            child = cursor.with_added(node)
            assert child._lower_bound >= lb
            assert child.diameter() >= lb
            break
        else:  # pragma: no cover
            pytest.fail("no propagation candidate in the pool")

    @requires_numpy
    def test_numpy_backend_memoises_failed_caps_too(self):
        graph = generators.circulant_graph(16, [1])
        result = kernel_routing(graph)
        index = RouteIndex(graph, result.routing, backend="numpy")
        nodes = sorted(graph.nodes(), key=repr)
        cursor = index.cursor(nodes[:3])
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._lower_bound >= 2
        assert cursor.diameter_at_most(1) is False
