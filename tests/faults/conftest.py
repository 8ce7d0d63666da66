"""Shared fixtures for the fault-layer tests."""

from __future__ import annotations

import pytest

from repro.core import RouteIndex
from repro.faults import shard_seed
from repro.faults.engine import DEFAULT_CHUNK_SIZE, evaluate_on_index
from repro.scenarios.suite import fold_campaign, plan_campaign


def fold_index_campaign(
    graph,
    routing,
    fault_size,
    *,
    samples=0,
    seed=0,
    fault_sets=None,
    bound=None,
    greedy=False,
    candidate_limit=40,
    workers=1,
    chunk_size=DEFAULT_CHUNK_SIZE,
    index=None,
):
    """Plan one campaign, evaluate it on the shard executor and fold its row.

    A generated battery of ``samples`` random sets is seeded from ``seed``
    (tag ``size=<fault_size>``); ``fault_sets`` are evaluated as given.
    ``greedy`` appends a greedy probe for a positive ``fault_size``.
    """
    if index is None:
        index = RouteIndex(graph, routing)
    probe = greedy and fault_size > 0
    tasks = plan_campaign(
        "random" if fault_sets is None else "explicit",
        fault_size,
        chunk_size,
        bound,
        total=samples,
        seed=seed,
        tag=f"size={fault_size}",
        fault_sets=fault_sets,
        greedy_seed=shard_seed(seed, f"greedy:size={fault_size}", 0) if probe else None,
        candidate_limit=candidate_limit,
    )
    return fold_campaign(
        fault_size,
        evaluate_on_index(index, tasks, workers),
        bound,
        index.eval_backend,
        candidate_limit if probe else None,
    )


@pytest.fixture
def index_campaign():
    """:func:`fold_index_campaign`, for tests that fold campaigns by hand."""
    return fold_index_campaign
