"""Fault models, adversarial fault-set generation and Monte-Carlo campaigns."""

from repro.faults.models import FaultSet, empty_fault_set
from repro.faults.adversary import (
    all_fault_sets,
    combined_fault_sets,
    count_fault_sets,
    greedy_adversarial_fault_set,
    random_fault_sets,
    targeted_fault_sets,
)
from repro.faults.simulation import (
    CampaignResult,
    DecisionCampaignResult,
    aggregate_decisions,
    aggregate_outcomes,
)
from repro.faults.engine import CampaignEngine, shard_seed

__all__ = [
    "FaultSet",
    "empty_fault_set",
    "all_fault_sets",
    "combined_fault_sets",
    "count_fault_sets",
    "greedy_adversarial_fault_set",
    "random_fault_sets",
    "targeted_fault_sets",
    "CampaignResult",
    "DecisionCampaignResult",
    "aggregate_decisions",
    "aggregate_outcomes",
    "CampaignEngine",
    "shard_seed",
]
