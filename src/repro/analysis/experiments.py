"""Experiment runner: construct a routing, attack it, tabulate the results.

Every benchmark in :mod:`benchmarks` follows the same shape: build a family of
graphs, apply a construction, search (exhaustively or adversarially) for the
worst fault set of each admissible size, and report the worst surviving
diameter next to the paper's bound.  :class:`ExperimentRunner` factors that
shape out so individual benches stay short and declarative.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Union

from repro.core.construction import ConstructionResult
from repro.core.tolerance import ToleranceReport, check_tolerance
from repro.faults.adversary import all_fault_sets, combined_fault_sets, count_fault_sets
from repro.faults.models import FaultSet
from repro.graphs.graph import Graph

Node = Hashable


@dataclasses.dataclass
class ExperimentRecord:
    """One row of an experiment: a graph, a construction and its verification."""

    experiment: str
    graph_name: str
    nodes: int
    edges: int
    t: int
    scheme: str
    paper_bound: int
    max_faults: int
    measured_worst: float
    fault_sets_evaluated: int
    exhaustive: bool
    elapsed_seconds: float

    @property
    def holds(self) -> bool:
        """``True`` when the measured worst case respects the paper's bound."""
        return self.measured_worst <= self.paper_bound

    def as_row(self) -> Dict[str, object]:
        """Return the record as a flat dict for table rendering."""
        return {
            "experiment": self.experiment,
            "graph": self.graph_name,
            "n": self.nodes,
            "m": self.edges,
            "t": self.t,
            "scheme": self.scheme,
            "paper_d": self.paper_bound,
            "faults<=": self.max_faults,
            "measured_d": self.measured_worst,
            "fault_sets": self.fault_sets_evaluated,
            "exhaustive": "yes" if self.exhaustive else "no",
            "ok": "yes" if self.holds else "NO",
        }

    def record(self) -> Dict[str, object]:
        """Return the unified result record for this experiment.

        The experiment's tolerance check is a bounded decision — "does the
        worst fault set respect the paper's diameter bound" — so it emits a
        ``decision`` record: ``bound`` carries the paper bound,
        ``worst_diam`` the measured worst surviving diameter, and
        ``violations`` whether the bound held (1 marks at least one
        violating fault set; the early-exit scan does not count the rest).
        """
        return {
            "source": "experiment",
            "kind": "decision",
            "family": self.graph_name,
            "scheme": self.scheme,
            "n": self.nodes,
            "m": self.edges,
            "t": self.t,
            "faults": self.max_faults,
            "samples": self.fault_sets_evaluated,
            "bound": float(self.paper_bound),
            "violations": 0 if self.holds else 1,
            "worst_diam": float(self.measured_worst),
        }


class ExperimentRunner:
    """Run "construct + attack + compare" experiments and collect records.

    Fault batteries are evaluated by the tolerance scans on the shard
    executor; set ``workers > 1`` to shard each battery across a process
    pool (results are identical for any worker count).
    """

    def __init__(
        self, exhaustive_limit: int = 20000, seed: int = 0, workers: int = 1
    ) -> None:
        self.exhaustive_limit = exhaustive_limit
        self.seed = seed
        self.workers = workers
        self.records: List[ExperimentRecord] = []

    def run(
        self,
        experiment: str,
        graph: Graph,
        construct: Callable[[Graph], ConstructionResult],
        fault_sets: Optional[Iterable[FaultSet]] = None,
        max_faults: Optional[int] = None,
        diameter_bound: Optional[int] = None,
    ) -> ExperimentRecord:
        """Run a single experiment and append (and return) its record.

        Parameters
        ----------
        experiment:
            Identifier used in the report (e.g. ``"E02/Theorem4"``).
        graph:
            The underlying graph.
        construct:
            Callable building the construction from the graph.
        fault_sets:
            Optional explicit fault sets; default chooses exhaustive or the
            combined adversarial battery depending on problem size.
        max_faults, diameter_bound:
            Optional overrides of the construction's recorded guarantee
            (e.g. to check Theorem 3's ``(2t, t)`` instead of Theorem 4's
            ``(4, floor(t/2))`` on the same kernel routing).
        """
        start = time.perf_counter()
        result = construct(graph)
        bound = diameter_bound if diameter_bound is not None else result.guarantee.diameter_bound
        faults = max_faults if max_faults is not None else result.guarantee.max_faults
        report = check_tolerance(
            result.graph,
            result.routing,
            bound,
            faults,
            fault_sets=fault_sets,
            exhaustive_limit=self.exhaustive_limit,
            concentrator=result.concentrator,
            seed=self.seed,
            workers=self.workers,
        )
        elapsed = time.perf_counter() - start
        record = ExperimentRecord(
            experiment=experiment,
            graph_name=graph.name or "G",
            nodes=result.graph.number_of_nodes(),
            edges=result.graph.number_of_edges(),
            t=result.t,
            scheme=result.scheme,
            paper_bound=bound,
            max_faults=faults,
            measured_worst=report.worst_diameter,
            fault_sets_evaluated=report.evaluated,
            exhaustive=report.exhaustive,
            elapsed_seconds=elapsed,
        )
        self.records.append(record)
        return record

    def rows(self) -> List[Dict[str, object]]:
        """Return all records as table rows."""
        return [record.as_row() for record in self.records]

    def frame(self):
        """Return the collected records as a unified result frame."""
        from repro.results.records import result_frame

        return result_frame(record.record() for record in self.records)

    def all_hold(self) -> bool:
        """Return ``True`` when every recorded experiment respects its bound."""
        return all(record.holds for record in self.records)

    def worst_by_experiment(self) -> Dict[str, float]:
        """Return the worst measured diameter per experiment identifier."""
        worst: Dict[str, float] = {}
        for record in self.records:
            worst[record.experiment] = max(
                worst.get(record.experiment, 0.0), record.measured_worst
            )
        return worst
