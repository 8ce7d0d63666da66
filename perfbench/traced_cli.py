"""Run one ``repro`` CLI command with the outside-in tracer installed.

Usage::

    python perfbench/traced_cli.py SPOOL -- grid SPEC --workers 2 ...

Every layer callable of the grid and compile paths is wrapped (see
:func:`install`), then ``repro.cli.main`` runs the command in this process.
Forked pool workers inherit the wrappers and flush their spans into
``SPOOL``; this process writes its own spans, the supervisors' stats and
the covered time to ``SPOOL/parent.json``.  The exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from typing import Dict, List

from tracing import Tracer


def install(tracer: Tracer) -> List[Dict[str, int]]:
    """Wrap the construction, index, eval, dispatch, store and report layers.

    Returns the list that collects each ``Supervisor``'s ``stats`` dict.
    """
    import repro.cli
    import repro.faults.adversary
    import repro.scenarios.suite
    import repro.serving
    from repro.core.route_index import RouteIndex
    from repro.graphs.flow import FlowNetwork
    from repro.results.store import ResultStore
    from repro.runtime.supervisor import Supervisor
    from repro.scenarios.spec import Scenario

    # Call sites of the constructions' building blocks.
    for module_name in ("kernel", "multirouting", "augmentation", "bipolar"):
        module = importlib.import_module(f"repro.core.{module_name}")
        if "tree_routing" in module.__dict__:
            tracer.wrap(module, "tree_routing", "core.tree_routing")
        if "minimum_separator" in module.__dict__:
            tracer.wrap(module, "minimum_separator", "graphs.min_separator")
    tracer.wrap(FlowNetwork, "max_flow", "graphs.max_flow")
    tracer.wrap(Scenario, "build_graph", "graphs.build_graph")
    tracer.wrap(repro.scenarios.suite, "build_routing", "core.build_routing")
    tracer.wrap(repro.cli, "build_routing", "core.build_routing")
    tracer.wrap(RouteIndex, "__init__", "route_index.build")
    tracer.wrap(RouteIndex, "surviving_diameters", "route_index.eval", items=len)
    tracer.wrap(RouteIndex, "surviving_diameter", "route_index.eval_one")
    tracer.wrap(
        repro.faults.adversary, "greedy_fault_set_from_index", "faults.greedy"
    )
    tracer.wrap(repro.scenarios.suite, "aggregate_outcomes", "faults.aggregate")
    tracer.wrap(repro.scenarios.suite, "aggregate_decisions", "faults.aggregate")
    tracer.wrap(ResultStore, "append", "results.append")
    tracer.wrap(repro.cli, "render_scaling_report", "analysis.report")
    tracer.wrap(repro.serving, "compile_routing_artifact", "artifact.compile")
    tracer.wrap_generator(Supervisor, "run", "runtime.dispatch")
    supervisors: List[Dict[str, int]] = []
    tracer.hook(
        Supervisor, "__init__", lambda self, *a, **k: supervisors.append(self.stats)
    )
    return supervisors


def main(argv: List[str]) -> int:
    spool = argv[0]
    if argv[1] != "--":
        raise SystemExit("usage: traced_cli.py SPOOL -- REPRO-ARGS...")
    import repro.cli

    tracer = Tracer(spool=spool)
    supervisors = install(tracer)
    start = time.perf_counter()
    code = repro.cli.main(argv[2:])
    wall = time.perf_counter() - start
    tracer.restore()
    document = tracer.snapshot()
    document["main_s"] = wall
    stats: Dict[str, int] = {}
    for entry in supervisors:
        for key, value in entry.items():
            stats[key] = stats.get(key, 0) + value
    document["supervisor"] = stats
    with open(os.path.join(spool, "parent.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
