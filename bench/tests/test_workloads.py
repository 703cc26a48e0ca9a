"""Generators, the serve-churn stream and the output checks."""

import json

import pytest

from bench.common import require_program
from bench.workloads import registry
from bench.workloads.allocate import prove_optimal
from bench.workloads.serve import churn_inputs, cycle_lines, cycle_mutations

require_program()


@pytest.mark.parametrize("name", list(registry()))
def test_generators_are_seed_deterministic(name):
    workload = registry()[name]
    first = workload.generate(5, 2)
    assert json.dumps(first) == json.dumps(workload.generate(5, 2))
    assert json.dumps(first) != json.dumps(workload.generate(6, 2))
    assert first[0] != first[1]  # rounds get their own inputs


def test_churn_arrivals_are_fresh_and_keep_the_steady_state():
    inputs = churn_inputs(3, max_cycles=400)
    assert len(inputs["cycles"]) == 400
    live = {tid: text for tid, text in inputs["initial"]}
    assert len(live) == 64
    texts = set(live.values())
    tids = set(live)
    for cycle in inputs["cycles"]:
        for group in cycle_mutations(cycle):
            for kind, value in group:
                if kind == "remove":
                    del live[value]
                    continue
                tid, text = value
                assert text not in texts, "an arrival repeats a live or departed text"
                assert tid not in tids, "an arrival reuses a tid"
                texts.add(text)
                tids.add(tid)
                live[tid] = text
        assert len(live) == 64


def test_in_process_churn_spends_checks():
    from repro.service import ServiceConfig, ServiceCore

    inputs = churn_inputs(4, max_cycles=20)
    core = ServiceCore(ServiceConfig(port=0))
    admit = core.handle({"op": "batch", "commands": [
        {"op": "add", "transaction": text, "tid": tid} for tid, text in inputs["initial"]
    ]})
    assert admit["ok"] and admit["failed"] == 0
    checks = 0
    for cycle in inputs["cycles"]:
        for line in cycle_lines(cycle):
            response = core.handle_line(line)
            assert response["ok"], response
            checks += response["checks"]
        allocation = core.handle({"op": "allocate"})["allocation"]
        assert core.handle({"op": "check", "allocation": allocation})["robust"]
    assert checks > 0


def test_optimality_proof_accepts_the_optimum_and_rejects_a_raised_level():
    from repro import IsolationLevel, optimal_allocation
    from repro.workloads.generator import random_workload

    workload = random_workload(transactions=8, objects=6, hot_objects=2, seed=11)
    optimum = optimal_allocation(workload)
    assert prove_optimal(workload, optimum) is None
    assert prove_optimal(workload, optimum, method="paper") is None
    lowest = next(tid for tid, level in optimum.items() if level < IsolationLevel.SSI)
    raised = optimum.with_level(lowest, IsolationLevel.SSI)
    assert "can be lowered" in prove_optimal(workload, raised)
    assert prove_optimal(workload, None) is not None
