"""Which schedules the simulator reaches at its exploration setting.

``repro.enumeration`` lists every interleaving of a workload.  Over
{RC, SI, SSI} each interleaving has one candidate schedule, and the
allowed ones are exactly the schedules Definition 2.4 admits under the
allocation.  Over a fixed seed budget, the simulator at
:func:`~repro.mvcc.simulator.exploration_config` must reach only allowed
schedules, and most of them: the execution audits of this suite, of
``repro simulate FILE`` and of ``run_procedures`` rest on that reach.
"""

import pytest

from repro.core.allowed import is_allowed
from repro.core.isolation import Allocation
from repro.core.schedules import canonical_schedule
from repro.core.workload import workload
from repro.enumeration.interleavings import interleavings
from repro.mvcc import exploration_config, simulate_workload, trace_to_schedule

SEEDS = range(4000)


def _allowed_orders(wl, alloc):
    return {
        order
        for order in interleavings(wl)
        if is_allowed(canonical_schedule(wl, order, alloc), alloc)
    }


def _reached_orders(wl, alloc):
    """The distinct committed schedules of the seed budget, each audited."""
    reached = {}
    for seed in SEEDS:
        trace, _ = simulate_workload(wl, alloc, exploration_config(len(wl), seed=seed))
        schedule = trace_to_schedule(trace, wl)
        reached.setdefault(schedule.order, schedule)
    for schedule in reached.values():
        assert is_allowed(schedule, alloc), schedule
    return set(reached)


def test_write_skew_reaches_every_allowed_schedule_at_si():
    wl = workload("R1[x] R1[y] W1[x]", "R2[x] R2[y] W2[y]")
    alloc = Allocation.si(wl)
    allowed = _allowed_orders(wl, alloc)
    reached = _reached_orders(wl, alloc)
    assert len(allowed) == 70
    assert reached == allowed


@pytest.mark.parametrize("level", ["RC", "SI"])
def test_three_transaction_cycle_reaches_most_allowed_schedules(level):
    wl = workload("R1[x] W1[y]", "R2[y] W2[z]", "R3[z] W3[x]")
    alloc = Allocation.uniform(wl, level)
    allowed = _allowed_orders(wl, alloc)
    reached = _reached_orders(wl, alloc)
    assert len(allowed) == 1680
    assert reached <= allowed
    assert len(reached) >= 1200
