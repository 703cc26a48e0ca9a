"""Stateful property testing of the incremental AllocationManager.

A hypothesis rule-based state machine adds and removes random transactions
and, after every step, asserts the manager's allocation equals the batch
Algorithm 2 optimum and is robust — the strongest exactness guarantee for
the warm-start logic — and that the change report of the step's
``apply_batch`` is exactly the difference between the allocations
before and after it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.allocation import optimal_allocation
from repro.core.incremental import AllocationManager
from repro.core.operations import read, write
from repro.core.robustness import is_robust
from repro.core.transactions import Transaction

OBJECTS = ("x", "y", "z")


def _draw_transaction(data, tid):
    count = data.draw(st.integers(min_value=1, max_value=2))
    objects = data.draw(
        st.lists(
            st.sampled_from(OBJECTS),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    ops = []
    for obj in objects:
        mode = data.draw(st.sampled_from(("r", "w", "rw")))
        if mode in ("r", "rw"):
            ops.append(read(tid, obj))
        if mode in ("w", "rw"):
            ops.append(write(tid, obj))
    return Transaction(tid, ops)


class ManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = AllocationManager()
        self.next_tid = 1
        # The allocation before the last batch and that batch's report.
        self.before = None
        self.report = None

    def _apply(self, mutations):
        self.before = self.manager.allocation
        self.report = self.manager.apply_batch(mutations)

    @rule(data=st.data())
    def add_transaction(self, data):
        self._apply([("add", _draw_transaction(data, self.next_tid))])
        self.next_tid += 1

    @precondition(lambda self: len(self.manager.workload) > 0)
    @rule(data=st.data())
    def remove_transaction(self, data):
        tid = data.draw(st.sampled_from(self.manager.workload.tids))
        self._apply([("remove", tid)])

    @precondition(lambda self: len(self.manager.workload) > 0)
    @rule(data=st.data())
    def replace_in_one_batch(self, data):
        """A live tid leaves and comes back, maybe with another body,
        beside a newcomer that may leave again in the same batch."""
        tid = data.draw(st.sampled_from(self.manager.workload.tids))
        newcomer = _draw_transaction(data, self.next_tid)
        self.next_tid += 1
        mutations = [
            ("remove", tid),
            ("add", newcomer),
            ("add", _draw_transaction(data, tid)),
        ]
        if data.draw(st.booleans()):
            mutations.append(("remove", newcomer.tid))
        self._apply(mutations)

    @invariant()
    def report_is_the_allocation_diff(self):
        if self.before is None:
            return
        old = dict(self.before.items())
        new = dict(self.manager.allocation.items())
        diff = {
            tid: (old.get(tid), new.get(tid))
            for tid in sorted(old.keys() | new.keys())
            if old.get(tid) is not new.get(tid)
        }
        assert self.report == diff
        assert list(self.report) == sorted(self.report)

    @invariant()
    def allocation_is_optimal(self):
        workload = self.manager.workload
        assert self.manager.allocation == optimal_allocation(workload)

    @invariant()
    def allocation_is_robust(self):
        workload = self.manager.workload
        if len(workload):
            assert is_robust(workload, self.manager.allocation)


TestManagerMachine = ManagerMachine.TestCase
TestManagerMachine.settings = settings(
    max_examples=20, stateful_step_count=8, deadline=None
)
