"""Stateful property tests of the manager's incremental component upkeep.

The non-negotiable equivalences of ``AllocationManager.apply_batch``,
which re-derives and renumbers only the components a batch touched by
a flood fill over its context's conflict index:

* **partition equality** — after any interleaving of adds, removes and
  batches, the manager's maintained partition is *identical* (order,
  members, everything) to ``conflict_components(workload)`` over the
  same transactions;
* **no stale numbering or table** — the maintained context equals a
  fresh context of the live set (components, bits, neighbour and object
  masks), and every kernel row and pair table cached on a live
  component equals a freshly built one, after any merge, split or
  re-add — including a departed tid coming back, with its old body or
  a new one, in the batch that removed it or in a later one;
* **allocation exactness** — the maintained allocation is bit-identical
  to the batch Algorithm 2 optimum, and the coalesced ``apply_batch``
  path lands on exactly the same state as replaying the same mutations
  one by one through ``add``/``remove``;
* **check exactness** — ``manager.check``, which scans the warm context
  the mutations maintain, gives the verdict and the witness spec of
  ``check_robustness`` on the whole workload, for any drawn allocation.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.allocation import optimal_allocation
from repro.core.conflicts import conflicting_pairs
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.kernel import row_of
from repro.core.operations import read, write
from repro.core.robustness import check_robustness
from repro.core.sharding import conflict_components
from repro.core.transactions import Transaction

OBJECTS = ("x", "y", "z", "u")


def _random_txn(data, tid):
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


def _fields(row):
    """A kernel row's masks and split reads, for comparison."""
    return tuple(getattr(row, name) for name in row.__slots__)


def assert_manager_check_matches(manager, allocation):
    """``manager.check`` gives ``check_robustness``'s verdict and witness spec."""
    got = manager.check(allocation)
    expected = check_robustness(manager.workload, allocation)
    assert bool(got) is got.robust is expected.robust
    if not expected.robust:
        assert got.counterexample.spec == expected.counterexample.spec


class PlanMaintenanceMachine(RuleBasedStateMachine):
    """Coalesced manager vs sequential shadow vs from-scratch oracles."""

    def __init__(self):
        super().__init__()
        self.batched = AllocationManager()
        self.sequential = AllocationManager()
        self.next_tid = 1
        # Removed transactions by tid, until a rule re-adds the tid.
        self.departed = {}

    def _fresh_txn(self, data):
        txn = _random_txn(data, self.next_tid)
        self.next_tid += 1
        return txn

    def _comeback(self, data, old):
        """``old``'s tid again: its old body, the same operations in
        another order, or a newly drawn body."""
        body = data.draw(st.sampled_from(("same", "reordered", "new")), label="body")
        if body == "same":
            return Transaction(old.tid, old.operations)
        if body == "reordered":
            return Transaction(old.tid, data.draw(st.permutations(old.body)))
        return _random_txn(data, old.tid)

    def _note_departures(self, mutations):
        """Record the transactions ``mutations`` remove and do not re-add."""
        live = dict(zip(self.batched.workload.tids, self.batched.workload))
        for op, value in mutations:
            if op == "remove":
                self.departed[value] = live.pop(value)
            else:
                live[value.tid] = value
                self.departed.pop(value.tid, None)

    def _replay(self, mutations):
        """Apply ``mutations`` as one batch, and one by one to the shadow."""
        self._note_departures(mutations)
        self.batched.apply_batch(mutations)
        for op, value in mutations:
            if op == "add":
                self.sequential.add(Transaction(value.tid, value.operations))
            else:
                self.sequential.remove(value)

    @rule(data=st.data())
    def add_transaction(self, data):
        txn = self._fresh_txn(data)
        self.batched.add(txn)
        self.sequential.add(Transaction(txn.tid, txn.operations))

    @precondition(lambda self: len(self.batched.workload) > 0)
    @rule(data=st.data())
    def remove_transaction(self, data):
        tid = data.draw(st.sampled_from(self.batched.workload.tids))
        self._note_departures([("remove", tid)])
        self.batched.remove(tid)
        self.sequential.remove(tid)

    @precondition(lambda self: len(self.batched.workload) > 0)
    @rule(data=st.data())
    def readd_in_the_same_batch(self, data):
        """A live tid leaves and comes back within one batch."""
        tid = data.draw(st.sampled_from(self.batched.workload.tids))
        old = self.batched.workload[tid]
        self._replay([("remove", tid), ("add", self._comeback(data, old))])

    @precondition(lambda self: len(self.departed) > 0)
    @rule(data=st.data())
    def readd_a_departed_tid(self, data):
        """A tid removed by an earlier batch comes back."""
        tid = data.draw(st.sampled_from(sorted(self.departed)))
        self._replay([("add", self._comeback(data, self.departed[tid]))])

    @rule(data=st.data())
    def apply_batch(self, data):
        """One coalesced batch vs the same mutations replayed one by one."""
        live = set(self.batched.workload.tids)
        mutations = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            if live and data.draw(st.booleans()):
                tid = data.draw(st.sampled_from(sorted(live)))
                live.discard(tid)
                mutations.append(("remove", tid))
            else:
                txn = self._fresh_txn(data)
                live.add(txn.tid)
                mutations.append(("add", txn))
        self._replay(mutations)

    @rule(data=st.data())
    def check_matches_whole_workload_check(self, data):
        """The manager's warm check ≡ the library's cold one-unit check."""
        workload = self.batched.workload
        allocation = Allocation(
            {
                tid: data.draw(st.sampled_from(list(IsolationLevel)))
                for tid in workload.tids
            }
        )
        assert_manager_check_matches(self.batched, allocation)

    @invariant()
    def partition_equals_conflict_components(self):
        workload = self.batched.workload
        assert self.batched.components == conflict_components(workload)

    @invariant()
    def index_and_tables_match_a_fresh_build(self):
        workload = self.batched.workload
        context, fresh = self.batched.context, AnalysisContext(workload)
        assert context.transactions == dict(zip(workload.tids, workload))
        assert [(c.tids, c.nbrs) for c in context.components()] == [
            (c.tids, c.nbrs) for c in fresh.components()
        ]
        components = context.components()
        assert all(
            context.component_of[tid].tids == fresh.component_of[tid].tids
            for tid in workload.tids
        )
        # Every tid reaches its registered component, whose tables follow.
        assert all(context.component_of[t] is c for c in components for t in c.tids)
        assert set(context.component_of) == set(workload.tids)
        assert context.bit == fresh.bit
        assert (context.readers, context.writers) == (fresh.readers, fresh.writers)
        for component in components:
            fresh_component = fresh.component_of[component.tids[0]]
            for bit, tid in enumerate(component.tids):
                # The cached row, or one built now: either way every
                # row is cached when the next step mutates.
                row = row_of(context, component, bit)
                expected = row_of(fresh, fresh_component, bit)
                assert _fields(row) == _fields(expected), tid
            for (tid_b, tid_a), pairs in component.pairs.items():
                assert pairs == tuple(
                    conflicting_pairs(workload[tid_b], workload[tid_a])
                ), (tid_b, tid_a)

    @invariant()
    def allocations_bit_identical(self):
        batched = dict(self.batched.allocation.items())
        assert batched == dict(self.sequential.allocation.items())
        assert batched == dict(
            optimal_allocation(self.batched.workload).items()
        )


TestPlanMaintenanceMachine = PlanMaintenanceMachine.TestCase
TestPlanMaintenanceMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)

