"""The component partition :class:`AllocationManager` maintains under churn.

The manager keeps one conflict index and re-derives and renumbers, by a
flood fill, only the components a mutation touched: adds join the
components the transaction conflicts into, removals split a component
only where the departed transaction bridged it, and every untouched
component keeps its kernel rows by identity.  :attr:`AllocationManager.components`
must be *identical* to ``conflict_components(workload)`` after any
mutation sequence (the randomized version of that contract lives in
``tests/properties/test_plan_maintenance.py``), and
:attr:`AllocationManager.last_stats` counts only the re-analyzed
components' work.
"""

import random

import pytest

from repro.core.incremental import AllocationManager
from repro.core.kernel import row_of
from repro.core.sharding import conflict_components
from repro.core.transactions import parse_transaction
from repro.core.workload import WorkloadError


def _chain():
    """T1 -y- T2 -z- T3: T2 bridges, T1 and T3 are leaves."""
    return [
        parse_transaction("R1[a] W1[y]"),
        parse_transaction("R2[y] W2[z]"),
        parse_transaction("R3[z] W3[b]"),
    ]


def _manager(txns):
    manager = AllocationManager()
    manager.apply_batch([("add", txn) for txn in txns])
    return manager


def _rows(manager, tids):
    """The manager's kernel rows of ``tids``, built if missing."""
    context = manager.context
    return {
        tid: row_of(context, context.component_of[tid], context.bit[tid])
        for tid in tids
    }


class TestAdd:
    def test_isolated_add_is_a_singleton(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        assert manager.components == ((1,),)

    def test_conflicting_add_merges(self):
        manager = _manager(
            [parse_transaction("R1[x] W1[x]"), parse_transaction("R2[a] W2[b]")]
        )
        # Reads and writes x (T1's object): joins T1's component only.
        manager.add(parse_transaction("R3[x] W3[c]"))
        assert manager.components == ((1, 3), (2,))

    def test_writer_links_prior_readers(self):
        """Readers of an unwritten object sit apart until a writer arrives."""
        manager = _manager(
            [
                parse_transaction("R1[shared] W1[p]"),
                parse_transaction("R2[shared] W2[q]"),
            ]
        )
        assert manager.components == ((1,), (2,))
        manager.add(parse_transaction("W3[shared]"))
        assert manager.components == ((1, 2, 3),)

    def test_duplicate_add_rejected(self):
        manager = _manager([parse_transaction("R1[x] W1[x]")])
        with pytest.raises(WorkloadError):
            manager.add(parse_transaction("R1[y] W1[y]"))
        assert manager.components == ((1,),)


class TestRemove:
    def test_singleton_departure_is_reuse(self):
        """The other components' kernel rows are reused, by identity."""
        lonely = parse_transaction("R9[lonely] W9[lonely]")
        manager = _manager(_chain() + [lonely])
        chain = _rows(manager, (1, 2, 3))
        manager.remove(9)
        assert manager.components == ((1, 2, 3),)
        assert all(
            row is chain[tid] for tid, row in _rows(manager, (1, 2, 3)).items()
        )

    def test_leaf_departure_keeps_the_rest_together(self):
        manager = _manager(_chain())
        manager.remove(3)  # T3 conflicts only with T2
        assert manager.components == ((1, 2),)

    def test_bridge_departure_splits(self):
        """The pieces come out ordered by their smallest tid."""
        manager = _manager(_chain() + [parse_transaction("W4[a]")])  # T4 - T1
        assert manager.components == ((1, 2, 3, 4),)
        manager.remove(2)
        assert manager.components == ((1, 4), (3,))
        context = manager.context
        assert context.component_of[1].tids == (1, 4)
        assert (context.bit[1], context.bit[4]) == (0, 1)

    def test_connected_survivors_stay_together(self):
        txns = _chain() + [parse_transaction("R4[y] W4[z]")]  # T4 || T2
        manager = _manager(txns)
        # T2 had several neighbours, but T4 keeps the rest connected.
        manager.remove(2)
        assert manager.components == ((1, 3, 4),)

    def test_unknown_tid_rejected(self):
        manager = _manager(_chain())
        with pytest.raises(WorkloadError):
            manager.remove(404)
        assert manager.components == ((1, 2, 3),)


class TestBatch:
    def test_newcomer_added_and_removed_touches_nothing(self):
        """A batch that adds a bridge and removes it again leaves every
        component's kernel rows by identity and spends no check."""
        manager = _manager(
            [
                parse_transaction("R1[x] W1[y]"),
                parse_transaction("R2[y] W2[x]"),
                parse_transaction("R3[a] W3[b]"),
            ]
        )
        rows = _rows(manager, (1, 2, 3))
        allocation = manager.allocation
        manager.apply_batch(
            [("add", parse_transaction("R4[x] W4[a]")), ("remove", 4)]
        )
        assert manager.components == ((1, 2), (3,))
        assert all(
            row is rows[tid] for tid, row in _rows(manager, (1, 2, 3)).items()
        )
        assert manager.last_stats.checks == 0
        assert manager.allocation == allocation


class TestCanonicalView:
    def test_matches_conflict_components_after_churn(self):
        rng = random.Random(7)
        manager = AllocationManager()
        objects = [f"o{i}" for i in range(8)]
        for step in range(120):
            if len(manager.workload) and rng.random() < 0.45:
                manager.remove(rng.choice(manager.workload.tids))
            else:
                tid = step + 1
                reads = rng.sample(objects, rng.randint(0, 2))
                writes = rng.sample(objects, rng.randint(1, 2))
                text = " ".join(
                    [f"R{tid}[{o}]" for o in reads]
                    + [f"W{tid}[{o}]" for o in writes]
                )
                manager.add(parse_transaction(text))
            workload = manager.workload
            expected = conflict_components(workload)
            assert manager.components == expected, f"diverged at step {step}"
            context = manager.context
            for members in expected:
                assert all(context.component_of[t].tids == members for t in members)
                assert [context.bit[t] for t in members] == list(range(len(members)))


class TestManagerSingletonRemoval:
    """Removing an isolated transaction builds no conflict index and
    spends no robustness check."""

    def test_zero_index_builds(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        manager.add(parse_transaction("R9[solo] W9[solo]"))
        manager.remove(9)
        stats = manager.last_stats.as_dict()
        assert stats["index_builds"] == 0
        assert stats["checks"] == 0
        assert {
            tid: level.name for tid, level in manager.allocation.items()
        } == {1: "SSI", 2: "SSI"}
