"""Edge cases across the core: empty bodies, singletons, degenerate inputs."""

import pytest

from repro.core.allocation import (
    is_robustly_allocatable,
    optimal_allocation,
    refine_allocation,
    upgrade_to_robust,
)
from repro.core.allowed import allowed_under, is_allowed
from repro.core.isolation import POSTGRES_LEVELS, Allocation
from repro.core.robustness import (
    check_robustness,
    check_robustness_delta,
    enumerate_counterexamples,
    first_witness_spec,
    is_robust,
)
from repro.core.schedules import canonical_schedule, serial_schedule
from repro.core.serialization import is_conflict_serializable
from repro.core.transactions import Transaction
from repro.core.workload import Workload, workload


class TestCommitOnlyTransactions:
    """Transactions with empty bodies: first(T) is the commit itself."""

    def setup_method(self):
        self.wl = Workload([Transaction(1, []), Transaction(2, [])])

    def test_schedulable(self):
        s = serial_schedule(self.wl, [1, 2])
        assert is_conflict_serializable(s)

    def test_allowed_under_everything(self):
        s = serial_schedule(self.wl, [2, 1])
        for level in ("RC", "SI", "SSI"):
            assert is_allowed(s, Allocation.uniform(self.wl, level))

    def test_robust_under_everything(self):
        for level in ("RC", "SI", "SSI"):
            assert is_robust(self.wl, Allocation.uniform(self.wl, level))

    def test_optimal_is_rc(self):
        assert optimal_allocation(self.wl) == Allocation.rc(self.wl)


class TestMixedEmptyAndReal:
    def test_empty_transaction_never_blamed(self, write_skew):
        wl = Workload(list(write_skew) + [Transaction(3, [])])
        result = check_robustness(wl, Allocation.si(wl))
        assert not result.robust
        chain_tids = {q.tid_i for q in result.counterexample.spec.chain}
        assert 3 not in chain_tids


class TestWriteOnlyWorkloads:
    def test_blind_writer_pair(self):
        wl = workload("W1[x]", "W2[x]")
        # Blind write-write on one object is robust at every level: the
        # split needs a read (condition 4).
        for level in ("RC", "SI", "SSI"):
            assert is_robust(wl, Allocation.uniform(wl, level))

    def test_blind_writers_cycle_robust(self):
        wl = workload("W1[x] W1[y]", "W2[y] W2[x]")
        assert is_robust(wl, Allocation.rc(wl))


class TestReadOnlyWorkloads:
    def test_any_interleaving_serializable(self):
        wl = workload("R1[x] R1[y]", "R2[y] R2[x]")
        from repro.enumeration import interleavings

        alloc = Allocation.rc(wl)
        for order in interleavings(wl):
            s = canonical_schedule(wl, order, alloc)
            assert is_allowed(s, alloc)
            assert is_conflict_serializable(s)


class TestSingleObjectSaturation:
    def test_many_rmws_on_one_object(self):
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 7)])
        assert not is_robust(wl, Allocation.rc(wl))
        assert is_robust(wl, Allocation.si(wl))
        optimum = optimal_allocation(wl)
        assert optimum == Allocation.si(wl)

    def test_single_rc_in_rmw_group_breaks(self):
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 4)])
        broken = Allocation.si(wl).with_level(2, "RC")
        assert not is_robust(wl, broken)


class TestAllowedDegenerate:
    def test_schedule_over_empty_workload(self):
        wl = Workload([])
        s = canonical_schedule(wl, (), Allocation({}))
        report = allowed_under(s, Allocation({}))
        assert report.allowed
        assert is_conflict_serializable(s)

    def test_self_concurrency_is_false(self):
        wl = workload("R1[x]")
        s = serial_schedule(wl, [1])
        assert not s.concurrent(1, 1)


#: The door names an unknown engine; an entry point without ``method``
#: rejects the keyword itself, rather than absorbing it.
_UNKNOWN_ENGINE = (ValueError, "unknown method 'bogus'")
_NO_ENGINE = (TypeError, "unexpected keyword argument 'method'")

#: Every entry point that once took an engine name, as
#: ``(name, call(workload, method), expected error)``.  Only
#: ``check_robustness`` still takes ``method=``, the door to
#: :mod:`repro.core.reference`; the others run the bitset kernel and
#: take no engine at all.
_METHOD_ENTRY_POINTS = (
    (
        "check_robustness",
        lambda wl, m: check_robustness(wl, Allocation.si(wl), method=m),
        _UNKNOWN_ENGINE,
    ),
    (
        "check_robustness_delta",
        lambda wl, m: check_robustness_delta(wl, Allocation.si(wl), 1, method=m),
        _NO_ENGINE,
    ),
    (
        "first_witness_spec",
        lambda wl, m: first_witness_spec(wl, Allocation.si(wl), method=m),
        _NO_ENGINE,
    ),
    ("is_robust", lambda wl, m: is_robust(wl, Allocation.si(wl), method=m), _NO_ENGINE),
    (
        "enumerate_counterexamples",
        lambda wl, m: list(enumerate_counterexamples(wl, Allocation.si(wl), method=m)),
        _NO_ENGINE,
    ),
    (
        "refine_allocation",
        lambda wl, m: refine_allocation(wl, Allocation.ssi(wl), POSTGRES_LEVELS, method=m),
        _NO_ENGINE,
    ),
    ("optimal_allocation", lambda wl, m: optimal_allocation(wl, method=m), _NO_ENGINE),
    (
        "is_robustly_allocatable",
        lambda wl, m: is_robustly_allocatable(wl, POSTGRES_LEVELS, method=m),
        _NO_ENGINE,
    ),
    (
        "upgrade_to_robust",
        lambda wl, m: upgrade_to_robust(wl, Allocation.si(wl), method=m),
        _NO_ENGINE,
    ),
)

_METHOD_WORKLOADS = {
    "empty": Workload([]),
    "all-singleton": workload("R1[a] W1[b]", "R2[c] W2[d]", "R3[e]"),
    "one-component": workload("R1[x] W1[y]", "R2[y] W2[x]"),
    "multi-component": workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[p] W3[p]"),
}


@pytest.mark.parametrize("shape", sorted(_METHOD_WORKLOADS))
@pytest.mark.parametrize(
    "entry",
    [(call, expected) for _, call, expected in _METHOD_ENTRY_POINTS],
    ids=[name for name, _, _ in _METHOD_ENTRY_POINTS],
)
def test_unknown_method_is_rejected(entry, shape):
    """An unknown engine name fails before any work, whatever the workload's
    shape: the door names it with ``ValueError``, and every other entry
    point rejects ``method=`` itself with ``TypeError``."""
    call, (error, message) = entry
    with pytest.raises(error, match=message):
        call(_METHOD_WORKLOADS[shape], "bogus")


def test_only_check_robustness_takes_method():
    """Of the public functions and methods of the analysis modules, only
    ``check_robustness`` has a ``method`` parameter."""
    import inspect

    import repro.core as core
    from repro.core import allocation, incremental, robustness

    names = [(core, name) for name in core.__all__]
    for module in (allocation, incremental, robustness):
        names += [(module, name) for name in vars(module) if not name.startswith("_")]
    takers = set()
    for module, name in names:
        value = getattr(module, name)
        members = [value]
        if inspect.isclass(value):
            members += [getattr(value, n) for n in vars(value) if not n.startswith("_")]
        for member in filter(callable, members):
            try:
                parameters = inspect.signature(member).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            if "method" in parameters:
                takers.add(f"{name}.{member.__name__}" if member is not value else name)
    assert takers == {"check_robustness"}
