"""Property tests for Theorem 3.2 and Algorithm 1 (experiment id T32).

Theorem 3.2: a workload is not robust against an allocation iff a
multiversion split schedule exists.  We verify both directions against
independent machinery:

* *soundness* — whenever Algorithm 1 reports non-robustness, the
  materialized split schedule really is allowed under the allocation
  (Definition 2.4 checker) and not conflict serializable (serialization
  graph);
* *completeness* — Algorithm 1 agrees with the brute-force enumeration of
  all interleavings on small workloads;
* the ``"paper"`` and ``"components"`` engines of
  :mod:`repro.core.reference` agree.
"""

from hypothesis import HealthCheck, assume, given, settings

import strategies as sts
from repro.core import reference
from repro.core.allowed import is_allowed
from repro.core.robustness import check_robustness, is_robust
from repro.core.serialization import is_conflict_serializable
from repro.core.split_schedule import condition_failures
from repro.enumeration import brute_force_check, count_interleavings

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(sts.allocated_workloads(max_transactions=4))
@settings(max_examples=150, **COMMON)
def test_counterexamples_are_sound(pair):
    """Every reported counterexample is allowed and non-serializable."""
    wl, alloc = pair
    result = check_robustness(wl, alloc)
    if result.robust:
        return
    ce = result.counterexample
    assert ce is not None
    assert not condition_failures(ce.spec, wl, alloc)
    assert is_allowed(ce.schedule, alloc), str(ce.schedule)
    assert not is_conflict_serializable(ce.schedule)


@given(sts.allocated_workloads(max_transactions=3, max_accesses=2))
@settings(max_examples=60, **COMMON)
def test_algorithm1_agrees_with_brute_force(pair):
    """Theorem 3.2 completeness on exhaustively-checkable workloads."""
    wl, alloc = pair
    assume(count_interleavings(wl) <= 100_000)
    fast = is_robust(wl, alloc)
    slow = brute_force_check(wl, alloc).robust
    assert fast == slow


@given(sts.allocated_workloads(max_transactions=4))
@settings(max_examples=60, **COMMON)
def test_methods_agree(pair):
    """The cached-components engine equals the verbatim Algorithm 1."""
    wl, alloc = pair
    assert (reference.first_witness_spec(wl, alloc, "components") is None) == (
        reference.first_witness_spec(wl, alloc, "paper") is None
    )


@given(sts.allocated_workloads(max_transactions=3, max_accesses=2))
@settings(max_examples=40, **COMMON)
def test_brute_force_counterexamples_are_genuine(pair):
    """The baseline's own counterexamples satisfy Definition 2.4."""
    wl, alloc = pair
    assume(count_interleavings(wl) <= 100_000)
    result = brute_force_check(wl, alloc)
    if result.counterexample is not None:
        assert is_allowed(result.counterexample, alloc)
        assert not is_conflict_serializable(result.counterexample)
