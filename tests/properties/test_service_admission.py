"""Admission-control properties of the allocation service.

The headline property (the issue's satellite): when the service rejects
a transaction, the witness chain in the rejection envelope names only
currently-admitted transactions plus the rejected newcomer — never a
tid that was removed earlier.  This extends the delta lemma (every
witness of the delta check involves the delta transaction) and the
witness-adoption pruning guarantee out to the service boundary: an
operator can always act on the chain, because every named transaction
is still in the system.

A second pack of properties checks rejection is side-effect free: the
allocation after a rejected admission is value-identical to the one
before (unique optimum, Proposition 4.2).

A last property pins the one mutation path: a ``batch`` of adds and
removes ends in exactly the state — workload, allocation, queue and
per-entry verdicts — that the same entries reach sent one envelope
each, with and without an admission policy that can reject.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import read, write
from repro.service import AdmissionPolicy, ServiceConfig, ServiceCore

OBJECTS = ("x", "y", "z", "u")


@st.composite
def transaction_texts(draw):
    """A transaction body in the service's wire format, e.g. 'R[x] W[y]'."""
    count = draw(st.integers(min_value=1, max_value=3))
    objects = draw(
        st.lists(
            st.sampled_from(OBJECTS), min_size=count, max_size=count, unique=True
        )
    )
    parts = []
    for obj in objects:
        mode = draw(st.sampled_from(("r", "w", "rw")))
        if mode in ("r", "rw"):
            parts.append(f"R[{obj}]")
        if mode in ("w", "rw"):
            parts.append(f"W[{obj}]")
    return " ".join(parts)


@st.composite
def churn_scripts(draw):
    """A churn history: (text, keep) per arrival; dropped tids removed."""
    arrivals = draw(
        st.lists(
            st.tuples(transaction_texts(), st.booleans()), min_size=2, max_size=7
        )
    )
    return arrivals


@settings(max_examples=40, deadline=None)
@given(script=churn_scripts(), probe=transaction_texts())
def test_rejection_witness_names_only_admitted_tids(script, probe):
    core = ServiceCore(
        ServiceConfig(admission=AdmissionPolicy(max_promotions=0))
    )
    for tid, (text, keep) in enumerate(script, start=1):
        response = core.handle(
            {"op": "add", "transaction": text, "tid": tid}
        )
        assert response["ok"], response
        if response["admitted"] and not keep:
            assert core.handle({"op": "remove", "tid": tid})["ok"]
    admitted = set(core.manager.workload.tids)

    probe_tid = len(script) + 1
    response = core.handle(
        {"op": "add", "transaction": probe, "tid": probe_tid}
    )
    assert response["ok"], response
    if response["admitted"]:
        return  # nothing to assert: no rejection, no witness
    witness = response["witness"]
    if witness is None:
        return  # floor-style rejections need no chain
    named = set(witness["tids"])
    assert probe_tid in named, "the chain must involve the newcomer"
    assert named <= admitted | {probe_tid}, (
        f"witness names {sorted(named - admitted - {probe_tid})},"
        f" which are not admitted (admitted: {sorted(admitted)})"
    )
    for tid_i, _b, _a, tid_j in witness["chain"]:
        assert {tid_i, tid_j} <= admitted | {probe_tid}


@settings(max_examples=40, deadline=None)
@given(script=churn_scripts(), probe=transaction_texts())
def test_rejection_is_side_effect_free(script, probe):
    core = ServiceCore(
        ServiceConfig(admission=AdmissionPolicy(max_promotions=0))
    )
    for tid, (text, _keep) in enumerate(script, start=1):
        core.handle({"op": "add", "transaction": text, "tid": tid})
    before = core.handle({"op": "allocate"})["allocation"]

    probe_tid = len(script) + 1
    response = core.handle(
        {"op": "add", "transaction": probe, "tid": probe_tid}
    )
    if response["admitted"]:
        return
    after = core.handle({"op": "allocate"})["allocation"]
    assert after == before, "a rejected admission must roll back exactly"
    assert probe_tid not in core.manager.workload


@settings(max_examples=25, deadline=None)
@given(script=churn_scripts())
def test_queue_mode_never_loses_transactions(script):
    """Every arrival is either admitted or queued — never dropped."""
    core = ServiceCore(
        ServiceConfig(
            admission=AdmissionPolicy(max_promotions=0, mode="queue")
        )
    )
    for tid, (text, _keep) in enumerate(script, start=1):
        response = core.handle({"op": "add", "transaction": text, "tid": tid})
        assert response["ok"]
        if not response["admitted"]:
            assert response["queued"]
    accounted = set(core.manager.workload.tids) | set(core.queued_tids)
    assert accounted == set(range(1, len(script) + 1))


@st.composite
def batch_entries(draw, first_tid):
    """Add/remove envelopes: fresh adds, removes of any earlier tid
    (present, removed, refused or unknown) and duplicate adds."""
    entries = []
    tids = list(range(1, first_tid))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        roll = draw(st.integers(min_value=0, max_value=9))
        if roll < 3 and tids:
            entries.append({"op": "remove", "tid": draw(st.sampled_from(tids))})
        elif roll == 3 and tids:
            tid = draw(st.sampled_from(tids))
            entries.append({"op": "add", "transaction": "R[x]", "tid": tid})
        else:
            tid = first_tid + len(entries)
            tids.append(tid)
            text = draw(transaction_texts())
            entries.append({"op": "add", "transaction": text, "tid": tid})
    return entries


def _state(core):
    return (
        core.manager.workload.tids,
        dict(core.manager.allocation.items()),
        core.queued_tids,
    )


@pytest.mark.parametrize(
    "policy",
    [
        AdmissionPolicy(),
        AdmissionPolicy(max_promotions=0),
        AdmissionPolicy(max_promotions=0, mode="queue"),
    ],
    ids=["no-policy", "reject", "queue"],
)
@settings(max_examples=30, deadline=None)
@given(script=churn_scripts(), data=st.data())
def test_batch_equals_separate_envelopes(policy, script, data):
    cores = [ServiceCore(ServiceConfig(admission=policy)) for _ in range(2)]
    for core in cores:
        for tid, (text, keep) in enumerate(script, start=1):
            core.handle({"op": "add", "transaction": text, "tid": tid})
            if not keep:
                core.handle({"op": "remove", "tid": tid})
    entries = data.draw(batch_entries(len(script) + 1))
    batched, separate = cores
    response = batched.handle({"op": "batch", "commands": entries})
    singles = [separate.handle(dict(entry)) for entry in entries]

    def verdicts(responses):
        return [(r["ok"], r.get("admitted"), r.get("queued")) for r in responses]

    assert verdicts(response["results"]) == verdicts(singles)
    assert _state(batched) == _state(separate)
    if response["coalesced"] == 0:  # entry by entry: the very same work
        assert response["checks"] == sum(r.get("checks", 0) for r in singles)
