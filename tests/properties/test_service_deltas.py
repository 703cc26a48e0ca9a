"""A client can follow the allocation from the replies' ``changed`` alone.

Protocol 4 answers a single ``add`` or ``remove`` with ``changed``, the
levels the request changed, instead of the whole allocation.  A client
that keeps its own copy — updated only from those replies, dropping a
removed tid before applying ``changed``, and re-read with ``allocate``
after a coalesced batch — must hold exactly what ``allocate`` answers
after every request.  It runs under no admission policy and under
``max_promotions=0`` in reject and in queue mode, so refused adds,
rollbacks and queue retries are all followed through ``changed``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AdmissionPolicy, ServiceConfig, ServiceCore

TEXTS = ("R[x] W[y]", "R[y] W[x]", "R[x] W[x]", "R[y] W[z]", "R[z] W[x]", "R[u]")
TIDS = st.integers(min_value=1, max_value=6)

ENTRIES = st.one_of(
    st.builds(
        lambda tid, text: {"op": "add", "transaction": text, "tid": tid},
        TIDS,
        st.sampled_from(TEXTS),
    ),
    st.builds(lambda tid: {"op": "remove", "tid": tid}, TIDS),
)

REQUESTS = st.one_of(
    ENTRIES,
    st.builds(
        lambda commands: {"op": "batch", "commands": commands},
        st.lists(ENTRIES, min_size=1, max_size=4),
    ),
)

POLICIES = {
    "none": AdmissionPolicy(),
    "reject": AdmissionPolicy(max_promotions=0),
    "queue": AdmissionPolicy(max_promotions=0, mode="queue"),
}


def _follow(copy, reply):
    """Update ``copy`` from one single add or remove reply."""
    if not reply["ok"]:
        return
    if reply["op"] == "remove":
        del copy[str(reply["tid"])]
    copy.update(reply["changed"])


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(requests=st.lists(REQUESTS, min_size=1, max_size=12))
def test_changed_replies_track_allocate(policy, requests):
    core = ServiceCore(ServiceConfig(admission=POLICIES[policy]))
    copy = {}
    for request in requests:
        reply = core.handle(request)
        if request["op"] != "batch":
            _follow(copy, reply)
        elif reply["coalesced"]:
            copy = core.handle({"op": "allocate"})["allocation"]
        else:
            for entry in reply["results"]:
                _follow(copy, entry)
        allocated = core.handle({"op": "allocate"})["allocation"]
        assert copy == allocated, (request, reply)
